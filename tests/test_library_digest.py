"""The library digest script's move report, .github/scripts/library_digest.py, on canned leaves."""

import importlib.util
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("library_digest", os.path.join(ROOT, ".github", "scripts",
                                                                            "library_digest.py"))
library_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(library_digest)

PROFILE = np.dtype([("t", float), ("angle", float), ("reliable", bool)])


def profile(angles, reliable=(True, True, False)):
    return np.array(list(zip((0.0, 1.0, 2.0), angles, reliable)), dtype=PROFILE)


class TestLargestMove:
    def test_record_array_reports_its_largest_field_move(self):
        base = profile((0.5, 0.25, 0.125))
        head = profile((0.5 + 2.0**-52, 0.25, 0.125 + 2.0**-55))
        assert library_digest._largest_move("result.profile", head, base) == 2.0**-52
        assert library_digest._largest_move("result.profile", base, base.copy()) == 0.0

    def test_a_flipped_flag_moves_by_one(self):
        base = profile((0.5, 0.25, 0.125))
        head = profile((0.5, 0.25, 0.125), reliable=(True, False, False))
        assert library_digest._largest_move("result.profile", head, base) == 1.0

    def test_renamed_fields_read_as_a_dtype_change(self):
        base = profile((0.5, 0.25, 0.125))
        head = base.astype([("t", float), ("theta", float), ("reliable", bool)])
        move = library_digest._largest_move("result.profile", head, base)
        assert isinstance(move, str) and "->" in move

    def test_an_added_field_is_named_and_each_shared_field_reported(self):
        base = profile((0.5, 0.25, 0.125))
        head = np.array(list(zip((0.0, 1.0, 2.0), (0.5, 0.25 + 2.0**-54, 0.125), (True, True, False), (1.0, 2.0, 3.0))),
                        dtype=PROFILE.descr + [("estimate", float)])
        assert library_digest._reported_moves("result.profile", head, base) == [
            ("result.profile.t", 0.0), ("result.profile.angle", 2.0**-54), ("result.profile.reliable", 0.0),
            ("result.profile", "+estimate"),
        ]
        # same fields: one line, the largest move; a base field missing: one line, the dtype word
        assert library_digest._reported_moves("result.profile", base, base.copy()) == [("result.profile", 0.0)]
        renamed = base.astype([("t", float), ("theta", float), ("reliable", bool)])
        assert "->" in library_digest._reported_moves("result.profile", renamed, base)[0][1]

    def test_plain_arrays_keep_their_entrywise_move(self):
        base = np.array([1.0, 2.0, 3.0])
        assert library_digest._largest_move("result.x", base + [0.0, 0.5, 0.0], base) == 0.5
        assert library_digest._largest_move("result.x", np.asarray("None"), np.asarray("None")) == 0.0
