"""The digest script, .github/scripts/digest.py: its move report on canned leaves, its comparison of two
canned runs, and ``--root`` on a planted copy of this tree."""

import importlib.util
import os
import shutil
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, ".github", "scripts", "digest.py")
_spec = importlib.util.spec_from_file_location("digest", SCRIPT)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

PROFILE = np.dtype([("t", float), ("angle", float), ("reliable", bool)])


def profile(angles, reliable=(True, True, False)):
    return np.array(list(zip((0.0, 1.0, 2.0), angles, reliable)), dtype=PROFILE)


class TestLargestMove:
    def test_record_array_reports_its_largest_field_move(self):
        base = profile((0.5, 0.25, 0.125))
        head = profile((0.5 + 2.0**-52, 0.25, 0.125 + 2.0**-55))
        assert digest._largest_move("result.profile", head, base) == 2.0**-52
        assert digest._largest_move("result.profile", base, base.copy()) == 0.0

    def test_a_flipped_flag_moves_by_one(self):
        base = profile((0.5, 0.25, 0.125))
        head = profile((0.5, 0.25, 0.125), reliable=(True, False, False))
        assert digest._largest_move("result.profile", head, base) == 1.0

    def test_renamed_fields_read_as_a_dtype_change(self):
        base = profile((0.5, 0.25, 0.125))
        head = base.astype([("t", float), ("theta", float), ("reliable", bool)])
        move = digest._largest_move("result.profile", head, base)
        assert isinstance(move, str) and "->" in move

    def test_an_added_field_is_named_and_each_shared_field_reported(self):
        base = profile((0.5, 0.25, 0.125))
        head = np.array(list(zip((0.0, 1.0, 2.0), (0.5, 0.25 + 2.0**-54, 0.125), (True, True, False), (1.0, 2.0, 3.0))),
                        dtype=PROFILE.descr + [("estimate", float)])
        assert digest._reported_moves("result.profile", head, base) == [
            ("result.profile.t", 0.0), ("result.profile.angle", 2.0**-54), ("result.profile.reliable", 0.0),
            ("result.profile", "+estimate"),
        ]
        # same fields: one line, the largest move; a base field missing: one line, the dtype word
        assert digest._reported_moves("result.profile", base, base.copy()) == [("result.profile", 0.0)]
        renamed = base.astype([("t", float), ("theta", float), ("reliable", bool)])
        assert "->" in digest._reported_moves("result.profile", renamed, base)[0][1]

    def test_plain_arrays_keep_their_entrywise_move(self):
        base = np.array([1.0, 2.0, 3.0])
        assert digest._largest_move("result.x", base + [0.0, 0.5, 0.0], base) == 0.5
        assert digest._largest_move("result.x", np.asarray("None"), np.asarray("None")) == 0.0


BASE_RUN = [
    "cli_write seed=1 rung=0 N=10 out.csv " + "a" * 64,
    "cli_write.stdio seed=1 rung=0 N=10 stdout " + "b" * 64,
    "cli_write.stdio seed=1 rung=0 N=10 stderr " + "c" * 64,
]


def diff_of(tmp_path, capsys, base, head):
    """(exit status, stdout, stderr) of ``digest.py diff`` on two canned runs."""
    paths = []
    for name, lines in (("base.txt", base), ("head.txt", head)):
        paths.append(tmp_path / name)
        paths[-1].write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    code = digest.diff(*paths)
    out, err = capsys.readouterr()
    return code, out, err


class TestDiff:
    def test_a_changed_file_digest_fails(self, tmp_path, capsys):
        head = [BASE_RUN[0][:-64] + "d" * 64] + BASE_RUN[1:]
        assert diff_of(tmp_path, capsys, BASE_RUN, head) == (
            1, f"- {BASE_RUN[0]}\n+ {head[0]}\n", "2 ops in both runs, 1 with different output\n")

    def test_an_op_in_one_run_only_is_printed_but_not_failed(self, tmp_path, capsys):
        added = "cli_write seed=1 rung=1 N=20 exit=2"
        assert diff_of(tmp_path, capsys, BASE_RUN, BASE_RUN + [added]) == (
            0, f"+ {added}\n", "2 ops in both runs, 0 with different output\n")

    def test_a_changed_stdout_digest_fails_its_op(self, tmp_path, capsys):
        head = BASE_RUN[:1] + [BASE_RUN[1][:-64] + "d" * 64] + BASE_RUN[2:]
        code, _, err = diff_of(tmp_path, capsys, BASE_RUN, head)
        assert (code, err) == (1, "2 ops in both runs, 1 with different output\n")

    def test_equal_runs_pass(self, tmp_path, capsys):
        assert diff_of(tmp_path, capsys, BASE_RUN, BASE_RUN[::-1]) == (
            0, "", "2 ops in both runs, 0 with different output\n")


class TestRoot:
    def test_another_checkout_is_digested_with_its_own_code(self, tmp_path):
        """A copy of src/ and perfbench/ whose ``DensityMatrix.min_eigenvalue`` is planted off by one digests
        differently where a chain reads it, the fock eigenbasis, and with this tree's bits elsewhere."""
        for folder in ("src", "perfbench"):
            shutil.copytree(os.path.join(ROOT, folder), tmp_path / folder,
                            ignore=shutil.ignore_patterns("__pycache__"))
        numerics = tmp_path / "src" / "decopoles" / "numerics.py"
        source = numerics.read_text(encoding="utf-8")
        exact = "return float(np.linalg.eigvalsh(self.entries)[0])"
        assert exact in source
        numerics.write_text(source.replace(exact, exact + " + 1.0"), encoding="utf-8")

        def lines(*root):
            run = subprocess.run([sys.executable, SCRIPT, *root, "library", "1"], check=True,
                                 capture_output=True, text=True)
            return dict(line.rsplit(maxsplit=1) for line in run.stdout.splitlines())

        here, planted = lines(), lines("--root", str(tmp_path))
        assert here.keys() == planted.keys() and len(here) == 10
        for key in here:
            assert (here[key] == planted[key]) == key.startswith("frame_convergence"), key
