"""The line probe's statement listing, .github/scripts/line_probe.py, on canned source and line sets."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("line_probe", os.path.join(ROOT, ".github", "scripts", "line_probe.py"))
line_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_probe)

SOURCE = '''"""Module docstring."""
import math


@staticmethod
def f(x):
    """Function docstring."""
    global COUNT
    if x > 0:
        return math.sqrt(x)
    elif x == 0:
        return 0.0
    try:
        y = -x
    except ValueError:
        raise
    return (
        y
    )


class K:
    """Class docstring."""

    size: int = 3
'''
# lines an import and a call f(-1) could report: neither branch, nor the raise, nor the return's first line
RAN = {2, 5, 6, 9, 11, 13, 14, 18, 22, 25}


class TestListing:
    def test_lists_the_statements_that_never_ran(self):
        assert line_probe._unrun(SOURCE, RAN) == [
            (10, "return math.sqrt(x)", False),
            (12, "return 0.0", False),
            (16, "raise", False),
        ]

    def test_a_statement_runs_by_its_own_lines_only(self):
        # the if's body and its elif are not its own lines: without line 9 it never ran
        assert [line for line, _, _ in line_probe._unrun(SOURCE, RAN - {9})] == [9, 10, 12, 16]

    def test_a_marker_on_an_own_line_marks_it(self):
        marked = SOURCE.replace("raise\n", "raise  # probe: no input reaches it\n")
        assert line_probe._unrun(marked, RAN)[-1] == (16, "raise  # probe: no input reaches it", True)

    def test_docstrings_headers_and_globals_are_not_listed(self):
        lines = [line for line, _, _ in line_probe._unrun(SOURCE, set())]
        assert lines == [2, 9, 10, 11, 12, 13, 14, 16, 17, 25]
