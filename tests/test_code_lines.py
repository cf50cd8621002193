"""The code-line count of .github/scripts/code_lines.py, on canned source."""

import importlib.util
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("code_lines", os.path.join(ROOT, ".github", "scripts", "code_lines.py"))
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
import math  # a trailing comment keeps its line

# a comment-only line


def f(x):
    """Function docstring."""
    text = """a string that is not a docstring
    spans two lines"""
    return math.sqrt(x), text


class K:
    """Class docstring."""

    def g(self):
        """Method docstring,

        with a blank line inside."""
        pass
'''


class TestCount:
    def test_counts_code_lines_only(self):
        # import, def f, text's two lines, return, class K, def g, pass
        assert code_lines.code_lines(SOURCE) == 8

    def test_a_string_after_the_first_statement_is_code(self):
        assert code_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2

    def test_source_without_docstrings_counts_every_nonblank_line(self):
        assert code_lines.code_lines("a = 1\n\nb = 2\n    # indented comment\n") == 2


class TestMain:
    def test_prints_both_trees_and_the_change(self, capsys, monkeypatch):
        monkeypatch.setattr(code_lines, "_sources", lambda base=None: [SOURCE] if base else [SOURCE, "x = 1\n"])
        assert code_lines.main(["BASE"]) == 0
        assert capsys.readouterr().out == (
            "src/ base: 22 lines, 8 code lines\n"
            "src/ head: 23 lines, 9 code lines\n"
            "src/ change: +1 lines, +1 code lines\n"
        )

    def test_an_unknown_base_or_none_prints_nothing(self, capsys, monkeypatch):
        def unknown(*args):
            raise subprocess.CalledProcessError(128, ["git", *args])

        monkeypatch.setattr(code_lines, "_git", unknown)
        assert code_lines.main(["0" * 40]) == 0
        assert code_lines.main([]) == 0
        assert capsys.readouterr().out == ""
