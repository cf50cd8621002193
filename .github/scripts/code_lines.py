"""Print the Python lines of ``src/`` at a base commit and in the working tree, with and without docstrings.

    python .github/scripts/code_lines.py BASE

Prints one line per tree, ``src/ <tree>: <n> lines, <m> code lines``, then
the change in each count.  A code line is a line that is not blank, not
a comment only, and not part of a docstring: the string that opens a
module, class or function body, found with ``ast``.  It is informational
and always exits 0; an unknown base (or none) prints nothing, as does a
tree whose source does not parse.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that are not blank, comment-only or in a docstring."""
    skip = _docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def _sources(base=None) -> list:
    """The text of every ``.py`` file under ``src/``, at ``base`` or in the working tree."""
    if base is not None:
        paths = [p for p in _git("ls-tree", "-r", "--name-only", base, "--", "src/").splitlines() if p.endswith(".py")]
        return [_git("show", f"{base}:{p}") for p in paths]
    texts = []
    for folder, _, names in os.walk(os.path.join(ROOT, "src")):
        for name in sorted(n for n in names if n.endswith(".py")):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                texts.append(fh.read())
    return texts


def _counts(texts) -> tuple:
    return sum(len(t.splitlines()) for t in texts), sum(code_lines(t) for t in texts)


def main(argv) -> int:
    if len(argv) != 1:
        return 0
    try:
        base, head = _counts(_sources(argv[0])), _counts(_sources())
    except (subprocess.CalledProcessError, OSError, SyntaxError):
        return 0
    for tree, (lines, code) in (("base", base), ("head", head)):
        print(f"src/ {tree}: {lines} lines, {code} code lines")
    print(f"src/ change: {head[0] - base[0]:+d} lines, {head[1] - base[1]:+d} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
