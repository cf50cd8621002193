"""List every statement of ``src/decopoles/`` that tier-1 never runs.

    python .github/scripts/line_probe.py [PYTEST_ARG ...]

Runs tier-1 (``pytest -q --continue-on-collection-errors`` on the
repository's own configuration, plus any arguments given) in this process,
under a line tracer set with ``sys.settrace`` and ``threading.settrace``.
Then it walks each module's ``ast`` and prints every statement none of
whose own lines ran, as ``<path>:<line>: <source line>``.  A statement's own
lines are its lines less those of the statements nested in it, so an ``if``
counts as run when its test ran, whichever branch was taken.  Docstrings
and ``def``/``class`` headers are not listed, nor are ``global`` and
``nonlocal``, which run no code.  Code that runs only in a child
interpreter is not seen.

A statement that tier-1 cannot reach carries a trailing
``# probe: <reason>`` comment on one of its own lines.  The script exits 1
if pytest fails or if a statement that never ran has no such comment, and
0 otherwise; marked statements are listed all the same.
"""

from __future__ import annotations

import ast
import collections
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PACKAGE = os.path.join(ROOT, "src", "decopoles")
MARKER = "# probe:"
_HEADERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_NO_CODE = (ast.Global, ast.Nonlocal)


def _bodies(node) -> list:
    """The statement lists nested in ``node``: its bodies, ``else`` and ``finally``, handlers and cases."""
    bodies = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
    return bodies + [h.body for h in getattr(node, "handlers", ())] + [c.body for c in getattr(node, "cases", ())]


def _statements(owner, body):
    """(statement, its own line numbers) of every statement listed in ``body`` and below, in source order."""
    for k, node in enumerate(body):
        nested = _bodies(node)
        docstring = (
            k == 0
            and isinstance(owner, (ast.Module, *_HEADERS))
            and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        )
        if not (docstring or isinstance(node, _HEADERS + _NO_CODE)):
            own = set(range(node.lineno, node.end_lineno + 1))
            for child in (c for b in nested for c in b):
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
                own -= set(range(first, child.end_lineno + 1))
            yield node, own or {node.lineno}  # a one-line compound statement shares its line
        for b in nested:
            yield from _statements(node, b)


def _run_tier1(args) -> tuple:
    """(pytest's exit code, {path: set of lines that ran}) of tier-1 run under the tracer."""
    hits = collections.defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE + os.sep) else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def _unrun(source: str, ran: set) -> list:
    """(line, stripped source line, marked) of each listed statement of ``source`` none of whose own lines is in ``ran``."""
    text, tree = source.splitlines(), ast.parse(source)
    return [
        (node.lineno, text[node.lineno - 1].strip(), any(MARKER in text[n - 1] for n in own))
        for node, own in _statements(tree, tree.body)
        if not own & ran
    ]


def main(argv) -> int:
    code, hits = _run_tier1(argv)
    unmarked = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as f:
                unrun = _unrun(f.read(), hits.get(path, set()))
            for line, statement, marked in unrun:
                unmarked += not marked
                print(f"{os.path.relpath(path, ROOT)}:{line}: {statement}")
    if code:
        print(f"line probe: pytest exited {code}")
    if unmarked:
        print(f"line probe: {unmarked} statement(s) never ran and carry no '{MARKER} <reason>' comment")
    return 1 if code or unmarked else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
