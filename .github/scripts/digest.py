"""Digest the benchmark's CLI ops or library chains, compare two runs, and say how library results moved.

    python .github/scripts/digest.py [--root DIR] cli [SEED ...]       # seeds 1 7 101 by default
    python .github/scripts/digest.py [--root DIR] library [SEED ...]
    python .github/scripts/digest.py diff BASE.txt HEAD.txt
    python .github/scripts/digest.py moved BASE_ROOT BASE.txt HEAD.txt

``cli`` prints one sha256 per output file of every ``cli_write`` and ``cli_extract`` op at the
benchmark's full scale, ``<workload> seed=<seed> rung=<rung> N=<N> <file> <sha256>``; an op that
exits nonzero prints ``exit=<code>`` in place of its files.  Each op also prints
``<workload>.stdio seed=<seed> rung=<rung> N=<N> stdout <sha256>`` and the same line for
``stderr``, the digests of what it printed.  The inputs (configs, signal and density CSVs) are
generated into a temporary directory, and each op runs ``decopoles.cli.main`` in this process.

``library`` prints ``<chain> seed=<seed> rung=<rung> N=<N> <sha256>`` per ``perfbench/libops.py``
chain, seed and rung.  The digest covers every array the chain returns: each leaf's path, dtype,
shape and bytes, with dict keys and dataclass fields taken in a fixed order.

Two trees whose lines are equal write the same bytes, print the same text and return the same
bits.  Digests may legitimately differ between numpy versions, so compare trees on one
installation only.  ``--root DIR`` imports ``src/`` and ``perfbench/`` from the checkout at DIR in
place of this one, so one version of this script digests a base commit and its head.  Of a
checkout it reads ``decopoles.cli.main``, ``workloads.build``, ``workloads.CLI_WORKLOADS``, each
op's ``index``, ``size``, ``params``, ``argv`` and ``outdir``, and ``libops.CHAINS``: a benchmark
change must keep these readable.

``diff`` compares two runs of one mode, a base tree's and a head tree's.  The first four fields of
a line name the op and the rest is its output, so a ``.stdio`` line belongs to an op of its own.
Lines found in one run only are printed, ``-`` for the base and ``+`` for the head.  The exit
status is 1 when an op that both runs hold differs: a library op or a file with two digests, a
file written by one run only, or an exit in one run only.  An op in one run only (a rung the
workload gained or lost) is printed but not failed.

``moved`` reads two library runs, and for each op both hold with different digests it prints the
op, then the largest entrywise |head - base| of each result leaf, list indices folded
(``rho[*]`` is the largest over every ``rho[k]``); a record array's is the largest over its
fields, or, where the head adds fields to the base's, one line per shared field and the added
ones by name (``+estimate``).  Eigenvalue leaves are compared as sorted sets, so tracks permuted
inside a degenerate cluster read as no move; eigenvectors are compared as they are.  It runs the
moved ops on this tree and, in a child process of this script (``--root BASE_ROOT dump``), on
the checkout at BASE_ROOT.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _leaves(value, path="result"):
    """(path, array) for every leaf of a chain's result."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _leaves(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, np.asarray(value)


def _digest(result) -> str:
    """The sha256 of every leaf of a chain's result: its path, dtype, shape and bytes."""
    h = hashlib.sha256()
    for path, arr in _leaves(result):
        h.update(f"{path} {arr.dtype.str} {arr.shape}\n".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _cli_outputs(op) -> list:
    """(name suffix, output) per line of one CLI op: ("", "<file> <sha256>") per output file, or
    ("", "exit=<code>"); then (".stdio", "stdout <sha256>") and the same for stderr."""
    from decopoles import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(op.argv))
    files = [f"exit={code}"] if code else [f"{name} {_sha256(pathlib.Path(op.outdir, name).read_bytes())}"
                                           for name in sorted(os.listdir(op.outdir))]
    stdio = [f"{name} {_sha256(text.getvalue().encode())}" for name, text in (("stdout", stdout), ("stderr", stderr))]
    return [("", line) for line in files] + [(".stdio", line) for line in stdio]


def digests(mode: str, seeds) -> int:
    """Print each op's lines, ``<name> seed=<seed> rung=<rung> N=<N> <output>``, workloads in order."""
    import libops
    import workloads

    for name in workloads.CLI_WORKLOADS if mode == "cli" else sorted(libops.CHAINS):
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                for op in sorted(workloads.build(name, seed, "full", workdir), key=lambda op: op.index):
                    lines = _cli_outputs(op) if mode == "cli" else [("", _digest(libops.CHAINS[name](op.params)))]
                    for suffix, output in lines:
                        print(f"{name}{suffix} seed={seed} rung={op.index} N={op.size} {output}")
    return 0


def _read(path: str) -> set:
    with open(path, encoding="utf-8") as lines:
        return {line.strip() for line in lines if line.strip()}


def _ops(lines) -> dict:
    """(workload or chain, seed, rung, N) -> the sorted output lines of that op: "<file> <sha256>" or "<sha256>"."""
    ops: dict = {}
    for line in lines:
        fields = line.split()
        ops.setdefault(tuple(fields[:4]), []).append(" ".join(fields[4:]))
    return {op: sorted(files) for op, files in ops.items()}


def diff(base_txt: str, head_txt: str) -> int:
    base, head = _read(base_txt), _read(head_txt)
    for line in sorted(base - head):
        print(f"- {line}")
    for line in sorted(head - base):
        print(f"+ {line}")
    base_ops, head_ops = _ops(base), _ops(head)
    shared = base_ops.keys() & head_ops.keys()
    changed = [op for op in shared if base_ops[op] != head_ops[op]]
    print(f"{len(shared)} ops in both runs, {len(changed)} with different output", file=sys.stderr)
    return 1 if changed else 0


def _leaf_arrays(keys, workdir) -> dict:
    """{"<op key> <leaf path>": array} for each op key "<chain> seed=<seed> rung=<rung> N=<N>"."""
    import libops
    import workloads

    out = {}
    for key in keys:
        chain, seed, rung, _ = key.split()
        ops = workloads.build(chain, int(seed[5:]), "full", workdir)
        op = next(op for op in ops if op.index == int(rung[5:]))
        for path, arr in _leaves(libops.CHAINS[chain](op.params)):
            out[f"{key} {path}"] = np.asarray(str(arr)) if arr.dtype == object else arr  # None: no pickles
    return out


def _largest_move(path: str, head: np.ndarray, base: np.ndarray):
    """max |head - base| over the entries as a float, or a word where no number applies.

    A record array (``convergence_profile``'s) is compared field by field:
    the largest move over its fields, or the first field's word.
    """
    if head.shape != base.shape or head.dtype.kind != base.dtype.kind or head.dtype.names != base.dtype.names:
        return f"{base.dtype.str}{base.shape}->{head.dtype.str}{head.shape}"
    if head.dtype.names:
        moves = [_largest_move(f"{path}.{name}", head[name], base[name]) for name in head.dtype.names]
        words = [m for m in moves if isinstance(m, str)]
        return words[0] if words else max(moves, default=0.0)
    if head.dtype.kind not in "biufc":  # a None, as its str
        return 0.0 if np.array_equal(head, base) else "differs"
    if path.endswith(".eigenvalues"):
        head, base = np.sort(head, axis=-1), np.sort(base, axis=-1)
    kind = complex if head.dtype.kind == "c" else float
    head, base = head.astype(kind), base.astype(kind)
    with np.errstate(invalid="ignore"):  # inf - inf where the two infinities agree
        return float(np.max(np.where(head == base, 0.0, np.abs(head - base)), initial=0.0))


def _reported_moves(path: str, head: np.ndarray, base: np.ndarray):
    """(path, move) per reported line of one leaf.

    A record array whose fields include all of the base's and more is reported field by field, each
    shared field as ``_largest_move`` reports it and each added one by name, ``+<field>``; any other
    leaf is one ``_largest_move``, so a record array missing a base field reads as a dtype change.
    """
    names, base_names = head.dtype.names or (), base.dtype.names or ()
    added = [name for name in names if name not in base_names]
    if not base_names or not added or not set(base_names) <= set(names) or head.shape != base.shape:
        return [(path, _largest_move(path, head, base))]
    shared = [(f"{path}.{name}", _largest_move(f"{path}.{name}", head[name], base[name])) for name in base_names]
    return shared + [(path, f"+{name}") for name in added]


def moved(base_root: str, base_txt: str, head_txt: str) -> int:
    base, head = (dict(line.rsplit(maxsplit=1) for line in _read(path)) for path in (base_txt, head_txt))
    keys = sorted(key for key in base.keys() & head.keys() if base[key] != head[key])
    print(f"{len(keys)} library ops moved")
    if not keys:
        return 0
    with tempfile.TemporaryDirectory() as workdir:
        npz = os.path.join(workdir, "base.npz")
        subprocess.run([sys.executable, os.path.abspath(__file__), "--root", base_root, "dump", npz, *keys],
                       check=True)
        with np.load(npz) as saved:
            base_leaves = {name: saved[name] for name in saved.files}
        head_leaves = _leaf_arrays(keys, workdir)
    for key in keys:
        print(f"~ {key}")
        folded: dict = {}
        for name, arr in head_leaves.items():
            if name.startswith(key + " "):
                path = name[len(key) + 1 :]
                base_arr = base_leaves.get(name)
                moves = [(path, "head-only")] if base_arr is None else _reported_moves(path, arr, base_arr)
                for line, move in moves:
                    folded.setdefault(re.sub(r"\[\d+\]", "[*]", line), []).append(move)
        for path, moves in folded.items():
            numbers = [m for m in moves if isinstance(m, float)]
            words = sorted({m for m in moves if isinstance(m, str)})
            print(f"    {path}", *([f"{max(numbers):.3e}"] if numbers else []), *words)
    return 0


def dump(npz: str, *keys) -> int:
    """Save every leaf of each op key's result into ``npz``: ``moved``'s child, on the base checkout."""
    with tempfile.TemporaryDirectory() as workdir:
        np.savez(npz, **_leaf_arrays(keys, workdir))
    return 0


def main(argv) -> int:
    root, argv = (argv[1], argv[2:]) if argv[:1] == ["--root"] else (ROOT, argv)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    sys.dont_write_bytecode = True  # the checkouts are only read
    mode, args = argv[0] if argv else "", argv[1:]
    if mode in ("cli", "library"):
        return digests(mode, [int(s) for s in args] or [1, 7, 101])
    if mode == "diff" and len(args) == 2:
        return diff(*args)
    if mode == "moved" and len(args) == 3:
        return moved(*args)
    if mode == "dump" and args:
        return dump(*args)
    print(__doc__.split("\n\n")[1], file=sys.stderr)  # the usage lines
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
