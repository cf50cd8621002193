"""Print one sha256 per library chain, seed and rung of the benchmark, or how the moved ones moved.

    python .github/scripts/library_digest.py [SEED ...]     # seeds 1 7 101 by default
    python .github/scripts/library_digest.py --moved BASE_ROOT BASE.txt HEAD.txt

Each line of the first form reads ``<chain> seed=<seed> rung=<rung> N=<N> <sha256>``.  The
digest covers every array a ``perfbench.libops`` chain returns, at the
benchmark's full scale: each leaf's path, dtype, shape and bytes, with
dict keys and dataclass fields taken in a fixed order.  Two trees whose
lines are equal return the same bits.  Digests may legitimately differ
between numpy versions, so compare trees on one installation only.

The second form reads two runs of the first, a base tree's and this tree's.  For each op
both hold with different digests it prints the op, then the largest entrywise
|head - base| of each result leaf, list indices folded (``rho[*]`` is the largest over every
``rho[k]``); a record array's is the largest over its fields, or, where the head adds fields
to the base's, one line per shared field and the added ones by name (``+estimate``).
Eigenvalue leaves are compared as sorted sets, so tracks permuted inside a degenerate cluster
read as no move; eigenvectors are compared as they are.  It runs the moved ops on this tree
and, in a child process of this same script (``--root BASE_ROOT --dump``), on the src/ and
perfbench/ of the base checkout at BASE_ROOT.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if sys.argv[1:2] == ["--root"]:  # the child of --moved: import the base checkout's code
    ROOT = sys.argv.pop(2)
    sys.argv.pop(1)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import libops  # noqa: E402
import workloads  # noqa: E402


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


def digest(result) -> str:
    h = hashlib.sha256()
    for path, arr in _leaves(result):
        h.update(f"{path} {arr.dtype.str} {arr.shape}\n".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _leaf_arrays(keys, workdir) -> dict:
    """{"<op key> <leaf path>": array} for each op key "<chain> seed=<seed> rung=<rung> N=<N>"."""
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
    def digests(path):
        with open(path, encoding="utf-8") as lines:
            return dict(line.rsplit(maxsplit=1) for line in lines if line.strip())

    base, head = digests(base_txt), digests(head_txt)
    keys = sorted(key for key in base.keys() & head.keys() if base[key] != head[key])
    print(f"{len(keys)} library ops moved")
    if not keys:
        return 0
    with tempfile.TemporaryDirectory() as workdir:
        dump = os.path.join(workdir, "base.npz")
        subprocess.run([sys.executable, os.path.abspath(__file__), "--root", base_root, "--dump", dump, *keys],
                       check=True)
        with np.load(dump) as saved:
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


def main(argv) -> int:
    if argv[:1] == ["--moved"]:
        return moved(*argv[1:])
    if argv[:1] == ["--dump"]:
        with tempfile.TemporaryDirectory() as workdir:
            np.savez(argv[1], **_leaf_arrays(argv[2:], workdir))
        return 0
    seeds = [int(s) for s in argv] or [1, 7, 101]
    with tempfile.TemporaryDirectory() as workdir:  # the library workloads write no input files
        for chain in sorted(libops.CHAINS):
            for seed in seeds:
                for op in sorted(workloads.build(chain, seed, "full", workdir), key=lambda op: op.index):
                    print(f"{chain} seed={seed} rung={op.index} N={op.size} {digest(libops.CHAINS[chain](op.params))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
