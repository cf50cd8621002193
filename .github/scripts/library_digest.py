"""Print one sha256 per library chain, seed and rung of the benchmark.

    python .github/scripts/library_digest.py [SEED ...]     # seeds 1 7 101 by default

Each line reads ``<chain> seed=<seed> rung=<rung> N=<N> <sha256>``.  The
digest covers every array a ``perfbench.libops`` chain returns, at the
benchmark's full scale: each leaf's path, dtype, shape and bytes, with
dict keys and dataclass fields taken in a fixed order.  Two trees whose
lines are equal return the same bits.  Digests may legitimately differ
between numpy versions, so compare trees on one installation only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
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


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [1, 7, 101]
    with tempfile.TemporaryDirectory() as workdir:  # the library workloads write no input files
        for chain in sorted(libops.CHAINS):
            for seed in seeds:
                for op in sorted(workloads.build(chain, seed, "full", workdir), key=lambda op: op.index):
                    print(f"{chain} seed={seed} rung={op.index} N={op.size} {digest(libops.CHAINS[chain](op.params))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
