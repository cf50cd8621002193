"""Print one sha256 per output file of every CLI op of the benchmark.

    python .github/scripts/cli_digest.py [SEED ...]     # seeds 1 7 101 by default

Each line reads ``<workload> seed=<seed> rung=<rung> N=<N> <file> <sha256>``,
over the ``cli_write`` and ``cli_extract`` ops at the benchmark's full
scale.  The inputs (configs, signal and density CSVs) are generated by
``perfbench/workloads.py`` into a temporary directory, and each op runs
``decopoles.cli.main`` on its arguments in this process; an op that exits
nonzero prints ``exit=<code>`` in place of its files.  Two trees whose
lines are equal write the same bytes.  Digests may legitimately differ
between numpy versions, so compare trees on one installation only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.dont_write_bytecode = True  # perfbench/ is only read
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from decopoles import cli  # noqa: E402


def _run(op) -> list:
    """(file name, sha256) of each output file of one op, or [("exit=<code>", "")]."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(op.argv))
    if code != 0:
        return [(f"exit={code}", "")]
    out = []
    for name in sorted(os.listdir(op.outdir)):
        with open(os.path.join(op.outdir, name), "rb") as fh:
            out.append((name, hashlib.sha256(fh.read()).hexdigest()))
    return out


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [1, 7, 101]
    for workload in workloads.CLI_WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                for op in sorted(workloads.build(workload, seed, "full", workdir), key=lambda op: op.index):
                    for name, digest in _run(op):
                        print(f"{workload} seed={seed} rung={op.index} N={op.size} {name} {digest}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
