"""Print one sha256 per output file of every CLI op of the benchmark.

    python .github/scripts/cli_digest.py [SEED ...]     # seeds 1 7 101 by default

Each line reads ``<workload> seed=<seed> rung=<rung> N=<N> <file> <sha256>``,
over the ``cli_write`` and ``cli_extract`` ops at the benchmark's full
scale.  The inputs (configs, signal and density CSVs) are generated by
``perfbench/workloads.py`` into a temporary directory, and each op runs
``decopoles.cli.main`` on its arguments in this process; an op that exits
nonzero prints ``exit=<code>`` in place of its files.  Each op also prints
``<workload>.stdio seed=<seed> rung=<rung> N=<N> stdout <sha256>`` and the
same line for ``stderr``, the digests of what it printed.  Two trees whose
lines are equal write the same bytes and print the same text.  Digests may
legitimately differ between numpy versions, so compare trees on one
installation only.
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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(op) -> tuple:
    """(file name, sha256) of each output file of one op, or [("exit=<code>", "")]; and of its stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(op.argv))
    stdio = [("stdout", _sha256(stdout.getvalue())), ("stderr", _sha256(stderr.getvalue()))]
    if code != 0:
        return [(f"exit={code}", "")], stdio
    out = []
    for name in sorted(os.listdir(op.outdir)):
        with open(os.path.join(op.outdir, name), "rb") as fh:
            out.append((name, hashlib.sha256(fh.read()).hexdigest()))
    return out, stdio


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [1, 7, 101]
    for workload in workloads.CLI_WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                for op in sorted(workloads.build(workload, seed, "full", workdir), key=lambda op: op.index):
                    files, stdio = _run(op)
                    where = f"seed={seed} rung={op.index} N={op.size}"
                    for name, digest in files:
                        print(f"{workload} {where} {name} {digest}".rstrip())
                    for name, digest in stdio:
                        print(f"{workload}.stdio {where} {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
