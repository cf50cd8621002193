"""Worker process of the library workloads: closed loop, checks, JSON report.

Started by ``run.py`` as a fresh interpreter so that its peak RSS belongs
to the workload alone.  At the start of every cycle it times one fresh
interpreter importing decopoles (the set-up time), with a bare interpreter
start on either side as its reference, so set-up samples are spread over
the run like the ops.  Writes one JSON document to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import libops  # noqa: E402
import workloads  # noqa: E402

SETUP_ARGV = [sys.executable, "-c", "import decopoles"]


def run_op(op) -> dict:
    """Time one library chain, then check its result outside the timed region."""
    t0 = time.perf_counter()
    try:
        result = libops.CHAINS[op.kind](op.params)
    except Exception as exc:  # an op failure is data, not a crash
        return {"seconds": time.perf_counter() - t0, "problems": [f"{type(exc).__name__}: {exc}"]}
    elapsed = time.perf_counter() - t0
    return {"seconds": elapsed, "problems": checks.LIBRARY_CHECKS[op.kind](op.params, result)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    ops = workloads.build(args.workload, args.seed, args.scale, os.path.dirname(args.result))
    env = dict(os.environ, PYTHONPATH=SRC)
    setup = []

    def child_seconds(argv):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdin=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def measure_setup():
        setup.append(workloads.bracketed(
            lambda: child_seconds(SETUP_ARGV),
            lambda: child_seconds(workloads.START_ARGV) / workloads.START_SECONDS))

    cycles = workloads.cycles_for(args.workload, args.seconds)
    records = workloads.closed_loop(ops, cycles, args.seconds, run_op, measure_setup)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"records": records, "setup": setup}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
