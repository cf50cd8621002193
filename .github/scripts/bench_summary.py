"""Run the benchmark's workloads at fixed seeds and write their medians to BENCH_<n>.json.

    python .github/scripts/bench_summary.py N [--tree DIR]

For every workload that BENCHMARK.json declares and each of the seeds 1 and 101, it runs
``perfbench/run.py`` of the tree at DIR (this checkout by default) for BENCHMARK.json's
``run_seconds``, twice, with ``--trace 0`` and ``--trace 1``, one run at a time (about 10 minutes
on a 2-core host), and reads the full record each run leaves under DIR/.perfbench_work/results/.
It writes BENCH_<N>.json at the root of this checkout, holding:

* per workload, the median over the seeds of each end-to-end metric, both scaled by the host
  factor (as the benchmark reports them) and as wall time, the median host factor, and every
  run's own values;
* per workload, each traced span's calls, busy seconds and self seconds per op, the median over
  the seeds of the ``--trace 1`` report's table;
* the tree's commit and the host: Python, numpy, BLAS and its threads, nproc, the platform and
  ``PYTHONDONTWRITEBYTECODE`` (a CLI child without ``.pyc`` files compiles its modules again).

perfbench/ and BENCHMARK.json are only read.  Compare two files only when they come from the same
host.  ``check`` is the file's schema; the script checks what it writes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEEDS = (1, 101)
HOST_KEYS = ("python", "numpy", "blas", "blas_threads", "thread_env", "nproc", "platform")
SPAN_HEADER = "| span | layer | calls/op | busy s/op | self s/op |"


def declared():
    """(workloads, end-to-end metric names, run seconds) that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [w["name"] for w in spec["workloads"]], [m["name"] for m in spec["end_to_end"]], spec["run_seconds"]


def run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its full record, and for a traced run its report's text."""
    argv = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    stem = os.path.join(tree, ".perfbench_work", "results", f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".json", encoding="utf-8") as fh:
        out = {"workload": workload, "seed": seed, "trace": trace, "record": json.load(fh)}
    if trace:
        with open(stem + ".md", encoding="utf-8") as fh:
            out["report"] = fh.read()
    return out


def span_table(report: str) -> dict:
    """{span: {calls, busy_s, self_s}} per op, from a ``--trace 1`` report's span table."""
    lines = report.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith(SPAN_HEADER)) + 2
    spans = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, _, calls, busy, self_s = (cell.strip() for cell in line.strip("|").split("|")[:5])
        spans[name] = {"calls": float(calls), "busy_s": float(busy), "self_s": float(self_s)}
    return spans


def _median_of(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def summarize(runs: list, n: int, metrics: list) -> dict:
    """BENCH_<n>'s content from the runs' outputs (``run``'s dicts), for the ``metrics`` named."""
    env = runs[0]["record"]["environment"]
    workloads = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        plain = [r for r in runs if r["workload"] == name and not r["trace"]]
        traced = [r for r in runs if r["workload"] == name and r["trace"]]
        each = [{"seed": r["seed"],
                 "scaled": {m: r["record"]["metrics"][m]["value"] for m in metrics},
                 "wall": {m: r["record"]["wall_time_metrics"][m] for m in metrics},
                 "median_host_factor": r["record"]["median_host_factor"],
                 "attempted": r["record"]["attempted"], "failed": r["record"]["failed"]} for r in plain]
        tables = [span_table(r["report"]) for r in traced]
        names = dict.fromkeys(s for table in tables for s in table)
        zero = {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0}  # a span a seed's ops never called
        workloads[name] = {
            "scaled": _median_of([e["scaled"] for e in each]),
            "wall": _median_of([e["wall"] for e in each]),
            "median_host_factor": statistics.median(e["median_host_factor"] for e in each),
            "failed": sum(e["failed"] for e in each),
            "runs": each,
            "spans": {s: _median_of([t.get(s, zero) for t in tables]) for s in names},
        }
    return {
        "bench": n,
        "commit": env["git_commit"],
        "seeds": sorted({r["seed"] for r in runs}),
        "seconds": env["seconds"],
        "host": dict({k: env[k] for k in HOST_KEYS},
                     PYTHONDONTWRITEBYTECODE=os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "workloads": workloads,
    }


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check(summary: dict, workloads: list, metrics: list) -> None:
    """Raise ValueError naming the first thing a BENCH file lacks: a workload, a metric, a span table,
    a host note or the commit."""
    for key in ("bench", "commit", "seeds", "seconds", "host", "workloads"):
        if key not in summary:
            raise ValueError(f"no {key!r}")
    missing = [k for k in HOST_KEYS + ("PYTHONDONTWRITEBYTECODE",) if k not in summary["host"]]
    if missing:
        raise ValueError(f"host notes lack {missing}")
    for name in workloads:
        entry = summary["workloads"].get(name)
        if entry is None:
            raise ValueError(f"workload {name!r} missing")
        for kind in ("scaled", "wall"):
            bad = [m for m in metrics if not _number(entry.get(kind, {}).get(m))]
            if bad:
                raise ValueError(f"{name}: {kind} metrics {bad} missing or not finite")
        if not _number(entry.get("median_host_factor")) or not entry.get("runs"):
            raise ValueError(f"{name}: no runs or host factor")
        spans = entry.get("spans")
        if not spans or not all(sorted(v) == ["busy_s", "calls", "self_s"] and all(map(_number, v.values()))
                                for v in spans.values()):
            raise ValueError(f"{name}: span table missing or malformed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark medians into BENCH_<n>.json (see module docstring)")
    parser.add_argument("n", type=int)
    parser.add_argument("--tree", default=ROOT, help="the checkout whose perfbench/run.py and src/ to run")
    args = parser.parse_args(argv)
    workloads, metrics, seconds = declared()
    runs = [run(os.path.abspath(args.tree), w, seed, seconds, trace)
            for w in workloads for seed in SEEDS for trace in (0, 1)]
    summary = summarize(runs, args.n, metrics)
    check(summary, workloads, metrics)
    path = os.path.join(ROOT, f"BENCH_{args.n}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    for name, entry in summary["workloads"].items():
        print(f"  {name:18s} " + ", ".join(f"{m} {entry['scaled'][m]:.4g}" for m in metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
