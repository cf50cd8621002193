"""The benchmark trajectory script, .github/scripts/bench_summary.py, on canned run records."""

import glob
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_summary", os.path.join(ROOT, ".github", "scripts",
                                                                            "bench_summary.py"))
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

WORKLOADS, METRICS, _ = bench_summary.declared()
ENV = {"git_commit": "0" * 40, "seconds": 25.0, "python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.30",
       "blas_threads": 2, "thread_env": {}, "nproc": 2, "platform": "Linux-x86_64"}


def report(spans):
    """A ``--trace 1`` report in perfbench/run.py's layout, with the span rows given."""
    rows = [f"| {name} | omnes | {calls:.6g} | {busy:.6g} | {own:.6g} | 12.5% |" for name, (calls, busy, own) in spans]
    return "\n".join(["## Trace report: frame_convergence, seed 1", "", "Coverage: ...", "",
                      "| span | layer | calls/op | busy s/op | self s/op | busy share of op time |",
                      "| --- | --- | --- | --- | --- | --- |", *rows, "",
                      "| layer | self s/op | self share of op time |", "| --- | --- | --- |", "| omnes | 0.001 | 3.0% |"])


def canned_runs(workloads, seeds=(1, 101)):
    """A plain and a traced run per workload and seed; seed k's metrics read k, its wall times 2 k."""
    runs = []
    for w in workloads:
        for seed in seeds:
            record = {"environment": ENV, "attempted": 40, "failed": 0, "median_host_factor": 1.0 + seed / 1000,
                      "metrics": {m: {"value": float(seed), "unit": "s"} for m in METRICS},
                      "wall_time_metrics": {m: 2.0 * seed for m in METRICS}}
            runs.append({"workload": w, "seed": seed, "trace": 0, "record": record})
            spans = [("frame_projection", (81.0, 1e-3 * seed, 4e-4)), ("eigh", (1.0, 2e-4, 1e-4))]
            runs.append({"workload": w, "seed": seed, "trace": 1, "record": {"environment": ENV},
                         "report": report(spans if seed == 1 else spans[:1])})
    return runs


class TestSummary:
    def test_medians_over_the_seeds(self):
        summary = bench_summary.summarize(canned_runs(WORKLOADS, seeds=(1, 5, 101)), 38, METRICS)
        bench_summary.check(summary, WORKLOADS, METRICS)
        entry = summary["workloads"]["frame_convergence"]
        assert entry["scaled"] == dict.fromkeys(METRICS, 5.0) and entry["wall"] == dict.fromkeys(METRICS, 10.0)
        assert entry["median_host_factor"] == 1.005 and [r["seed"] for r in entry["runs"]] == [1, 5, 101]
        assert entry["spans"]["frame_projection"] == {"calls": 81.0, "busy_s": 5e-3, "self_s": 4e-4}
        assert entry["spans"]["eigh"]["calls"] == 0.0  # seeds 5 and 101 never called it
        assert summary["seeds"] == [1, 5, 101] and summary["commit"] == ENV["git_commit"]
        assert "PYTHONDONTWRITEBYTECODE" in summary["host"] and summary["host"]["nproc"] == 2
        json.dumps(summary)  # the file's content

    @pytest.mark.parametrize("gone", WORKLOADS)
    def test_a_missing_workload_fails_the_check(self, gone):
        summary = bench_summary.summarize(canned_runs([w for w in WORKLOADS if w != gone]), 38, METRICS)
        with pytest.raises(ValueError, match=f"workload '{gone}' missing"):
            bench_summary.check(summary, WORKLOADS, METRICS)

    def test_a_missing_metric_or_span_table_fails_the_check(self):
        summary = bench_summary.summarize(canned_runs(WORKLOADS), 38, METRICS)
        del summary["workloads"]["cli_write"]["wall"]["setup_s"]
        with pytest.raises(ValueError, match="cli_write: wall metrics"):
            bench_summary.check(summary, WORKLOADS, METRICS)
        summary = bench_summary.summarize(canned_runs(WORKLOADS), 38, METRICS)
        summary["workloads"]["cli_extract"]["spans"] = {}
        with pytest.raises(ValueError, match="cli_extract: span table"):
            bench_summary.check(summary, WORKLOADS, METRICS)

    def test_every_declared_metric_and_workload(self):
        assert WORKLOADS == ["cli_write", "cli_extract", "frame_convergence", "fock_eigenbasis"]
        assert METRICS == ["op_s_p50", "op_s_tail", "ops_per_s", "peak_rss_mb", "setup_s"]


def test_checked_in_files_match_the_schema():
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        bench_summary.check(summary, WORKLOADS, METRICS)
        assert os.path.basename(path) == f"BENCH_{summary['bench']}.json"
