"""The benchmark's own tests: a tiny-size smoke run of every workload, and
proof that corrupted outputs count as failures.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from decopoles import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "error_rate" in proc.stdout


def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(run.PER_LAYER)


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("cli_write", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""


def _run_in_process(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(op.argv)) == 0
    return out.getvalue()


def _flip_digit(path, row):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    field = lines[row].split(",")
    digits = [i for i, ch in enumerate(field[1]) if ch.isdigit()]
    i = digits[2]
    field[1] = field[1][:i] + str((int(field[1][i]) + 1) % 10) + field[1][i + 1:]
    lines[row] = ",".join(field)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def test_one_flipped_digit_in_a_csv_is_a_failure(tmp_path):
    ops = workloads.build("cli_write", 3, "smoke", str(tmp_path))
    op = next(o for o in ops if o.kind in ("simulate/model1", "simulate/model2", "simulate/model3"))
    stdout = _run_in_process(op)
    assert checks.check_cli(op, stdout) == []
    _flip_digit(os.path.join(op.outdir, "signal.csv"), row=7)
    assert checks.check_cli(op, stdout)


def test_one_perturbed_width_is_a_failure(tmp_path):
    op = workloads.build("cli_extract", 3, "smoke", str(tmp_path))[0]
    stdout = _run_in_process(op)
    assert checks.check_cli(op, stdout) == []
    path = os.path.join(op.outdir, "catalogue.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["modes"][0]["gamma"] *= 1.0 + 1e-5
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert checks.check_cli(op, stdout)


def test_a_repeat_that_changes_bytes_is_a_failure(tmp_path):
    op = workloads.build("cli_write", 3, "smoke", str(tmp_path))[0]
    seen = {}
    stdout = _run_in_process(op)
    assert run._checked(op, stdout, seen) == []
    assert run._checked(op, stdout, seen) == []
    name = sorted(os.listdir(op.outdir))[0]
    with open(os.path.join(op.outdir, name), "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert run._checked(op, stdout, seen)


def test_failed_ops_do_not_count_as_completed():
    records = [{"seconds": 1.0, "host_factor": 1.0, "problems": []},
               {"seconds": 2.0, "host_factor": 1.0, "problems": ["bad"]}]
    metrics = run.end_to_end(records, [(0.3, 1.0)], 40.0)
    assert metrics["ops_per_s"] == pytest.approx(1.0 / 3.0)


def test_times_are_scaled_by_the_host_factor_around_them():
    records = [{"seconds": 1.0, "host_factor": 1.0, "problems": []},
               {"seconds": 3.0, "host_factor": 2.0, "problems": []},
               {"seconds": 0.5, "host_factor": 0.5, "problems": []}]
    metrics = run.end_to_end(records, [(0.2, 1.0), (0.6, 2.0), (0.9, 1.0)], 40.0)
    assert metrics["op_s_p50"] == pytest.approx(1.0) and metrics["op_s_tail"] == pytest.approx(1.5)
    assert metrics["ops_per_s"] == pytest.approx(3.0 / 3.5)
    assert metrics["setup_s"] == pytest.approx(0.3)


def test_a_run_times_whole_cycles(tmp_path):
    ops = workloads.build("fock_eigenbasis", 3, "smoke", str(tmp_path))
    cycles = []
    records = workloads.closed_loop(ops, 3, 60.0, lambda op: {"seconds": 0.0, "problems": []},
                                    lambda: cycles.append(1))
    assert [r["index"] for r in records] == [op.index for op in ops] * 3 and len(cycles) == 3
    # a host too slow for the next cycle stops after whole cycles
    records = workloads.closed_loop(ops, 3, 0.0, lambda op: {"seconds": 0.0, "problems": []})
    assert [r["index"] for r in records] == [op.index for op in ops]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    times = [float(i) for i in range(1, 41)]
    value, pct, beyond = run.tail(times)
    assert value == 30.0 and beyond == 10 and sum(t > value for t in times) == 10
    assert pct == pytest.approx(75.0)
