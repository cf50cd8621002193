#!/usr/bin/env python3
"""decopoles benchmark: the entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The repository root is the parent of this directory; the package is
imported from its ``src/``.  One closed-loop client issues one operation
at a time and waits for it to finish before issuing the next, as CLI users
and library callers do.  Inputs are generated from ``--seed`` before any
timing starts; every op's output is checked (see ``checks.py``).  A
workload is a ladder of op configurations (rungs, see ``workloads.py``);
a run repeats a fixed number of passes (cycles) over the ladder, about
``--seconds`` of work.

Workloads:

* ``cli_write``: one ``decopoles simulate`` or ``omnes`` child per op, on
  1e4-3e4 point grids;
* ``cli_extract``: one ``decopoles extract`` child per op, on 901-1801
  sample signal CSVs;
* ``frame_convergence``: frame catalogue -> partition -> preferred state
  -> convergence profile, N = 200-1000, in a fresh worker process;
* ``fock_eigenbasis``: Fock density matrices -> moving eigenbasis ->
  eigenvalue audit, N = 24-48, in a fresh worker process.

The host's speed drifts by up to 2x over seconds to minutes, often for a
whole run.  Every op and every set-up sample is therefore bracketed by a
short reference (see ``workloads.py``), and its wall time is divided by the
host factor measured around it: the reference's time over its nominal time.
The end-to-end times are these scaled seconds, the time on a host where the
references take their nominal times; raw wall times are in the full record.
``setup_s`` is the median of one fresh interpreter per cycle, scaled alike.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs every op
in-process twice, untraced and traced, and reports per-layer busy time,
self time and counts, the tracing overhead and a coverage check.  The last
line of stdout is the JSON result; the full record (environment, per-op
times, failures with reproducers, trace tables and spans) is written under
``.perfbench_work/results/``.  Exit code 2 means the benchmark could not
run at all (for example, no ``src/decopoles`` next to this directory).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CLI_ENTRY = "import sys; from decopoles.cli import main; sys.exit(main())"
TAIL_BEYOND = 10

END_TO_END = (
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# per-layer metrics, all per traced op; a layer a workload never calls reads 0
PER_LAYER = (
    ("cli.main.busy_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("cli.bytes_out", "B/op"),
    ("signal_to_csv.busy_s", "s/op"),
    ("signal_to_csv.rows", "count/op"),
    ("signal_from_csv.busy_s", "s/op"),
    ("signal_from_csv.rows", "count/op"),
    ("synthesize.busy_s", "s/op"),
    ("preferred_signal.busy_s", "s/op"),
    ("partition_report.busy_s", "s/op"),
    ("CatalogueMatrix.evaluate.busy_s", "s/op"),
    ("CatalogueMatrix.evaluate.calls", "count/op"),
    ("CatalogueMatrix.evaluate.modes", "count/op"),
    ("CatalogueMatrix.dropped_envelope.busy_s", "s/op"),
    ("CatalogueMatrix.dropped_envelope.calls", "count/op"),
    ("CatalogueMatrix.dropped_envelope.modes", "count/op"),
    ("pole_models.self_s", "s/op"),
    ("matrix_pencil_fit.busy_s", "s/op"),
    ("matrix_pencil_fit.calls", "count/op"),
    ("matrix_pencil_fit.accept_ratio", "ratio"),
    ("matrix_pencil_fit.hankel_mb", "MB-computed"),
    ("fit_residual.busy_s", "s/op"),
    ("eigh.busy_s", "s/op"),
    ("eigh.calls", "count/op"),
    ("DensityMatrix.min_eigenvalue.busy_s", "s/op"),
    ("principal_value_integral.busy_s", "s/op"),
    ("numerics.self_s", "s/op"),
    ("perturbative_pole.busy_s", "s/op"),
    ("SpectralDensity.evals", "count/op"),
    ("friedrich.self_s", "s/op"),
    ("nd_block.busy_s", "s/op"),
    ("nd_block.calls", "count/op"),
    ("macroscopicity_check.calls", "count/op"),
    ("macroscopicity_check.useful_ratio", "ratio"),
    ("collective_rate.busy_s", "s/op"),
    ("frame_catalogue_matrix.busy_s", "s/op"),
    ("frame_projection.busy_s", "s/op"),
    ("frame_projection.calls", "count/op"),
    ("build_density_matrix.busy_s", "s/op"),
    ("build_density_matrix.calls", "count/op"),
    ("omnes.self_s", "s/op"),
    ("preferred_state.busy_s", "s/op"),
    ("convergence_profile.busy_s", "s/op"),
    ("convergence_profile.self_s", "s/op"),
    ("moving_eigenbasis.busy_s", "s/op"),
    ("moving_eigenbasis.self_s", "s/op"),
    ("bifriedrich_run.busy_s", "s/op"),
    ("preferred_basis.self_s", "s/op"),
    ("trace.op_s_p50_untraced", "s"),
    ("trace.op_s_p50_traced", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)

# the layer each workload was chosen to stress
DESIGNATED = {
    "cli_write": "signal_to_csv",
    "cli_extract": "matrix_pencil_fit",
    "frame_convergence": "CatalogueMatrix.dropped_envelope",
    "fock_eigenbasis": "eigh",
}


class BenchError(Exception):
    """The benchmark itself cannot run (not an op failure)."""


# --- environment ------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(args, ops, records) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    nproc = os.cpu_count()
    by_index = sorted(ops, key=lambda op: op.index)
    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "input_sizes": [op.size for op in by_index],
        "op_kinds": [op.kind for op in by_index],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_within_nproc": threads is not None and nproc is not None and threads <= nproc,
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
        "nproc": nproc,
        "platform": platform.platform(),
        "cycles": 1 + max(r["cycle"] for r in records),
        "client": "closed loop, 1 client; children start one at a time from an idle launcher",
    }


# --- child processes --------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class Launcher:
    """Starts children through ``spawn.py`` and reads each one's own rusage.

    The peak RSS comes from the child's own ``wait4`` rusage, never from
    RUSAGE_CHILDREN, which is a running maximum over every child so far;
    the lean launcher keeps this process's peak out of it (see spawn.py).
    """

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv: list, stdout_path: str, stderr_path: str):
        """Run one child to completion; return (wall seconds, exit code, peak RSS in MB)."""
        req = {"argv": argv, "stdout": stdout_path, "stderr": stderr_path, "env": child_env(), "cwd": ROOT}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"launcher exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return reply["seconds"], reply["exit_code"], reply["maxrss_kb"] / 1024.0


def child_seconds(launcher, argv: list, scratch: str) -> float:
    """Wall time of one fresh interpreter running ``argv`` (a set-up or reference run)."""
    err = os.path.join(scratch, "setup.err")
    elapsed, code, _ = launcher.run(argv, os.path.join(scratch, "setup.out"), err)
    if code != 0:
        raise BenchError(f"child {argv} exited {code}: {_read_text(err)[-2000:]}")
    return elapsed


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


# --- CLI ops ----------------------------------------------------------------


def _checked(op, stdout: str, seen: dict) -> list:
    """Full check on a config's first run; later runs must repeat its bytes."""
    digest = (checks.output_digest(op.outdir), stdout)
    if op.index not in seen:
        seen[op.index] = (digest, checks.check_cli(op, stdout))
    first_digest, first_problems = seen[op.index]
    if digest != first_digest:
        return first_problems + ["repeat of the same config is not byte-identical to its first run"]
    return list(first_problems)


def cli_child_op(launcher, seen: dict):
    def run_op(op):
        shutil.rmtree(op.outdir, ignore_errors=True)
        opdir = os.path.dirname(op.outdir)
        out_path = os.path.join(opdir, "stdout.txt")
        err_path = os.path.join(opdir, "stderr.txt")
        elapsed, code, rss = launcher.run([sys.executable, "-c", CLI_ENTRY] + op.argv, out_path, err_path)
        record = {"seconds": elapsed, "rss_mb": rss, "exit_code": code}
        if code != 0:
            record["problems"] = [f"exit code {code}: {_read_text(err_path)[-500:].strip()}"]
        else:
            record["problems"] = _checked(op, _read_text(out_path), seen)
        return record

    return run_op


def cli_inprocess_op(cli_module, seen: dict):
    def run_op(op):
        shutil.rmtree(op.outdir, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_module.main(list(op.argv))
        except Exception as exc:  # an op failure is data, not a crash
            return {"seconds": time.perf_counter() - t0,
                    "problems": [f"{type(exc).__name__}: {exc}"]}
        elapsed = time.perf_counter() - t0
        if code != 0:
            return {"seconds": elapsed, "problems": [f"exit code {code}: {err.getvalue()[-500:].strip()}"]}
        return {"seconds": elapsed, "problems": _checked(op, out.getvalue(), seen),
                "bytes_out": checks.output_bytes(op.outdir)}

    return run_op


# --- statistics -------------------------------------------------------------


def scaled(seconds: float, host_factor: float) -> float:
    """A wall time scaled to a host on which the references take their nominal times."""
    return seconds / host_factor


def tail(times: list):
    """(value, percentile, samples beyond) of the highest percentile with
    at least TAIL_BEYOND samples beyond it; the maximum when there are too
    few samples for that."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(records: list, setup: list, peak_rss: float, scale=scaled) -> dict:
    """The END_TO_END metrics from op records and (seconds, host factor) set-up pairs.

    Only ops whose output checked out count as completed.
    """
    times = [scale(r["seconds"], r["host_factor"]) for r in records]
    completed = sum(1 for r in records if not r["problems"])
    return {
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail(times)[0],
        "ops_per_s": completed / sum(times),
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(scale(t, factor) for t, factor in setup),
    }


def rung_summary(ops: list, records: list) -> list:
    """Per rung: kind, size, samples, median wall and scaled op time."""
    out = []
    for op in sorted(ops, key=lambda o: o.index):
        mine = [r for r in records if r["index"] == op.index]
        out.append({"index": op.index, "kind": op.kind, "size": op.size, "samples": len(mine),
                    "median_wall_s": statistics.median(r["seconds"] for r in mine),
                    "median_scaled_s": statistics.median(scaled(r["seconds"], r["host_factor"])
                                                         for r in mine)})
    return out


# --- runs -------------------------------------------------------------------


def run_untraced(args, ops, scratch) -> dict:
    with Launcher() as launcher:
        return _run_untraced(launcher, args, ops, scratch)


def _run_untraced(launcher, args, ops, scratch) -> dict:
    if args.workload in workloads.CLI_WORKLOADS:
        setup = []
        setup_argv = [sys.executable, "-c", CLI_ENTRY, "--help"]

        def start_factor():
            return child_seconds(launcher, workloads.START_ARGV, scratch) / workloads.START_SECONDS

        def one_setup():
            setup.append(workloads.bracketed(lambda: child_seconds(launcher, setup_argv, scratch),
                                             start_factor))

        records = workloads.closed_loop(ops, workloads.cycles_for(args.workload, args.seconds),
                                        args.seconds, cli_child_op(launcher, {}), one_setup,
                                        start_factor)
        peak = max(r["rss_mb"] for r in records)
    else:
        result_path = os.path.join(scratch, "worker.json")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", repr(args.seconds), "--scale", args.scale,
                "--result", result_path]
        _, code, peak = launcher.run(argv, os.path.join(scratch, "worker.out"),
                                  os.path.join(scratch, "worker.err"))
        if code != 0:
            raise BenchError(f"worker exited {code}: {_read_text(os.path.join(scratch, 'worker.err'))[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        records, setup = doc["records"], doc["setup"]
    metrics = end_to_end(records, setup, peak)
    wall = end_to_end(records, setup, peak, scale=lambda seconds, factor: seconds)
    return {"records": records, "setup": setup, "metrics": metrics, "wall": wall}


def run_traced(args, ops) -> dict:
    sys.path.insert(0, SRC)
    from decopoles import cli, friedrich, numerics, omnes, pole_models, preferred_basis

    modules = {"cli": cli, "pole_models": pole_models, "numerics": numerics,
               "friedrich": friedrich, "omnes": omnes, "preferred_basis": preferred_basis}
    loaded = os.path.dirname(os.path.abspath(cli.__file__))
    if loaded != os.path.join(SRC, "decopoles"):
        raise BenchError(f"decopoles imported from {loaded}, not from {SRC}")
    tr = tracing.Tracer(modules)
    if args.workload in workloads.CLI_WORKLOADS:
        plain = cli_inprocess_op(cli, {})
    else:
        import worker

        plain = worker.run_op

    counter = [0]

    def traced_run(op):
        tr.op = counter[0]
        with tr.installed():
            return plain(op)

    def both(op):
        counter[0] += 1
        first, second = (plain, traced_run) if counter[0] % 2 else (traced_run, plain)
        a = first(op)
        b = second(op)
        untraced, traced = (a, b) if first is plain else (b, a)
        return {"seconds": traced["seconds"], "untraced_seconds": untraced["seconds"],
                "problems": untraced["problems"] + traced["problems"],
                "bytes_out": traced.get("bytes_out", 0)}

    # each op runs twice here, so half the cycles keep the run near --seconds
    cycles = max(1, workloads.cycles_for(args.workload, args.seconds) // 2)
    records = workloads.closed_loop(ops, cycles, args.seconds, both)
    metrics = per_layer(tr, records)
    report = trace_report(args, tr, records, metrics)
    return {"records": records, "metrics": metrics, "report": report, "tracer": tr}


def per_layer(tr, records: list) -> dict:
    """Every PER_LAYER metric per traced op (a layer never called reads 0)."""
    n = len(records)

    def total(name, key):
        return tr.stats[name].get(key, 0)

    values = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if base == "trace":
            continue
        if name == "cli.bytes_out":
            values[name] = sum(r.get("bytes_out", 0) for r in records) / n
        elif base in tracing.LAYERS and field == "self_s":
            values[name] = tr.layer_self(base) / n
        elif name == "SpectralDensity.evals":
            values[name] = tr.density_evals / n
        elif field == "accept_ratio":
            calls = total(base, "calls")
            values[name] = total(base, "accepted") / calls if calls else 0.0
        elif field == "hankel_mb":
            values[name] = total(base, "hankel_mb")
        elif field == "useful_ratio":
            # the CLI uses one macroscopicity report per omnes op
            calls = total(base, "calls")
            omnes_ops = sum(1 for r in records if r["kind"].startswith("omnes"))
            values[name] = omnes_ops / calls if calls else 0.0
        else:
            values[name] = total(base, {"busy_s": "busy", "self_s": "self"}.get(field, field)) / n
    p50_plain = statistics.median(r["untraced_seconds"] for r in records)
    p50_traced = statistics.median(r["seconds"] for r in records)
    values["trace.op_s_p50_untraced"] = p50_plain
    values["trace.op_s_p50_traced"] = p50_traced
    values["trace.overhead_s"] = p50_traced - p50_plain
    values["trace.coverage"] = tr.root_busy / sum(r["seconds"] for r in records)
    return values


def trace_report(args, tr, records: list, values: dict) -> str:
    n = len(records)
    op_time = sum(r["seconds"] for r in records)
    overhead = values["trace.overhead_s"]
    lines = [
        f"## Trace report: {args.workload}, seed {args.seed}",
        "",
        f"{n} ops run in-process, each once untraced and once traced (order alternating).",
        f"Wall-time op p50 untraced {values['trace.op_s_p50_untraced']:.6g} s, "
        f"traced {values['trace.op_s_p50_traced']:.6g} s: tracing overhead {overhead:.6g} s "
        f"({100.0 * overhead / values['trace.op_s_p50_untraced']:.1f}%); the median over ops of each op's "
        f"traced minus untraced time, which cancels the host's drift, is "
        f"{statistics.median(r['seconds'] - r['untraced_seconds'] for r in records):.6g} s.",
        f"Coverage: outermost spans account for {100.0 * values['trace.coverage']:.2f}% of traced op "
        "wall time (for CLI ops the outermost span is cli.main, whose self time plus its "
        "layer spans is its busy time by construction).",
        "",
        "| span | layer | calls/op | busy s/op | self s/op | busy share of op time |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    rows = sorted(((name, st) for name, st in tr.stats.items() if st["calls"]),
                  key=lambda item: -item[1]["busy"])
    for name, st in rows:
        lines.append(f"| {name} | {tr.layer_of[name]} | {st['calls'] / n:.6g} | {st['busy'] / n:.6g} "
                     f"| {st['self'] / n:.6g} | {100.0 * st['busy'] / op_time:.1f}% |")
    lines += ["", "| layer | self s/op | self share of op time |", "| --- | --- | --- |"]
    for layer in tracing.LAYERS:
        s = tr.layer_self(layer)
        lines.append(f"| {layer} | {s / n:.6g} | {100.0 * s / op_time:.1f}% |")
    if tr.density_evals:
        lines.append(f"\nSpectralDensity evaluations: {tr.density_evals / n:.6g} per op.")
    if tr.stats["matrix_pencil_fit"]["calls"]:
        lines.append("\nmatrix_pencil_fit.hankel_mb is computed from n and the pencil window, not measured.")
    if tr.dropped:
        lines.append(f"\nSpans counted in the tables but not kept (beyond the first "
                     f"{tracing.SPANS_KEPT_PER_NAME} of a name): {tr.dropped}.")
    target = DESIGNATED[args.workload]
    share = 100.0 * tr.stats[target]["busy"] / op_time
    top_name, top = max(tr.stats.items(), key=lambda item: item[1]["self"])
    if top_name == target:
        verdict = f"matches: it has the largest self time of any span ({share:.1f}% busy share)."
    else:
        verdict = (f"does not match: it has a {share:.1f}% busy share, but the largest self time "
                   f"is {top_name}'s ({100.0 * top['self'] / op_time:.1f}% of op time).")
    lines += ["", f"Designated layer {target}: {verdict}", ""]
    return "\n".join(lines)


# --- entry point ------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="decopoles benchmark (see module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="'smoke' shrinks every input for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "decopoles", "__init__.py")):
        print(f"perfbench: no decopoles package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(WORK, "ops", args.workload)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, args.scale, scratch)
    try:
        run = run_traced(args, ops) if args.trace else run_untraced(args, ops, scratch)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    records = run["records"]
    failed = [r for r in records if r["problems"]]
    metrics = run["metrics"]
    specs = PER_LAYER if args.trace else END_TO_END
    units = dict(specs)
    reproducers = {op.index: op.describe() for op in ops}
    full = {
        "environment": environment(args, ops, records),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": len(records),
        "failed": len(failed),
        "error_rate": len(failed) / len(records),
        "failures": [dict(r, reproducer=reproducers[r["index"]]) for r in failed],
        "regenerate_inputs": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
                             f"--seconds {args.seconds:g} --trace {args.trace} --scale {args.scale}",
        "rungs": rung_summary(ops, records),
        "records": records,
    }
    if args.trace:
        tr = run["tracer"]
        full["spans_kept"] = len(tr.spans)
        full["spans_not_kept"] = tr.dropped
        tr.write_spans(os.path.join(results_dir, f"{tag}-spans.jsonl"))
        with open(os.path.join(results_dir, f"{tag}.md"), "w", encoding="utf-8") as fh:
            fh.write(run["report"])
        print(run["report"])
    else:
        value, pct, beyond = tail([r["seconds"] for r in records])
        full["tail"] = {"percentile": pct, "samples": len(records), "beyond": beyond}
        full["setup"] = [{"wall_s": t, "host_factor": f} for t, f in run["setup"]]
        full["wall_time_metrics"] = run["wall"]
        full["median_host_factor"] = statistics.median(r["host_factor"] for r in records)
    result_path = os.path.join(results_dir, f"{tag}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    env = full["environment"]
    print(f"{args.workload} seed {args.seed}: {len(records)} ops attempted over {env['cycles']} cycles "
          f"of {len(ops)} rungs, {len(failed)} failed")
    for name, unit in specs:
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    print(f"  {'error_rate':40s} {full['error_rate']:.6g} failed/attempted")
    if not args.trace:
        t = full["tail"]
        print(f"  times are wall times over the host factor around them (median here "
              f"{full['median_host_factor']:.4g}); op_s_tail is p{t['percentile']:.1f} "
              f"of {t['samples']} ops ({t['beyond']} beyond); setup_s is the median of "
              f"{len(full['setup'])} fresh interpreters, one per cycle")
        print("  unscaled wall times: " + ", ".join(f"{k} {v:.4g}" for k, v in full["wall_time_metrics"].items()))
        for rung in full["rungs"]:
            print(f"  rung {rung['index']} {rung['kind']:22s} size {rung['size']:>7d}: {rung['samples']} samples, "
                  f"median wall {rung['median_wall_s']:.4g} s, scaled {rung['median_scaled_s']:.4g} s")
    print(f"  inputs {env['input_sizes']}; python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']} x{env['blas_threads']} threads, nproc {env['nproc']}, commit {env['git_commit'][:12]}")
    for r in failed[:5]:
        print(f"  FAILED op {r['index']} ({r['kind']}, size {r['size']}): {r['problems'][:2]}")
    print(f"  full record: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
