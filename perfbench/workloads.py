"""Seeded input generators for the four benchmark workloads.

Every workload is a fixed *ladder* of op configurations, one per rung; a
pass over the ladder is a *cycle*.  The seed picks the physical parameters
and the order of the rungs.  Sizes, the operation kind on each rung and
every parameter that sets an op's cost (mode counts, Khalfin tails, the
model order asked for) stay the same from seed to seed, so every run of a
workload times the same work.  A run repeats a fixed number of whole
cycles (``cycles_for``, ``closed_loop``), so each rung is timed the same
number of times in every run, spread over the run.

The host's speed drifts by up to 2x over seconds to minutes, often for a
whole run, so each op is bracketed by a short reference timed just before
and just after it.  The mean of the two, over the reference's nominal time,
is the op's ``host_factor``: how slowly the host ran around it (see
``run.py`` for how op times are scaled by it).  Library ops are bracketed
by an in-process kernel of small numpy calls (``kernel_factor``); child
processes (CLI ops, set-up samples) by a bare interpreter start
(``START_ARGV``), because their start-up, much of their time, tracks
that and barely tracks the kernel.

An *op* is one closed-loop operation: one ``decopoles`` child process for
the CLI workloads, one library call chain for the others.  Each op carries
the ground truth its checker needs (``truth``), which is derived here from
the generating parameters and never from the program under test.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("cli_write", "cli_extract", "frame_convergence", "fock_eigenbasis")
CLI_WORKLOADS = ("cli_write", "cli_extract")

# Rungs are chosen so that their op times rise steadily up the ladder and,
# with the cycle counts below, the median and the tail (the sample with ten
# beyond it) fall inside one rung's samples rather than between two rungs.

# grid sizes (points) of cli_write, log-spaced over 1e4 .. 3e4
_WRITE_SIZES = {
    "full": (10_001, 11_473, 13_161, 15_101, 17_321, 19_873, 22_797, 26_153, 30_001),
    "smoke": (201, 301, 401, 501, 601, 701, 801, 901, 1001),
}
# the op kind on each write rung, cheapest per grid point first.  Each
# simulate scenario and each omnes pole source appears at least once, and
# omnes runs with a passing and with a failing macroscopicity check (a
# failing one warns on every grid point).  The last field says whether a
# simulate catalogue carries a Khalfin tail, or whether the omnes check passes.
_WRITE_KINDS = (
    ("simulate", "model1", True),
    ("simulate", "model2", False),
    ("simulate", "bifriedrich", True),
    ("simulate", "model3", True),
    ("omnes", "lorentzian", True),
    ("omnes", "ohmic", False),
    ("omnes", "gamma0", True),
    ("omnes", "gamma0", False),
    ("omnes", "csv", False),
)
_MODEL3_MODES = 6

# signal lengths (samples) of cli_extract and the modes each signal holds;
# the retry rung asks for _EXTRACT_OVER_ASK more modes than its signal holds
_EXTRACT_SIZES = {
    "full": (901, 1001, 1101, 1251, 1401, 1601, 1801),
    "smoke": (101, 111, 121, 131, 141, 161, 201),
}
_EXTRACT_MODES = (2, 3, 4, 3, 2, 4, 3)
_EXTRACT_RETRY_RUNG = 0
_EXTRACT_OVER_ASK = 2

# truncation N of frame_convergence, and its time-grid length
_FRAME_SIZES = {"full": (200, 300, 450, 675, 1000), "smoke": (24, 32, 40, 48, 64)}
_FRAME_GRID = {"full": 81, "smoke": 49}

# truncation N of fock_eigenbasis (matrix dimension N + 1), and grid length
_FOCK_SIZES = {"full": (24, 30, 36, 42, 48), "smoke": (4, 6, 8, 10, 12)}
_FOCK_GRID = {"full": 5, "smoke": 3}


# The references' times on the 2-core x86-64 VM the benchmark was tuned on,
# about their medians there: op times are reported as seconds on a host
# where the references take this long.
KERNEL_SECONDS = 0.003
START_SECONDS = 0.016
START_ARGV = [sys.executable, "-S", "-c", "pass"]
_KERNEL_MATRIX = np.random.default_rng(0).random((49, 49))


def kernel_factor() -> float:
    """Time of a fixed kernel of small numpy calls, over KERNEL_SECONDS.

    Like the library, the kernel drives many small numpy calls from Python;
    a bare Python loop slows less than numpy-heavy code when the host is
    contended.
    """
    t0 = time.perf_counter()
    a = _KERNEL_MATRIX.copy()
    for k in range(300):
        j = k % 49
        c = a[:, j].copy()
        a[:, j] = np.sqrt(c * c + 1.0) - c
        a[j, :] = a[j, :] * 0.5 + 0.25
        float(np.dot(c, a[:, (j + 1) % 49]))
    return (time.perf_counter() - t0) / KERNEL_SECONDS


def bracketed(fn, host_factor=kernel_factor):
    """Call ``fn()``; return its result and the mean host factor around it."""
    before = host_factor()
    result = fn()
    return result, 0.5 * (before + host_factor())


@dataclass
class Op:
    """One rung of a workload's ladder."""

    index: int
    kind: str
    size: int
    params: dict
    truth: dict = field(default_factory=dict)
    argv: list = field(default_factory=list)  # CLI arguments after ``decopoles``
    outdir: str = ""

    def describe(self) -> dict:
        """JSON-ready reproducer: the config (or chain parameters) and argv."""
        out = {"index": self.index, "kind": self.kind, "size": self.size, "params": self.params}
        if self.argv:
            out["argv"] = ["decopoles"] + self.argv
        return out


# Whole cycles in a 25-second run: about 18-20 s of work on a 2-core x86-64
# VM at its usual speed, so that a host running 1.5x slow still fits them.
_CYCLES_PER_25S = {"cli_write": 4, "cli_extract": 4, "frame_convergence": 8, "fock_eigenbasis": 12}
# a run starts no cycle it expects to end past this multiple of its seconds
_OVERRUN = 1.3


def cycles_for(workload: str, seconds: float) -> int:
    """Whole cycles a run of ``seconds`` measures: the same for every run."""
    return max(1, round(_CYCLES_PER_25S[workload] * seconds / 25.0))


def closed_loop(ops: list, cycles: int, seconds: float, run_op, before_cycle=None,
                host_factor=kernel_factor) -> list:
    """Run ``cycles`` whole cycles over ``ops``, one op at a time.

    Every rung is timed once per cycle.  On a host so slow that another
    cycle would end past ``_OVERRUN * seconds``, the run stops early; the
    first cycle always runs.  ``before_cycle()``, when given, runs at the
    start of every cycle.  ``run_op(op)`` returns a dict with at least
    ``seconds`` (the op's wall time) and ``problems`` (empty when the output
    checked out); checking happens inside ``run_op`` but outside its timed
    region.  Returns one record per op, in issue order, with the
    ``host_factor()`` around the op.
    """
    start = time.perf_counter()
    records = []
    for cycle in range(cycles):
        elapsed = time.perf_counter() - start
        if cycle and elapsed + elapsed / cycle > _OVERRUN * seconds:
            break
        if before_cycle is not None:
            before_cycle()
        for op in ops:
            record = {"index": op.index, "kind": op.kind, "size": op.size, "cycle": cycle}
            result, record["host_factor"] = bracketed(lambda: run_op(op), host_factor)
            record.update(result)
            records.append(record)
    return records


def _balanced_order(rng: np.random.Generator, n: int) -> list:
    """Rung order in shuffled (small, large) pairs, so large ops never bunch up."""
    pairs = [(i, n - 1 - i) for i in range(n // 2)]
    order = []
    for p in rng.permutation(len(pairs)):
        a, b = pairs[p]
        order.extend((a, b) if rng.random() < 0.5 else (b, a))
    if n % 2:
        order.insert(int(rng.integers(0, len(order) + 1)), n // 2)
    return order


def build(workload: str, seed: int, scale: str, workdir: str) -> list:
    """Generate a workload's ladder from ``seed``; write its input files.

    Returns the ops in execution order: shuffled (small, large) pairs of
    rungs.  Input files (configs, signal and density CSVs) are written
    under ``workdir`` before any timing starts.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if scale not in ("full", "smoke"):
        raise ValueError(f"unknown scale {scale!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    makers = {"cli_write": _write_ops, "cli_extract": _extract_ops,
              "frame_convergence": _frame_ops, "fock_eigenbasis": _fock_ops}
    ops = makers[workload](rng, scale, workdir)
    return [ops[i] for i in _balanced_order(rng, len(ops))]


# --- cli_write --------------------------------------------------------------


def _modes(rng, count, lo=0.02, hi=5.0, complex_amps=False):
    gammas = np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi), size=count)))
    modes = []
    for g in gammas:
        mode = {"gamma": float(g), "amp_re": float(rng.uniform(-2.0, 3.0))}
        if complex_amps:
            mode["amp_im"] = float(rng.uniform(-1.0, 1.0))
        modes.append(mode)
    return modes


def _khalfin(rng, present):
    if not present:
        return None
    return {
        "amplitude": float(rng.uniform(-0.5, 0.5)),
        "tau": float(rng.uniform(0.5, 5.0)),
        "p": float(rng.uniform(1.5, 4.0)),
    }


def _truth_catalogue(modes, equilibrium, khalfin, hbar):
    return {
        "equilibrium": equilibrium,
        "hbar": hbar,
        "modes": [(m["gamma"], m.get("amp_re", 1.0), m.get("amp_im", 0.0)) for m in modes],
        "khalfin": None if khalfin is None else (khalfin["amplitude"], khalfin["tau"], khalfin["p"]),
    }


def _simulate_op(rng, kind, n, with_tail):
    hbar = float(rng.uniform(0.5, 2.0))
    equilibrium = float(rng.uniform(-1.0, 1.0))
    khalfin = _khalfin(rng, with_tail)
    truth = {"scenario": kind, "n": n}
    if kind == "model1":
        gamma0 = float(np.exp(rng.uniform(math.log(0.02), math.log(5.0))))
        params = {"gamma0": gamma0, "amp_re": float(rng.uniform(0.5, 3.0)),
                  "amp_im": 0.0, "equilibrium": equilibrium, "hbar": hbar}
        modes = [{"gamma": gamma0, "amp_re": params["amp_re"]}]
        truth.update(rule="background-only", boundary="relevant",
                     extra=[("pole_pair_time", hbar / gamma0),
                            ("pole_background_time_1", 2.0 * hbar / gamma0),
                            ("pole_background_time_2", 2.0 * hbar / gamma0),
                            ("background_background_time", math.inf)])
    elif kind == "model2":
        gamma0 = float(np.exp(rng.uniform(math.log(0.02), math.log(0.2))))
        gamma1 = gamma0 * float(rng.uniform(12.0, 50.0))
        params = {"gamma0": gamma0, "gamma1": gamma1,
                  "amp0_re": float(rng.uniform(0.5, 3.0)), "amp1_re": float(rng.uniform(0.5, 3.0)),
                  "equilibrium": equilibrium, "hbar": hbar}
        modes = [{"gamma": gamma0, "amp_re": params["amp0_re"]},
                 {"gamma": gamma1, "amp_re": params["amp1_re"]}]
        truth.update(rule="second-smallest-gamma", boundary="irrelevant",
                     extra=[("intermediate_time", hbar / (gamma1 + gamma0))])
    elif kind == "model3":
        modes = _modes(rng, _MODEL3_MODES, complex_amps=True)
        rule = str(rng.choice(["second-smallest-gamma", "slowest-only", "background-only"]))
        boundary = str(rng.choice(["relevant", "irrelevant"]))
        params = {"modes": modes, "equilibrium": equilibrium, "hbar": hbar,
                  "rule": rule, "boundary": boundary}
        truth.update(rule=rule, boundary=boundary, extra=[])
    else:  # bifriedrich: a fast part (with_tail: with a Khalfin tail) and a slow part
        parts = {}
        for name, lo, hi, count, tail in (("part1", 0.5, 2.0, 3, with_tail),
                                          ("part2", 0.005, 0.05, 2, False)):
            part_modes = _modes(rng, count, lo, hi)
            part_tail = _khalfin(rng, tail)
            part = {"modes": part_modes, "equilibrium": float(rng.uniform(-1.0, 1.0)),
                    "hbar": hbar}
            if part_tail is not None:
                part["khalfin"] = part_tail
            parts[name] = part
            truth[name] = _truth_catalogue(part_modes, part["equilibrium"], part_tail, hbar)
        t_max = 1.5 * hbar / parts["part2"]["modes"][0]["gamma"]
        truth["t_max"] = t_max
        return _grid_config("bifriedrich", parts, t_max, n), truth
    if khalfin is not None:
        params["khalfin"] = khalfin
    truth["catalogue"] = _truth_catalogue(modes, equilibrium, khalfin, hbar)
    t_max = 6.0 * hbar / min(m["gamma"] for m in modes)
    truth["t_max"] = t_max
    return _grid_config(kind, params, t_max, n), truth


def _grid_config(scenario, params, t_max, n):
    return {"scenario": scenario, "grid": {"t_max": t_max, "n_points": n}, "params": params}


def _density_csv_text(rng):
    omegas = np.sort(rng.uniform(0.0, 4.0, size=18))
    omegas = np.concatenate(([0.0], omegas, [4.0]))
    values = rng.uniform(0.005, 0.08, size=omegas.size)
    lines = ["omega,g"] + [f"{w!r},{g!r}" for w, g in zip(omegas.tolist(), values.tolist())]
    return "\n".join(lines) + "\n", omegas.tolist(), values.tolist()


def _omnes_op(rng, source, n, opdir, macroscopic):
    hbar = 1.0
    m = float(rng.uniform(0.5, 2.0))
    omega = float(rng.uniform(1.0, 3.0))
    # Delta = L0 sqrt(m omega / 2) / hbar; the macroscopicity check passes
    # when 10 <= Delta <= 0.1 sqrt(2 (N + 1))
    if macroscopic:
        delta = float(rng.uniform(10.0, 12.0))
        N = int(50.0 * delta * delta) + int(rng.integers(0, 2000))
    else:
        delta = float(rng.uniform(6.0, 9.9))
        N = int(rng.integers(4000, 8001))
    L0 = delta / math.sqrt(m * omega / 2.0)
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    a_abs = math.sqrt(float(rng.uniform(0.2, 0.8)))
    a = complex(a_abs, 0.0)
    b = complex(math.sqrt(1.0 - a_abs * a_abs) * math.cos(phase),
                math.sqrt(1.0 - a_abs * a_abs) * math.sin(phase))
    params = {"m": m, "omega": omega, "hbar": hbar, "L0": L0,
              "a_re": a.real, "a_im": a.imag, "b_re": b.real, "b_im": b.imag,
              "N": N,
              "L0_sweep": sorted(float(x) for x in rng.uniform(5.0, 40.0, size=4))}
    truth = {"n": n, "source": source,
             "m": m, "omega": omega, "hbar": hbar, "L0": L0, "a": (a.real, a.imag),
             "b": (b.real, b.imag), "N": params["N"], "L0_sweep": params["L0_sweep"]}
    if source == "gamma0":
        params["gamma0"] = float(np.exp(rng.uniform(math.log(0.05), math.log(0.5))))
        params["omega_prime"] = float(rng.uniform(0.0, 2.0))
        truth["density"] = None
    elif source == "lorentzian":
        sd = {"kind": "lorentzian", "omega0": float(rng.uniform(0.8, 1.2)),
              "center": float(rng.uniform(0.5, 1.5)), "width": float(rng.uniform(0.2, 1.0)),
              "weight": float(rng.uniform(0.05, 0.3))}
        params["spectral_density"] = sd
        truth["density"] = dict(sd)
    elif source == "ohmic":
        sd = {"kind": "ohmic", "omega0": float(rng.uniform(0.5, 2.0)),
              "cutoff": float(rng.uniform(1.0, 5.0)), "weight": float(rng.uniform(0.02, 0.1))}
        params["spectral_density"] = sd
        truth["density"] = dict(sd)
    else:
        text, omegas, values = _density_csv_text(rng)
        path = os.path.join(opdir, "density.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        sd = {"kind": "csv", "omega0": float(rng.uniform(0.5, 3.5)), "path": path}
        params["spectral_density"] = sd
        truth["density"] = {"kind": "csv", "omega0": sd["omega0"],
                            "omegas": omegas, "values": values}
    # a density's pole is only resolved at run time; 0.1 is its typical width
    t_max = float(rng.uniform(2.0, 10.0)) / params.get("gamma0", 0.1)
    truth["t_max"] = t_max
    return _grid_config("omnes", params, t_max, n), truth


def _write_config(opdir, config):
    os.makedirs(opdir, exist_ok=True)
    path = os.path.join(opdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    return path


def _write_ops(rng, scale, workdir):
    ops = []
    for rung, (n, (sub, kind, flag)) in enumerate(zip(_WRITE_SIZES[scale], _WRITE_KINDS)):
        opdir = os.path.join(workdir, f"op{rung}")
        os.makedirs(opdir, exist_ok=True)
        if sub == "omnes":
            config, truth = _omnes_op(rng, kind, n, opdir, flag)
        else:
            config, truth = _simulate_op(rng, kind, n, flag)
        path = _write_config(opdir, config)
        outdir = os.path.join(opdir, "out")
        ops.append(Op(rung, f"{sub}/{kind}", n, config, truth,
                      [sub, "--config", path, "--out", outdir], outdir))
    return ops


# --- cli_extract ------------------------------------------------------------


def _signal_csv_text(times, values) -> str:
    lines = ["t,re,im"]
    lines.extend(f"{t:.17g},{v.real:.17g},{v.imag:.17g}" for t, v in zip(times.tolist(), values.tolist()))
    return "\n".join(lines) + "\n"


def _extract_ops(rng, scale, workdir):
    ops = []
    for rung, (n, k) in enumerate(zip(_EXTRACT_SIZES[scale], _EXTRACT_MODES)):
        gammas = [float(rng.uniform(0.05, 0.5))]
        for _ in range(k - 1):
            gammas.append(gammas[-1] * float(rng.uniform(2.5, 3.4)))
        amps = rng.uniform(0.5, 3.0, size=k)
        equilibrium = float(rng.uniform(-1.0, 1.0))
        hbar = float(rng.uniform(0.5, 2.0))
        t = np.linspace(0.0, 5.0 * hbar / gammas[0], n)
        values = np.full(n, equilibrium, dtype=complex)
        for g, a in zip(gammas, amps):
            values += a * np.exp(-g * t / hbar)
        opdir = os.path.join(workdir, f"op{rung}")
        os.makedirs(opdir, exist_ok=True)
        csv_path = os.path.join(opdir, "signal.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(_signal_csv_text(t, values))
        order = k + (_EXTRACT_OVER_ASK if rung == _EXTRACT_RETRY_RUNG else 0)
        config = {"scenario": "extract",
                  "params": {"input_csv": csv_path, "model_order": order,
                             "equilibrium": equilibrium, "hbar": hbar}}
        path = _write_config(opdir, config)
        outdir = os.path.join(opdir, "out")
        truth = {"gammas": gammas, "amps": amps.tolist(), "equilibrium": equilibrium,
                 "hbar": hbar, "order": order, "n": n}
        kind = "extract/retry" if order > k else "extract"
        ops.append(Op(rung, kind, n, config, truth,
                      ["extract", "--config", path, "--out", outdir], outdir))
    return ops


# --- library workloads ------------------------------------------------------


def _frame_ops(rng, scale, workdir):
    ops = []
    for rung, N in enumerate(_FRAME_SIZES[scale]):
        # with m omega / (2 hbar^2) = 1, Delta^2 = L0^2; the coherent branch's
        # Fock weight then lies well inside the truncation (Delta^2 + 10 Delta < N)
        delta_sq = float(rng.uniform(16.0, 64.0)) if scale == "full" else float(rng.uniform(2.0, 4.0))
        params = {"m": 1.0, "omega": 2.0, "hbar": 1.0,
                  "gamma0": float(rng.uniform(0.05, 0.3)), "L0": math.sqrt(delta_sq),
                  "a_abs_sq": 0.5, "N": N, "n_grid": _FRAME_GRID[scale]}
        ops.append(Op(rung, "frame_convergence", N, params))
    return ops


def _fock_ops(rng, scale, workdir):
    ops = []
    for rung, N in enumerate(_FOCK_SIZES[scale]):
        a_abs_sq = float(rng.uniform(0.2, 0.8))
        params = {"m": 1.0, "omega": 2.0, "hbar": 1.0,
                  "gamma0": float(rng.uniform(0.05, 0.3)),
                  "L0": float(rng.uniform(0.15, 0.4)) * math.sqrt(N),
                  "a_abs_sq": a_abs_sq, "b_phase": float(rng.uniform(0.0, 2.0 * math.pi)),
                  "omega_prime": float(rng.uniform(0.0, 1.0)), "N": N,
                  "n_grid": _FOCK_GRID[scale], "t_span": float(rng.uniform(1.0, 3.0))}
        ops.append(Op(rung, "fock_eigenbasis", N, params))
    return ops
