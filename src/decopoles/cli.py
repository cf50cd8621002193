"""Command-line front end: JSON config in, deterministic CSV out.

Usage: ``decopoles <subcommand> --config <file> [--out <dir>]`` with
subcommands ``simulate`` (scenarios model1, model2, model3, bifriedrich),
``omnes`` and ``extract``.  Exit codes: 0 success, 2 invalid config (with
field-path diagnostics), 3 numeric failure (quadrature, rank, state
construction).

Configs are strictly validated before any computation: unknown keys are
rejected and every diagnostic names the offending field path.  All float
output uses 17 significant digits so CSVs parse back losslessly and
identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import friedrich, omnes, pole_models, preferred_basis
from .errors import ConvergenceError, RankDeficiencyError, ValidationError

_REQUIRED = object()

_SIMULATE_SCENARIOS = ("model1", "model2", "model3", "bifriedrich")


# --- schema helpers ----------------------------------------------------------


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(doc: dict, path: str, allowed):
    extra = sorted(set(doc) - set(allowed))
    if extra:
        raise ValidationError(f"{path}: unknown keys {extra}; allowed keys are {sorted(allowed)}")


def _field(doc: dict, path: str, key: str, default=_REQUIRED):
    if key in doc:
        return doc[key]
    if default is _REQUIRED:
        raise ValidationError(f"{path}.{key}: required field is missing")
    return default


def _number(doc, path, key, default=_REQUIRED, positive=False) -> float:
    raw = _field(doc, path, key, default)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValidationError(f"{path}.{key}: expected a number, got {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise ValidationError(f"{path}.{key}: must be finite, got {value!r}")
    if positive and value <= 0.0:
        raise ValidationError(f"{path}.{key}: must be > 0, got {value!r}")
    return value


def _integer(doc, path, key, default=_REQUIRED, minimum=None) -> int:
    raw = _field(doc, path, key, default)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValidationError(f"{path}.{key}: expected an integer, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise ValidationError(f"{path}.{key}: must be >= {minimum}, got {raw}")
    return raw


def _string(doc, path, key, default=_REQUIRED, choices=None) -> str:
    raw = _field(doc, path, key, default)
    if not isinstance(raw, str):
        raise ValidationError(f"{path}.{key}: expected a string, got {raw!r}")
    if choices is not None and raw not in choices:
        raise ValidationError(f"{path}.{key}: must be one of {sorted(choices)}, got {raw!r}")
    return raw


def _khalfin(doc, path, key) -> pole_models.KhalfinTail | None:
    raw = _field(doc, path, key, None)
    if raw is None:
        return None
    sub = _as_object(raw, f"{path}.{key}")
    _reject_unknown(sub, f"{path}.{key}", ("amplitude", "tau", "p"))
    return pole_models.KhalfinTail(
        _number(sub, f"{path}.{key}", "amplitude"),
        _number(sub, f"{path}.{key}", "tau", 1.0, positive=True),
        _number(sub, f"{path}.{key}", "p", 3.0, positive=True),
    )


def _grid(doc: dict, path: str) -> np.ndarray:
    sub = _as_object(_field(doc, path, "grid"), f"{path}.grid")
    _reject_unknown(sub, f"{path}.grid", ("t_max", "n_points"))
    t_max = _number(sub, f"{path}.grid", "t_max", positive=True)
    n = _integer(sub, f"{path}.grid", "n_points", minimum=2)
    return np.linspace(0.0, t_max, n)


def _mode_list(doc, path, key) -> tuple:
    raw = _field(doc, path, key)
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{path}.{key}: expected a nonempty array of mode objects")
    modes = []
    for i, entry in enumerate(raw):
        sub = _as_object(entry, f"{path}.{key}[{i}]")
        _reject_unknown(sub, f"{path}.{key}[{i}]", ("omega", "gamma", "amp_re", "amp_im"))
        p = f"{path}.{key}[{i}]"
        modes.append(
            (
                pole_models.Pole(_number(sub, p, "omega", 0.0), _number(sub, p, "gamma", positive=True)),
                complex(_number(sub, p, "amp_re", 1.0), _number(sub, p, "amp_im", 0.0)),
            )
        )
    return tuple(modes)


def _inline_catalogue(doc, path, key) -> pole_models.PoleCatalogue:
    sub = _as_object(_field(doc, path, key), f"{path}.{key}")
    p = f"{path}.{key}"
    _reject_unknown(sub, p, ("modes", "equilibrium", "hbar", "khalfin"))
    return pole_models.PoleCatalogue(
        _number(sub, p, "equilibrium", 0.0),
        _mode_list(sub, p, "modes"),
        _khalfin(sub, p, "khalfin"),
        _number(sub, p, "hbar", 1.0, positive=True),
    )


def _optional_number(doc, path, key):
    if key not in doc:
        return None
    return _number(doc, path, key)


def _spectral_density(sub: dict, path: str) -> friedrich.SpectralDensity:
    kind = _string(sub, path, "kind", choices=("lorentzian", "ohmic", "csv"))
    omega0 = _number(sub, path, "omega0")
    if kind == "lorentzian":
        _reject_unknown(sub, path, ("kind", "omega0", "center", "width", "weight", "lo", "hi"))
        return friedrich.SpectralDensity.lorentzian(
            omega0,
            _number(sub, path, "center"),
            _number(sub, path, "width", positive=True),
            _number(sub, path, "weight", 1.0),
            _optional_number(sub, path, "lo"),
            _optional_number(sub, path, "hi"),
        )
    if kind == "ohmic":
        _reject_unknown(sub, path, ("kind", "omega0", "cutoff", "weight", "lo", "hi"))
        return friedrich.SpectralDensity.ohmic(
            omega0,
            _number(sub, path, "cutoff", positive=True),
            _number(sub, path, "weight", 1.0),
            _number(sub, path, "lo", 0.0),
            _optional_number(sub, path, "hi"),
        )
    _reject_unknown(sub, path, ("kind", "omega0", "path"))
    csv_path = _string(sub, path, "path")
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"{path}.path: cannot read {csv_path!r}: {exc}") from exc
    return friedrich.SpectralDensity.from_csv(omega0, text)


# --- output helpers ----------------------------------------------------------


def _write(outdir: str, name: str, text: str):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _timescales_csv(report: pole_models.TimescaleReport, extra_rows=()) -> str:
    rows = [
        ("t_R", report.t_R),
        ("t_D", report.t_D),
        ("rule", report.rule),
        ("boundary", report.boundary),
        ("p_relevant", ";".join(str(i) for i in report.p_relevant)),
        ("p_irrelevant", ";".join(str(i) for i in report.p_irrelevant)),
    ]
    rows.extend(extra_rows)
    lines = ["name,value"]
    lines.extend(f"{name},{_fmt(value)}" for name, value in rows)
    return "\n".join(lines) + "\n"


# --- scenario runners --------------------------------------------------------


def _parse_simulate(params: dict, scenario: str):
    """Validate scenario params and build catalogue, report and extra rows."""
    path = "params"
    if scenario == "model1":
        _reject_unknown(
            params, path, ("gamma0", "amp_re", "amp_im", "equilibrium", "hbar", "khalfin")
        )
        gamma0 = _number(params, path, "gamma0", positive=True)
        hbar = _number(params, path, "hbar", 1.0, positive=True)
        cat = pole_models.PoleCatalogue(
            _number(params, path, "equilibrium", 0.0),
            (
                (
                    pole_models.Pole(0.0, gamma0),
                    complex(
                        _number(params, path, "amp_re", 1.0),
                        _number(params, path, "amp_im", 0.0),
                    ),
                ),
            ),
            _khalfin(params, path, "khalfin"),
            hbar,
        )
        report = pole_models.decoherence_time(cat, rule=pole_models.RULE_BACKGROUND)
        times = pole_models.model1_times(gamma0, hbar)
        extra = (
            ("pole_pair_time", times[0]),
            ("pole_background_time_1", times[1]),
            ("pole_background_time_2", times[2]),
            ("background_background_time", times[3]),
        )
    elif scenario == "model2":
        _reject_unknown(
            params,
            path,
            ("gamma0", "gamma1", "amp0_re", "amp0_im", "amp1_re", "amp1_im",
             "equilibrium", "hbar", "khalfin"),
        )
        gamma0 = _number(params, path, "gamma0", positive=True)
        gamma1 = _number(params, path, "gamma1", positive=True)
        hbar = _number(params, path, "hbar", 1.0, positive=True)
        cat = pole_models.PoleCatalogue(
            _number(params, path, "equilibrium", 0.0),
            (
                (
                    pole_models.Pole(0.0, gamma0),
                    complex(
                        _number(params, path, "amp0_re", 1.0),
                        _number(params, path, "amp0_im", 0.0),
                    ),
                ),
                (
                    pole_models.Pole(0.0, gamma1),
                    complex(
                        _number(params, path, "amp1_re", 1.0),
                        _number(params, path, "amp1_im", 0.0),
                    ),
                ),
            ),
            _khalfin(params, path, "khalfin"),
            hbar,
        )
        two = pole_models.model2_times(gamma0, gamma1, hbar)
        report = pole_models.decoherence_time(
            cat, boundary=pole_models.BOUNDARY_IRRELEVANT
        )
        extra = (("intermediate_time", two.intermediate),)
    else:  # model3
        _reject_unknown(
            params, path, ("modes", "equilibrium", "hbar", "khalfin", "rule", "boundary")
        )
        cat = pole_models.PoleCatalogue(
            _number(params, path, "equilibrium", 0.0),
            _mode_list(params, path, "modes"),
            _khalfin(params, path, "khalfin"),
            _number(params, path, "hbar", 1.0, positive=True),
        )
        rule = _string(
            params,
            path,
            "rule",
            pole_models.RULE_SECOND_SMALLEST,
            choices=(
                pole_models.RULE_SECOND_SMALLEST,
                pole_models.RULE_SLOWEST,
                pole_models.RULE_BACKGROUND,
            ),
        )
        boundary = _string(
            params,
            path,
            "boundary",
            pole_models.BOUNDARY_RELEVANT,
            choices=(pole_models.BOUNDARY_RELEVANT, pole_models.BOUNDARY_IRRELEVANT),
        )
        report = pole_models.decoherence_time(cat, rule=rule, boundary=boundary)
        extra = ()
    return cat, report, extra


def _run_simulate(parsed, grid: np.ndarray, outdir: str):
    cat, report, extra = parsed
    signal = pole_models.synthesize(cat, grid)
    preferred = pole_models.preferred_signal(cat, report, grid)
    _write(outdir, "signal.csv", pole_models.signal_to_csv(signal))
    _write(outdir, "preferred.csv", pole_models.signal_to_csv(preferred))
    _write(outdir, "timescales.csv", _timescales_csv(report, extra))


def _parse_bifriedrich(params: dict) -> preferred_basis.BiFriedrichModel:
    _reject_unknown(params, "params", ("part1", "part2"))
    return preferred_basis.BiFriedrichModel(
        _inline_catalogue(params, "params", "part1"),
        _inline_catalogue(params, "params", "part2"),
    )


def _run_bifriedrich(model: preferred_basis.BiFriedrichModel, grid: np.ndarray, outdir: str):
    result = preferred_basis.bifriedrich_run(model, grid)
    _write(outdir, "signal1.csv", pole_models.signal_to_csv(result.signal1))
    _write(outdir, "signal2.csv", pole_models.signal_to_csv(result.signal2))
    lines = ["t,part1_state,part2_state"]
    lines.extend(f"{t:.17g},{s1},{s2}" for t, s1, s2 in result.verdicts)
    _write(outdir, "verdicts.csv", "\n".join(lines) + "\n")


def _parse_omnes(params: dict) -> dict:
    """Validate omnes params; pole resolution from a density stays deferred."""
    path = "params"
    allowed = (
        "m", "omega", "hbar", "gamma0", "L0", "a_re", "a_im", "b_re", "b_im",
        "N", "omega_prime", "L0_sweep", "spectral_density",
    )
    _reject_unknown(params, path, allowed)
    if "spectral_density" in params and (
        "gamma0" in params or "omega_prime" in params
    ):
        raise ValidationError(
            "params: spectral_density is mutually exclusive with gamma0 / omega_prime"
        )

    plan = {
        "m": _number(params, path, "m", 1.0, positive=True),
        "omega": _number(params, path, "omega", 2.0, positive=True),
        "hbar": _number(params, path, "hbar", 1.0, positive=True),
        "L0": _number(params, path, "L0", 10.0, positive=True),
        "a": complex(
            _number(params, path, "a_re", math.sqrt(0.5)),
            _number(params, path, "a_im", 0.0),
        ),
        "b": complex(
            _number(params, path, "b_re", math.sqrt(0.5)),
            _number(params, path, "b_im", 0.0),
        ),
        "N": _integer(params, path, "N", 6000, minimum=1),
        "density": None,
        "gamma0": None,
        "omega_prime": 0.0,
    }
    ssq = abs(plan["a"]) ** 2 + abs(plan["b"]) ** 2
    if abs(ssq - 1.0) > 1e-12:
        raise ValidationError(
            f"params.a_re/a_im/b_re/b_im: |a|^2 + |b|^2 = {ssq!r}, must be 1 within 1e-12"
        )
    if "spectral_density" in params:
        plan["density"] = _spectral_density(
            _as_object(params["spectral_density"], "params.spectral_density"),
            "params.spectral_density",
        )
    else:
        plan["gamma0"] = _number(params, path, "gamma0", 0.1, positive=True)
        plan["omega_prime"] = _number(params, path, "omega_prime", 0.0)

    sweep_raw = _field(params, path, "L0_sweep", [10.0, 20.0, 40.0])
    if not isinstance(sweep_raw, list) or not sweep_raw:
        raise ValidationError("params.L0_sweep: expected a nonempty array of lengths")
    sweep = []
    for i, v in enumerate(sweep_raw):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or float(v) <= 0.0:
            raise ValidationError(f"params.L0_sweep[{i}]: expected a positive number, got {v!r}")
        sweep.append(float(v))
    plan["L0_sweep"] = sweep
    return plan


def _run_omnes(plan: dict, grid: np.ndarray, outdir: str):
    if plan["density"] is not None:
        pole = friedrich.perturbative_pole(plan["density"])
        if pole.gamma0 <= 0.0:
            raise ValidationError(
                "spectral density vanishes at omega0: no decay pole to drive the model"
            )
        gamma0 = pole.gamma0
        omega_prime = pole.omega_prime
    else:
        gamma0 = plan["gamma0"]
        omega_prime = plan["omega_prime"]

    cfg = omnes.OmnesConfig(
        m=plan["m"],
        omega=plan["omega"],
        hbar=plan["hbar"],
        gamma0=gamma0,
        L0=plan["L0"],
        a=plan["a"],
        b=plan["b"],
        N=plan["N"],
    )
    z0 = cfg.z0(omega_prime)
    sweep = plan["L0_sweep"]

    report = omnes.macroscopicity_check(cfg)
    status = "PASS" if report.passed else "FAIL"
    _write(
        outdir,
        "macroscopicity.txt",
        "\n".join(
            [
                f"status: {status}",
                f"delta: {report.delta:.17g}",
                f"lower_margin: {report.lower_margin:.17g}",
                f"upper_margin: {report.upper_margin:.17g}",
                f"min_delta: {report.min_delta:.17g}",
                f"truncation_factor: {report.truncation_factor:.17g}",
            ]
        )
        + "\n",
    )
    if not report.passed:
        print(
            f"warning: macroscopicity FAIL (delta={report.delta:.3g}); proceeding",
            file=sys.stderr,
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # macroscopicity already reported above
        lines = ["t,abs_rho12"]
        for t in grid:
            block = omnes.nd_block(cfg, z0, float(t))
            lines.append(f"{t:.17g},{abs(block.rho12):.17g}")
        _write(outdir, "nd_decay.csv", "\n".join(lines) + "\n")

        lines = ["L0,t_D,gamma_tilde"]
        for L0 in sweep:
            swept = omnes.OmnesConfig(
                m=cfg.m, omega=cfg.omega, hbar=cfg.hbar, gamma0=cfg.gamma0,
                L0=L0, a=cfg.a, b=cfg.b, N=cfg.N,
            )
            rate = omnes.collective_rate(swept)
            lines.append(f"{L0:.17g},{rate.t_D:.17g},{rate.gamma_tilde:.17g}")
        _write(outdir, "td_vs_L0.csv", "\n".join(lines) + "\n")


def _parse_extract(params: dict) -> dict:
    path = "params"
    _reject_unknown(params, path, ("input_csv", "model_order", "equilibrium", "hbar"))
    csv_path = _string(params, path, "input_csv")
    order = _integer(params, path, "model_order", minimum=1)
    equilibrium = _number(params, path, "equilibrium", 0.0)
    hbar = _number(params, path, "hbar", 1.0, positive=True)
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"params.input_csv: cannot read {csv_path!r}: {exc}") from exc
    try:
        signal = pole_models.signal_from_csv(text)
    except ValidationError as exc:
        raise ValidationError(f"params.input_csv: {csv_path!r}: {exc}") from exc
    return {"signal": signal, "order": order, "equilibrium": equilibrium, "hbar": hbar}


def _run_extract(plan: dict, outdir: str):
    from .numerics import fit_residual, matrix_pencil_fit

    signal = plan["signal"]
    order = plan["order"]
    equilibrium = plan["equilibrium"]
    hbar = plan["hbar"]
    values = signal.values - equilibrium
    try:
        fitted = matrix_pencil_fit(signal.times, values, order)
    except RankDeficiencyError as exc:
        if exc.effective_rank and exc.effective_rank >= 1:
            print(
                f"warning: requested {order} modes but the signal supports only "
                f"{exc.effective_rank}; refitting at the effective rank",
                file=sys.stderr,
            )
            fitted = matrix_pencil_fit(signal.times, values, exc.effective_rank)
        else:
            raise

    t_span = float(signal.times[-1] - signal.times[0])
    growth = [z.real for z, _ in fitted if z.real * t_span > 1e-8]
    if growth:
        raise ConvergenceError(
            f"{len(growth)} fitted mode(s) grow over the window (largest growth rate "
            f"{max(growth):.3e}); a pole catalogue holds only decaying modes"
        )
    # rates with no visible decay over the window are equilibrium content
    modes = []
    for z, amp in fitted:
        gamma = -z.real * hbar
        if gamma * t_span / hbar < 1e-8:
            equilibrium += amp.real
            continue
        modes.append((pole_models.Pole(-z.imag * hbar + 0.0, gamma), amp))
    if not modes:
        raise RankDeficiencyError(
            "signal contains no decaying modes (constant or equilibrium-only content)",
            effective_rank=0,
        )
    cat = pole_models.PoleCatalogue(equilibrium, tuple(modes), None, hbar)
    _write(outdir, "catalogue.json", pole_models.catalogue_to_json(cat) + "\n")
    residual = fit_residual(signal.times, values, fitted)
    print(f"residual: {residual:.17g}")


# --- entry point -------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config {path!r} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return _as_object(doc, "config")


def _dispatch(subcommand: str, doc: dict, outdir: str):
    _reject_unknown(doc, "config", ("scenario", "grid", "params", "output_dir"))
    scenario = _string(
        doc,
        "config",
        "scenario",
        choices=_SIMULATE_SCENARIOS + ("omnes", "extract"),
    )
    expected = {
        "simulate": _SIMULATE_SCENARIOS,
        "omnes": ("omnes",),
        "extract": ("extract",),
    }[subcommand]
    if scenario not in expected:
        raise ValidationError(
            f"config.scenario: {scenario!r} does not belong to subcommand "
            f"{subcommand!r} (expected one of {sorted(expected)})"
        )
    params = _as_object(_field(doc, "config", "params", {}), "config.params")
    if scenario == "extract":
        if "grid" in doc:
            raise ValidationError("config.grid: extract reads its grid from the input CSV")
        plan = _parse_extract(params)
        return lambda: _run_extract(plan, outdir)
    grid = _grid(doc, "config")
    if scenario == "bifriedrich":
        model = _parse_bifriedrich(params)
        return lambda: _run_bifriedrich(model, grid, outdir)
    if scenario == "omnes":
        plan = _parse_omnes(params)
        return lambda: _run_omnes(plan, grid, outdir)
    parsed = _parse_simulate(params, scenario)
    return lambda: _run_simulate(parsed, grid, outdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decopoles",
        description="Pole-catalogue decoherence models: simulate, sweep, extract.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, blurb in (
        ("simulate", "run a scalar scenario (model1, model2, model3, bifriedrich)"),
        ("omnes", "run the coherent-superposition decay sweep"),
        ("extract", "fit a pole catalogue to a signal CSV"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    try:
        doc = _load_config(args.config)
        outdir = args.out
        if outdir is None:
            outdir = doc.get("output_dir", ".")
            if not isinstance(outdir, str):
                raise ValidationError("config.output_dir: expected a string path")
        runner = _dispatch(args.subcommand, doc, outdir)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        runner()
    except RankDeficiencyError as exc:
        rank = exc.effective_rank
        print(
            f"numeric failure: {exc}"
            + (f" (effective rank {rank})" if rank is not None else ""),
            file=sys.stderr,
        )
        return 3
    except (ConvergenceError, ValidationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
