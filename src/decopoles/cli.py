"""Command-line front end: JSON config in, deterministic CSV out.

Usage: ``decopoles <subcommand> --config <file> [--out <dir>]`` with
subcommands ``simulate`` (scenarios model1, model2, model3, bifriedrich),
``omnes`` and ``extract``.  Exit codes: 0 success, 2 invalid config (with
field-path diagnostics), an unreadable input or an unwritable output path,
3 numeric failure (quadrature, rank, state construction).  Every
``warning:`` line on stderr is the CLI's: the library returns each
condition as data (``omnes.macroscopicity_check``,
``Model2Times.weak_separation``) and warns about nothing.

``model3`` reads a general pole catalogue (``modes``, ``equilibrium``,
``hbar``, ``khalfin``) with a partition ``rule`` and ``boundary``; the
catalogue schema's one reader, shared with ``catalogue_from_json``, lives
in ``pole_models``.  ``model1`` and ``model2`` are presets of it (``_PRESETS``): a fixed-shape
catalogue of one or two poles read from flat keys, with a fixed rule and
boundary and the extra timescale rows of ``pole_models.model1_times`` /
``model2_times``.  Each scenario belongs to one subcommand
(``_SCENARIOS``).

A run imports only what its scenario needs: ``numerics`` and
``pole_models`` always, ``preferred_basis`` for ``bifriedrich`` and
``friedrich`` with ``omnes`` for ``omnes``, each inside the scenario
function that uses it.  ``extract`` refits an over-asked order at the
effective rank from the pencil's one SVD.

Each scenario is one function that validates its params strictly, before
any computation: unknown keys are rejected and every diagnostic names the
offending field path.  It returns ``run``, which computes every output
file, ``{file name: text or its chunks}``, and writes nothing; ``main``
then writes them all, so a numeric failure leaves no output behind.  All
float output uses 17 significant digits so CSVs parse back losslessly and
identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import numerics, pole_models
from .errors import ConvergenceError, RankDeficiencyError, ValidationError
from .pole_models import (  # the catalogue schema's reader and field validators
    _CATALOGUE_KEYS, _REQUIRED, _as_object, _catalogue, _field, _finite, _mode, _number,
    _read_catalogue, _reject_unknown,
)


# --- schema helpers ----------------------------------------------------------


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


def _grid(doc: dict, path: str) -> np.ndarray:
    sub = _as_object(_field(doc, path, "grid"), f"{path}.grid")
    _reject_unknown(sub, f"{path}.grid", ("t_max", "n_points"))
    t_max = _number(sub, f"{path}.grid", "t_max", positive=True)
    n = _integer(sub, f"{path}.grid", "n_points", minimum=2)
    return np.linspace(0.0, t_max, n)


def _optional_number(doc, path, key):
    if key not in doc:
        return None
    return _number(doc, path, key)


def _spectral_density(sub: dict, path: str) -> friedrich.SpectralDensity:
    """The density block; it must be positive at omega0, strictly inside its support."""
    from . import friedrich

    kind = _string(sub, path, "kind", choices=("lorentzian", "ohmic", "csv"))
    omega0 = _number(sub, path, "omega0")
    if kind == "csv":
        _reject_unknown(sub, path, ("kind", "omega0", "path"))
        parse = functools.partial(friedrich.SpectralDensity.from_csv, omega0)
        density = _read_table(_string(sub, path, "path"), f"{path}.path", parse)
    else:
        if kind == "lorentzian":
            _reject_unknown(sub, path, ("kind", "omega0", "center", "width", "weight", "lo", "hi"))
            make = friedrich.SpectralDensity.lorentzian
            shape = (_number(sub, path, "center"), _number(sub, path, "width", positive=True))
        else:
            _reject_unknown(sub, path, ("kind", "omega0", "cutoff", "weight", "lo", "hi"))
            make = friedrich.SpectralDensity.ohmic
            shape = (_number(sub, path, "cutoff", positive=True),)
        weight = _number(sub, path, "weight", 1.0, positive=True)
        lo = _optional_number(sub, path, "lo")
        hi = _optional_number(sub, path, "hi")
        if lo is not None and hi is not None and not lo < hi:
            raise ValidationError(f"{path}.hi: must be > lo = {lo!r}, got {hi!r}")
        try:
            density = make(omega0, *shape, weight, lo, hi)
        except ValidationError:  # one given bound crossed the kind's default for the other
            band = make(omega0, *shape, weight)
            if hi is None and not lo < band.hi:
                raise ValidationError(f"{path}.lo: must be < the default hi = {band.hi!r}, got {lo!r}")
            if lo is None and not band.lo < hi:
                raise ValidationError(f"{path}.hi: must be > the default lo = {band.lo!r}, got {hi!r}")
            raise
    # pi * g(omega0) is the decay rate of the pole the density must drive
    if not density.lo < omega0 < density.hi:
        raise ValidationError(
            f"{path}.omega0: must lie strictly inside the support "
            f"({density.lo!r}, {density.hi!r}), got {omega0!r}"
        )
    if density(omega0) == 0.0:
        raise ValidationError(f"{path}.omega0: the density vanishes at omega0 = {omega0!r}")
    return density


def _read_text(path: str, label: str) -> str:
    """Contents of a UTF-8 file; an unreadable or undecodable one is a config error ``label 'path': why``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{label} {path!r}: {exc}") from exc


def _read_table(csv_path: str, path: str, parse):
    """``parse`` of a UTF-8 file's text; its errors are config errors ``path: 'csv_path': why``."""
    text = _read_text(csv_path, f"{path}: cannot read")
    try:
        return parse(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {csv_path!r}: {exc}") from exc


# --- output helpers ----------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then each row's fields rendered by ``_fmt``."""
    lines = [header]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _timescales_csv(report: pole_models.TimescaleReport, extra_rows=()) -> str:
    rows = [
        ("t_R", report.t_R),
        ("t_D", report.t_D),
        ("rule", report.rule),
        ("boundary", report.boundary),
        ("p_relevant", ";".join(str(i) for i in report.p_relevant)),
        ("p_irrelevant", ";".join(str(i) for i in report.p_irrelevant)),
    ]
    return _csv("name,value", rows + list(extra_rows))


# --- scenarios ---------------------------------------------------------------

_VISIBLE_CHANGE = 1e-8  # extract: a rate r changes a window of span T visibly when |r| T exceeds it

_MODEL1_ROWS = (
    "pole_pair_time", "pole_background_time_1", "pole_background_time_2",
    "background_background_time",
)


def _model2_rows(gamma0: float, gamma1: float, hbar: float):
    """model2's extra row; a weak timescale separation is reported as one ``warning:`` line."""
    times = pole_models.model2_times(gamma0, gamma1, hbar)
    if times.weak_separation:
        print(
            f"warning: gamma0 = {gamma0} is not << gamma1 = {gamma1}; timescale separation is weak",
            file=sys.stderr,
        )
    return (("intermediate_time", times.intermediate),)


# model1 and model2 as fixed-shape model3 catalogues: the (gamma, amp_re,
# amp_im) keys of each pole, the rule, the boundary, and the extra timescale
# rows as a function of the widths in input order and hbar
_PRESETS = {
    "model1": (
        (("gamma0", "amp_re", "amp_im"),),
        pole_models.RULE_BACKGROUND,
        pole_models.BOUNDARY_RELEVANT,
        lambda gamma0, hbar: tuple(zip(_MODEL1_ROWS, pole_models.model1_times(gamma0, hbar))),
    ),
    "model2": (
        (("gamma0", "amp0_re", "amp0_im"), ("gamma1", "amp1_re", "amp1_im")),
        pole_models.RULE_SECOND_SMALLEST,
        pole_models.BOUNDARY_IRRELEVANT,
        _model2_rows,
    ),
}


def _simulate(params: dict, grid: np.ndarray, scenario: str):
    """model1/2/3: the catalogue, its report and extra rows; ``run`` renders signal, preferred, timescales."""
    path = "params"
    if scenario in _PRESETS:
        keys, rule, boundary, rows = _PRESETS[scenario]
        _reject_unknown(params, path, sum(keys, _CATALOGUE_KEYS))
        modes = tuple(_mode(params, path, *triple) for triple in keys)
        cat = _catalogue(params, path, modes)
        extra = rows(*(m.pole.gamma for m in modes), cat.hbar)
    else:  # model3
        cat = _read_catalogue(params, path, ("rule", "boundary"), tail_only_ok=False)
        rule = _string(params, path, "rule", pole_models.RULE_SECOND_SMALLEST, choices=pole_models._NAMED_RULES)
        boundary = _string(
            params, path, "boundary", pole_models.BOUNDARY_RELEVANT, choices=pole_models._BOUNDARY_CUT
        )
        extra = ()
    report = pole_models.decoherence_time(cat, rule, boundary)

    def run():
        signal = pole_models.synthesize(cat, grid)
        preferred = pole_models.preferred_signal(cat, report, grid)
        return {
            "signal.csv": pole_models.signal_csv_chunks(signal),
            "preferred.csv": pole_models.signal_csv_chunks(preferred),
            "timescales.csv": _timescales_csv(report, extra),
        }

    return run


def _bifriedrich(params: dict, grid: np.ndarray):
    from . import preferred_basis

    _reject_unknown(params, "params", ("part1", "part2"))
    parts = []
    for key in ("part1", "part2"):
        path = f"params.{key}"
        parts.append(_read_catalogue(_as_object(_field(params, "params", key), path), path))
    model = preferred_basis.BiFriedrichModel(*parts)

    def run():
        result = preferred_basis.bifriedrich_run(model, grid)
        v = result.verdicts  # states iterated, not listed: tolist() makes 2T strings, raising peak RSS
        rows = zip(v.t.tolist(), v.part1_state, v.part2_state)
        return {
            "signal1.csv": pole_models.signal_csv_chunks(result.signal1),
            "signal2.csv": pole_models.signal_csv_chunks(result.signal2),
            "verdicts.csv": _csv("t,part1_state,part2_state", rows),
        }

    return run


def _omnes(params: dict, grid: np.ndarray):
    """Every config checked, and with ``gamma0`` the sweep's rates; ``run`` resolves a density's pole and rates."""
    from . import friedrich, omnes

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

    config = {  # the OmnesConfig fields but gamma0
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
    }
    ssq = omnes._weight_sum(config["a"], config["b"])
    if abs(ssq - 1.0) > omnes._NORM_TOL:
        raise ValidationError(
            f"params.a_re/a_im/b_re/b_im: |a|^2 + |b|^2 = {ssq!r}, must be 1 within {omnes._NORM_TOL}"
        )
    density, gamma0, omega_prime = None, None, 0.0
    if "spectral_density" in params:
        density = _spectral_density(
            _as_object(params["spectral_density"], "params.spectral_density"),
            "params.spectral_density",
        )
    else:
        gamma0 = _number(params, path, "gamma0", 0.1, positive=True)
        omega_prime = _number(params, path, "omega_prime", 0.0)

    sweep_raw = _field(params, path, "L0_sweep", [10.0, 20.0, 40.0])
    if not isinstance(sweep_raw, list) or not sweep_raw:
        raise ValidationError("params.L0_sweep: expected a nonempty array of lengths")
    sweep = [_finite(v, f"params.L0_sweep[{i}]", positive=True) for i, v in enumerate(sweep_raw)]
    rates = _omnes_sweep(config, gamma0, sweep)

    def run():
        width, shift, swept = gamma0, omega_prime, rates
        if density is not None:
            pole = friedrich.perturbative_pole(density)
            width, shift = pole.gamma0, pole.omega_prime
            swept = _omnes_sweep(config, width, sweep)
        cfg = omnes.OmnesConfig(gamma0=width, **config)  # the sweep's first config, so it holds

        report = omnes.macroscopicity_check(cfg)
        lines = [f"status: {'PASS' if report.passed else 'FAIL'}"]
        lines.extend(
            f"{name}: {_fmt(getattr(report, name))}"
            for name in ("delta", "lower_margin", "upper_margin", "min_delta", "truncation_factor")
        )
        if not report.passed:
            print(
                f"warning: macroscopicity FAIL (delta={report.delta:.3g}); proceeding",
                file=sys.stderr,
            )
        decay = omnes.nd_decay(cfg, cfg.z0(shift), grid)
        rows = [(L0, rate.t_D, rate.gamma_tilde) for L0, rate in zip(sweep, swept)]
        return {
            "macroscopicity.txt": "\n".join(lines) + "\n",
            "nd_decay.csv": pole_models.csv_chunks("t,abs_rho12", (grid, decay)),
            "td_vs_L0.csv": _csv("L0,t_D,gamma_tilde", rows),
        }

    return run


def _omnes_sweep(config: dict, gamma0, sweep: list) -> list:
    """Every config the run builds, a failing field named, and the sweep's rates once gamma0 is known."""
    from . import omnes

    rates = []
    for key, L0 in (("L0", config["L0"]), *((f"L0_sweep[{i}]", v) for i, v in enumerate(sweep))):
        try:
            cfg = omnes.OmnesConfig(gamma0=1.0 if gamma0 is None else gamma0, **dict(config, L0=L0))
            if gamma0 is not None and key != "L0":
                rates.append(omnes.collective_rate(cfg))
        except ValidationError as exc:
            raise ValidationError(f"params.{key}: {exc}") from None
    return rates


def _extract(params: dict, grid: None):  # extract has no config grid
    path = "params"
    _reject_unknown(params, path, ("input_csv", "model_order", "equilibrium", "hbar"))
    csv_path = _string(params, path, "input_csv")
    order = _integer(params, path, "model_order", minimum=1)
    equilibrium = _number(params, path, "equilibrium", 0.0)
    hbar = _number(params, path, "hbar", 1.0, positive=True)
    signal = _read_table(csv_path, "params.input_csv", pole_models.signal_from_csv)
    need = numerics.pencil_min_samples(order)
    if len(signal) < need:
        raise ValidationError(
            f"{path}.model_order: needs at least {need} samples for order {order}, "
            f"{path}.input_csv has {len(signal)}"
        )
    with np.errstate(over="ignore"):
        values = signal.values - equilibrium
    if not np.isfinite(values.view(float)).all():
        raise ValidationError(
            f"{path}.equilibrium: {equilibrium!r} shifts {path}.input_csv's values out of the float range"
        )

    def run():
        try:
            fitted = numerics.matrix_pencil_fit(signal.times, values, order)
        except RankDeficiencyError as exc:
            if exc.effective_rank and exc.effective_rank >= 1:
                print(
                    f"warning: requested {order} modes but the signal supports only "
                    f"{exc.effective_rank}; refitting at the effective rank",
                    file=sys.stderr,
                )
                fitted = exc.pencil.fit(exc.effective_rank)  # the same SVD, not a second one
            else:
                raise

        t_span = float(signal.times[-1] - signal.times[0])
        growth = [z.real for z, _ in fitted if z.real * t_span > _VISIBLE_CHANGE]
        if growth:
            raise ConvergenceError(
                f"{len(growth)} fitted mode(s) grow over the window (largest growth rate "
                f"{max(growth):.3e}); a pole catalogue holds only decaying modes"
            )
        # rates with no visible decay over the window are equilibrium content
        cat_equilibrium = equilibrium
        modes = []
        for z, amp in fitted:
            gamma = -z.real * hbar
            if gamma * t_span / hbar < _VISIBLE_CHANGE:
                cat_equilibrium += amp.real
                continue
            modes.append((pole_models.Pole(-z.imag * hbar + 0.0, gamma), amp))
        if not modes:
            raise RankDeficiencyError(
                "signal contains no decaying modes (constant or equilibrium-only content)",
                effective_rank=0,
            )
        cat = pole_models.PoleCatalogue(cat_equilibrium, tuple(modes), None, hbar)
        print(f"residual: {_fmt(numerics.fit_residual(signal.times, values, fitted))}")
        return {"catalogue.json": pole_models.catalogue_to_json(cat) + "\n"}

    return run


# --- entry point -------------------------------------------------------------


def _load_config(path: str) -> dict:
    text = _read_text(path, "cannot read config")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config {path!r} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return _as_object(doc, "config")


# scenario -> (subcommand, validate(params, grid) -> run() -> {file name: text or its chunks})
_SCENARIOS = {
    **{
        name: ("simulate", functools.partial(_simulate, scenario=name))
        for name in ("model1", "model2", "model3")
    },
    "bifriedrich": ("simulate", _bifriedrich),
    "omnes": ("omnes", _omnes),
    "extract": ("extract", _extract),
}


def _dispatch(subcommand: str, doc: dict):
    _reject_unknown(doc, "config", ("scenario", "grid", "params", "output_dir"))
    scenario = _string(doc, "config", "scenario", choices=_SCENARIOS)
    owner, validate = _SCENARIOS[scenario]
    if owner != subcommand:
        expected = sorted(name for name, entry in _SCENARIOS.items() if entry[0] == subcommand)
        raise ValidationError(
            f"config.scenario: {scenario!r} does not belong to subcommand "
            f"{subcommand!r} (expected one of {expected})"
        )
    params = _as_object(_field(doc, "config", "params", {}), "config.params")
    if scenario == "extract":
        if "grid" in doc:
            raise ValidationError("config.grid: extract reads its grid from the input CSV")
        grid = None
    else:
        grid = _grid(doc, "config")
    return validate(params, grid)


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
        outdir = doc.get("output_dir", ".")
        if not isinstance(outdir, str):
            raise ValidationError("config.output_dir: expected a string path")
        if args.out is not None:
            outdir = args.out
        run = _dispatch(args.subcommand, doc)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        files = run()
    except (ConvergenceError, ValidationError) as exc:  # a RankDeficiencyError carries its rank
        rank = getattr(exc, "effective_rank", None)
        print(f"numeric failure: {exc}{'' if rank is None else f' (effective rank {rank})'}", file=sys.stderr)
        return 3

    try:
        os.makedirs(outdir, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:  # an output could not be written
        where = "--out" if args.out is not None else "config.output_dir"
        print(f"config error: {where} {outdir!r}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
