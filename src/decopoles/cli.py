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
function that uses it.  ``extract`` takes the pencil's one factorisation
and fits at the smaller of the model order and its effective rank.

Each scenario is one function that validates its params strictly, before
any computation, and every diagnostic names the offending field path.  The
config is read through one ``pole_models._Fields`` per object, and its reads
are the schema: each records ``path.key -> (value, given)`` in the root's
``record``, and an object's unknown keys are the ones no read asked for,
named once its reads end, before any ``warning:`` line or input file read.
It returns ``run``, which computes every output
file, ``{file name: text or its chunks}``, and writes nothing; ``main``
then writes them all, so a numeric failure leaves no output behind.  Every
table streams through ``pole_models.csv_chunks``, the one table writer.  All
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
from .pole_models import _REQUIRED, _Fields, _catalogue, _fmt, _mode, _read_catalogue  # the catalogue schema's reader


# --- schema helpers ----------------------------------------------------------


def _string(fields: _Fields, key, default=_REQUIRED, choices=None) -> str:
    raw = fields.get(key, default)
    if not isinstance(raw, str):
        raise ValidationError(f"{fields.path}.{key}: expected a string, got {raw!r}")
    if choices is not None and raw not in choices:
        raise ValidationError(f"{fields.path}.{key}: must be one of {sorted(choices)}, got {raw!r}")
    return raw


def _grid(root: _Fields) -> np.ndarray:
    sub = root.object("grid")
    t_max = sub.number("t_max", positive=True)
    n = sub.integer("n_points", minimum=2)
    sub.done()
    return np.linspace(0.0, t_max, n)


def _spectral_density(sub: _Fields) -> friedrich.SpectralDensity:
    """The density block; it must be positive at omega0, strictly inside its support.

    An absent bound takes the kind's default band; a given one is checked against the other before the build.
    """
    from . import friedrich

    path = sub.path
    kind = _string(sub, "kind", choices=("lorentzian", "ohmic", "csv"))
    omega0 = sub.number("omega0")
    if kind == "csv":
        csv_path = _string(sub, "path")
        sub.done()
        parse = functools.partial(friedrich.SpectralDensity.from_csv, omega0)
        density = _read_table(csv_path, f"{path}.path", parse)
    else:
        if kind == "lorentzian":
            make = friedrich.SpectralDensity.lorentzian
            shape = (sub.number("center"), sub.number("width", positive=True))
        else:
            make = friedrich.SpectralDensity.ohmic
            shape = (sub.number("cutoff", positive=True),)
        weight = sub.number("weight", 1.0, positive=True)
        band = friedrich._default_band(kind, *shape)
        lo, hi = sub.number("lo", band[0]), sub.number("hi", band[1])
        sub.done()
        if ("lo" in sub.doc or "hi" in sub.doc) and not lo < hi:  # the constructor checks a default band
            if "hi" in sub.doc:
                other = "lo" if "lo" in sub.doc else "the default lo"
                raise ValidationError(f"{path}.hi: must be > {other} = {lo!r}, got {hi!r}")
            raise ValidationError(f"{path}.lo: must be < the default hi = {hi!r}, got {lo!r}")
        density = make(omega0, *shape, weight, lo, hi)
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


def _timescales_csv(report: pole_models.TimescaleReport, extra_rows=()):
    rows = [
        ("t_R", report.t_R),
        ("t_D", report.t_D),
        ("rule", report.rule),
        ("boundary", report.boundary),
        ("p_relevant", ";".join(str(i) for i in report.p_relevant)),
        ("p_irrelevant", ";".join(str(i) for i in report.p_irrelevant)),
    ]
    return pole_models.csv_chunks("name,value", tuple(zip(*rows, *extra_rows)))


# --- scenarios ---------------------------------------------------------------

# extract: a rate r is visible over a span T when |r| T exceeds it, and a value beside samples when
# it exceeds this share of their largest real or imaginary part
_VISIBLE_CHANGE = 1e-8

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


def _simulate(params: _Fields, grid: np.ndarray, scenario: str):
    """model1/2/3: the catalogue, its report and extra rows; ``run`` renders signal, preferred, timescales."""
    if scenario in _PRESETS:
        keys, rule, boundary, rows = _PRESETS[scenario]
        modes = tuple(_mode(params, *triple) for triple in keys)
        cat = _catalogue(params, modes)
        params.done()
        extra = rows(*(m.pole.gamma for m in modes), cat.hbar)
    else:  # model3
        cat = _read_catalogue(params, tail_only_ok=False)
        rule = _string(params, "rule", pole_models.RULE_SECOND_SMALLEST, choices=pole_models._NAMED_RULES)
        boundary = _string(params, "boundary", pole_models.BOUNDARY_RELEVANT, choices=pole_models._BOUNDARY_CUT)
        params.done()
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


def _bifriedrich(params: _Fields, grid: np.ndarray):
    from . import preferred_basis

    parts = []
    for key in ("part1", "part2"):
        part = params.object(key)
        parts.append(_read_catalogue(part))
        part.done()
    params.done()
    model = preferred_basis.BiFriedrichModel(*parts)

    def run():
        result = preferred_basis.bifriedrich_run(model, grid)
        v = result.verdicts
        return {
            "signal1.csv": pole_models.signal_csv_chunks(result.signal1),
            "signal2.csv": pole_models.signal_csv_chunks(result.signal2),
            "verdicts.csv": pole_models.csv_chunks("t,part1_state,part2_state", (v.t, v.part1_state, v.part2_state)),
        }

    return run


def _omnes(params: _Fields, grid: np.ndarray):
    """Every config checked, and with ``gamma0`` the sweep's rates; ``run`` resolves a density's pole and rates."""
    from . import friedrich, omnes

    with_density = params.given("spectral_density")
    if with_density and (params.given("gamma0") or params.given("omega_prime")):
        raise ValidationError(
            "params: spectral_density is mutually exclusive with gamma0 / omega_prime"
        )

    config = {  # the OmnesConfig fields but gamma0
        "m": params.number("m", 1.0, positive=True),
        "omega": params.number("omega", 2.0, positive=True),
        "hbar": params.number("hbar", 1.0, positive=True),
        "L0": params.number("L0", 10.0, positive=True),
        "a": complex(params.number("a_re", math.sqrt(0.5)), params.number("a_im", 0.0)),
        "b": complex(params.number("b_re", math.sqrt(0.5)), params.number("b_im", 0.0)),
        "N": params.integer("N", 6000),
    }
    ssq = omnes._weight_sum(config["a"], config["b"])
    if abs(ssq - 1.0) > omnes._NORM_TOL:
        raise ValidationError(
            f"params.a_re/a_im/b_re/b_im: |a|^2 + |b|^2 = {ssq!r}, must be 1 within {omnes._NORM_TOL}"
        )
    block, gamma0, omega_prime = None, None, 0.0
    if with_density:
        block = params.object("spectral_density")
    else:
        gamma0 = params.number("gamma0", 0.1, positive=True)
        omega_prime = params.number("omega_prime", 0.0)

    sweep_raw = params.get("L0_sweep", [10.0, 20.0, 40.0])
    if not isinstance(sweep_raw, list) or not sweep_raw:
        raise ValidationError("params.L0_sweep: expected a nonempty array of lengths")
    sweep = [numerics._number(v, f"params.L0_sweep[{i}]", "> 0") for i, v in enumerate(sweep_raw)]
    params.done()
    density = None if block is None else _spectral_density(block)  # a csv density is read after params' checks
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
        return {
            "macroscopicity.txt": "\n".join(lines) + "\n",
            "nd_decay.csv": pole_models.csv_chunks("t,abs_rho12", (grid, decay)),
            "td_vs_L0.csv": pole_models.csv_chunks(
                "L0,t_D,gamma_tilde", (sweep, [r.t_D for r in swept], [r.gamma_tilde for r in swept])
            ),
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


def _extract(params: _Fields, grid: None):  # extract has no config grid
    path = params.path
    csv_path = _string(params, "input_csv")
    order = params.integer("model_order")
    equilibrium = params.number("equilibrium", 0.0)
    hbar = params.number("hbar", 1.0, positive=True)
    params.done()
    signal = _read_table(csv_path, f"{path}.input_csv", pole_models.signal_from_csv)
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
        pencil = numerics.PencilFactorisation(signal.times, values, order)  # one SVD for every order
        if pencil.effective_rank < order:
            print(
                f"warning: requested {order} modes but the signal supports only "
                f"{pencil.effective_rank}; refitting at the effective rank",
                file=sys.stderr,
            )
        fitted = pencil.fit(min(order, pencil.effective_rank))

        t_span = float(signal.times[-1] - signal.times[0])
        growth = [z.real for z, _ in fitted if z.real * t_span > _VISIBLE_CHANGE]
        if growth:
            raise ConvergenceError(
                f"{len(growth)} fitted mode(s) grow over the window (largest growth rate "
                f"{max(growth):.3e}); a pole catalogue holds only decaying modes"
            )
        # rates with no visible decay or oscillation over the window are equilibrium content
        cat_equilibrium = complex(equilibrium)
        modes = []
        for z, amp in fitted:
            gamma = -z.real * hbar
            if gamma * t_span / hbar < _VISIBLE_CHANGE:
                if abs(z.imag) * t_span > _VISIBLE_CHANGE:
                    raise ConvergenceError(
                        f"a fitted mode oscillates without visible decay over the window (angular frequency "
                        f"{abs(z.imag):.3e}); a pole catalogue holds only decaying modes"
                    )
                cat_equilibrium += amp
                continue
            modes.append((pole_models.Pole(-z.imag * hbar + 0.0, gamma), amp))
        if not modes:
            raise RankDeficiencyError(
                "signal contains no decaying modes (constant or equilibrium-only content)",
                effective_rank=0,
            )
        # a catalogue's equilibrium is real: a visible imaginary part would be dropped
        visible = _VISIBLE_CHANGE * np.abs(signal.values.view(float)).max()
        if abs(cat_equilibrium.imag) > visible:
            raise ConvergenceError(
                f"the equilibrium content has imaginary part {cat_equilibrium.imag:.3e}, above {visible:.3e} "
                f"({_VISIBLE_CHANGE:g} of the samples' largest |re| or |im|); a pole catalogue's equilibrium is real"
            )
        cat = pole_models.PoleCatalogue(cat_equilibrium.real, tuple(modes), None, hbar)
        print(f"residual: {_fmt(numerics.fit_residual(signal.times, values, fitted))}")
        return {"catalogue.json": pole_models.catalogue_to_json(cat) + "\n"}

    return run


# --- entry point -------------------------------------------------------------


def _load_config(path: str) -> _Fields:
    """The config's root object; its record fills as the run reads the config."""
    text = _read_text(path, "cannot read config")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config {path!r} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return _Fields(doc, "config", {})


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


def _dispatch(subcommand: str, root: _Fields):
    scenario = _string(root, "scenario", choices=_SCENARIOS)
    owner, validate = _SCENARIOS[scenario]
    if owner != subcommand:
        expected = sorted(name for name, entry in _SCENARIOS.items() if entry[0] == subcommand)
        raise ValidationError(
            f"config.scenario: {scenario!r} does not belong to subcommand "
            f"{subcommand!r} (expected one of {expected})"
        )
    params = _Fields(root.get("params", {}), "params", root.record)
    if scenario == "extract":
        if root.given("grid"):
            raise ValidationError("config.grid: extract reads its grid from the input CSV")
        grid = None
    else:
        grid = _grid(root)
    root.done()
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
        root = _load_config(args.config)
        outdir = root.get("output_dir", ".")
        if not isinstance(outdir, str):
            raise ValidationError("config.output_dir: expected a string path")
        if args.out is not None:
            outdir = args.out
        run = _dispatch(args.subcommand, root)
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
    sys.exit(main())  # probe: the script entry point; the tests call main
