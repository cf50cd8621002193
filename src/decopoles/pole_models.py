"""Pole catalogues and the scalar decay models built on them.

An expectation-value trajectory is synthesized from a catalogue: a final
equilibrium value, a set of decaying modes (each a resonance pole with a
complex amplitude), and an optional slow power-law background tail.  The
module derives the characteristic times of the standard one- and two-pole
models, partitions catalogues into persistent and short-lived modes, and
builds the truncated signal used as the preferred (post-decoherence)
trajectory.

Width convention: a stored ``gamma`` is always the e-folding rate of the
mode's envelope, i.e. the mode decays as exp(-gamma t / hbar).  A pair of
poles (z_i, z_j) with z = omega - i gamma/2 is one mode with envelope rate
(gamma_i + gamma_j) / 2 and beat frequency omega_j - omega_i, that is
``Pole(omega_j - omega_i, (gamma_i + gamma_j) / 2)``.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .numerics import (
    HermitianMatrix, _complex_array, _integer, _matrix_reduce, _number, _refuse_bools, _time_grid, _times,
    check_uniform_grid, hermitian_average,
)

RULE_SECOND_SMALLEST = "second-smallest-gamma"
RULE_CUSTOM = "custom-f"
RULE_SLOWEST = "slowest-only"
RULE_BACKGROUND = "background-only"
_NAMED_RULES = (RULE_SECOND_SMALLEST, RULE_SLOWEST, RULE_BACKGROUND)

BOUNDARY_RELEVANT = "relevant"
BOUNDARY_IRRELEVANT = "irrelevant"
# the prefix of sorted widths each boundary keeps: a width at the threshold
# is relevant under 'relevant' (gamma <= threshold) and not under 'irrelevant'
_BOUNDARY_CUT = {BOUNDARY_RELEVANT: bisect.bisect_right, BOUNDARY_IRRELEVANT: bisect.bisect_left}

_REL_SLACK = 1e-12

# exp(x) is a normal float from here up: math.log(2^-1022) rounds up, and exp of the next
# float down is about 2^-1022 (1 - 9e-14), some 390 subnormal spacings below 2^-1022
_EXP_NORMAL_EDGE = math.log(2.0**-1022)


@dataclass(frozen=True)
class Pole:
    """One catalogue mode's pole: frequency ``omega`` and strictly positive width ``gamma``.

    ``gamma`` is the e-folding rate of the mode's envelope, exp(-gamma t / hbar),
    as everywhere in the package (see the module docstring for a pair of poles).
    """

    omega: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "omega", _number(self.omega, "omega"))
        object.__setattr__(self, "gamma", _number(self.gamma, "gamma", "> 0"))


@dataclass(frozen=True)
class KhalfinTail:
    """Slow background decay amplitude * (1 + t / tau) ** (-p), at one time or a grid of times t >= 0.

    Finite at t = 0, power law for t >> tau.  The exponent defaults to 3
    elsewhere in the package but is free here; amplitude 0 means no tail.
    Times are read by ``numerics._times``.
    """

    amplitude: float
    tau: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "amplitude", _number(self.amplitude, "amplitude"))
        object.__setattr__(self, "tau", _number(self.tau, "tau", "> 0"))
        object.__setattr__(self, "p", _number(self.p, "p", "> 0"))

    def __call__(self, t):
        return self.amplitude * (1.0 + np.asarray(_times(t)) / self.tau) ** (-self.p)


@dataclass(frozen=True)
class Mode:
    """A catalogue entry: pole plus complex amplitude."""

    pole: Pole
    amplitude: complex

    def __post_init__(self):
        amp = complex(self.amplitude)
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise ValidationError("mode amplitude must be finite")
        object.__setattr__(self, "amplitude", amp)


def _mode_order(*columns) -> np.ndarray:
    """The canonical mode order, one for both catalogues: ascending by the first (K,) key column, its ties by
    the next, and so on, with -0.0 before 0.0 at every key.  The keys are the width, the frequency where the
    catalogue holds one, then each real and imaginary part of the amplitude, row-major for a matrix; so any
    listing of the same modes sorts to the same bytes.  ``np.lexsort`` sorts by its last key first, and each
    value's ~signbit breaks its tie."""
    return np.lexsort([k for col in columns[::-1] for k in (~np.signbit(col), col)])


def _as_mode(entry) -> Mode:
    """A catalogue entry as a ``Mode``: a ``Mode``, ``(Pole, amp)`` or ``((omega, gamma), amp)``."""
    if isinstance(entry, Mode):
        return entry
    pole, amp = entry
    return Mode(pole if isinstance(pole, Pole) else Pole(*pole), amp)


@dataclass(frozen=True)
class PoleCatalogue:
    """Equilibrium value, decaying modes, optional background tail.

    Modes are stored in the canonical order ``CatalogueMatrix`` shares, so
    any input permutation builds the same catalogue: ascending by gamma, then
    omega, then the amplitude's real and imaginary part, with -0.0 before 0.0
    at each key.
    Alongside ``modes`` the same order is held as columns: ``gammas`` (a
    tuple of floats) and ``amplitudes`` (a read-only complex (K,) array).
    At least one mode or a tail must be present.  A catalogue is its data:
    ``synthesize`` turns each mode at its stored omega, however the
    catalogue was built.
    """

    equilibrium: float
    modes: tuple
    khalfin: Optional[KhalfinTail] = None
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "equilibrium", _number(self.equilibrium, "equilibrium"))
        object.__setattr__(self, "hbar", _number(self.hbar, "hbar", "> 0"))
        modes = [_as_mode(entry) for entry in self.modes]
        omegas = np.array([m.pole.omega for m in modes], dtype=float)
        gammas = np.array([m.pole.gamma for m in modes], dtype=float)
        amps = np.array([m.amplitude for m in modes], dtype=complex)
        order = _mode_order(gammas, omegas, amps.real, amps.imag)
        amps = amps[order]
        amps.setflags(write=False)
        object.__setattr__(self, "modes", tuple(modes[i] for i in order.tolist()))
        object.__setattr__(self, "gammas", tuple(gammas[order].tolist()))
        object.__setattr__(self, "_omegas", omegas[order])
        object.__setattr__(self, "amplitudes", amps)
        if not self.modes and self.khalfin is None:
            raise ValidationError("catalogue needs at least one mode or a Khalfin tail")
        if self.khalfin is not None and not isinstance(self.khalfin, KhalfinTail):
            raise ValidationError("khalfin must be a KhalfinTail")


@dataclass(frozen=True, eq=False)  # identity equality, as on numerics.HermitianMatrix
class Signal:
    """Sampled trajectory on a strictly increasing uniform grid of finite times, which may start anywhere:
    read-only copies of its inputs.  NaN or Inf is refused before the grid's steps are measured."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        v = np.array(self.values, dtype=complex)
        if t.ndim != 1 or t.size == 0:
            raise ValidationError("times must be a nonempty 1-D array")
        if v.shape != t.shape:
            raise ValidationError("values must match times in shape")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v.view(float)))):
            raise ValidationError("signal contains NaN or Inf")
        if t.size > 1:
            check_uniform_grid(t)
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class TimescaleReport:
    """Relaxation time, decoherence time and the mode partition behind them.

    One threshold splits the ``n_modes`` width-sorted modes into a prefix:
    ``p_relevant`` is ``range(cut)``, the poles that survive past t_D, and
    ``p_irrelevant`` is ``range(cut, n_modes)``.  Threshold rules cut at
    gamma_i <= hbar / t_D (or strict <, per ``boundary``); background-only
    keeps none.  ``cut`` and ``n_modes`` are integers >= 0.  t_D <= t_R
    always; a violation is a construction error.
    """

    t_R: float
    t_D: float
    cut: int
    n_modes: int
    rule: str
    boundary: str = BOUNDARY_RELEVANT
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "t_R", float(self.t_R))
        object.__setattr__(self, "t_D", float(self.t_D))
        object.__setattr__(self, "cut", _integer(self.cut, "cut", 0))
        object.__setattr__(self, "n_modes", _integer(self.n_modes, "n_modes", 0))
        if self.cut > self.n_modes:
            raise ValidationError(f"cut = {self.cut} exceeds n_modes = {self.n_modes}")
        if self.rule not in _NAMED_RULES + (RULE_CUSTOM,):
            raise ValidationError(f"unknown rule {self.rule!r}")
        if not isinstance(self.boundary, str) or self.boundary not in _BOUNDARY_CUT:
            raise ValidationError(f"unknown boundary mode {self.boundary!r}")
        if not (self.t_D > 0.0 and self.t_R > 0.0):
            raise ValidationError("characteristic times must be positive")
        if self.t_D > self.t_R * (1.0 + _REL_SLACK):
            raise ValidationError(
                f"t_D = {self.t_D!r} exceeds t_R = {self.t_R!r}; "
                "decoherence cannot be slower than relaxation"
            )

    p_relevant = property(lambda self: range(self.cut))
    p_irrelevant = property(lambda self: range(self.cut, self.n_modes))


def synthesize(cat: PoleCatalogue, grid) -> Signal:
    """Evaluate S(t) = equilibrium + sum_i a_i exp(-i omega_i t / hbar) exp(-gamma_i t / hbar) + tail(t).

    Each mode turns at its stored omega; a mode whose omega is 0 (or -0.0)
    is its real envelope alone, as exp(0) = 1.  ``grid`` is a nonempty 1-D
    array of times t >= 0 (``numerics._time_grid``).
    """
    return _mode_sum(cat, grid, slice(None))


def _mode_sum(cat: PoleCatalogue, grid, modes: slice) -> Signal:
    """Equilibrium + the ``modes`` slice of ``cat``'s modes + tail, on a checked grid."""
    t = _time_grid(grid)
    values = np.full(t.shape, complex(cat.equilibrium), dtype=complex)
    tail = None if cat.khalfin is None else cat.khalfin(t)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range: Signal rejects it
        for amp, gamma, omega in zip(cat.amplitudes[modes].tolist(), cat.gammas[modes], cat._omegas[modes].tolist()):
            term = amp * np.exp(-gamma * t / cat.hbar)
            if omega:  # exp(-i 0 t / hbar) = 1
                term = term * np.exp(-1j * omega * t / cat.hbar)
            values += term
        if tail is not None:
            values += tail
    return Signal(t, values)


def model1_times(gamma0: float, hbar: float = 1.0):
    """Characteristic times of the single-pole model with background tail.

    The four decaying contributions vanish on (hbar/gamma0, 2 hbar/gamma0,
    2 hbar/gamma0, inf): pole-pair term, two pole-background cross terms,
    and the power-law background whose decay has no exponential scale.
    """
    gamma0, hbar = _number(gamma0, "gamma0", "> 0"), _number(hbar, "hbar", "> 0")
    return (hbar / gamma0, 2.0 * hbar / gamma0, 2.0 * hbar / gamma0, math.inf)


@dataclass(frozen=True)
class Model2Times:
    t_R: float
    t_D: float
    intermediate: float
    weak_separation: bool


def model2_times(gamma0: float, gamma1: float, hbar: float = 1.0) -> Model2Times:
    """Two-pole characteristic times: t_R = hbar/gamma0, t_D = hbar/gamma1.

    The cross terms between the two poles decay on hbar / (gamma1 + gamma0).
    ``weak_separation`` is set when gamma0 is not well separated below gamma1
    (ratio 10 or less), since the relaxation/decoherence split loses meaning there.
    """
    gamma0, gamma1 = _number(gamma0, "gamma0", "> 0"), _number(gamma1, "gamma1", "> 0")
    hbar = _number(hbar, "hbar", "> 0")
    return Model2Times(hbar / gamma0, hbar / gamma1, hbar / (gamma1 + gamma0), gamma0 >= gamma1 / 10.0)


def _ldexp(x: float, e: int) -> float:
    """x 2^e, rounded once; +-inf past the float range, where math.ldexp raises."""
    return math.ldexp(x, e) if math.frexp(x)[1] + e <= 1024 else math.copysign(math.inf, x)


def _delta(m: float, omega: float, L0: float, hbar: float) -> float:
    """Delta = L0 sqrt(m omega / 2) / hbar of checked scales (each > 0), in that order on frexp mantissas
    scaled by a power of two once: the bits of the order on the scales themselves wherever its
    steps are normal floats, and no step under- or overflows where they are not."""
    (mm, em), (wm, ew), (lm, el), (hm, eh) = map(math.frexp, (m, omega, L0, hbar))
    e = em + ew - 1  # m omega / 2 = mm wm 2^e
    p = mm * wm * 2.0 ** (e & 1)  # so that e - (e & 1), the exponent left, is even
    return _ldexp(lm * math.sqrt(p) / hm, el - eh + (e >> 1))


def _collective_scale(m: float, omega: float, L0: float, hbar: float) -> float:
    """(m omega / 2 hbar^2) L0^2 of checked scales (each > 0) while each step of that order is a normal float,
    else Delta * Delta."""
    h2 = 2.0 * hbar * hbar
    q = m * omega / h2 if h2 >= 2.0**-1022 and m * omega >= 2.0**-1022 else 0.0
    if q >= 2.0**-1022 and 2.0**-1022 <= (scale := q * L0 * L0) < math.inf:
        return scale
    delta = _delta(m, omega, L0, hbar)
    return delta * delta


def collective_rate_rule(m: float, omega: float, L0: float, hbar: float = 1.0) -> Callable:
    """Threshold rule set by the collective rate (m omega / 2 hbar^2) L0^2 gamma0; m, omega, L0, hbar > 0."""
    m, omega, L0 = _number(m, "m", "> 0"), _number(omega, "omega", "> 0"), _number(L0, "L0", "> 0")
    hbar = _number(hbar, "hbar", "> 0")
    scale = _number(_collective_scale(m, omega, L0, hbar), "m*omega*L0^2/(2 hbar^2)", "> 0")

    def rate(gammas: Sequence[float]) -> float:
        return scale * float(np.min(gammas))

    return rate


def partition_report(
    gammas: Sequence[float],
    hbar: float = 1.0,
    rule="second-smallest-gamma",
    boundary: str = BOUNDARY_RELEVANT,
) -> TimescaleReport:
    """Partition a sorted width list into persistent and short-lived modes.

    Rules:

    * ``'second-smallest-gamma'``: t_D = hbar / gamma_1 when two or more
      poles exist, else t_D = t_R.  The default when mode widths carry no
      known structure.
    * ``'slowest-only'``: threshold at gamma_0 itself, keeping only the
      slowest cluster; t_D = t_R.
    * ``'background-only'``: every pole is declared irrelevant and the
      preferred signal keeps just equilibrium plus tail; t_D = t_R.
    * a callable ``f(gammas) -> rate``: t_D = hbar / f(...), where f
      receives the checked widths as a sorted float array and returns a
      number, not a bool.  The shipped example is :func:`collective_rate_rule`.

    A list, tuple or ndarray of widths holding a bool is refused, naming
    the entry, as the number rule refuses one bool.

    ``boundary`` decides the fate of poles sitting exactly at the
    threshold: ``'relevant'`` uses gamma <= hbar/t_D, ``'irrelevant'``
    uses strict <; the report rejects any other name.  Both readings
    appear in two-pole treatments, which drop the threshold pole itself.
    """
    widths = np.fromiter(gammas, dtype=float)
    if not widths.size:
        raise ValidationError("no poles to partition")
    _refuse_bools(gammas, "gammas")
    if not np.all((widths > 0.0) & (widths < math.inf)):
        raise ValidationError("widths must be positive and finite")
    if np.any(widths[1:] < widths[:-1]):
        raise ValidationError("widths must be sorted ascending")
    hbar = _number(hbar, "hbar", "> 0")

    if callable(rule):
        threshold = float(_refuse_bools(rule(widths), "rule(gammas)"))  # float() would read True as 1.0
        if not math.isfinite(threshold) or threshold <= 0.0:
            raise ValidationError(f"custom rule returned a nonpositive rate: {threshold!r}")
    elif rule in _NAMED_RULES:  # a named rule splits at a width itself
        threshold = widths[1] if rule == RULE_SECOND_SMALLEST and widths.size > 1 else widths[0]
    else:
        raise ValidationError(f"unknown rule {rule!r}")
    side = _BOUNDARY_CUT.get(boundary) if isinstance(boundary, str) else None  # the report names a bad one
    return TimescaleReport(
        t_R=hbar / widths[0],
        t_D=hbar / threshold,
        cut=0 if rule == RULE_BACKGROUND or side is None else side(widths, threshold),
        n_modes=widths.size,
        rule=RULE_CUSTOM if callable(rule) else rule,
        boundary=boundary,
        hbar=hbar,
    )


def decoherence_time(
    cat: PoleCatalogue,
    rule="second-smallest-gamma",
    boundary: str = BOUNDARY_RELEVANT,
) -> TimescaleReport:
    """Derive t_R, t_D and the mode partition for a catalogue.

    See :func:`partition_report` for the rule and boundary semantics and for
    the errors, a tail-only catalogue's empty widths among them; the
    catalogue's sorted widths and hbar are used.
    """
    return partition_report(cat.gammas, cat.hbar, rule, boundary)


def check_report_matches(cat, report: TimescaleReport):
    """Verify a report's partition against a catalogue's widths.

    ``cat`` is anything exposing sorted ``gammas`` and ``hbar`` (scalar or
    matrix catalogue).  A named rule's report is derived again by
    ``partition_report`` from these widths, with the catalogue's hbar: its
    cut must be that report's, and its t_D that report's within 2e-12
    relative (the two hbar may differ by 1e-12).  A custom rate is not
    stored, so its report is held to the window of cuts any rate within
    rounding of hbar / t_D gives; so is any report on no modes.  Raises
    naming both cuts, or that window, or both t_D.
    """
    gammas = cat.gammas
    if report.n_modes != len(gammas):
        raise ValidationError(
            f"report partitions {report.n_modes} modes but the catalogue has {len(gammas)} modes"
        )
    if abs(report.hbar - cat.hbar) > _REL_SLACK * cat.hbar:
        raise ValidationError("report and catalogue disagree on hbar")
    if report.rule == RULE_CUSTOM or not gammas:
        # any rate in [threshold - tol, threshold + tol] could have made the cut
        threshold = cat.hbar / report.t_D
        tol = _REL_SLACK * threshold
        side = _BOUNDARY_CUT[report.boundary]
        lo, hi = side(gammas, threshold - tol), side(gammas, threshold + tol)
    else:
        derived = partition_report(gammas, cat.hbar, report.rule, report.boundary)
        if abs(derived.t_D - report.t_D) > 2.0 * _REL_SLACK * report.t_D:
            raise ValidationError(
                f"report t_D = {report.t_D!r} does not follow from the {report.rule} "
                f"rule's t_D = {derived.t_D!r}"
            )
        lo = hi = derived.cut
    if not lo <= report.cut <= hi:
        want = lo if lo == hi else f"{lo} to {hi}"
        raise ValidationError(f"report cut {report.cut} does not match the catalogue's threshold cut {want}")


def preferred_signal(cat: PoleCatalogue, report: TimescaleReport, grid) -> Signal:
    """Synthesize the catalogue with every p-irrelevant mode removed.

    The truncation applies for all t: the returned trajectory is
    equilibrium + surviving modes + tail from t = 0 on, each kept mode
    turning at its stored omega as in ``synthesize``, and is meaningful
    as the decohered trajectory only past the report's t_D.
    """
    check_report_matches(cat, report)
    return _mode_sum(cat, grid, slice(report.cut))


@dataclass(frozen=True)
class CoincidenceResult:
    max_deviation: float
    bound: float
    passed: bool
    t_D: float


def coincidence_check(
    signal: Signal,
    preferred: Signal,
    cat: PoleCatalogue,
    report: TimescaleReport,
) -> CoincidenceResult:
    """Compare full and truncated trajectories past t_D.

    Returns the maximum pointwise deviation for t >= t_D together with the
    analytic ceiling sum_{dropped} |a_i| exp(-gamma_i t_D / hbar), which
    a mode's turning leaves as it is, since |exp(-i omega t / hbar)| = 1; the
    check passes when the deviation stays within the ceiling plus the
    rounding of the compared values: 1e-12 relative to the ceiling, and
    per term of the two sums one ulp of the largest compared value or of
    the terms' total size.  A dropped mode that peaks exactly at t_D makes
    the ceiling tight, and the difference of two trajectories of size ~1
    is then only known to about their own ulp (or to the terms' ulp).
    """
    if not np.array_equal(signal.times, preferred.times):
        raise ValidationError("signals live on different grids")
    check_report_matches(cat, report)
    mask = signal.times >= report.t_D
    if not np.any(mask):
        raise ValidationError(f"grid contains no samples at or past t_D = {report.t_D}")
    full, kept = signal.values[mask], preferred.values[mask]
    deviation = float(np.max(np.abs(full - kept)))
    bound = 0.0
    for amp, gamma in zip(cat.amplitudes[report.cut :].tolist(), cat.gammas[report.cut :]):
        bound += abs(amp) * math.exp(-gamma * report.t_D / cat.hbar)
    # each trajectory is a sum of equilibrium, modes and tail, rounded once per term
    # to an ulp of a partial sum, which the terms' sizes at t >= 0 bound
    terms = [cat.equilibrium, cat.khalfin.amplitude if cat.khalfin else 0.0] + cat.amplitudes.tolist()
    scale = max(float(np.max(np.abs(full))), float(np.max(np.abs(kept))), sum(map(abs, terms)))
    rounding = len(terms) * float(np.spacing(scale))
    passed = deviation <= bound * (1.0 + _REL_SLACK) + rounding or deviation == 0.0
    return CoincidenceResult(deviation, bound, passed, report.t_D)


class CatalogueMatrix:
    """Matrix-valued catalogue: rho(t) = EQ + sum_k A_k exp(-gamma_k t / hbar).

    Every entry shares one pole list; per-pole amplitudes are Hermitian
    matrices so the evaluated matrix is Hermitian at all times.  This is
    the per-mode tagging needed to drop poles entrywise when building a
    preferred state.  Frequencies are not rendered, so a pole with omega != 0
    is refused (-0.0 passes).  Widths and the read-only (K, d, d) ``amplitudes``
    stack are held in the canonical order ``PoleCatalogue`` uses (ascending by
    width, then by each part of the Hermitian-averaged amplitude), so any
    listing of the same modes builds the same bytes; ``poles`` is built on first read.
    ``evaluate`` and ``dropped_envelope`` take one time or a grid of T
    times t >= 0, read by ``numerics._times`` (a (T, d, d) stack, a (T,)
    array), and their modes as a report's
    partition gives them: ``range(cut)`` kept, ``range(cut, K)`` dropped,
    or any ``range(start, stop)`` with 0 <= start <= stop <= K, summed as
    one slice; no other index form is taken.  Their results are held to the
    rounding bounds their docstrings state, not to fixed bits: a factor
    whose exp would be subnormal counts as 0, and the sums run in any order.

    ``truncation`` is a catalogue's stated distance tau from the catalogue
    it was cut from: its amplitudes, EQ included, lie within tau of that
    catalogue's in Frobenius norm summed over the modes, and modes it lacks
    count as 0 there.  Each decay factor is <= 1, so ``evaluate`` lies
    within tau of that catalogue's sum at every time.  It is 0.0
    for a constructor-built catalogue; ``omnes.frame_catalogue_matrix``
    states its own.
    """

    def __init__(self, poles, equilibrium, amplitudes, hbar: float = 1.0):
        poles = tuple(poles)
        if not all(isinstance(p, Pole) for p in poles):
            raise ValidationError("poles must be Pole instances")
        for k, p in enumerate(poles):
            if p.omega:  # -0.0 passes
                raise ValidationError(f"poles[{k}]: omega = {p.omega!r}, but a matrix catalogue renders widths only")
        self._build([p.gamma for p in poles], equilibrium, amplitudes, hbar)

    @classmethod
    def _from_widths(cls, gammas, equilibrium, amplitudes, hbar: float = 1.0, truncation: float = 0.0):
        """Poles (0, gammas[k]) plus ``truncation``: checked, averaged and sorted as by the constructor."""
        cm = cls.__new__(cls)
        cm._build(gammas, equilibrium, amplitudes, hbar, truncation)
        return cm

    def _build(self, gammas, equilibrium, amplitudes, hbar, truncation=0.0):
        gammas = np.asarray(gammas, dtype=float)
        bad = ~((gammas > 0.0) & (gammas < math.inf))
        if bad.any():  # the first bad width raises what its Pole raises
            _number(gammas[bad.argmax()], "gamma", "> 0")
        eq = HermitianMatrix(equilibrium).entries
        dim = eq.shape[0]
        amps = _complex_array(amplitudes)
        if amps.size == 0:
            amps = amps.reshape(0, dim, dim)
        if amps.shape != (gammas.size, dim, dim):
            raise ValidationError(
                f"need one {dim}x{dim} amplitude matrix per pole ({gammas.size}), got shape {amps.shape}"
            )
        amps = hermitian_average(amps)  # the order reads the stored amplitudes, each part row-major
        order = _mode_order(gammas, *amps.view(float).reshape(gammas.size, 2 * dim * dim).T)
        self._gammas = gammas[order]
        self.gammas = tuple(self._gammas.tolist())
        self.amplitudes = amps[order]
        self.amplitudes.setflags(write=False)
        # Frobenius norms, each summed along the stack's long axis (see dropped_envelope)
        self._norms = np.sqrt(_matrix_reduce(np.ndarray.sum, (self.amplitudes.conj() * self.amplitudes).real))
        self.equilibrium = eq
        self.hbar = _number(hbar, "hbar", "> 0")
        self.dim = dim
        self.truncation = truncation

    @functools.cached_property
    def poles(self) -> tuple:
        return tuple(Pole(0.0, g) for g in self.gammas)

    def _mode_slice(self, modes) -> slice:
        """A report's ``range(start, stop)`` of modes, 0 <= start <= stop <= K, as a slice; any other form raises."""
        if not (isinstance(modes, range) and modes.step == 1 and modes.start <= modes.stop):
            raise ValidationError(f"modes must be a range(start, stop) with start <= stop, got {modes!r}")
        if modes.start < 0 or modes.stop > self._gammas.size:
            raise ValidationError(f"mode indices must lie in [0, {self._gammas.size}), got {modes!r}")
        return slice(modes.start, modes.stop)

    def _decay(self, t, idx) -> np.ndarray:
        """exp(-gamma t / hbar) of the ``idx`` modes at times read by ``numerics._times``, (K,) or (T, K), in one array.

        Precision: the exponent x = -gamma t / hbar takes two
        roundings, so |x_hat - x| <= gamma_2 |x|, and exp rounds once more
        (within one ulp).  A factor whose exp would not be a normal float
        (x_hat below log 2^-1022 = -708.396) is stored as 0.0, and no exp
        is spent on it.  So a stored factor e_hat is within
        e^x ((1 + 2u) e^(gamma_2 |x|) - 1) of e^x, or is 0.0 where
        e^x < 2^-1022 e^(gamma_2 |x|); u = 2^-53, gamma_k = k u / (1 - k u).
        """
        decay = np.multiply.outer(_times(t), -self._gammas[idx])
        decay /= self.hbar
        dead = decay < _EXP_NORMAL_EDGE
        np.exp(decay, out=decay, where=~dead)
        decay[dead] = 0.0
        return decay

    def evaluate(self, t, keep=None) -> np.ndarray:
        """Hermitian matrix at time t, over every mode or the ``keep`` range (a report's ``p_relevant``).

        For an array of times the result is a (T, d, d) stack, built from
        one (T, K) matrix of decay factors and one real matrix product with
        the amplitudes' (K, 2 d^2) float view.

        Precision: the real and imaginary part of each entry lie within
        gamma_(K+1) (|EQ| + sum_k |A_k| e_hat_k) + sum_k |A_k| eps_k + (K + 1) 2^-1074
        of EQ + sum_k A_k e^(-gamma_k t / hbar), over the K kept modes, with
        |EQ| and |A_k| the moduli of that entry, and e_hat_k and its distance
        eps_k from e^x as ``_decay`` states; the
        sum is a dot product of K terms in any order (Higham 2002, ch. 3),
        and products that underflow add the last term.  Bits are not pinned.
        """
        idx = slice(None) if keep is None else self._mode_slice(keep)
        amps = self.amplitudes[idx]
        parts = self._decay(t, idx) @ amps.view(float).reshape(amps.shape[0], 2 * self.dim**2)  # real sums
        return self.equilibrium + parts.view(complex).reshape(parts.shape[:-1] + amps.shape[1:])

    def dropped_envelope(self, t, dropped):
        """Frobenius ceiling on the ``dropped`` range: sum_k ||A_k|| exp(-gamma_k t / hbar), plus
        ``truncation`` when the range ends at K.

        ``dropped`` is a report's ``p_irrelevant``, ``range(cut, K)``, so the
        ceiling bounds what ``evaluate(t, keep=range(cut))`` leaves out of
        the catalogue before its truncation (see ``CatalogueMatrix``).  So
        ``range(K, K)`` gives ``truncation`` at every time, 0.0 for a
        catalogue built by the constructor, and any other empty range 0.0.
        One time gives a float; an array of T times gives a (T,) array whose
        entry k equals the call at ``t[k]`` bit for bit, since both reduce
        the same products with one row-wise sum and add the same term.

        Precision: each stored norm n_hat_k is within
        gamma_(d^2+2) ||A_k|| + d 2^-536 of ||A_k||_F (its d^2 squares and
        their sum round, then sqrt; squares below 2^-1022 lose their last
        bits), and the K nonnegative products n_hat_k e_hat_k are summed
        within gamma_K of their exact sum, plus K 2^-1074 where they
        underflow.  So the result lies within
        (1 + gamma_K) sum_k (n_k + nu_k)(e_k + eps_k) - sum_k n_k e_k + K 2^-1074
        of the exact ceiling, nu_k and eps_k the norm and factor bounds; the
        factors ``_decay`` stores as 0.0 make it under-read by at most
        sum_k ||A_k|| 2^-1022.  Adding ``truncation`` rounds once more,
        within u of the sum (gamma_(K+1) in place of gamma_K).
        """
        idx = self._mode_slice(dropped)
        decay = self._decay(t, idx)
        total = np.multiply(decay, self._norms[idx], out=decay).sum(axis=-1)
        if idx.stop == self._gammas.size:  # the truncated tail lies past the last kept mode
            total += self.truncation
        return float(total) if total.ndim == 0 else total


# --- the catalogue schema --------------------------------------------------
# Its one reader and the field reader it shares with the command line;
# every diagnostic names the offending field path.

_REQUIRED = object()


class _Fields:
    """One config object at ``path``, read key by key: the reads are its schema.

    Each read records ``path.key -> (value, given)`` in ``record``, shared by
    every object of one config; ``given`` is False where the default stood.
    A presence check (``given``) asks for its key but records nothing.
    ``done`` then rejects the keys no read asked for.
    """

    def __init__(self, doc, path: str, record: dict):
        if not isinstance(doc, dict):
            raise ValidationError(f"{path}: expected an object, got {type(doc).__name__}")
        self.doc, self.path, self.record, self.asked = doc, path, record, set()

    def get(self, key: str, default=_REQUIRED):
        self.asked.add(key)
        given = key in self.doc
        if not given and default is _REQUIRED:
            raise ValidationError(f"{self.path}.{key}: required field is missing")
        value = self.doc[key] if given else default
        self.record[f"{self.path}.{key}"] = (value, given)
        return value

    def given(self, key: str) -> bool:
        """Whether the object holds ``key``: asked, so ``done`` allows it, but not recorded, as no value is read."""
        self.asked.add(key)
        return key in self.doc

    def number(self, key: str, default=_REQUIRED, positive=False):
        """A finite float (> 0 if ``positive``) by the number rule; an absent key gives ``default`` as it is."""
        raw = self.get(key, default)
        return _number(raw, f"{self.path}.{key}", "> 0" if positive else "") if key in self.doc else raw

    def integer(self, key: str, default=_REQUIRED, minimum=1) -> int:
        """An int >= ``minimum`` by the integer rule, ``default`` included."""
        return _integer(self.get(key, default), f"{self.path}.{key}", minimum)

    def object(self, key: str) -> _Fields:
        return _Fields(self.get(key), f"{self.path}.{key}", self.record)

    def done(self):
        extra = sorted(set(self.doc) - self.asked)
        if extra:
            raise ValidationError(f"{self.path}: unknown keys {extra}; allowed keys are {sorted(self.asked)}")


def _mode(fields: _Fields, gamma_key, re_key, im_key, omega_key=None) -> Mode:
    """One mode; omega defaults to 0 (always, without an ``omega_key``), the amplitude to 1 + 0j."""
    omega = 0.0 if omega_key is None else fields.number(omega_key, 0.0)
    return Mode(
        Pole(omega, fields.number(gamma_key, positive=True)),
        complex(fields.number(re_key, 1.0), fields.number(im_key, 0.0)),
    )


def _catalogue(fields: _Fields, modes) -> PoleCatalogue:
    """``modes`` with the equilibrium, Khalfin tail and hbar read from ``fields``."""
    equilibrium = fields.number("equilibrium", 0.0)
    tail = None
    if fields.get("khalfin", None) is not None:
        sub = fields.object("khalfin")
        shape = sub.number("amplitude"), sub.number("tau", 1.0, positive=True), sub.number("p", 3.0, positive=True)
        sub.done()
        tail = KhalfinTail(*shape)
    return PoleCatalogue(equilibrium, modes, tail, fields.number("hbar", 1.0, positive=True))


def _read_catalogue(fields: _Fields, tail_only_ok=True) -> PoleCatalogue:
    """The catalogue object ``fields``; its owner, which may read more keys of it, calls ``done``.

    With ``tail_only_ok`` its ``modes`` may be empty if it gives a Khalfin tail.
    """
    raw = fields.get("modes")
    if not isinstance(raw, list) or not (raw or (tail_only_ok and fields.get("khalfin", None) is not None)):
        raise ValidationError(f"{fields.path}.modes: expected a nonempty array of mode objects")
    modes = []
    for i, entry in enumerate(raw):
        mode = _Fields(entry, f"{fields.path}.modes[{i}]", fields.record)
        modes.append(_mode(mode, "gamma", "amp_re", "amp_im", "omega"))
        mode.done()
    return _catalogue(fields, tuple(modes))


def catalogue_to_json(cat: PoleCatalogue) -> str:
    """Serialize to the interchange schema: ``catalogue_from_json`` gives back an equal catalogue."""
    doc = {
        "hbar": cat.hbar,
        "equilibrium": cat.equilibrium,
        "modes": [
            {"omega": omega, "gamma": gamma, "amp_re": amp.real, "amp_im": amp.imag}
            for omega, gamma, amp in zip(cat._omegas.tolist(), cat.gammas, cat.amplitudes.tolist())
        ],
        "khalfin": None
        if cat.khalfin is None
        else {"amplitude": cat.khalfin.amplitude, "tau": cat.khalfin.tau, "p": cat.khalfin.p},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def catalogue_from_json(text: str) -> PoleCatalogue:
    """Read ``catalogue_to_json`` text; all four top-level keys must be present.

    Errors name the field path from ``catalogue``, e.g. ``catalogue.modes[0].gamma``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"catalogue: malformed JSON: {exc}") from exc
    fields = _Fields(doc, "catalogue", {})
    cat = _read_catalogue(fields)
    fields.done()
    missing = sorted(fields.asked - set(doc))  # inline catalogues may omit all but modes
    if missing:
        raise ValidationError(f"catalogue.{missing[0]}: required field is missing")
    return cat


# rows per piece of streamed CSV text: it bounds the text held at once (~0.25 MB
# at three columns); rendering speed is flat from 512 to 16384 rows
_CSV_CHUNK_ROWS = 4096


def _fmt(x) -> str:
    """One output value: a float at 17 significant digits (lossless), anything else as ``str``."""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def csv_chunks(header: str, columns) -> Iterator[str]:
    """CSV text of equal-length columns, in pieces to write in turn: the command line's one table writer.

    The first piece is the header line; each further one holds up to
    ``_CSV_CHUNK_ROWS`` rows, so the whole text is never held at once.  A
    float array's values are written at 17 significant digits (lossless);
    any other column's values (a sequence) as ``_fmt`` renders each.
    """
    floats = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    row = ",".join("{:.17g}" if f else "{}" for f in floats) + "\n"
    yield header + "\n"
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        stop = start + _CSV_CHUNK_ROWS
        parts = (c[start:stop].tolist() if f else map(_fmt, c[start:stop]) for c, f in zip(columns, floats))
        yield "".join(map(row.format, *parts))


def signal_csv_chunks(signal: Signal) -> Iterator[str]:
    """``signal_to_csv`` text in pieces (see ``csv_chunks``)."""
    return csv_chunks("t,re,im", (signal.times, signal.values.real, signal.values.imag))


def signal_to_csv(signal: Signal) -> str:
    """CSV text with header t,re,im at 17 significant digits (lossless)."""
    return "".join(signal_csv_chunks(signal))


def signal_from_csv(text: str) -> Signal:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "t,re,im":
        raise ValidationError("signal CSV must start with header 't,re,im'")
    times = []
    values = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ValidationError(f"bad CSV row: {ln!r}")
        try:
            times.append(float(parts[0]))
            values.append(complex(float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ValidationError(f"bad CSV row {ln!r}: {exc}") from exc
    return Signal(np.asarray(times), np.asarray(values))
