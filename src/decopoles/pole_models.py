"""Pole catalogues and the scalar decay models built on them.

An expectation-value trajectory is synthesized from a catalogue: a final
equilibrium value, a set of decaying modes (each a resonance pole with a
complex amplitude), and an optional slow power-law background tail.  The
module derives the characteristic times of the standard one- and two-pole
models, partitions catalogues into persistent and short-lived modes, and
builds the truncated signal used as the preferred (post-decoherence)
trajectory.

Width convention: a stored ``gamma`` is always the e-folding rate of the
mode's envelope, i.e. the mode decays as exp(-gamma t / hbar).  Catalogues
assembled from pole pairs map a pair (z_i, z_j) with z = omega - i gamma/2
onto a single mode with envelope rate (gamma_i + gamma_j) / 2 and beat
frequency omega_j - omega_i; see ``PoleCatalogue.from_pole_pairs``.
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
from .numerics import HermitianMatrix, _complex_array, _matrix_reduce, _time_grid, check_uniform_grid, hermitian_average

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


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class Pole:
    """One resonance: frequency ``omega`` and strictly positive width ``gamma``.

    Represents the complex energy z = omega - i gamma / 2 in pair language;
    as a catalogue mode, ``gamma`` is the envelope e-folding rate directly.
    """

    omega: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "gamma", _require_positive("gamma", self.gamma))
        if not math.isfinite(self.omega):
            raise ValidationError("omega must be finite")

    @property
    def z(self) -> complex:
        return complex(self.omega, -0.5 * self.gamma)


@dataclass(frozen=True)
class KhalfinTail:
    """Slow background decay amplitude * (1 + t / tau) ** (-p).

    Finite at t = 0, power law for t >> tau.  The exponent defaults to 3
    elsewhere in the package but is free here; amplitude 0 means no tail.
    """

    amplitude: float
    tau: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "tau", _require_positive("tau", self.tau))
        object.__setattr__(self, "p", _require_positive("p", self.p))
        if not math.isfinite(self.amplitude):
            raise ValidationError("amplitude must be finite")

    def __call__(self, t):
        return self.amplitude * (1.0 + np.asarray(t, dtype=float) / self.tau) ** (-self.p)


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


def _canonical_modes(modes) -> tuple:
    out = []
    for entry in modes:
        if not isinstance(entry, Mode):
            pole, amp = entry
            entry = Mode(pole if isinstance(pole, Pole) else Pole(*pole), amp)
        out.append(entry)
    parts = lambda m: (m.pole.gamma, m.pole.omega, m.amplitude.real, m.amplitude.imag)
    out.sort(key=lambda m: [(x, math.copysign(1.0, x)) for x in parts(m)])  # -0.0 before 0.0
    return tuple(out)


@dataclass(frozen=True)
class PoleCatalogue:
    """Equilibrium value, decaying modes, optional background tail.

    Modes are stored sorted ascending by gamma (canonical order, so any
    input permutation synthesizes identically).  At least one mode or a
    tail must be present.  A catalogue is its data: each mode's stored
    omega is the frequency ``synthesize(..., rendering='full')`` rotates
    it at, however the catalogue was built.
    """

    equilibrium: float
    modes: tuple
    khalfin: Optional[KhalfinTail] = None
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "equilibrium", float(self.equilibrium))
        if not math.isfinite(self.equilibrium):
            raise ValidationError("equilibrium must be finite")
        object.__setattr__(self, "hbar", _require_positive("hbar", self.hbar))
        object.__setattr__(self, "modes", _canonical_modes(self.modes))
        if not self.modes and self.khalfin is None:
            raise ValidationError("catalogue needs at least one mode or a Khalfin tail")
        if self.khalfin is not None and not isinstance(self.khalfin, KhalfinTail):
            raise ValidationError("khalfin must be a KhalfinTail")

    @classmethod
    def from_pole_pairs(cls, pairs, equilibrium=0.0, khalfin=None, hbar=1.0):
        """Build a catalogue from (pole_i, pole_j, amplitude) cross terms.

        Each pair contributes one mode decaying at (gamma_i + gamma_j) / 2
        whose phase rotates at the beat frequency omega_j - omega_i; the
        result is a plain catalogue of those modes.
        """
        modes = []
        for pi, pj, amp in pairs:
            modes.append(
                Mode(
                    Pole(pj.omega - pi.omega, 0.5 * (pi.gamma + pj.gamma)),
                    amp,
                )
            )
        return cls(equilibrium, tuple(modes), khalfin, hbar)

    @property
    def gammas(self) -> tuple:
        return tuple(m.pole.gamma for m in self.modes)


@dataclass(frozen=True)
class Signal:
    """Sampled trajectory on a strictly increasing uniform time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if t.ndim != 1 or t.size == 0:
            raise ValidationError("times must be a nonempty 1-D array")
        if v.shape != t.shape:
            raise ValidationError("values must match times in shape")
        if t.size > 1:
            check_uniform_grid(t)
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v.view(float)))):
            raise ValidationError("signal contains NaN or Inf")
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
    keeps none.  t_D <= t_R always; a violation is a construction error.
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
        for name, value in (("cut", self.cut), ("n_modes", self.n_modes)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
                raise ValidationError(f"{name} must be a nonnegative integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.cut > self.n_modes:
            raise ValidationError(f"cut = {self.cut} exceeds n_modes = {self.n_modes}")
        if self.rule not in _NAMED_RULES + (RULE_CUSTOM,):
            raise ValidationError(f"unknown rule {self.rule!r}")
        if self.boundary not in _BOUNDARY_CUT:
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


def synthesize(cat: PoleCatalogue, grid, rendering: str = "envelope") -> Signal:
    """Evaluate S(t) = equilibrium + sum_i a_i exp(-gamma_i t / hbar) + tail(t).

    ``rendering='envelope'`` keeps only the real damping factors.
    ``rendering='full'`` additionally rotates each mode by
    exp(-i omega_i t / hbar), at the stored omega of any catalogue.
    ``grid`` must be a nonempty 1-D array.
    """
    return _mode_sum(cat, grid, rendering, cat.modes)


def _mode_sum(cat: PoleCatalogue, grid, rendering: str, modes) -> Signal:
    """Equilibrium + ``modes`` (of ``cat``) + tail, on a checked grid and rendering."""
    t = _time_grid(grid)
    if rendering not in ("envelope", "full"):
        raise ValidationError(f"unknown rendering {rendering!r}")
    values = np.full(t.shape, complex(cat.equilibrium), dtype=complex)
    tail = None if cat.khalfin is None else cat.khalfin(t)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range: Signal rejects it
        for mode in modes:
            term = mode.amplitude * np.exp(-mode.pole.gamma * t / cat.hbar)
            if rendering == "full":
                term = term * np.exp(-1j * mode.pole.omega * t / cat.hbar)
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
    gamma0 = _require_positive("gamma0", gamma0)
    hbar = _require_positive("hbar", hbar)
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
    gamma0 = _require_positive("gamma0", gamma0)
    gamma1 = _require_positive("gamma1", gamma1)
    hbar = _require_positive("hbar", hbar)
    return Model2Times(hbar / gamma0, hbar / gamma1, hbar / (gamma1 + gamma0), gamma0 >= gamma1 / 10.0)


def _ldexp(x: float, e: int) -> float:
    """x 2^e, rounded once; +-inf past the float range, where math.ldexp raises."""
    return math.ldexp(x, e) if math.frexp(x)[1] + e <= 1024 else math.copysign(math.inf, x)


def _delta(m: float, omega: float, L0: float, hbar: float) -> float:
    """Delta = L0 sqrt(m omega / 2) / hbar, NaN where m omega < 0, in that order on frexp mantissas
    scaled by a power of two once: the bits of the order on the scales themselves wherever its
    steps are normal floats, and no step under- or overflows where they are not."""
    (mm, em), (wm, ew), (lm, el), (hm, eh) = map(math.frexp, (m, omega, L0, hbar))
    e = em + ew - 1  # m omega / 2 = mm wm 2^e
    p = mm * wm * 2.0 ** (e & 1)  # so that e - (e & 1), the exponent left, is even
    return _ldexp(lm * math.sqrt(p) / hm, el - eh + (e >> 1)) if p >= 0.0 else math.nan


def _collective_scale(m: float, omega: float, L0: float, hbar: float) -> float:
    """(m omega / 2 hbar^2) L0^2 while each step of that order is a normal float, else Delta * Delta."""
    h2 = 2.0 * hbar * hbar
    q = m * omega / h2 if h2 >= 2.0**-1022 and abs(m * omega) >= 2.0**-1022 else 0.0
    if abs(q) >= 2.0**-1022 and 2.0**-1022 <= abs(scale := q * L0 * L0) < math.inf:
        return scale
    delta = _delta(m, omega, L0, hbar)
    return delta * delta


def collective_rate_rule(m: float, omega: float, L0: float, hbar: float = 1.0) -> Callable:
    """Threshold rule set by the collective rate (m omega / 2 hbar^2) L0^2 gamma0."""
    _require_positive("hbar", hbar)
    scale = _require_positive("m*omega*L0^2/(2 hbar^2)", _collective_scale(m, omega, L0, hbar))

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
      receives the checked widths as a sorted float array.  The shipped
      example is :func:`collective_rate_rule`.

    ``boundary`` decides the fate of poles sitting exactly at the
    threshold: ``'relevant'`` uses gamma <= hbar/t_D, ``'irrelevant'``
    uses strict <.  Both readings appear in two-pole treatments, where the
    threshold pole itself is the one being dropped.
    """
    widths = np.fromiter(gammas, dtype=float)
    if not widths.size:
        raise ValidationError("no poles to partition")
    if not np.all((widths > 0.0) & (widths < math.inf)):
        raise ValidationError("widths must be positive and finite")
    if np.any(widths[1:] < widths[:-1]):
        raise ValidationError("widths must be sorted ascending")
    hbar = _require_positive("hbar", hbar)

    if callable(rule):
        threshold = float(rule(widths))
        if not math.isfinite(threshold) or threshold <= 0.0:
            raise ValidationError(f"custom rule returned a nonpositive rate: {threshold!r}")
    elif rule in _NAMED_RULES:  # a named rule splits at a width itself
        threshold = widths[1] if rule == RULE_SECOND_SMALLEST and widths.size > 1 else widths[0]
    else:
        raise ValidationError(f"unknown rule {rule!r}")
    if boundary not in _BOUNDARY_CUT:
        raise ValidationError(f"unknown boundary mode {boundary!r}")
    return TimescaleReport(
        t_R=hbar / widths[0],
        t_D=hbar / threshold,
        cut=0 if rule == RULE_BACKGROUND else _BOUNDARY_CUT[boundary](widths, threshold),
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

    See :func:`partition_report` for the rule and boundary semantics; the
    catalogue's sorted widths and hbar are used.
    """
    if not cat.modes:
        raise ValidationError("catalogue has no poles to partition")
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


def preferred_signal(
    cat: PoleCatalogue,
    report: TimescaleReport,
    grid,
    rendering: str = "envelope",
) -> Signal:
    """Synthesize the catalogue with every p-irrelevant mode removed.

    The truncation applies for all t: the returned trajectory is
    equilibrium + surviving modes + tail from t = 0 on, and is meaningful
    as the decohered trajectory only past the report's t_D.
    """
    check_report_matches(cat, report)
    return _mode_sum(cat, grid, rendering, cat.modes[: report.cut])


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
    analytic ceiling sum_{dropped} |a_i| exp(-gamma_i t_D / hbar); the
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
    for mode in cat.modes[report.cut :]:
        bound += abs(mode.amplitude) * math.exp(-mode.pole.gamma * report.t_D / cat.hbar)
    # each trajectory is a sum of equilibrium, modes and tail, rounded once per term
    # to an ulp of a partial sum, which the terms' sizes at t >= 0 bound
    terms = [cat.equilibrium, cat.khalfin.amplitude if cat.khalfin else 0.0] + [m.amplitude for m in cat.modes]
    scale = max(float(np.max(np.abs(full))), float(np.max(np.abs(kept))), sum(map(abs, terms)))
    rounding = (len(cat.modes) + 2) * float(np.spacing(scale))
    passed = deviation <= bound * (1.0 + _REL_SLACK) + rounding or deviation == 0.0
    return CoincidenceResult(deviation, bound, passed, report.t_D)


class CatalogueMatrix:
    """Matrix-valued catalogue: rho(t) = EQ + sum_k A_k exp(-gamma_k t / hbar).

    Every entry shares one pole list; per-pole amplitudes are Hermitian
    matrices so the evaluated matrix is Hermitian at all times.  This is
    the per-mode tagging needed to drop poles entrywise when building a
    preferred state.  Only envelope (real damping) rendering is defined at
    the matrix level.  Widths, frequencies and the read-only (K, d, d)
    ``amplitudes`` stack are sorted jointly; ``poles`` is built on first read.
    ``evaluate`` and ``dropped_envelope`` take one time or an array of T
    times (a (T, d, d) stack, a (T,) array), and their modes as a report's
    partition gives them: ``range(cut)`` kept, ``range(cut, K)`` dropped,
    or any ``range(start, stop)`` with 0 <= start <= stop <= K, summed as
    one slice; no other index form is taken.  Their results are held to the
    rounding bounds their docstrings state, not to fixed bits: a factor
    whose exp would be subnormal counts as 0, and the sums run in any order.

    ``truncation`` is a catalogue's stated distance tau from the catalogue
    it was cut from: its amplitudes, EQ included, lie within tau of that
    catalogue's in Frobenius norm summed over the modes, and modes it lacks
    count as 0 there.  Each decay factor is <= 1 at t >= 0, so ``evaluate``
    lies within tau of that catalogue's sum at every such time.  It is 0.0
    for a constructor-built catalogue; ``omnes.frame_catalogue_matrix``
    states its own.
    """

    def __init__(self, poles, equilibrium, amplitudes, hbar: float = 1.0):
        poles = tuple(poles)
        if not all(isinstance(p, Pole) for p in poles):
            raise ValidationError("poles must be Pole instances")
        self._build([p.omega for p in poles], [p.gamma for p in poles], equilibrium, amplitudes, hbar)

    @classmethod
    def _from_widths(cls, omegas, gammas, equilibrium, amplitudes, hbar: float = 1.0, truncation: float = 0.0):
        """Catalogue of poles (omegas[k], gammas[k]), checked in one pass as ``Pole`` does, with ``truncation``.

        Precondition: ``amplitudes`` are finite and Hermitian to the bit
        (A[j, i] == conj(A[i, j]), diagonals with imaginary part +0.0), so
        the stack is stored as given; ``hermitian_average`` would return A's
        own bits, zero signs included, for such A below 2^1021 anyway.  The
        constructor checks and averages.
        """
        cm = cls.__new__(cls)
        cm._build(omegas, gammas, equilibrium, amplitudes, hbar, average=False)
        cm.truncation = truncation
        return cm

    def _build(self, omegas, gammas, equilibrium, amplitudes, hbar, average=True):
        omegas, gammas = np.asarray(omegas, dtype=float), np.asarray(gammas, dtype=float)
        bad = ~((gammas > 0.0) & (gammas < math.inf) & np.isfinite(omegas))
        if bad.any():  # the first bad pole raises what its Pole raises
            Pole(omegas[bad.argmax()], gammas[bad.argmax()])
        eq = HermitianMatrix(equilibrium).entries
        dim = eq.shape[0]
        amps = _complex_array(amplitudes)
        if amps.size == 0:
            amps = amps.reshape(0, dim, dim)
        if amps.shape != (gammas.size, dim, dim):
            raise ValidationError(
                f"need one {dim}x{dim} amplitude matrix per pole ({gammas.size}), got shape {amps.shape}"
            )
        order = np.lexsort((omegas, gammas))
        self._omegas = omegas[order]
        self._gammas = gammas[order]
        self.gammas = tuple(self._gammas.tolist())
        self.amplitudes = hermitian_average(amps[order]) if average else amps[order]
        self.amplitudes.setflags(write=False)
        # Frobenius norms, each summed along the stack's long axis (see dropped_envelope)
        self._norms = np.sqrt(_matrix_reduce(np.ndarray.sum, (self.amplitudes.conj() * self.amplitudes).real))
        self.equilibrium = eq
        self.hbar = _require_positive("hbar", hbar)
        self.dim = dim
        self.truncation = 0.0

    @functools.cached_property
    def poles(self) -> tuple:
        return tuple(map(Pole, self._omegas.tolist(), self.gammas))

    def _mode_slice(self, modes) -> slice:
        """A report's ``range(start, stop)`` of modes, 0 <= start <= stop <= K, as a slice; any other form raises."""
        if not (isinstance(modes, range) and modes.step == 1 and modes.start <= modes.stop):
            raise ValidationError(f"modes must be a range(start, stop) with start <= stop, got {modes!r}")
        if modes.start < 0 or modes.stop > self._gammas.size:
            raise ValidationError(f"mode indices must lie in [0, {self._gammas.size}), got {modes!r}")
        return slice(modes.start, modes.stop)

    def _decay(self, t, idx) -> np.ndarray:
        """exp(-gamma t / hbar) of the ``idx`` modes, (K,) or (T, K), built in one array.

        Precision (t >= 0): the exponent x = -gamma t / hbar takes two
        roundings, so |x_hat - x| <= gamma_2 |x|, and exp rounds once more
        (within one ulp).  A factor whose exp would not be a normal float
        (x_hat below log 2^-1022 = -708.396) is stored as 0.0, and no exp
        is spent on it.  So a stored factor e_hat is within
        e^x ((1 + 2u) e^(gamma_2 |x|) - 1) of e^x, or is 0.0 where
        e^x < 2^-1022 e^(gamma_2 |x|); u = 2^-53, gamma_k = k u / (1 - k u).
        """
        decay = np.multiply.outer(t, -self._gammas[idx])
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
# Its one reader and the field validators it shares with the command line;
# every diagnostic names the offending field path.

_REQUIRED = object()

# the keys a catalogue reads besides its modes
_CATALOGUE_KEYS = ("equilibrium", "hbar", "khalfin")


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
    return _finite(_field(doc, path, key, default), f"{path}.{key}", positive)


def _finite(raw, path: str, positive=False) -> float:
    """``raw`` as a finite float (> 0 if ``positive``); bools are not numbers."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # an integer past the float range
        value = math.inf if raw > 0 else -math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{path}: must be finite, got {value!r}")
    if positive and value <= 0.0:
        raise ValidationError(f"{path}: must be > 0, got {value!r}")
    return value


def _mode(doc, path, gamma_key, re_key, im_key, omega_key=None) -> Mode:
    """One mode; omega defaults to 0 (always, without an ``omega_key``), the amplitude to 1 + 0j."""
    omega = 0.0 if omega_key is None else _number(doc, path, omega_key, 0.0)
    return Mode(
        Pole(omega, _number(doc, path, gamma_key, positive=True)),
        complex(_number(doc, path, re_key, 1.0), _number(doc, path, im_key, 0.0)),
    )


def _catalogue(doc, path, modes) -> PoleCatalogue:
    """``modes`` with the equilibrium, Khalfin tail and hbar read from ``doc``."""
    equilibrium = _number(doc, path, "equilibrium", 0.0)
    tail = _field(doc, path, "khalfin", None)
    if tail is not None:
        p = f"{path}.khalfin"
        _reject_unknown(_as_object(tail, p), p, ("amplitude", "tau", "p"))
        tail = KhalfinTail(
            _number(tail, p, "amplitude"),
            _number(tail, p, "tau", 1.0, positive=True),
            _number(tail, p, "p", 3.0, positive=True),
        )
    return PoleCatalogue(equilibrium, modes, tail, _number(doc, path, "hbar", 1.0, positive=True))


def _read_catalogue(doc: dict, path: str, other_keys=(), tail_only_ok=True) -> PoleCatalogue:
    """The catalogue object ``doc``, which may also hold ``other_keys``.

    With ``tail_only_ok`` its ``modes`` may be empty if it gives a Khalfin tail.
    """
    _reject_unknown(doc, path, ("modes",) + _CATALOGUE_KEYS + other_keys)
    raw = _field(doc, path, "modes")
    if not isinstance(raw, list) or not (raw or (tail_only_ok and doc.get("khalfin") is not None)):
        raise ValidationError(f"{path}.modes: expected a nonempty array of mode objects")
    modes = []
    for i, entry in enumerate(raw):
        p = f"{path}.modes[{i}]"
        _reject_unknown(_as_object(entry, p), p, ("omega", "gamma", "amp_re", "amp_im"))
        modes.append(_mode(entry, p, "gamma", "amp_re", "amp_im", "omega"))
    return _catalogue(doc, path, tuple(modes))


def catalogue_to_json(cat: PoleCatalogue) -> str:
    """Serialize to the interchange schema: ``catalogue_from_json`` gives back an equal catalogue."""
    doc = {
        "hbar": cat.hbar,
        "equilibrium": cat.equilibrium,
        "modes": [
            {
                "omega": m.pole.omega,
                "gamma": m.pole.gamma,
                "amp_re": m.amplitude.real,
                "amp_im": m.amplitude.imag,
            }
            for m in cat.modes
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
    _as_object(doc, "catalogue")
    for key in ("modes",) + _CATALOGUE_KEYS:  # inline catalogues may omit all but modes
        _field(doc, "catalogue", key)
    return _read_catalogue(doc, "catalogue")


# rows per piece of streamed CSV text: it bounds the text held at once (~0.25 MB
# at three columns); rendering speed is flat from 512 to 16384 rows
_CSV_CHUNK_ROWS = 4096


def csv_chunks(header: str, columns) -> Iterator[str]:
    """CSV text of equal-length float columns, in pieces to write in turn.

    The first piece is the header line; each further one holds up to
    ``_CSV_CHUNK_ROWS`` rows with every value at 17 significant digits
    (lossless), so the whole text is never held at once.
    """
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    yield header + "\n"
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        parts = (c[start : start + _CSV_CHUNK_ROWS].tolist() for c in columns)
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
