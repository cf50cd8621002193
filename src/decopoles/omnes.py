"""Truncated coherent-state superpositions and their collective decay.

A particle in a harmonic well, displaced by L0 and prepared in the
superposition a|alpha1> + b|alpha2> with alpha1 = 0 (gauge), decoheres
through a single resonance pole z0.  Working in the truncated Fock space
of dimension N+1:

* the two branches are quasi-orthogonal when Delta = alpha2 - alpha1 is
  large, with residual overlap exp(-Delta^2/2) plus a truncation
  correction bounded by (Delta^2/2)^(N+1)/(N+1)!;
* the surviving off-diagonal block decays through the exponential of an
  exponential exp(-Delta^2 (1 - exp(-i z0 t / hbar)));
* the small-t slope of log|rho_21| is the collective rate
  gamma_tilde = (m omega / 2 hbar^2) L0^2 gamma0 = Delta^2 gamma0,
  giving the separation-dependent decoherence time t_D = hbar/gamma_tilde
  with t_D L0^2 independent of L0.

All Fock weights come from one log-domain helper, so truncations up to
N ~ 1e4 stay representable; sums over them run on the ladder phases
exp(-i n z0 t / hbar) of the spectrum z_n = n z0.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .numerics import DensityMatrix, _formed_density, _integer, _number, _time, _times
from .pole_models import CatalogueMatrix, _collective_scale, _delta, _ldexp

_NORM_TOL = 1e-12
_MIN_DELTA = 10.0
_TRUNCATION_FACTOR = 0.1
_EPS = 2.0**-60  # the frame catalogue's truncation, a share of ||rho(0)||_F; the head window's, of sum q


def _logsumexp(exponents: np.ndarray) -> float:
    """log sum exp; every caller's exponents hold the n = 0 weight's 0, so their max is finite."""
    m = float(np.max(exponents))
    return m + math.log(float(np.sum(np.exp(exponents - m))))


def _pole_width(z0: complex) -> float:
    """gamma = -Im z0 of a decaying pole; a growing one (Im z0 > 0) raises ValidationError."""
    z0 = complex(z0)
    if z0.imag > 0.0:
        raise ValidationError(f"Im z0 = {z0.imag} must be <= 0 (decaying pole)")
    return -z0.imag


def _ladder_exponents(ladder: np.ndarray, z0: complex, t: float, hbar: float) -> np.ndarray:
    """x_n = n c, c = -i z0 t / hbar, on the ladder z_n = n z0 at one time t, as a new array;
    ``ladder`` holds n = 0, 1, ... as complex (a slice of ``_FockTable.ladder``).

    c is formed once, as a Python complex (one rounding per part for t, one for hbar), and n c
    takes one more, so each part of the exponent is within gamma_3 of the exact x_n = -i n z0 t / hbar,
    with gamma_k = k u / (1 - k u), u = 2^-53.  Once the last n c overflows, n + 0j times c warns (and spends
    0 * inf = NaN on each part once c does), so n Re c and n Im c are then real products, for n >= 1, and x_0 = 0.
    """
    c = -1j * complex(z0) * t / hbar
    if cmath.isfinite((ladder.size - 1) * c):
        return ladder * c
    x = np.zeros(ladder.size, dtype=complex)
    n = ladder.real[1:]
    with np.errstate(over="ignore"):  # a finite part past the float range reads +-inf
        x.real[1:], x.imag[1:] = n * c.real, n * c.imag
    return x


def _ladder_phases(ladder: np.ndarray, z0: complex, t: float, hbar: float) -> np.ndarray:
    """exp(-i z_n t / hbar) = exp(x_n) of ``_ladder_exponents``, in their buffer; numpy's complex exp adds
    under 6u per part, so each part lies within |e^x| ((1 + 6u) e^(gamma_3 |x|) - 1) + 2^-1074 of exp(x_n)."""
    x = _ladder_exponents(ladder, z0, t, hbar)
    return np.exp(x, out=x)


class _FockTable(NamedTuple):
    log_weights: np.ndarray  # log(alpha^n / sqrt(n!)), n = 0..N; alpha = 0 gives only n = 0
    log_norm: float  # -1/2 log(sum_n alpha^2n / n!)
    q_live: np.ndarray  # |<n|alpha>|^2 for n = 0..hi as complex, q_hi the last nonzero one (leading zeros stay)
    ladder: np.ndarray  # n = 0..N as complex, the ladder steps that ``_ladder_exponents`` scales by c
    head: int  # q_live's length less its trailing weights that sum below _EPS sum q (the low side stays)


@functools.lru_cache(maxsize=32)
def _fock_table(alpha: float, N: int) -> _FockTable:
    """Every Fock-weight quantity of the truncated |alpha> and its ladder, cached per (alpha, N), read-only."""
    if alpha == 0.0:
        log_weights = np.full(N + 1, -math.inf)
        log_weights[0] = 0.0
    else:
        log_weights = np.arange(N + 1) * math.log(alpha) - 0.5 * np.array([math.lgamma(k + 1.0) for k in range(N + 1)])
    log_norm = -0.5 * _logsumexp(2.0 * log_weights)
    q = np.exp(2.0 * (log_weights + log_norm))
    q_live = q[: np.flatnonzero(q)[-1] + 1].astype(complex)
    ladder = np.arange(N + 1, dtype=complex)
    for arr in (log_weights, q_live, ladder):
        arr.setflags(write=False)
    trail = np.cumsum(q_live.real[::-1])  # weight summed from the top
    head = q_live.size - int(np.searchsorted(trail, _EPS * trail[-1]))
    return _FockTable(log_weights, log_norm, q_live, ladder, head)


@dataclass(frozen=True)
class QuasiCoherentState:
    """Coherent state truncated at Fock level N, renormalized to unit norm.

    alpha is real and nonnegative: zero momentum displacement makes the
    amplitude real, and the sign can always be absorbed by a coordinate
    flip.  N is an integer >= 1.
    """

    alpha: float
    N: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", _number(self.alpha, "alpha", ">= 0"))
        object.__setattr__(self, "N", _integer(self.N, "N", 1))

    @property
    def log_norm(self) -> float:
        """log of the normalization constant (sum alpha^2k / k!)^(-1/2)."""
        return _fock_table(self.alpha, self.N).log_norm

    def fock_vector(self) -> np.ndarray:
        """Unit-norm component vector <n|alpha> in the Fock basis, length N+1 (up to rounding in |log_norm| and N)."""
        table = _fock_table(self.alpha, self.N)
        return np.exp(table.log_weights + table.log_norm)


def _weight_sum(a: complex, b: complex) -> float:
    """|a|^2 + |b|^2, or inf where a square overflows (float ** raises there)."""
    try:
        return abs(a) ** 2 + abs(b) ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class OmnesConfig:
    """Physical scales and superposition coefficients of the two-branch setup.

    The displacement maps to alpha2 = L0 sqrt(m omega / 2) / hbar with
    alpha1 = 0 by choice of origin, so Delta = alpha2, whose square must
    be finite.  m, omega, hbar, gamma0 and L0 are finite numbers > 0, and N
    an integer >= 1.
    """

    m: float
    omega: float
    hbar: float
    gamma0: float
    L0: float
    a: complex
    b: complex
    N: int

    def __post_init__(self):
        for name in ("m", "omega", "hbar", "gamma0", "L0"):
            object.__setattr__(self, name, _number(getattr(self, name), name, "> 0"))
        a = complex(self.a)
        b = complex(self.b)
        ssq = _weight_sum(a, b)
        if not abs(ssq - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValidationError(f"|a|^2 + |b|^2 = {ssq} must be 1 within {_NORM_TOL}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "N", _integer(self.N, "N", 1))
        delta = _delta(self.m, self.omega, self.L0, self.hbar)
        if not math.isfinite(delta * delta):  # the frame overlaps need Delta^2
            raise ValidationError(
                f"Delta = L0 sqrt(m omega / 2) / hbar = {delta!r} is too large: Delta^2 overflows"
            )
        object.__setattr__(self, "_alpha2", delta)  # not a field: formed once, from the fields

    @property
    def alpha2(self) -> float:
        return self._alpha2

    delta = alpha2

    def z0(self, omega_prime: float = 0.0) -> complex:
        """Resonance pole omega' - i gamma0 with the config's width."""
        return complex(float(omega_prime), -self.gamma0)

    def state2(self) -> QuasiCoherentState:
        return QuasiCoherentState(self.alpha2, self.N)


def overlap_truncated(s1: QuasiCoherentState, s2: QuasiCoherentState) -> float:
    """Truncated alternating overlap sum_{n<=N} (-(a1-a2)^2/2)^n / n!.

    Terms are accumulated in descending magnitude with exact (compensated) summation.
    The result tracks exp(-Delta^2/2) within overlap_error_bound(Delta, N); its own
    floating-point accuracy is limited by cancellation to roughly one ulp of the largest
    term, which for Delta around 5 means absolute errors near 1e-11.  Past the float
    range it raises ValidationError.
    """
    if s1.N != s2.N:
        raise ValidationError(f"truncations differ: {s1.N} != {s2.N}")
    try:  # float ** raises past the float range, fsum on -inf + inf
        x = 0.5 * (s1.alpha - s2.alpha) ** 2
        terms = [1.0]
        for n in range(s1.N):
            terms.append(terms[-1] * (-x / (n + 1.0)))
        total = math.fsum(sorted(terms, key=abs, reverse=True))
    except (OverflowError, ValueError):
        total = math.inf
    if not math.isfinite(total):
        raise ValidationError(f"Delta = {abs(s1.alpha - s2.alpha)!r}, N = {s1.N}: terms past the float range")
    return total


def fock_overlap(s1: QuasiCoherentState, s2: QuasiCoherentState) -> float:
    """Exact inner product of the two truncated, renormalized states.

    N1 N2 sum_{n<=N} (a1 a2)^n / n!, evaluated in the log domain.  All
    terms are nonnegative, so no cancellation occurs.  This differs from
    overlap_truncated at small N: the two agree only once both truncation
    corrections drop below the working precision.
    """
    if s1.N != s2.N:
        raise ValidationError(f"truncations differ: {s1.N} != {s2.N}")
    t1, t2 = _fock_table(s1.alpha, s1.N), _fock_table(s2.alpha, s2.N)
    return math.exp(t1.log_norm + t2.log_norm + _logsumexp(t1.log_weights + t2.log_weights))


def overlap_error_bound(delta: float, N: int) -> float:
    """Remainder ceiling (Delta^2/2)^(N+1) / (N+1)! for the truncated overlap, delta >= 0 and an integer
    N >= 0; inf past the float range."""
    delta, N = _number(delta, "delta", ">= 0"), _integer(N, "N", 0)
    try:
        return math.exp((N + 1) * math.log(0.5 * delta * delta) - math.lgamma(N + 2.0))
    except ValueError:  # log(0): delta == 0, or so small that its square underflows
        return 0.0
    except OverflowError:  # the ceiling exceeds the float range
        return math.inf


@dataclass(frozen=True)
class MacroscopicityReport:
    """Margins of the two quasi-orthogonality conditions.

    Both margins are ratios normalized so that >= 1 means satisfied:
    lower_margin = Delta / min_delta, upper_margin = the truncation
    headroom factor * sqrt(2(N+1)) / Delta.
    """

    passed: bool
    delta: float
    lower_margin: float
    upper_margin: float
    min_delta: float
    truncation_factor: float


def macroscopicity_check(cfg: OmnesConfig) -> MacroscopicityReport:
    """Check Delta >> 1 and Delta << sqrt(2(N+1)) with factor-of-10 margins.

    The asymptotic conditions are read quantitatively as Delta >= 10 and
    Delta <= 0.1 sqrt(2(N+1)): an order of magnitude on each side.
    """
    delta = cfg.delta
    lower = delta / _MIN_DELTA
    upper = _TRUNCATION_FACTOR * math.sqrt(2.0 * (cfg.N + 1)) / delta if delta > 0.0 else math.inf
    return MacroscopicityReport(
        passed=(lower >= 1.0 and upper >= 1.0),
        delta=delta,
        lower_margin=lower,
        upper_margin=upper,
        min_delta=_MIN_DELTA,
        truncation_factor=_TRUNCATION_FACTOR,
    )


def _frame_overlaps(cfg: OmnesConfig, z0: complex, t, closed_form: bool):
    """(s, w): static branch overlap and <alpha2(0)|alpha2(t)> at the time or times ``t`` its caller read
    (``numerics._time`` or ``_times``), so it reads none; rejects a growing pole.

    ``closed_form``: s = exp(-Delta^2/2), w = exp(-Delta^2 (1 - exp(-i z0 t / hbar)))
    at a time or a grid of times, each entry with the bits of its time
    alone.  The arithmetic runs on real and imaginary parts in the order
    the scalar complex operators use, since numpy's complex multiply and
    divide round differently.  Otherwise the truncated w at one time, over the head q_0..q_(h-1) of the
    live Fock weights: |x| = e^(-gamma0 t / hbar) <= 1, so the dropped tail (< 2^-60 sum q) weighs
    < 2^-60 A, A = sum q_n |x|^n; as gamma_(hi+1) - gamma_h >= 2^-53, w keeps the live sum's
    gamma_(hi+1) A + (hi + 1) 2^-1074 (Higham, ch. 3).
    """
    _pole_width(z0)
    if not closed_form:
        table = _fock_table(cfg.alpha2, cfg.N)
        phases = _ladder_phases(table.ladder[: table.head], z0, t, cfg.hbar)
        return math.exp(table.log_norm), complex(table.q_live[: table.head] @ phases)
    d2 = cfg.delta**2
    arg = -1j * complex(z0)
    inner = np.exp(arg.real * t / cfg.hbar + 1j * (arg.imag * t / cfg.hbar))
    w = np.exp(-d2 * (1.0 - inner.real) + 1j * (-d2 * (0.0 - inner.imag)))
    return math.exp(-0.5 * d2), (w if isinstance(w, np.ndarray) else complex(w))


@dataclass(frozen=True)
class NDComponents:
    """Off-diagonal block in the {|alpha1(0)>, |alpha2(0)>} frame at one time.

    rho21 = conj(a) b exp(-Delta^2 (1 - exp(-i z0 t/hbar))) carries the
    decaying coherence; rho12 is its conjugate.  The diagonal residuals
    are exact frame projections of the cross outer products and stay below
    exp(-Delta^2/2) for any unit (a, b).  ``envelope`` is the closed-form
    magnitude exp(-Delta^2 (1 - exp(-gamma0 t/hbar))), which equals
    |rho21 / (conj(a) b)| exactly when the pole has no real part.
    """

    t: float
    rho11: complex
    rho12: complex
    rho21: complex
    rho22: complex
    envelope: float

    def __post_init__(self):
        if abs(self.rho12 - self.rho21.conjugate()) > 1e-12:
            raise ValidationError("rho12 must equal conj(rho21)")


def nd_block(cfg: OmnesConfig, z0: complex, t: float) -> NDComponents:
    """Evaluate the four frame components of the coherence block at one time ``t``, read once by
    ``numerics._time``: a finite number >= 0 (a grid is refused as no number; ``nd_decay`` serves grids).

    ``macroscopicity_check`` reports the regime in which the closed form holds.
    """
    s, w = _frame_overlaps(cfg, z0, t := _time(t), closed_form=True)
    cross = cfg.a.conjugate() * cfg.b
    rho21 = cross * w
    return NDComponents(
        t=t,
        rho11=complex(2.0 * cross.real * s),
        rho12=rho21.conjugate(),
        rho21=rho21,
        rho22=complex(2.0 * s * (cross * w).real),
        envelope=math.exp(-cfg.delta**2 * (1.0 - math.exp(-_pole_width(z0) * t / cfg.hbar))),
    )


def nd_decay(cfg: OmnesConfig, z0: complex, times) -> np.ndarray:
    """|rho12| at every time of ``times`` (a grid, or one time, read by ``numerics._times``), in one numpy pass.

    Each entry equals abs(nd_block(cfg, z0, t).rho12) bit for bit: the
    product conj(a) b w(t) is formed on real and imaginary parts as CPython
    forms it, and its magnitude is np.hypot, as abs(complex) is.  The
    regime in which the closed form holds is ``macroscopicity_check``'s report.
    """
    _, w = _frame_overlaps(cfg, z0, _times(times), closed_form=True)
    cross = cfg.a.conjugate() * cfg.b
    return np.hypot(
        cross.real * w.real - cross.imag * w.imag,
        cross.real * w.imag + cross.imag * w.real,
    )


@dataclass(frozen=True)
class CollectiveRate:
    gamma_tilde: float
    t_D: float
    t_R: float


def collective_rate(cfg: OmnesConfig) -> CollectiveRate:
    """gamma_tilde = (m omega / 2 hbar^2) L0^2 gamma0 and its timescales.

    t_D = hbar / gamma_tilde shrinks as 1/L0^2 while t_R = hbar / gamma0
    is separation-independent, so t_D * L0^2 = 2 hbar^3 / (m omega gamma0)
    exactly.  In the macroscopic regime gamma_tilde / gamma0 = Delta^2 >> 1
    guarantees t_D << t_R (the regime ``macroscopicity_check`` reports).  A t_D
    that leaves the float range raises ValidationError.
    """
    gamma_tilde = (scale := _collective_scale(cfg.m, cfg.omega, cfg.L0, cfg.hbar)) * cfg.gamma0
    t_D = cfg.hbar / gamma_tilde if gamma_tilde > 0.0 else math.inf  # gamma_tilde = inf gives 0
    if gamma_tilde > 0.0 and min(scale, gamma_tilde) < 2.0**-1022:  # subnormal: hbar / (Delta^2 gamma0) on mantissas
        (h, eh), (d, ed), (g, eg) = map(math.frexp, (cfg.hbar, cfg.delta, cfg.gamma0))
        t_D = _ldexp(h / (d * d * g), eh - 2 * ed - eg)
    if not 0.0 < t_D < math.inf:
        raise ValidationError(f"gamma_tilde = {gamma_tilde!r} gives t_D = {t_D!r}, outside the float range")
    return CollectiveRate(gamma_tilde, t_D, cfg.hbar / cfg.gamma0)


# --- full Fock-space construction -------------------------------------------


def build_density_matrix(cfg: OmnesConfig, z0: complex, t: float) -> DensityMatrix:
    """Trace-1 density matrix of the evolved superposition in Fock space, at one time ``t``, read once by
    ``numerics._time``: a finite number >= 0 (a grid is refused as no number).

    The state a|0> + b|alpha2(t)>, with the displaced branch evolved componentwise by
    exp(-i n z0 t / hbar), has amplitudes exp(log <n|alpha2> + x_n), formed in log scale and
    shifted by their largest log (a's included), so no amplitude overflows or underflows all
    together; ``numerics._formed_density`` forms rho = u u^H / tr (the non-unitary evolution
    loses norm) within its stated bound.  A growing pole (Im z0 > 0) raises ValidationError.
    """
    _pole_width(z0)
    table = _fock_table(cfg.alpha2, cfg.N)
    x = table.log_weights + table.log_norm + _ladder_exponents(table.ladder, z0, _time(t), cfg.hbar)
    log_a = math.log(abs(cfg.a)) if cfg.a else -math.inf
    shift = max(float(np.max(x.real)), log_a)  # the largest amplitude's log, a's included
    state = cfg.b * np.exp(x - shift)
    if cfg.a:  # shift >= log|a| > -745; a e^-shift as (a half) half, since e^-shift alone may overflow
        half = math.exp(-0.5 * shift)
        state[0] += cfg.a * half * half
    return _formed_density(state, "evolved state has zero norm")


# --- two-dimensional frame picture -------------------------------------------


def frame_projection(
    cfg: OmnesConfig, z0: complex, t: float, closed_form: bool = True
) -> DensityMatrix:
    """2x2 density matrix of the state seen through the initial branch frame.

    The projections of the evolved state on the initial branch pair are
    f1 = a + b s and f2 = a s + b w(t), with s the static branch overlap
    and w the self-overlap of the displaced branch, at one time ``t``, read once by ``numerics._time``:
    a finite number >= 0 (a grid is refused as no number).  ``closed_form`` picks
    the infinite-N expressions; otherwise the truncated sums, w over the
    head window only (``_frame_overlaps`` states the bound).  rho = f f^H / tr through
    ``numerics._formed_density``; the frame is treated as orthonormal, which the
    macroscopic regime justifies up to the exp(-Delta^2/2) cross-overlap.
    A growing pole (Im z0 > 0) raises ValidationError.
    """
    s, w = _frame_overlaps(cfg, z0, _time(t), closed_form)
    f = np.array([cfg.a + cfg.b * s, cfg.a * s + cfg.b * w], dtype=complex)
    return _formed_density(f, "frame projection has zero weight")


def frame_catalogue_matrix(cfg: OmnesConfig) -> CatalogueMatrix:
    """Pole expansion of the (unnormalized) 2x2 frame matrix, truncated at eps = 2^-60.

    Requires a real damping pole z0 = -i gamma0 (no oscillation), so every
    frame entry is a polynomial in x = exp(-gamma0 t / hbar): f2 and
    f1 conj(f2) carry powers 0..hi from the live Fock weights, |f2|^2 powers
    0..2 hi via the Cauchy product.  Power 0 forms the equilibrium matrix EQ,
    power k >= 1 a pole at k gamma0.  Feed the result to a partition rule to
    drop the fast collective cluster.

    Truncation, with S = ||rho(0)||_F = |f1|^2 + |f2(1)|^2 (rho(0) = f f^H at x = 1, f2(1) = sum_j f2_j;
    ||EQ||_F = |f1|^2 + |f2_0|^2 would collapse as a -> 0, a state starting in the displaced branch):
    a dropped weight f2_j moves the powers' Frobenius norms by at most
    |f2_j| R in sum, R = 2 |f2|_1 + sqrt(2) |f1|, so the leading and the
    trailing weights that sum within eps S / (2 R) on each side are set to 0
    and only the rest is convolved; then the powers are kept while their tail
    sum_{j >= k} ||A_j||_F is nonzero and at least eps S.  The result's
    ``truncation`` tau = (dropped weight) R + (dropped tail) < 2 eps S bounds
    the sum over all powers, EQ included, of their Frobenius distance from the
    untruncated tower's; its float sums of n <= 4 hi + 4 terms lie within
    gamma_n of exact, plus n 2^-1074 where terms underflow.

    Precision is the dot-product bound, not fixed bits: power k of |f2|^2
    is conv(Re f2, Re f2) + conv(Im f2, Im f2) over the kept weights, two
    real sums of m products each and one addition, so it lies within gamma_(m+1) sum_j
    (|Re f2_j Re f2_(k-j)| + |Im f2_j Im f2_(k-j)|) <= gamma_(m+1) sum_j |f2_j| |f2_(k-j)| plus
    (m + 1) 2^-1074 of its exact value over them, with
    gamma_k = k u / (1 - k u), u = 2^-53 (Higham 2002, ch. 3).  A cross
    power f1 conj(f2_k) is one complex product, each part within gamma_2 times
    the size of its two real products.
    The amplitudes are Hermitian to the bit, so the average ``CatalogueMatrix._from_widths``
    takes returns their own bits.
    """
    table = _fock_table(cfg.alpha2, cfg.N)
    s = math.exp(table.log_norm)
    f1 = cfg.a + cfg.b * s

    # w_N(t) = sum_k q_k x^k with q_k = N2^2 Delta^(2k) / k!
    f2 = cfg.b * table.q_live
    f2[0] += cfg.a * s
    size = np.abs(f2)
    reach = 2.0 * float(size.sum()) + math.sqrt(2.0) * abs(f1)  # R: the powers' change per dropped weight
    floor = _EPS * (abs(f1) ** 2 + abs(complex(f2.sum())) ** 2)  # eps ||rho(0)||_F
    lead, trail = np.cumsum(size), np.cumsum(size[::-1])  # weight summed from either end
    limit = 0.5 * floor / reach if reach > 0.0 else 0.0
    lo, cut = int(np.searchsorted(lead, limit, "right")), int(np.searchsorted(trail, limit, "right"))
    hi = f2.size - cut
    if lo < hi:
        dropped = (lead[lo - 1] if lo else 0.0) + (trail[cut - 1] if cut else 0.0)
    else:  # the two sides meet: every weight is dropped
        lo = hi = 0
        dropped = lead[-1]
    w = f2[lo:hi]
    amps = np.zeros((max(2 * hi - 1, 1), 2, 2), dtype=complex)  # row k holds power k; row 0 is EQ
    amps[0, 0, 0] = abs(f1) ** 2
    if w.size:
        top = f1 * w.conj()
        amps[lo:hi, 0, 1] = top
        amps[lo:hi, 1, 0] = top.conj()
        amps[2 * lo : 2 * hi - 1, 1, 1] = np.convolve(w.real, w.real) + np.convolve(w.imag, w.imag)  # Re(w conj(w))
    norms = np.hypot(amps[1:, 1, 1].real, math.sqrt(2.0) * np.abs(amps[1:, 0, 1]))
    tails = np.cumsum(norms[::-1])[::-1]
    n = int(np.count_nonzero((tails >= floor) & (tails > 0.0)))
    truncation = float(dropped * reach) + (float(tails[n]) if n < tails.size else 0.0)
    gammas = np.arange(1, n + 1) * cfg.gamma0  # bit for bit Python's k * gamma0
    return CatalogueMatrix._from_widths(gammas, amps[0], amps[1 : n + 1], cfg.hbar, truncation)
