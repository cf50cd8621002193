"""Truncated coherent-state superpositions and their collective decay.

A particle in a harmonic well, displaced by L0 and prepared in the
superposition a|alpha1> + b|alpha2| with alpha1 = 0 (gauge), decoheres
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
N ~ 1e4 stay representable; sums over them run on friedrich's ladder phases.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .friedrich import _ladder_phases, _pole_width
from .numerics import DensityMatrix
from .pole_models import CatalogueMatrix, _collective_scale

_NORM_TOL = 1e-12
_MIN_DELTA = 10.0
_TRUNCATION_FACTOR = 0.1


def _logsumexp(exponents: np.ndarray) -> float:
    m = float(np.max(exponents))
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.sum(np.exp(exponents - m))))


@functools.lru_cache(maxsize=32)
def _log_factorials(N: int) -> np.ndarray:
    """log(n!) for n = 0..N, cached per N and shared read-only."""
    out = np.array([math.lgamma(k + 1.0) for k in range(N + 1)])
    out.setflags(write=False)
    return out


def _log_fock_weights(alpha: float, N: int) -> np.ndarray:
    """log(alpha^n / sqrt(n!)) for n = 0..N; alpha = 0 gives only n = 0."""
    if alpha == 0.0:
        out = np.full(N + 1, -math.inf)
        out[0] = 0.0
        return out
    return np.arange(N + 1) * math.log(alpha) - 0.5 * _log_factorials(N)


@functools.lru_cache(maxsize=32)
def _log_norm(alpha: float, N: int) -> float:
    """-1/2 log(sum_n alpha^2n / n!) for n = 0..N, cached per (alpha, N)."""
    return -0.5 * _logsumexp(2.0 * _log_fock_weights(alpha, N))


@functools.lru_cache(maxsize=32)
def _fock_probabilities(alpha: float, N: int) -> np.ndarray:
    """q_n = |<n|alpha>|^2 for n = 0..N, cached per (alpha, N) and shared read-only."""
    out = np.exp(2.0 * (_log_fock_weights(alpha, N) + _log_norm(alpha, N)))
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def _live_fock_probabilities(alpha: float, N: int) -> np.ndarray:
    """q_0..q_hi as complex, q_hi the last nonzero q_n (leading zeros keep their places); cached read-only."""
    q = _fock_probabilities(alpha, N)
    out = q[: np.flatnonzero(q)[-1] + 1].astype(complex)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=32)
def _fock_vector(alpha: float, N: int) -> np.ndarray:
    """<n|alpha> for n = 0..N, unit norm within 1e-12, cached per (alpha, N) and shared read-only."""
    v = np.exp(_log_fock_weights(alpha, N) + _log_norm(alpha, N))
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > _NORM_TOL:
        raise ValidationError(f"truncated state norm {nrm} deviates from 1")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class QuasiCoherentState:
    """Coherent state truncated at Fock level N, renormalized to unit norm.

    alpha is real and nonnegative: zero momentum displacement makes the
    amplitude real, and the sign can always be absorbed by a coordinate
    flip.
    """

    alpha: float
    N: int

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a) or a < 0.0:
            raise ValidationError(f"alpha must be finite and >= 0, got {a!r}")
        n = int(self.N)
        if n < 1:
            raise ValidationError("truncation N must be at least 1")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "N", n)

    @property
    def log_norm(self) -> float:
        """log of the normalization constant (sum alpha^2k / k!)^(-1/2)."""
        return _log_norm(self.alpha, self.N)

    def fock_vector(self) -> np.ndarray:
        """Unit-norm component vector in the Fock basis, length N+1."""
        return _fock_vector(self.alpha, self.N).copy()


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
    be finite.
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
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValidationError(f"{name} must be a positive finite scale, got {v!r}")
            object.__setattr__(self, name, v)
        a = complex(self.a)
        b = complex(self.b)
        ssq = _weight_sum(a, b)
        if not abs(ssq - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValidationError(f"|a|^2 + |b|^2 = {ssq} must be 1 within {_NORM_TOL}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        n = int(self.N)
        if n < 1:
            raise ValidationError("truncation N must be at least 1")
        object.__setattr__(self, "N", n)
        if not math.isfinite(self.delta * self.delta):  # the frame overlaps need Delta^2
            raise ValidationError(
                f"Delta = L0 sqrt(m omega / 2) / hbar = {self.delta!r} is too large: Delta^2 overflows"
            )

    @property
    def alpha2(self) -> float:
        return self.L0 * math.sqrt(self.m * self.omega / 2.0) / self.hbar

    @property
    def delta(self) -> float:
        return self.alpha2

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
    log_sum = _logsumexp(_log_fock_weights(s1.alpha, s1.N) + _log_fock_weights(s2.alpha, s2.N))
    return math.exp(s1.log_norm + s2.log_norm + log_sum)


def overlap_error_bound(delta: float, N: int) -> float:
    """Remainder ceiling (Delta^2/2)^(N+1) / (N+1)! for the truncated overlap; inf past the float range."""
    delta = float(delta)
    if not math.isfinite(delta) or delta < 0.0:
        raise ValidationError("delta must be finite and >= 0")
    N = int(N)
    if N < 0:
        raise ValidationError("N must be >= 0")
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


def _warn_if_not_macroscopic(cfg: OmnesConfig):
    report = macroscopicity_check(cfg)
    if not report.passed:
        warnings.warn(
            f"configuration is not macroscopic: Delta = {report.delta:.3g}, "
            f"margins ({report.lower_margin:.3g}, {report.upper_margin:.3g}); "
            "closed-form overlaps may be inaccurate",
            stacklevel=3,
        )


def _frame_overlaps(cfg: OmnesConfig, z0: complex, t, closed_form: bool):
    """(s, w): static branch overlap and <alpha2(0)|alpha2(t)>; rejects a growing pole.

    ``closed_form``: s = exp(-Delta^2/2), w = exp(-Delta^2 (1 - exp(-i z0 t / hbar)))
    at a time or an array of times, each entry with the bits of its time
    alone.  The arithmetic runs on real and imaginary parts in the order
    the scalar complex operators use, since numpy's complex multiply and
    divide round differently.  Otherwise the exact truncated sums at one time,
    over the Fock weights up to the last nonzero one (t < 0 overflows no phase).
    """
    _pole_width(z0)
    if not closed_form:
        q = _live_fock_probabilities(cfg.alpha2, cfg.N)
        return math.exp(_log_norm(cfg.alpha2, cfg.N)), complex(q @ _ladder_phases(q.size, z0, t, cfg.hbar))
    d2 = cfg.delta**2
    arg = -1j * complex(z0)
    inner = np.exp(arg.real * t / cfg.hbar + 1j * (arg.imag * t / cfg.hbar))
    w = np.exp(-d2 * (1.0 - inner.real) + 1j * (-d2 * (0.0 - inner.imag)))
    return math.exp(-0.5 * d2), (w if isinstance(w, np.ndarray) else complex(w))


def evolved_overlaps(cfg: OmnesConfig, z0: complex, t: float):
    """The four frame inner products at time t, closed form.

    Returns (<1(0)|1(t)>, <1(0)|2(t)>, <2(0)|1(t)>, <2(0)|2(t)>) in the
    vacuum gauge alpha1 = 0: the first is exactly 1, the cross terms carry
    the static residual exp(-Delta^2/2), and the last decays through
    exp(-Delta^2 (1 - exp(-i z0 t / hbar))).
    """
    s, w = _frame_overlaps(cfg, z0, t, closed_form=True)
    _warn_if_not_macroscopic(cfg)
    return (complex(1.0), complex(s), complex(s), w)


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
    """Evaluate the four frame components of the coherence block at time t."""
    s, w = _frame_overlaps(cfg, z0, t, closed_form=True)
    _warn_if_not_macroscopic(cfg)
    cross = cfg.a.conjugate() * cfg.b
    rho21 = cross * w
    return NDComponents(
        t=float(t),
        rho11=complex(2.0 * cross.real * s),
        rho12=rho21.conjugate(),
        rho21=rho21,
        rho22=complex(2.0 * s * (cross * w).real),
        envelope=math.exp(-cfg.delta**2 * (1.0 - math.exp(-_pole_width(z0) * t / cfg.hbar))),
    )


def nd_decay(cfg: OmnesConfig, z0: complex, times) -> np.ndarray:
    """|rho12| at every time of ``times``, in one numpy pass.

    Each entry equals abs(nd_block(cfg, z0, t).rho12) bit for bit: the
    product conj(a) b w(t) is formed on real and imaginary parts as CPython
    forms it, and its magnitude is np.hypot, as abs(complex) is.
    """
    _, w = _frame_overlaps(cfg, z0, np.asarray(times, dtype=float), closed_form=True)
    _warn_if_not_macroscopic(cfg)
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
    guarantees t_D << t_R.  A t_D that leaves the float range raises ValidationError.
    """
    _warn_if_not_macroscopic(cfg)
    gamma_tilde = _collective_scale(cfg.m, cfg.omega, cfg.L0, cfg.hbar) * cfg.gamma0
    t_D = cfg.hbar / gamma_tilde if gamma_tilde > 0.0 else math.inf  # gamma_tilde = inf gives 0
    if not 0.0 < t_D < math.inf:
        raise ValidationError(f"gamma_tilde = {gamma_tilde!r} gives t_D = {t_D!r}, outside the float range")
    return CollectiveRate(gamma_tilde, t_D, cfg.hbar / cfg.gamma0)


# --- full Fock-space construction -------------------------------------------


@dataclass(frozen=True)
class FockDensityParts:
    """Evolved superposition and its diagonal/off-diagonal split.

    ``state`` is the unnormalized evolved vector a|0> + b|alpha2(t)>;
    ``norm`` its length (the non-unitary evolution loses norm).  ``rho``
    is the trace-1 outer product of the normalized state; the D/ND parts
    are the raw (unnormalized) projector pieces, so
    rho_unnormalized = rho_d + rho_nd holds exactly.
    """

    state: np.ndarray
    norm: float
    rho: DensityMatrix
    rho_unnormalized: np.ndarray
    rho_d: np.ndarray
    rho_nd: np.ndarray


def _evolved_density(cfg: OmnesConfig, z0: complex, t: float):
    """(|0>, evolved branch v2(t), unnormalized state, its norm, rho) of the superposition."""
    _pole_width(z0)
    state2 = cfg.state2()
    v2t = _fock_vector(state2.alpha, state2.N) * _ladder_phases(cfg.N + 1, z0, t, cfg.hbar)
    e0 = np.zeros(cfg.N + 1, dtype=complex)
    e0[0] = 1.0

    state = cfg.a * e0 + cfg.b * v2t
    norm = float(np.linalg.norm(state))
    if norm <= 0.0:
        raise ValidationError("evolved state has zero norm")
    unit = state / norm
    return e0, v2t, state, norm, DensityMatrix(np.outer(unit, unit.conj()))


def density_components(cfg: OmnesConfig, z0: complex, t: float) -> FockDensityParts:
    e0, v2t, state, norm, rho = _evolved_density(cfg, z0, t)
    rho_d = (abs(cfg.a) ** 2) * np.outer(e0, e0.conj()) + (abs(cfg.b) ** 2) * np.outer(
        v2t, v2t.conj()
    )
    rho_nd = cfg.a * cfg.b.conjugate() * np.outer(e0, v2t.conj()) + cfg.a.conjugate() * cfg.b * np.outer(v2t, e0.conj())
    return FockDensityParts(
        state=state,
        norm=norm,
        rho=rho,
        rho_unnormalized=np.outer(state, state.conj()),
        rho_d=rho_d,
        rho_nd=rho_nd,
    )


def build_density_matrix(cfg: OmnesConfig, z0: complex, t: float) -> DensityMatrix:
    """Trace-1 density matrix of the evolved superposition in Fock space.

    Componentwise evolution by exp(-i n z0 t / hbar) followed by
    renormalization; it forms only rho, with the same operations as
    ``density_components``, whose FockDensityParts add the unnormalized
    pieces and the D/ND projections.
    """
    return _evolved_density(cfg, z0, t)[-1]


# --- two-dimensional frame picture -------------------------------------------


def frame_amplitudes(cfg: OmnesConfig, z0: complex, t: float, closed_form: bool = True):
    """Projections (f1, f2) of the evolved state on the initial branch pair.

    f1 = a + b s and f2 = a s + b w(t), with s the static branch overlap
    and w the self-overlap of the displaced branch.  ``closed_form`` picks
    the infinite-N expressions; otherwise both use the exact truncated
    sums, matching density_components to machine precision.  A growing
    pole (Im z0 > 0) raises ValidationError.
    """
    s, w = _frame_overlaps(cfg, z0, t, closed_form)
    f1 = cfg.a + cfg.b * s
    f2 = cfg.a * s + cfg.b * w
    return f1, f2


def frame_projection(
    cfg: OmnesConfig, z0: complex, t: float, closed_form: bool = True
) -> DensityMatrix:
    """2x2 density matrix of the state seen through the initial branch frame.

    Entry (i, j) is f_i conj(f_j), normalized to unit trace; the frame is
    treated as orthonormal, which the macroscopic regime justifies up to
    the exp(-Delta^2/2) cross-overlap.
    """
    f1, f2 = frame_amplitudes(cfg, z0, t, closed_form)
    f = np.array([f1, f2], dtype=complex)
    mat = f[:, None] * f.conj()  # np.outer's one multiply
    tr = mat.item(0).real + mat.item(3).real  # the bits of mat.trace().real, as Python floats
    if tr <= 0.0:
        raise ValidationError("frame projection has zero weight")
    return DensityMatrix(mat / tr)


def frame_catalogue_matrix(cfg: OmnesConfig) -> CatalogueMatrix:
    """Exact pole expansion of the (unnormalized) 2x2 frame matrix.

    Requires a real damping pole z0 = -i gamma0 (no oscillation), so every
    frame entry is a polynomial in x = exp(-gamma0 t / hbar): f2 carries
    powers 0..N from the truncated self-overlap and |f2|^2 powers 0..2N
    via the Cauchy product.  The constant (x^0) part forms the equilibrium
    matrix; powers k >= 1 become poles at k gamma0.  Feed the result to a
    partition rule to drop the fast collective cluster.
    """
    s = math.exp(cfg.state2().log_norm)
    f1 = cfg.a + cfg.b * s

    # w_N(t) = sum_k q_k x^k with q_k = N2^2 Delta^(2k) / k!
    f2 = cfg.b * _fock_probabilities(cfg.alpha2, cfg.N).astype(complex)
    f2[0] += cfg.a * s
    c = np.convolve(f2, f2.conj()).real  # imaginary parts cancel pairwise

    top = f1 * f2.conj()
    equilibrium = np.array([[abs(f1) ** 2, top[0]], [top[0].conjugate(), c[0]]])
    amps = np.zeros((2 * cfg.N, 2, 2), dtype=complex)
    amps[: cfg.N, 0, 1] = top[1:]
    amps[: cfg.N, 1, 0] = top[1:].conj()
    amps[:, 1, 1] = c[1:]
    gammas = np.arange(1, 2 * cfg.N + 1) * cfg.gamma0  # bit for bit Python's k * gamma0
    return CatalogueMatrix._from_widths(np.zeros(2 * cfg.N), gammas, equilibrium, amps, cfg.hbar)
