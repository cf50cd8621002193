"""Dense complex linear algebra and quadrature kernels.

Three self-contained tools used throughout the package:

* ``eigh`` -- LAPACK eigensolver for one Hermitian complex matrix or a
  (T, d, d) stack of them, with a deterministic eigenvector phase
  convention so bases computed at nearby times can be compared directly.
* ``principal_value_integral`` -- Cauchy principal value of
  f(w)/(w0 - w) by symmetric-pair quadrature around the singularity.
* ``matrix_pencil_fit`` -- complex-exponential spectral estimation, in two
  steps: ``PencilFactorisation`` (Hankel shift pair + rank-revealing thin
  SVD, independent of the order) and its ``fit(order)`` (pencil roots +
  least-squares amplitudes), so a refit at a lower order reuses the SVD.

All operations are pure functions of immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, RankDeficiencyError, ValidationError

HERMITICITY_TOL = 1e-12
_RANK_RTOL = 1e-10  # the pencil counts singular values above this share of the largest


def _matrix_reduce(reduce, x: np.ndarray) -> np.ndarray:
    """Exact ``reduce(x, axis=(-2, -1))`` (max, any); T > d^2 matrices reduce one (d^2, T) copy along T."""
    if x.ndim == 3 and x.shape[0] > x.shape[1] * x.shape[2]:
        return reduce(np.ascontiguousarray(x.reshape(x.shape[0], -1).T), axis=0)
    return reduce(x, axis=(-2, -1))


def _halved(h: np.ndarray) -> np.ndarray:
    """h / 2 on its float view: each part halved alone, so a zero keeps its sign (complex / 2.0 may not)."""
    h = np.ascontiguousarray(h)
    parts = h.view(float)
    np.multiply(parts, 0.5, out=parts)
    return h


def hermitian_average(a: np.ndarray) -> np.ndarray:
    """(A + A^H) / 2 of each matrix over the last two axes, so downstream math sees A == A^H.

    Every entry must be finite, and each matrix Hermitian relative to its
    own scale: max |A - A^H| <= HERMITICITY_TOL * max(max|A|, 1); one
    matrix is checked as a stack of one.  Input with an entry past 2^1021
    is halved first, exactly for normal floats, so no finite input
    overflows.  Every halving multiplies each real and
    imaginary part by 0.5 alone, so a zero part keeps its sign.

    Precision: each part of each entry takes one rounded addition, and its
    halving is exact but for subnormals, so it lies within
    u |exact| + 2^-1074 of the exact (a_ij + conj(a_ji)) / 2, u = 2^-53.
    A matrix Hermitian to the bit (diagonals with imaginary part +0.0)
    comes back with its own bits, the signs of its zero parts included.
    """
    scale = _matrix_reduce(np.ndarray.max, abs(a))
    unit = 1.0  # what one unit of ``a`` stands for
    if not (scale <= 2.0**1021).all():  # NaN, Inf, or entries whose sum could overflow
        if not np.isfinite(a).all():
            raise ValidationError("matrix contains NaN or Inf entries")
        a, unit = _halved(a.copy()), 2.0
        scale = _matrix_reduce(np.ndarray.max, abs(a))
    ah = a.swapaxes(-1, -2).conj()
    dev = _matrix_reduce(np.ndarray.max, abs(a - ah))
    bad = dev > HERMITICITY_TOL * np.maximum(scale, 1.0 / unit)
    if bad.any():
        k = bad.argmax()  # the first failing matrix
        dev, scale = unit * float(dev.flat[k]), unit * float(scale.flat[k])  # Python floats reach inf silently
        raise ValidationError(f"matrix is not Hermitian: max deviation {dev:.3e} at scale {scale:.3e}")
    return a + ah if unit == 2.0 else _halved(a + ah)


def _complex_array(x) -> np.ndarray:
    """``np.asarray(x, dtype=complex)``; ragged or non-numeric input raises ``ValidationError``."""
    try:
        return np.asarray(x, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"matrices must share one shape: {exc}") from exc


def _checked_entries(entries, ndim: int = 2, unit_trace: bool = False) -> np.ndarray:
    """Read-only Hermitian average of a square matrix (ndim 2) or a nonempty (T, d, d) stack.

    Finiteness, Hermiticity, then (``unit_trace``) traces within 1e-12, each once per stack.
    """
    a = _complex_array(entries)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or (ndim == 3 and a.size == 0):
        what = "a square matrix" if ndim == 2 else "a stack of square matrices"
        raise ValidationError(f"expected {what}, got shape {a.shape}")
    if a.size == 0:
        raise ValidationError("empty matrix")
    h = hermitian_average(a)
    if unit_trace:
        with np.errstate(over="ignore"):  # a trace past the float range reads inf
            tr = h.trace(axis1=-2, axis2=-1).real
        bad = abs(tr - 1.0) > 1e-12
        if bad.any():
            tr = float(tr.flat[bad.argmax()])  # a numpy scalar's repr varies across numpy
            raise ValidationError(f"trace is {tr!r}, expected 1 within 1e-12")
    h.setflags(write=False)
    return h


@dataclass(frozen=True)
class HermitianMatrix:
    """A dim x dim complex matrix with A = A^H enforced at construction.

    The check is relative: max |A - A^H| must not exceed 1e-12 * max|A|.
    """

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked_entries(self.entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DensityMatrix(HermitianMatrix):
    """Hermitian, trace-one complex matrix (positivity is the caller's task).

    Construction enforces Hermiticity and unit trace to 1e-12, as ``_formed_density``
    does for the pure states ``omnes`` forms from their vectors; positive semidefiniteness
    is a property of how the matrix was built (u u^H / tr is by construction) and can be audited
    with ``min_eigenvalue``, one values-only LAPACK call (no eigenvectors, phases or residual).
    """

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked_entries(self.entries, unit_trace=True))

    def min_eigenvalue(self) -> float:
        try:
            return float(np.linalg.eigvalsh(self.entries)[0])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"LAPACK eigvalsh did not converge: {exc}") from exc


def _as_density(h: np.ndarray) -> DensityMatrix:
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "entries", h)
    return rho


@dataclass(frozen=True, eq=False)  # an ndarray field makes the generated == raise, as on HermitianMatrix
class DensityFamily:
    """One density matrix per grid point: a read-only (T, d, d) stack, checked once as ``DensityMatrix``
    checks each.  ``len``, an integer index and iteration give ``DensityMatrix`` views of ``entries``."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked_entries(self.entries, 3, unit_trace=True))

    __len__ = lambda self: len(self.entries)
    __getitem__ = lambda self, k: _as_density(self.entries[operator.index(k)])


def _formed_density(u: np.ndarray, empty: str) -> DensityMatrix:
    """u u^H / tr, tr the correctly rounded sum of its diagonal, as a ``DensityMatrix``; a zero u raises
    ``ValidationError(empty)``, a u with a NaN or Inf part "matrix contains NaN or Inf entries".
    Finiteness is read off tr: each part of u_i conj(u_j) is at most |u_i| |u_j| <= tr, so a tr in
    [2^-960, 2^1022) leaves every entry finite.  Outside it a finite u is first scaled by a power of two
    (exact, rho unchanged) to a largest part in [1/2, 1): below, products of u's parts may be subnormal,
    keeping too few bits; above, 1 / tr is subnormal or the products overflow (tr infinite, NaN, or an
    fsum that overflows).  Then the ``_halved`` average in the product's own buffer and the check that
    the fsum of its real diagonal is 1 within 1e-12.  Each part of rho_ij lies within
    gamma_8 |u_i| |u_j| / |u|^2 + (d + 2) 2^-113 of exact, gamma_k = k 2^-53 / (1 - k 2^-53): gamma_2
    per product, gamma_3 on tr, two roundings in the division (a multiply by the rounded 1 / tr) and one
    in the average; the last term is the products' subnormal roundings, as |u|^2 >= 2^-961.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a u past 2^511 is rescued below
        mat = u[:, None] * u.conj()  # u_i conj(u_j), one complex multiply each: np.outer's bits for d >= 2 only
    try:
        tr = math.fsum(mat.real.diagonal().tolist())
    except OverflowError:
        tr = math.inf
    if not 2.0**-960 <= tr < 2.0**1022:
        parts = u.view(float)
        if not np.isfinite(parts).all():
            raise ValidationError("matrix contains NaN or Inf entries")
        u = np.ldexp(parts, -math.frexp(float(np.max(abs(parts))))[1]).view(complex)
        mat = u[:, None] * u.conj()
        tr = math.fsum(mat.real.diagonal().tolist())
        if tr == 0.0:
            raise ValidationError(empty)
    mat /= tr
    mat += mat.T.conj()
    h = _halved(mat)
    tr = math.fsum(h.real.diagonal().tolist())
    if abs(tr - 1.0) > 1e-12:
        raise ValidationError(f"trace is {tr!r}, expected 1 within 1e-12")
    h.setflags(write=False)
    return _as_density(h)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending plus orthonormal, phase-fixed vectors.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``; for a (T, d, d)
    stack both carry a leading time axis, as does ``entries``, the matrix
    diagonalized.  Phase fix: the largest-magnitude component of each
    vector is real and nonnegative.  Within a degenerate cluster (eigenvalue
    spacing < 1e-9 * ||A||) the vectors are an arbitrary orthonormal basis
    of the cluster subspace, so comparisons across decompositions must use
    subspace metrics there.  ``off_diagonal_residual``, computed on first
    read, is ||offdiag(V^H A V)||_F / ||A||_F (0 for the zero matrix), the
    largest one over a stack.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    entries: np.ndarray = field(repr=False)

    @functools.cached_property
    def off_diagonal_residual(self) -> float:
        vecs, entries = self.eigenvectors, self.entries
        rotated = np.swapaxes(vecs.conj(), -1, -2) @ entries @ vecs
        diag = np.arange(rotated.shape[-1])
        rotated[..., diag, diag] = 0.0
        norm_a = np.linalg.norm(entries, axis=(-2, -1))
        norm_off = np.linalg.norm(rotated, axis=(-2, -1))
        ratio = np.divide(norm_off, norm_a, out=np.zeros_like(norm_a), where=norm_a > 0.0)
        return float(np.max(ratio))


def _phase_fix(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real and >= 0.

    Works on the last two axes, so one call fixes a whole stack; a zero
    column is left alone.
    """
    out = np.array(vectors, dtype=complex)
    row = np.argmax(np.abs(out), axis=-2)[..., None, :]
    piv = np.take_along_axis(out, row, axis=-2)
    size = np.hypot(piv.real, piv.imag)  # the rounding of abs() on one complex
    nonzero = size > 0.0
    out *= np.where(nonzero, np.conj(piv) / np.where(nonzero, size, 1.0), 1.0)
    # kill the residual imaginary dust
    np.put_along_axis(out, row, np.where(nonzero, size, piv), axis=-2)
    return out


def eigh(a) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix, or a (T, d, d) stack, with LAPACK.

    Accepts a ``HermitianMatrix`` or ``DensityFamily`` (its ``entries`` taken as they
    are), an array-like matrix or stack, or a list or tuple of members: all
    ``HermitianMatrix`` are stacked unchecked, any other stack is checked once; ragged
    input raises ``ValidationError``.  A stack goes to LAPACK in one ``np.linalg.eigh``
    call, with the same values as one call per matrix.  LAPACK's ascending eigenvalues
    are reversed to descending order and the vectors get the ``_phase_fix`` convention.
    A LAPACK failure to converge raises ``ConvergenceError``.
    """
    if isinstance(a, (HermitianMatrix, DensityFamily)):
        entries = a.entries
    elif isinstance(a, (list, tuple)) and a and all(isinstance(m, HermitianMatrix) for m in a):
        entries = _complex_array([m.entries for m in a])
    else:
        if isinstance(a, (list, tuple)):
            a = [m.entries if isinstance(m, HermitianMatrix) else m for m in a]
        a = _complex_array(a)
        entries = _checked_entries(a, 3 if a.ndim == 3 else 2)
    try:
        values, vecs = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigh did not converge: {exc}") from exc
    return EigenDecomposition(values[..., ::-1].copy(), _phase_fix(vecs[..., ::-1]), entries)


def _adaptive_simpson(f, a: float, b: float, tol: float, fa, fm, fb, depth: int):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    err = (left + right - whole) / 15.0
    if abs(err) <= tol:
        return left + right + err
    if depth <= 0:
        raise ConvergenceError(
            f"adaptive Simpson failed to converge, local error estimate {abs(err):.3e}",
            residual=abs(err),
        )
    return _adaptive_simpson(f, a, m, tol / 2.0, fa, flm, fm, depth - 1) + _adaptive_simpson(
        f, m, b, tol / 2.0, fm, frm, fb, depth - 1
    )


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-9, max_depth: int = 48) -> float:
    """Adaptive Simpson quadrature of a scalar callable on [a, b]."""
    if not (b > a):
        raise ValidationError(f"bad interval [{a}, {b}]")
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return _adaptive_simpson(f, a, b, tol, fa, fm, fb, max_depth)


def principal_value_integral(f, omega0: float, lo: float, hi: float) -> float:
    """Cauchy principal value of integral f(w) / (omega0 - w) dw over [lo, hi].

    The singularity must lie strictly inside the domain and f must be
    continuous there.  Substituting u = w - omega0 pairs the points at
    omega0 +/- u, so the 1/u divergence cancels analytically:

        P.V. = integral_0^r [f(omega0 - u) - f(omega0 + u)] / u du  +  remainder

    with r = min(omega0 - lo, hi - omega0).  The symmetric part is done by
    adaptive Simpson at its default tolerance (1e-9 absolute); the value
    at u = 0 is the limit -2 f'(omega0), estimated by a central difference
    with step r * 1e-7.  The leftover one-sided strip is regular and is
    integrated by plain adaptive Simpson.
    """
    if not (lo < omega0 < hi):
        raise ValidationError(f"singularity {omega0} not strictly inside [{lo}, {hi}]")
    r = min(omega0 - lo, hi - omega0)
    h = r * 1e-7

    def paired(u):
        if u < h:
            u = h
        return (f(omega0 - u) - f(omega0 + u)) / u

    value = adaptive_simpson(paired, 0.0, r)
    if omega0 - lo > r:
        value += adaptive_simpson(lambda w: f(w) / (omega0 - w), lo, omega0 - r)
    elif hi - omega0 > r:
        value += adaptive_simpson(lambda w: f(w) / (omega0 - w), omega0 + r, hi)
    return value


def _time_grid(grid) -> np.ndarray:
    """``grid`` as a float array; anything but a nonempty 1-D array (a number, a 2-D grid) or a NaN raises."""
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValidationError("grid must be a nonempty 1-D array")
    if np.isnan(t).any():
        raise ValidationError(f"grid holds NaN at index {int(np.isnan(t).argmax())}")
    return t


def check_uniform_grid(times: np.ndarray) -> float:
    """Return the step of a strictly increasing, uniform grid of >= 2 points.

    Steps may deviate from the first by 1e-12 * max(dt, 1) plus 16 * eps
    times the largest endpoint magnitude, which covers the roundoff that
    ``np.linspace`` leaves on long grids far from zero.
    """
    if times.size < 2:
        raise ValidationError("need at least two samples")
    steps = np.diff(times)
    if np.any(steps <= 0.0):
        raise ValidationError("times must be strictly increasing")
    dt = float(steps[0])
    reach = max(abs(times[0]), abs(times[-1]))
    tol = 1e-12 * max(dt, 1.0) + 16.0 * np.finfo(float).eps * reach
    dev = float(np.max(np.abs(steps - dt)))
    if dev > tol:
        raise ValidationError(
            f"time grid is not uniform: step deviation {dev:.3e} exceeds {tol:.3e}"
        )
    return dt


def pencil_min_samples(order: int) -> int:
    """Fewest samples ``matrix_pencil_fit`` accepts for ``order`` modes."""
    return 2 * order + 2


class PencilFactorisation:
    """The order-free half of the matrix pencil: sample checks, Hankel view and thin SVD.

    ``PencilFactorisation(times, values, order)`` checks the samples as
    ``matrix_pencil_fit(times, values, order)`` does (``order`` is only
    checked here), splits the Hankel matrix of the samples into the shifted
    pair (Y0, Y1) and takes the thin SVD of Y0 once.  ``fit(k)`` then gives
    the modes at any order k up to ``effective_rank`` from that one SVD.

    The window, n // 2 for n samples, does not depend on the order.  The
    pencil uses min(max(n // 2, k), n - k) at order k, and every order
    the sample minimum allows has n >= 2k + 2.  Then n // 2 >= k + 1 > k,
    so the max is n // 2; and n - k >= n - (n - 2) / 2 = n / 2 + 1 > n // 2,
    so the min is n // 2 as well.

    Attributes: ``t``, ``y`` (the samples as float and complex arrays),
    ``dt`` (the grid step), ``window``, ``y1`` (the shifted Hankel view of
    ``y``), ``u``, ``singular_values``, ``vh`` (the thin SVD of Y0) and
    ``effective_rank`` (singular values above 1e-10 times the largest).
    An identically zero signal raises ``RankDeficiencyError`` with rank 0.
    """

    def __init__(self, times, values, order: int = 1):
        t = np.asarray(times, dtype=float)
        y = np.asarray(values, dtype=complex)
        if t.shape != y.shape or t.ndim != 1:
            raise ValidationError("times and values must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ValidationError("times and values must be finite")
        _check_order(order, t.size)
        self.t, self.y, self.dt = t, y, check_uniform_grid(t)
        self.window = y.size // 2
        hankel = np.lib.stride_tricks.sliding_window_view(y, self.window + 1)  # (n - window, window + 1)
        self.y1 = hankel[:, 1:]
        self.u, self.singular_values, self.vh = np.linalg.svd(hankel[:, :-1], full_matrices=False)
        sig = self.singular_values
        if sig[0] == 0.0:
            raise RankDeficiencyError("signal is identically zero", effective_rank=0)
        self.effective_rank = int(np.sum(sig > _RANK_RTOL * sig[0]))

    def fit(self, order: int):
        """The modes at ``order``, as ``matrix_pencil_fit`` returns them.

        The pencil eigenvalues of (Y1, Y0), through the rank-``order``
        truncated SVD, give the per-step ratios exp(z_k dt); amplitudes come
        from one dense least-squares solve on the full series.  An order
        above ``effective_rank`` raises ``RankDeficiencyError`` carrying
        this factorisation in ``pencil``, so a retry needs no second SVD.
        """
        _check_order(order, self.t.size)
        if self.effective_rank < order:
            raise RankDeficiencyError(
                f"numerical rank {self.effective_rank} is below the requested order {order}; "
                f"retry with order <= {self.effective_rank}",
                effective_rank=self.effective_rank,
                pencil=self,
            )
        u, sig, vh = self.u, self.singular_values, self.vh
        pencil = np.diag(1.0 / sig[:order]) @ (u[:, :order].conj().T @ self.y1 @ vh[:order, :].conj().T)
        ratios = np.linalg.eigvals(pencil)
        if np.any(np.abs(ratios) == 0.0):
            raise ConvergenceError("pencil produced a zero ratio; data is not exponential")
        z = np.log(ratios) / self.dt

        basis = np.exp(np.outer(self.t, z))
        amps, *_ = np.linalg.lstsq(basis, self.y, rcond=None)
        idx = sorted(range(order), key=lambda k: (abs(z[k].imag), -z[k].real))
        return [(complex(z[k]), complex(amps[k])) for k in idx]


def _check_order(order: int, samples: int):
    if order < 1:
        raise ValidationError("order must be >= 1")
    if samples < pencil_min_samples(order):
        raise ValidationError(f"need at least {pencil_min_samples(order)} samples for order {order}")


def matrix_pencil_fit(times, values, order: int):
    """Fit s(t) ~ sum_k a_k exp(z_k t) by the matrix-pencil method.

    Needs a uniform time grid with at least 2 * order + 2 samples.  This is
    ``PencilFactorisation(times, values, order).fit(order)``: the Hankel
    shift pair and its thin SVD, then the roots and amplitudes at ``order``.

    Imaginary parts of the recovered exponents are only defined modulo the
    sampling Nyquist band (-pi/dt, pi/dt].

    Returns a list of (z_k, a_k) pairs sorted by |Im z_k| ascending, ties
    broken toward slower decay.  Raises ``RankDeficiencyError`` when the
    data's numerical rank (singular values above 1e-10 times the largest)
    is below ``order``; its ``pencil`` is the factorisation, whose
    ``fit(effective_rank)`` refits without a second SVD.
    """
    return PencilFactorisation(times, values, order).fit(order)


def fit_residual(times, values, modes) -> float:
    """RMS misfit of a recovered mode set against the samples."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=complex)
    model = np.zeros_like(y)
    for z, a in modes:
        model += a * np.exp(z * t)
    return float(np.sqrt(np.mean(np.abs(model - y) ** 2)))
