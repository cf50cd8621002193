"""Dense complex linear algebra and quadrature kernels.

Three self-contained tools used throughout the package:

* ``eigh`` -- LAPACK eigensolver for one Hermitian complex matrix or a
  (T, d, d) stack of them, with a deterministic eigenvector phase
  convention so bases computed at nearby times can be compared directly.
* ``principal_value_integral`` -- Cauchy principal value of
  f(w)/(w0 - w) by symmetric-pair quadrature around the singularity.
* ``matrix_pencil_fit`` -- complex-exponential spectral estimation
  (Hankel shift pair + rank-revealing SVD + least-squares amplitudes).

All operations are pure functions of immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, RankDeficiencyError, ValidationError

HERMITICITY_TOL = 1e-12


def hermitian_average(a: np.ndarray) -> np.ndarray:
    """(A + A^H) / 2 of each matrix over the last two axes, so downstream math sees A == A^H.

    Every entry must be finite, and each matrix Hermitian relative to its
    own scale: max |A - A^H| <= HERMITICITY_TOL * max(max|A|, 1).
    """
    if not np.isfinite(a).all():
        raise ValidationError("matrix contains NaN or Inf entries")
    ah = a.swapaxes(-1, -2).conj()
    scale = abs(a).max(axis=(-2, -1))
    dev = abs(a - ah).max(axis=(-2, -1))
    bad = dev > HERMITICITY_TOL * np.maximum(scale, 1.0)
    if bad.any():
        k = bad.argmax()  # the first failing matrix
        raise ValidationError(
            f"matrix is not Hermitian: max deviation {dev.flat[k]:.3e} at scale {scale.flat[k]:.3e}"
        )
    return (a + ah) / 2.0


def _checked_entries(entries, ndim: int = 2, unit_trace: bool = False) -> np.ndarray:
    """Read-only Hermitian average of a square matrix (ndim 2) or a nonempty (T, d, d) stack.

    Finiteness, Hermiticity, then (``unit_trace``) traces within 1e-12, each once per stack.
    """
    a = np.asarray(entries, dtype=complex)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or (ndim == 3 and a.size == 0):
        what = "a square matrix" if ndim == 2 else "a stack of square matrices"
        raise ValidationError(f"expected {what}, got shape {a.shape}")
    if a.size == 0:
        raise ValidationError("empty matrix")
    h = hermitian_average(a)
    if unit_trace:
        tr = np.trace(h, axis1=-2, axis2=-1).real
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

    Construction enforces Hermiticity and unit trace to 1e-12; positive
    semidefiniteness is a property of how the matrix was built (e.g. as a
    normalized outer product) and can be audited with ``min_eigenvalue``.
    """

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked_entries(self.entries, unit_trace=True))

    def min_eigenvalue(self) -> float:
        return float(eigh(self).eigenvalues[-1])


def _density_stack(mats) -> list:
    """``[DensityMatrix(m) for m in mats]``, checked once as one stack; entries are its views."""
    out = []
    for m in _checked_entries(mats, 3, unit_trace=True):
        rho = object.__new__(DensityMatrix)
        object.__setattr__(rho, "entries", m)
        out.append(rho)
    return out


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending plus orthonormal, phase-fixed vectors.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``; for a (T, d, d)
    stack both carry a leading time axis.  Phase fix: the largest-magnitude
    component of each vector is real and nonnegative.  Within a degenerate
    cluster (eigenvalue spacing < 1e-9 * ||A||) the vectors are an
    arbitrary orthonormal basis of the cluster subspace, so comparisons
    across decompositions must use subspace metrics there.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    off_diagonal_residual: float = field(default=0.0)

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


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

    Accepts a ``HermitianMatrix``, anything convertible to one, or a stack
    that passes the same check matrix by matrix; a stack goes to LAPACK in
    one ``np.linalg.eigh`` call, with the same values as one call per
    matrix.  LAPACK's ascending eigenvalues are reversed to descending
    order and the vectors get the ``_phase_fix`` convention.
    ``off_diagonal_residual`` is ||offdiag(V^H A V)||_F / ||A||_F (0 for
    the zero matrix), and the largest one over a stack.  A LAPACK failure
    to converge raises ``ConvergenceError``.
    """
    if isinstance(a, HermitianMatrix):
        entries = a.entries
    else:
        a = np.asarray(a, dtype=complex)
        entries = _checked_entries(a, 3 if a.ndim == 3 else 2)
    try:
        values, vecs = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigh did not converge: {exc}") from exc
    vecs = _phase_fix(vecs[..., ::-1])
    rotated = np.swapaxes(vecs.conj(), -1, -2) @ entries @ vecs
    diag = np.arange(rotated.shape[-1])
    rotated[..., diag, diag] = 0.0
    norm_a = np.linalg.norm(entries, axis=(-2, -1))
    norm_off = np.linalg.norm(rotated, axis=(-2, -1))
    ratio = np.divide(norm_off, norm_a, out=np.zeros_like(norm_a), where=norm_a > 0.0)
    return EigenDecomposition(values[..., ::-1].copy(), vecs, float(np.max(ratio)))


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


def principal_value_integral(f, omega0: float, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Cauchy principal value of integral f(w) / (omega0 - w) dw over [lo, hi].

    The singularity must lie strictly inside the domain and f must be
    continuous there.  Substituting u = w - omega0 pairs the points at
    omega0 +/- u, so the 1/u divergence cancels analytically:

        P.V. = integral_0^r [f(omega0 - u) - f(omega0 + u)] / u du  +  remainder

    with r = min(omega0 - lo, hi - omega0).  The symmetric part is done by
    adaptive Simpson (tolerance ``tol``, default 1e-9 absolute); the value
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

    value = adaptive_simpson(paired, 0.0, r, tol)
    if omega0 - lo > r:
        value += adaptive_simpson(lambda w: f(w) / (omega0 - w), lo, omega0 - r, tol)
    elif hi - omega0 > r:
        value += adaptive_simpson(lambda w: f(w) / (omega0 - w), omega0 + r, hi, tol)
    return value


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


def matrix_pencil_fit(times, values, order: int, rank_rtol: float = 1e-10):
    """Fit s(t) ~ sum_k a_k exp(z_k t) by the matrix-pencil method.

    Needs a uniform time grid with at least 2 * order + 2 samples.  A
    Hankel matrix of the samples is split into a shifted pair (Y0, Y1);
    the pencil eigenvalues of (Y1, Y0), computed through a rank-``order``
    truncated SVD of Y0, give the per-step ratios exp(z_k dt).  Amplitudes
    come from one dense least-squares solve on the full series.

    Imaginary parts of the recovered exponents are only defined modulo the
    sampling Nyquist band (-pi/dt, pi/dt].

    Returns a list of (z_k, a_k) pairs sorted by |Im z_k| ascending, ties
    broken toward slower decay.  Raises ``RankDeficiencyError`` when the
    data's numerical rank (singular values above ``rank_rtol`` times the
    largest) is below ``order``.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=complex)
    if t.shape != y.shape or t.ndim != 1:
        raise ValidationError("times and values must be 1-D arrays of equal length")
    if order < 1:
        raise ValidationError("order must be >= 1")
    if t.size < 2 * order + 2:
        raise ValidationError(f"need at least {2 * order + 2} samples for order {order}")
    dt = check_uniform_grid(t)

    n = y.size
    window = min(max(n // 2, order), n - order)
    hankel = np.lib.stride_tricks.sliding_window_view(y, window + 1)  # (n - window, window + 1)
    y0 = hankel[:, :-1]
    y1 = hankel[:, 1:]

    u, sig, vh = np.linalg.svd(y0, full_matrices=False)
    if sig[0] == 0.0:
        raise RankDeficiencyError("signal is identically zero", effective_rank=0)
    effective = int(np.sum(sig > rank_rtol * sig[0]))
    if effective < order:
        raise RankDeficiencyError(
            f"numerical rank {effective} is below the requested order {order}; "
            f"retry with order <= {effective}",
            effective_rank=effective,
        )

    pencil = np.diag(1.0 / sig[:order]) @ (u[:, :order].conj().T @ y1 @ vh[:order, :].conj().T)
    ratios = np.linalg.eigvals(pencil)
    if np.any(np.abs(ratios) == 0.0):
        raise ConvergenceError("pencil produced a zero ratio; data is not exponential")
    z = np.log(ratios) / dt

    basis = np.exp(np.outer(t, z))
    amps, *_ = np.linalg.lstsq(basis, y, rcond=None)
    idx = sorted(range(order), key=lambda k: (abs(z[k].imag), -z[k].real))
    return [(complex(z[k]), complex(amps[k])) for k in idx]


def fit_residual(times, values, modes) -> float:
    """RMS misfit of a recovered mode set against the samples."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=complex)
    model = np.zeros_like(y)
    for z, a in modes:
        model += a * np.exp(z * t)
    return float(np.sqrt(np.mean(np.abs(model - y) ** 2)))
