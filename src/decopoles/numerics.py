"""Dense complex linear algebra and quadrature kernels.

Three self-contained tools used throughout the package:

* ``eigh`` -- LAPACK eigensolver for one Hermitian complex matrix or a
  (T, d, d) stack of them, with a deterministic eigenvector phase
  convention so bases computed at nearby times can be compared directly.
* ``principal_value_integral`` -- Cauchy principal value of
  f(w)/(w0 - w) by symmetric-pair quadrature around the singularity.
* ``matrix_pencil_fit`` -- complex-exponential spectral estimation, in two
  steps: ``PencilFactorisation`` (power-of-two scaling, Hankel shift pair +
  rank-revealing thin SVD at a window independent of the order) and its
  ``fit(order)`` (pencil roots, refined by variable-projection
  Gauss-Newton, + least-squares amplitudes), so a refit at a lower order
  reuses the SVD.

Beside them live the package's input rules: ``_time``, ``_time_grid`` and
``_times`` for times, ``_number`` and ``_integer`` for scalars, and
``_refuse_bools`` for a bool where a number, or a sequence of them, is read
another way (a grid, widths, a custom rule's rate, a part selector).  Every
catalogue evaluator runs forward from t = 0, each time a finite number
>= 0: a resonance pole's Gamow vector grows without bound before t = 0,
and every precision bound of the package is stated for finite t >= 0.
Every scalar argument of a public constructor or function, and every
config number and integer, is checked by one of the two, and a refusal
names the argument or the config path in one form: ``gamma: must be > 0,
got 0.0``, ``params.N: expected an integer, got 2.5``.

All operations are pure functions of immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, RankDeficiencyError, ValidationError

HERMITICITY_TOL = 1e-12
_RANK_RTOL = 1e-10  # the pencil counts singular values above this share of the largest
_WINDOW_DIVISOR = 9  # the pencil's window is n // 9 of n samples ...
_WINDOW_FLOOR = 128  # ... but not below 128, nor n // 2 when that is smaller
_REFINE_STEPS = 16  # the most Gauss-Newton steps that refine the pencil's roots
_REFINE_HALVINGS = 4  # a step that does not lower the residual is halved at most this often


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


@dataclass(frozen=True, eq=False)  # the generated == on an ndarray field raises: identity equality and hash
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


@dataclass(frozen=True, eq=False)
class DensityMatrix(HermitianMatrix):
    """Hermitian, trace-one complex matrix (positivity is the caller's task).

    Construction enforces Hermiticity and unit trace to 1e-12 (``_formed_density``'s pure states
    meet a tighter trace bound by construction); positive semidefiniteness
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


@dataclass(frozen=True, eq=False)  # identity equality, as on HermitianMatrix
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
    Whether to scale is decided from u's largest part m, before any product: u is used as it is when
    m lies in [2^-480, 2^510 / sqrt(2d)), 2d counting the real and imaginary parts (a NaN, the argmax,
    fails, as do an Inf and a zero).  Then tr lies in [2^-960, 2^1021): it is at least m^2 and at most
    2d m^2, so every part of u_i conj(u_j), at most |u_i| |u_j| <= tr, is finite and 1 / tr is normal.
    Any other finite u is first scaled by ``_power_of_two_scaled`` (exact, rho unchanged): below,
    products of u's parts may be subnormal, keeping too few bits; above, 1 / tr may be subnormal or
    the products and their fsum may overflow.  Then the one product and its fsum trace, and the
    ``_halved`` average in the product's own buffer.  Each part of rho_ij lies within
    gamma_8 |u_i| |u_j| / |u|^2 + (d + 2) 2^-113 of exact, gamma_k = k 2^-53 / (1 - k 2^-53): gamma_2
    per product, gamma_3 on tr, two roundings in the division (a multiply by the rounded 1 / tr) and one
    in the average; the last term is the products' subnormal roundings, as |u|^2 >= 2^-960.  The unit
    trace is by construction, not a check: rho_ii is the product's rounded s_i = |u_i|^2 times the rounded
    1 / tr, tr the correctly rounded sum of the same s_i, and the average keeps it, so the fsum of rho's
    real diagonal lies within gamma_4 + d 2^-1074 of 1.
    """
    size = abs(u.view(float))
    top = size[size.argmax()]
    if not 2.0**-480 <= top < 2.0**510 / math.sqrt(size.size):
        if not math.isfinite(top):
            raise ValidationError("matrix contains NaN or Inf entries")
        if top == 0.0:
            raise ValidationError(empty)
        u = _power_of_two_scaled(u)[0]
    mat = u[:, None] * u.conj()  # u_i conj(u_j), one complex multiply each: np.outer's bits for d >= 2 only
    mat /= math.fsum(mat.real.diagonal().tolist())
    mat += mat.T.conj()
    h = _halved(mat)
    h.setflags(write=False)
    return _as_density(h)


@dataclass(frozen=True, eq=False)  # identity equality, as on HermitianMatrix
class EigenDecomposition:
    """Eigenvalues sorted descending plus orthonormal vectors, phase-fixed on first read.

    ``unphased_vectors[:, k]``, with LAPACK's phase, belongs to ``eigenvalues[k]``; for a (T, d, d)
    stack both carry a leading time axis, as does ``entries``, the matrix diagonalized.
    ``eigenvectors``, computed on first read, has each phase-fixed by ``_phase_fix``: its
    largest-magnitude component is real and nonnegative.  Within a degenerate cluster (eigenvalue
    spacing < 1e-9 * ||A||) the vectors are an arbitrary orthonormal basis of the cluster subspace,
    so comparisons across decompositions must use subspace metrics there.
    ``off_diagonal_residual``, computed on first read, is ||offdiag(V^H A V)||_F / ||A||_F (0 for
    the zero matrix), the largest one over a stack, with V unphased: no phase changes it.
    """

    eigenvalues: np.ndarray
    unphased_vectors: np.ndarray
    entries: np.ndarray = field(repr=False)

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        return _phase_fix(self.unphased_vectors)

    @functools.cached_property
    def off_diagonal_residual(self) -> float:
        vecs, entries = self.unphased_vectors, self.entries
        rotated = np.swapaxes(vecs.conj(), -1, -2) @ entries @ vecs
        diag = np.arange(rotated.shape[-1])
        rotated[..., diag, diag] = 0.0
        norm_a = np.linalg.norm(entries, axis=(-2, -1))
        norm_off = np.linalg.norm(rotated, axis=(-2, -1))
        ratio = np.divide(norm_off, norm_a, out=np.zeros_like(norm_a), where=norm_a > 0.0)
        return float(np.max(ratio))


def _phase_fix(vectors: np.ndarray) -> np.ndarray:
    """A copy with each column rotated (one complex multiply) so its largest-magnitude entry is real
    and >= 0, over the last two axes, so one call fixes a whole stack; a zero column is left alone."""
    out = np.array(vectors, dtype=complex)
    flat = out.reshape(-1, *out.shape[-2:])
    pivots = np.arange(len(flat))[:, None], np.argmax(np.abs(flat), axis=1), np.arange(flat.shape[2])
    piv = flat[pivots]
    size = np.hypot(piv.real, piv.imag)  # the rounding of abs() on one complex
    nonzero = size > 0.0
    flat *= np.where(nonzero, np.conj(piv) / np.where(nonzero, size, 1.0), 1.0)[:, None, :]
    flat[pivots] = np.where(nonzero, size, piv)  # kill the residual imaginary dust
    return out


def eigh(a) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix, or a (T, d, d) stack, with LAPACK.

    Accepts a ``HermitianMatrix`` or ``DensityFamily`` (its ``entries`` taken as they
    are), an array-like matrix or stack, or a list or tuple of members: all
    ``HermitianMatrix`` are stacked unchecked, any other stack is checked once; ragged
    input raises ``ValidationError``.  A stack goes to LAPACK in one ``np.linalg.eigh``
    call, with the same values as one call per matrix.  LAPACK's ascending eigenvalues
    are reversed to descending order, and so are its vectors, whose phase convention is
    applied on the first read of ``eigenvectors``.  A LAPACK failure raises ``ConvergenceError``.
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
    return EigenDecomposition(values[..., ::-1].copy(), vecs[..., ::-1].copy(), entries)


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
    """Adaptive Simpson quadrature of a scalar callable on [a, b], to ``tol`` >= 0 in at most ``max_depth`` halvings."""
    a, b, tol = _number(a, "a"), _number(b, "b"), _number(tol, "tol", ">= 0")
    max_depth = _integer(max_depth, "max_depth", 0)
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
    omega0, lo, hi = _number(omega0, "omega0"), _number(lo, "lo"), _number(hi, "hi")
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


def _number(value, name: str, bound: str = "") -> float:
    """``value`` as a finite float, and ``bound`` ("> 0" or ">= 0") if given: the one number rule.

    A number is a ``numbers.Real`` that is not a bool, so numpy scalars pass and strings and
    ``np.bool_`` do not; an int past the float range reads as +-inf.  Each refusal is a
    ``ValidationError`` ``<name>: expected a number | must be finite | must be <bound>, got ...``.
    """
    # an exact float skips the numbers.Real check, an ABC lookup that costs more than the rest of the rule
    if value.__class__ is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValidationError(f"{name}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer past the float range
        x = math.inf if value > 0 else -math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{name}: must be finite, got {x!r}")
    if bound and not (x > 0.0 if bound == "> 0" else x >= 0.0):
        raise ValidationError(f"{name}: must be {bound}, got {x!r}")
    return x


def _integer(value, name: str, minimum: int) -> int:
    """``value`` as an int >= ``minimum``: a ``numbers.Integral`` that is not a bool, the one integer rule.

    Each refusal is a ``ValidationError`` ``<name>: expected an integer | must be >= <minimum>, got ...``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name}: expected an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name}: must be >= {minimum}, got {int(value)}")
    return int(value)


_BOOLS = (bool, np.bool_)


def _refuse_bools(values, name: str):
    """``values`` as given, unless it is a bool or a list, tuple or ndarray of numbers holding one: refused as
    the number rule refuses a bool, ``<name>: expected a number, got True``, or ``<name>[k]: …`` at the first
    bool's index k of a sequence.

    An ndarray is scanned only when its dtype is bool, a list or tuple once, entry by entry; any other
    input is left to its reader.
    """
    if isinstance(values, _BOOLS):
        _number(values, name)
    if isinstance(values, (list, tuple)) or isinstance(values, np.ndarray) and values.dtype.kind == "b":
        k = next((k for k, x in enumerate(values) if isinstance(x, _BOOLS)), None)
        if k is not None:
            _number(values[k], f"{name}[{k}]")
    return values


def _time_grid(grid) -> np.ndarray:
    """``grid`` as a new float array of times, each a finite number >= 0 as the number rule reads one time;
    -0.0 reads as +0.0.  Anything but a nonempty 1-D array (a number, a 2-D grid) raises, and so does a
    bool entry, then the first NaN, infinite or negative one, each named by the number rule as ``grid[k]``:
    ``grid[1]: must be finite, got inf``, ``grid[1]: must be >= 0, got -1.0``."""
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValidationError("grid must be a nonempty 1-D array")
    _refuse_bools(grid, "grid")
    k = int(((t >= 0.0) & (t < math.inf)).argmin())  # the first NaN, infinite or negative entry, else 0
    _number(float(t[k]), f"grid[{k}]", ">= 0")  # refuses entry k if it is out of the domain
    return t + 0.0


def _time(t) -> float:
    """One time, forward from t = 0: a finite number >= 0 by the number rule, named ``t`` (``t: must be >= 0,
    got -1.0``; a grid is ``t: expected a number, got [0.0, 1.0]``), as a float.  -0.0 reads as +0.0, so it
    gives +0.0's bits.  The time rule of every evaluator that returns one state at one time."""
    return _number(t, "t", ">= 0") + 0.0


def _times(t):
    """One time or a grid of them, for the evaluators that serve both (``CatalogueMatrix.evaluate`` and
    ``dropped_envelope``, ``KhalfinTail``, ``omnes.nd_decay``): a list, tuple or ndarray is a grid, read by
    ``_time_grid``; anything else is one time, read by ``_time``.  Both hold every time to one domain, a
    finite number >= 0."""
    return _time_grid(t) if isinstance(t, (list, tuple, np.ndarray)) else _time(t)


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


def _power_of_two_scaled(y: np.ndarray):
    """(y / 2^e, e), with e the frexp exponent of the largest real or imaginary part (0 for y = 0).

    The one power-of-two scaling: the largest part of y / 2^e lies in [1/2, 1).  The division is
    exact wherever both y and the result are normal, so a fit, a residual or a formed density taken
    on the scaled values neither overflows nor underflows in its squares or products.
    """
    parts = np.ascontiguousarray(y, dtype=complex).view(float)
    e = math.frexp(float(np.max(np.abs(parts), initial=0.0)))[1]
    return np.ldexp(parts, -e).view(complex), e


def _projected_fit(t: np.ndarray, y: np.ndarray, z: np.ndarray):
    """(basis, amplitudes, residual, squared norm) of the least-squares fit at exponents ``z``.

    None if the basis exp(z t) leaves the float range on the grid, or
    its least-squares solve fails.
    """
    basis = np.exp(np.outer(t, z))
    if not np.isfinite(basis.view(float)).all():
        return None
    try:
        amps = np.linalg.lstsq(basis, y, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None  # probe: lstsq on a finite basis has no known failing input
    residual = y - basis @ amps
    return basis, amps, residual, float(np.vdot(residual, residual).real)


def _refined(t: np.ndarray, y: np.ndarray, z: np.ndarray):
    """Variable-projection Gauss-Newton from the pencil's exponents ``z``: the refined (z, amplitudes).

    The amplitudes are eliminated: at exponents z they are the
    least-squares a = E(z)^+ y, E_jk = exp(z_k t_j), and the residual is
    r = P y with P = I - E E^+ (Golub & Pereyra, SIAM J. Numer. Anal. 10,
    1973).  Each step solves min ||r - J s|| with Kaufman's Jacobian
    J = P (dE/dz) diag(a), column k being P (t exp(z_k t)) a_k.  A step is
    taken only if it lowers ||r||^2; otherwise it is halved, at most
    ``_REFINE_HALVINGS`` times, and the loop ends when no halving lowers it
    or after ``_REFINE_STEPS`` steps.  A trial whose basis or residual is
    not finite lowers nothing.  With no step taken, the result is the
    pencil's z and the amplitudes of its one least-squares solve.  Raises
    ``ConvergenceError`` if the pencil's own basis leaves the float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        fit = _projected_fit(t, y, z)
        if fit is None:
            raise ConvergenceError("the pencil's roots give no finite least-squares fit on this grid")
        basis, amps, residual, cost = fit
        for _ in range(_REFINE_STEPS):
            q = np.linalg.qr(basis)[0]
            slopes = basis * (t[:, None] * amps)
            jac = slopes - q @ (q.conj().T @ slopes)
            if not np.isfinite(jac.view(float)).all():
                break
            step = np.linalg.lstsq(jac, residual, rcond=None)[0]
            for _ in range(_REFINE_HALVINGS + 1):
                trial = _projected_fit(t, y, z + step)
                if trial is not None and trial[3] < cost:
                    break
                step = step / 2.0
            else:
                break
            z = z + step
            basis, amps, residual, cost = trial
    return z, amps


class PencilFactorisation:
    """The order-free half of the matrix pencil: sample checks, scaling, Hankel view and thin SVD.

    ``PencilFactorisation(times, values, order)`` checks the samples as
    ``matrix_pencil_fit(times, values, order)`` does, divides them by
    2^scale, the power of two of their largest real or imaginary part
    (exact for normal values), splits the Hankel matrix of the scaled
    samples into the shifted pair (Y0, Y1) and takes the thin SVD of Y0
    once.  ``fit(k)`` then gives the modes at any order k up to
    ``effective_rank`` from that one SVD.

    The window of n samples is w(n) = max(n // 9, min(n // 2, 128)),
    raised to ``order`` only when ``order`` is larger.  A fit at k modes
    needs w >= k and n - w >= k.  Every order the sample minimum allows has
    n >= 2k + 2, so k <= n // 2 - 1; the window max(w(n), k) is at least k,
    and at most n // 2, so n - window >= n / 2 > k.  For n <= 257 the rule
    gives n // 2 >= k + 1, and above that it gives at least 128: the window
    depends on the order only past w(n), so a refit at any order up to w(n)
    reuses a factorisation taken at any other such order.  The window near
    n / 9 costs about a tenth of the n // 2 block's SVD; refined by
    ``fit``'s Gauss-Newton loop, its roots match those refined from n // 2
    (Hua & Sarkar, IEEE Trans. ASSP 38, 1990, on the pencil's window), and
    the floor keeps the raw roots close enough for the loop to converge.

    Attributes: ``t`` (the times as floats), ``scale`` (the exponent e),
    ``y`` (the samples / 2^e, complex), ``dt`` (the grid step),
    ``window``, ``y1`` (the shifted Hankel view of ``y``), ``u``,
    ``singular_values``, ``vh`` (the thin SVD of the scaled Y0) and
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
        self.t, self.dt = t, check_uniform_grid(t)
        self.y, self.scale = _power_of_two_scaled(y)
        self.window = max(y.size // _WINDOW_DIVISOR, min(y.size // 2, _WINDOW_FLOOR), order)
        hankel = np.lib.stride_tricks.sliding_window_view(self.y, self.window + 1)  # (n - window, window + 1)
        self.y1 = hankel[:, 1:]
        self.u, self.singular_values, self.vh = np.linalg.svd(hankel[:, :-1], full_matrices=False)
        sig = self.singular_values
        if sig[0] == 0.0:
            raise RankDeficiencyError("signal is identically zero", effective_rank=0)
        self.effective_rank = int(np.sum(sig > _RANK_RTOL * sig[0]))

    def fit(self, order: int):
        """The modes at ``order``, as ``matrix_pencil_fit`` returns them.

        The pencil eigenvalues of (Y1, Y0), through the rank-``order``
        truncated SVD, give the per-step ratios exp(z_k dt); ``_refined``'s
        Gauss-Newton loop takes z to the least-squares optimum, and the
        amplitudes come from one dense least-squares solve on the full
        series at the final z, scaled back by 2^scale.  An order above
        ``effective_rank`` raises ``RankDeficiencyError``.
        """
        _check_order(order, self.t.size)
        if self.effective_rank < order:
            raise RankDeficiencyError(
                f"numerical rank {self.effective_rank} is below the requested order {order}; "
                f"retry with order <= {self.effective_rank}",
                effective_rank=self.effective_rank,
            )
        u, sig, vh = self.u, self.singular_values, self.vh
        pencil = np.diag(1.0 / sig[:order]) @ (u[:, :order].conj().T @ self.y1 @ vh[:order, :].conj().T)
        ratios = np.linalg.eigvals(pencil)
        if np.any(np.abs(ratios) == 0.0):
            raise ConvergenceError("pencil produced a zero ratio; data is not exponential")
        z, amps = _refined(self.t, self.y, np.log(ratios) / self.dt)
        with np.errstate(over="ignore"):
            amps = np.ldexp(amps.view(float), self.scale).view(complex)
        if not np.isfinite(amps.view(float)).all():
            raise ConvergenceError("a fitted amplitude is past the float range")
        idx = sorted(range(order), key=lambda k: (abs(z[k].imag), -z[k].real))
        return [(complex(z[k]), complex(amps[k])) for k in idx]


def _check_order(order: int, samples: int):
    _integer(order, "order", 1)
    if samples < pencil_min_samples(order):
        raise ValidationError(f"need at least {pencil_min_samples(order)} samples for order {order}")


def matrix_pencil_fit(times, values, order: int):
    """Fit s(t) ~ sum_k a_k exp(z_k t) by the matrix pencil, refined to the least-squares optimum.

    Needs an integer ``order`` >= 1 and a uniform time grid with at least
    2 * order + 2 samples.  This is
    ``PencilFactorisation(times, values, order).fit(order)``: the samples
    scaled by a power of two, the Hankel shift pair at the window
    max(n // 9, min(n // 2, 128)) (raised to ``order`` if that is larger)
    and its thin SVD, then the roots at ``order``, their variable-projection
    Gauss-Newton refinement and the amplitudes.  The window fits every
    order the sample minimum allows (see ``PencilFactorisation``), and
    scaling y by 2^k, with every part normal before and after, returns the
    same z bit for bit and the amplitudes times 2^k.

    Imaginary parts of the recovered exponents are only defined modulo the
    sampling Nyquist band (-pi/dt, pi/dt].

    Returns a list of (z_k, a_k) pairs sorted by |Im z_k| ascending, ties
    broken toward slower decay.  Raises ``RankDeficiencyError`` when the
    data's numerical rank (singular values above 1e-10 times the largest)
    is below ``order``; ``PencilFactorisation`` states that rank before any fit.
    """
    return PencilFactorisation(times, values, order).fit(order)


def fit_residual(times, values, modes) -> float:
    """RMS misfit of a recovered mode set against the samples.

    Samples and amplitudes are divided by the pencil's power of two first
    and the RMS multiplied back, so no square overflows or underflows; the
    scaling is exact in the normal range, where the bits are those of the
    unscaled sum.
    """
    t = np.asarray(times, dtype=float)
    y, scale = _power_of_two_scaled(values)
    amps = np.ldexp(np.array([a for _, a in modes], dtype=complex).view(float), -scale).view(complex)
    model = np.zeros_like(y)
    for (z, _), a in zip(modes, amps):
        model += a * np.exp(z * t)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.sqrt(np.mean(np.abs(model - y) ** 2)), scale))
