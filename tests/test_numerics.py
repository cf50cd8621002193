"""Kernel-level checks: eigensolver, quadrature, exponential fitting."""

import math

import mpmath
import numpy as np
import pytest

from decopoles.errors import ConvergenceError, RankDeficiencyError, ValidationError
from decopoles.numerics import (
    DensityMatrix,
    HermitianMatrix,
    _density_stack,
    _phase_fix,
    adaptive_simpson,
    eigh,
    fit_residual,
    matrix_pencil_fit,
    principal_value_integral,
)
from decopoles.omnes import OmnesConfig, build_density_matrix


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


class TestHermitianMatrix:
    def test_accepts_hermitian(self):
        m = HermitianMatrix(np.array([[1.0, 2j], [-2j, 3.0]]))
        assert m.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            HermitianMatrix(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_entries_write_protected(self):
        m = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_symmetrizes_roundoff_dust(self):
        a = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
        m = HermitianMatrix(a)
        assert np.allclose(m.entries, m.entries.conj().T, rtol=0, atol=0)


class TestDensityMatrix:
    def test_trace_must_be_one(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_valid_density(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        assert rho.min_eigenvalue() == pytest.approx(0.3, abs=1e-14)

    def test_is_a_hermitian_matrix(self):
        rho = DensityMatrix(np.array([[0.6, 0.2j], [-0.2j, 0.4]]))
        assert isinstance(rho, HermitianMatrix) and rho.dim == 2
        got, want = eigh(rho), eigh(rho.entries)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)

    def test_trace_message_names_a_plain_float(self):
        # numpy 2 spells a numpy scalar's repr np.float64(0.8); numpy 1 spells it 0.8
        with pytest.raises(ValidationError) as err:
            DensityMatrix(0.4 * np.eye(2))
        assert str(err.value) == "trace is 0.8, expected 1 within 1e-12"


def density_stack(rng, count, dim):
    """``count`` random unit-trace Hermitian matrices, as one (T, d, d) stack."""
    mats = np.stack([random_hermitian(rng, dim) for _ in range(count)])
    return mats / np.trace(mats, axis1=-2, axis2=-1).real[:, None, None]


def message(build, *args):
    with pytest.raises(ValidationError) as err:
        build(*args)
    return str(err.value)


class TestDensityStack:
    """The stacked constructor against one ``DensityMatrix`` per matrix."""

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_equals_one_density_matrix_per_matrix(self, dim):
        mats = density_stack(np.random.default_rng(dim), 9, dim)
        mats[:, 0, -1] += 1e-15j  # Hermitian within the tolerance, not exactly
        got = _density_stack(mats)
        assert all(type(rho) is DensityMatrix for rho in got)
        for rho, mat in zip(got, mats):
            want = DensityMatrix(mat).entries
            assert rho.entries.tobytes() == want.tobytes()
            assert not rho.entries.flags.writeable

    @pytest.mark.parametrize("k", [0, 4, 8])
    def test_non_hermitian_member_raises_its_own_message(self, k):
        mats = density_stack(np.random.default_rng(k), 9, 3)
        mats[k, 0, 2] += 0.25 * (k + 1)
        want = message(DensityMatrix, mats[k])
        assert want.startswith("matrix is not Hermitian")
        assert message(_density_stack, mats) == want

    @pytest.mark.parametrize("k", [0, 4, 8])
    def test_bad_trace_member_raises_its_own_message(self, k):
        mats = density_stack(np.random.default_rng(k), 9, 3)
        mats[k] *= 1.0 + 1e-3 * (k + 1)
        want = message(DensityMatrix, mats[k])
        assert want.startswith("trace is ")
        assert message(_density_stack, mats) == want

    def test_non_finite_member_rejected(self):
        mats = density_stack(np.random.default_rng(3), 4, 2)
        mats[2, 1, 1] = np.inf
        assert message(_density_stack, mats) == message(DensityMatrix, mats[2])

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 3), (0, 2, 2), (3, 0, 0)])
    def test_rejects_bad_stack_shape(self, shape):
        with pytest.raises(ValidationError):
            _density_stack(np.zeros(shape))


class TestEigh:
    def test_diagonal_exact(self):
        dec = eigh(np.diag([3.0, 1.0, 2.0]))
        assert dec.eigenvalues.tolist() == [3.0, 2.0, 1.0]

    def test_matches_library_solver(self):
        # both sides are LAPACK; test_matches_mpmath_oracle is the independent check
        rng = np.random.default_rng(42)
        for dim in (2, 3, 8, 64):
            mat = random_hermitian(rng, dim)
            dec = eigh(mat)
            expected = np.linalg.eigvalsh(mat)[::-1]
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(dec.eigenvalues - expected)) < 1e-12 * scale

    def test_reconstruct(self):
        rng = np.random.default_rng(7)
        mat = random_hermitian(rng, 12)
        dec = eigh(mat)
        # a loose bound: LAPACK reconstruction error is O(dim * eps * ||A||)
        assert np.max(np.abs(dec.reconstruct() - mat)) < 1e-9

    def test_eigenvectors_orthonormal(self):
        rng = np.random.default_rng(3)
        dec = eigh(random_hermitian(rng, 16))
        v = dec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(16))) < 1e-13

    def test_phase_convention(self):
        """Largest component of each eigenvector is real and nonnegative."""
        rng = np.random.default_rng(11)
        dec = eigh(random_hermitian(rng, 9))
        for k in range(9):
            v = dec.eigenvectors[:, k]
            pivot = v[int(np.argmax(np.abs(v)))]
            assert pivot.imag == 0.0
            assert pivot.real >= 0.0

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        dec = eigh(random_hermitian(rng, 20))
        assert np.all(np.diff(dec.eigenvalues) <= 0.0)

    def test_accepts_wrapper(self):
        m = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        dec = eigh(m)
        assert dec.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eigh(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_residual_reported(self):
        rng = np.random.default_rng(13)
        dec = eigh(random_hermitian(rng, 6))
        assert dec.off_diagonal_residual < 1e-13

    def test_matches_mpmath_oracle(self):
        # 30-digit mpmath eighe is independent of LAPACK
        rng = np.random.default_rng(17)
        for dim in (2, 3, 5, 8):
            mat = random_hermitian(rng, dim)
            dec = eigh(mat)
            with mpmath.workdps(30):
                vals, vecs = mpmath.eighe(mpmath.matrix(mat.tolist()))
                expected = np.array([float(vals[k]) for k in range(dim)])[::-1]
                ref = np.array(vecs.tolist(), dtype=complex)[:, ::-1]
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(dec.eigenvalues - expected)) < 1e-13 * scale
            # random spectra are simple, so each vector matches up to a phase
            overlaps = np.abs(np.sum(ref.conj() * dec.eigenvectors, axis=0))
            assert np.max(np.abs(overlaps - 1.0)) < 1e-12

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            eigh(np.eye(3))

    @pytest.mark.filterwarnings("ignore:configuration is not macroscopic")
    def test_rank_one_fock_density(self):
        # a pure state: one unit eigenvalue and a 24-fold degenerate zero cluster
        half = math.sqrt(0.5)
        cfg = OmnesConfig(m=1.0, omega=2.0, hbar=1.0, gamma0=0.1, L0=2.0, a=half, b=half, N=24)
        rho = build_density_matrix(cfg, cfg.z0(), 1.3)
        dec = eigh(rho.entries)
        v = dec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(25))) < 1e-13
        assert np.max(np.abs(dec.reconstruct() - rho.entries)) < 1e-12
        assert dec.off_diagonal_residual < 1e-13
        assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-13)


def loop_phase_fix(vectors):
    """Reference: one column at a time, pivot rotated onto the positive real axis."""
    out = np.array(vectors, dtype=complex)
    for k in range(out.shape[1]):
        j = int(np.argmax(np.abs(out[:, k])))
        piv = out[j, k]
        if abs(piv) > 0.0:
            out[:, k] *= np.conj(piv) / abs(piv)
            out[j, k] = abs(piv)
    return out


class TestStackedEigh:
    def stack(self, seed=23, count=7, dim=5):
        rng = np.random.default_rng(seed)
        return np.array([random_hermitian(rng, dim) for _ in range(count)])

    def test_phase_fix_equals_column_loop(self):
        rng = np.random.default_rng(29)
        for dim in (1, 2, 5, 12):
            vecs = np.linalg.eigh(random_hermitian(rng, dim))[1]
            got, want = _phase_fix(vecs), loop_phase_fix(vecs)
            assert np.max(np.abs(got - want)) <= np.finfo(float).eps
            # same pivots, each exactly real and nonnegative
            assert np.array_equal(got.imag == 0.0, want.imag == 0.0)

    def test_phase_fix_leaves_zero_column(self):
        vecs = np.array([[0.0, 1j], [0.0, 0.0]])
        assert np.array_equal(_phase_fix(vecs), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_residual_is_the_largest(self):
        mats = self.stack()
        got = eigh(mats)
        assert isinstance(got.off_diagonal_residual, float)
        want = max(eigh(mat).off_diagonal_residual for mat in mats)
        assert got.off_diagonal_residual == pytest.approx(want, rel=1e-6)
        assert got.off_diagonal_residual < 1e-13

    def test_stack_reconstructs(self):
        mats = self.stack()
        assert np.max(np.abs(eigh(mats).reconstruct() - mats)) < 1e-12

    def test_zero_matrix_in_stack(self):
        mats = np.array([np.zeros((2, 2)), np.diag([0.7, 0.3])])
        got = eigh(mats)
        assert got.off_diagonal_residual == 0.0
        assert got.eigenvalues.tolist() == [[0.0, 0.0], [0.7, 0.3]]

    def test_one_bad_matrix_rejects_the_stack(self):
        mats = self.stack()
        mats[4, 0, 1] += 1.0
        with pytest.raises(ValidationError, match="not Hermitian"):
            eigh(mats)
        mats = self.stack()
        mats[2, 1, 1] = np.nan
        with pytest.raises(ValidationError):
            eigh(mats)

    @pytest.mark.parametrize("shape", [(3, 2, 3), (0, 2, 2), (3, 0, 0)])
    def test_rejects_bad_stack_shape(self, shape):
        with pytest.raises(ValidationError):
            eigh(np.zeros(shape))


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        # Simpson integrates cubics exactly
        assert adaptive_simpson(lambda x: x**3, 0.0, 2.0) == pytest.approx(4.0, abs=1e-14)

    def test_oscillatory(self):
        got = adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-10)
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_exp(self):
        got = adaptive_simpson(math.exp, -1.0, 1.0, tol=1e-11)
        assert got == pytest.approx(math.e - 1.0 / math.e, abs=1e-10)

    def test_depth_exhaustion(self):
        # near-singular integrand cannot meet an absurd tolerance
        with pytest.raises(ConvergenceError):
            adaptive_simpson(lambda x: abs(x - 0.3) ** -0.9, 0.0, 1.0, tol=1e-12, max_depth=8)


class TestPrincipalValue:
    def test_constant_cancels_exactly(self):
        assert principal_value_integral(lambda w: 1.0, 0.5, 0.0, 1.0) == 0.0

    def test_symmetric_linear(self):
        # PV of w/(w0 - w) over [w0-a, w0+a] is exactly -2a
        got = principal_value_integral(lambda w: w, 2.0, 1.0, 3.0)
        assert got == pytest.approx(-2.0, abs=1e-9)

    def test_lorentzian_finite_domain(self):
        """Frozen oracle: PV of a unit-weight Lorentzian over [-9, 11]."""
        c, eta = 0.6, 0.7

        def g(w):
            return (eta / math.pi) / ((w - c) ** 2 + eta**2)

        got = principal_value_integral(g, 1.3, -9.0, 11.0)
        assert got == pytest.approx(0.71421186919449668011, abs=5e-9)
        got = principal_value_integral(g, 1.1, -9.0, 11.0)
        assert got == pytest.approx(0.67557215759771157833, abs=5e-9)

    def test_pole_outside_domain_rejected(self):
        with pytest.raises(ValidationError):
            principal_value_integral(lambda w: 1.0, 1.5, 0.0, 1.0)
        with pytest.raises(ValidationError):
            principal_value_integral(lambda w: 1.0, 0.0, 0.0, 1.0)


class TestMatrixPencil:
    def test_single_mode_exact(self):
        t = np.linspace(0.0, 10.0, 64)
        values = 2.0 * np.exp(-0.7 * t)
        modes = matrix_pencil_fit(t, values, 1)
        assert len(modes) == 1
        z, a = modes[0]
        assert z.real == pytest.approx(-0.7, abs=1e-12)
        assert abs(z.imag) < 1e-12
        assert a == pytest.approx(2.0, abs=1e-12)

    def test_three_modes(self):
        t = np.linspace(0.0, 6.0, 241)
        values = 3 * np.exp(-0.1 * t) + 2 * np.exp(-1.0 * t) + np.exp(-5.0 * t)
        modes = matrix_pencil_fit(t, values, 3)
        rates = sorted(-z.real for z, _ in modes)
        for got, want in zip(rates, (0.1, 1.0, 5.0)):
            assert abs(got - want) / want < 1e-10

    def test_oscillatory_mode(self):
        t = np.linspace(0.0, 20.0, 256)
        values = np.exp((-0.3 + 0.9j) * t)
        ((z, a),) = matrix_pencil_fit(t, values, 1)
        assert z == pytest.approx(-0.3 + 0.9j, abs=1e-10)
        assert a == pytest.approx(1.0, abs=1e-10)

    def test_sorting_convention(self):
        # ascending |Im z|, then slowest decay first
        t = np.linspace(0.0, 12.0, 300)
        values = np.exp(-0.2 * t) + np.exp(-1.5 * t) + 0.5 * np.exp((-0.4 + 2.0j) * t)
        modes = matrix_pencil_fit(t, values, 3)
        keys = [(abs(z.imag), -z.real) for z, _ in modes]
        assert keys == sorted(keys)

    def test_rank_deficiency(self):
        t = np.linspace(0.0, 6.0, 241)
        values = 3 * np.exp(-0.1 * t) + 2 * np.exp(-1.0 * t) + np.exp(-5.0 * t)
        with pytest.raises(RankDeficiencyError) as exc_info:
            matrix_pencil_fit(t, values, 5)
        assert exc_info.value.effective_rank == 3

    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            matrix_pencil_fit(np.linspace(0, 1, 5), np.ones(5), 2)

    def test_nonuniform_grid_rejected(self):
        t = np.array([0.0, 1.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0])
        with pytest.raises(ValidationError):
            matrix_pencil_fit(t, np.exp(-t), 1)

    def test_residual(self):
        t = np.linspace(0.0, 5.0, 101)
        values = np.exp(-0.5 * t)
        modes = matrix_pencil_fit(t, values, 1)
        assert fit_residual(t, values, modes) < 1e-13
