"""Truncated coherent overlaps, coherence decay, collective rate, frame picture."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from decopoles.errors import ValidationError
from decopoles.omnes import (
    NDComponents,
    OmnesConfig,
    _fock_table,
    _frame_overlaps,
    _ladder_phases,
    _logsumexp,
    QuasiCoherentState,
    build_density_matrix,
    collective_rate,
    fock_overlap,
    frame_catalogue_matrix,
    frame_projection,
    macroscopicity_check,
    nd_block,
    nd_decay,
    overlap_error_bound,
    overlap_truncated,
)
from decopoles.numerics import DensityMatrix, _checked_entries
from decopoles.pole_models import CatalogueMatrix, Pole, partition_report, collective_rate_rule

ROOT_HALF = math.sqrt(0.5)


def config(L0=10.0, gamma0=0.1, N=6000, a=ROOT_HALF, b=ROOT_HALF, m=1.0, omega=2.0, hbar=1.0):
    # with m*omega/2 = hbar = 1 the displacement L0 equals Delta directly
    return OmnesConfig(m=m, omega=omega, hbar=hbar, gamma0=gamma0, L0=L0, a=a, b=b, N=N)


def frame_pair(cfg, z0, t, closed_form=True):
    """(f1, f2) = (a + b s, a s + b w(t)): the projections of the evolved state on the initial branches."""
    s, w = _frame_overlaps(cfg, z0, t, closed_form)
    return cfg.a + cfg.b * s, cfg.a * s + cfg.b * w


def oracle_state(cfg, z0, t):
    """Reference: the unnormalized evolved state a|0> + b sum_n v_n exp(-i n z0 t / hbar)|n>.

    v is ``QuasiCoherentState.fock_vector()``; each phase is its own ``cmath.exp`` of n times
    one exponent, so no ladder helper of the library takes part.
    """
    x = -1j * complex(z0) * t / cfg.hbar
    state = cfg.b * cfg.state2().fock_vector() * np.array([cmath.exp(n * x) for n in range(cfg.N + 1)])
    state[0] += cfg.a
    return state


def exact_fock_state(cfg, z0, t):
    """Reference, in mpmath at the caller's precision: a|0> + b N2 sum_n alpha2^n / sqrt(n!) exp(-i n z0 t / hbar)|n>."""
    x = mpmath.mpc(0, -1) * mpmath.mpc(z0) * t / cfg.hbar
    v = [mpmath.mpf(cfg.alpha2) ** n / mpmath.sqrt(mpmath.factorial(n)) for n in range(cfg.N + 1)]
    norm = mpmath.sqrt(mpmath.fsum(vn**2 for vn in v))
    u = [mpmath.mpc(cfg.b) * vn / norm * mpmath.exp(n * x) for n, vn in enumerate(v)]
    u[0] += mpmath.mpc(cfg.a)
    return u


# Stated before measuring: the oracle's phases differ from the library's by a few roundings of the
# exponent x_n, so by about |x_n| u relative; weighted by |phase| = exp(-Re x_n), that is at most
# (|z0| / gamma0) u, about 1e-14 at the widest ratio drawn (50).  Every entry of rho is at most 1,
# so 1e-12 leaves a factor of 100, while a flipped phase sign moves entries by O(1) at t > 0.
FOCK_ORACLE_TOL = 1e-12


def oracle_density(cfg, z0, t):
    """Reference: the trace-1 outer product of the normalized ``oracle_state``."""
    u = oracle_state(cfg, z0, t)
    u = u / np.linalg.norm(u)
    return np.outer(u, u.conj())


def amplitude_damped(rho0, kappa_t):
    """Reference: the zero-temperature amplitude-damping state of a Fock-space operator, by its Kraus sum.

    The master equation d rho / dt = kappa (a rho a^H - {a^H a, rho} / 2) of Walls & Milburn,
    Phys. Rev. A 31, 2403 (1985), solved exactly: rho(t) = sum_k K_k rho0 K_k^H, with
    K_k = sum_n sqrt(C(n, k)) eta^((n - k) / 2) (1 - eta)^(k / 2) |n - k><n| and eta = e^(-kappa t).
    numpy only; K_k |n> = K_k[n - k, n] |n - k>, so each term is a shifted block, scaled row and column.
    Meant for N = dim - 1 <= 80, where C(n, k) stays far inside the float range.
    """
    dim = rho0.shape[0]
    eta, lost = math.exp(-kappa_t), -math.expm1(-kappa_t)
    out = np.zeros_like(rho0)
    for k in range(dim):
        n = np.arange(k, dim)
        kraus = np.sqrt([float(math.comb(int(m), k)) for m in n]) * eta ** ((n - k) / 2) * lost ** (k / 2)
        out[: dim - k, : dim - k] += kraus[:, None] * rho0[k:, k:] * kraus
    return out


def coherent_branch(delta, N):
    """Reference: <n|Delta> = e^(-Delta^2 / 2) Delta^n / sqrt(n!), n = 0..N, unrenormalized."""
    n = np.arange(N + 1)
    return np.exp(n * math.log(delta) - 0.5 * np.array([math.lgamma(m + 1.0) for m in range(N + 1)]) - 0.5 * delta**2)


def brute_normalized_overlap(a1, a2, N):
    """Plain-float double-sum oracle for the truncated inner product."""
    v1 = [a1**n / math.sqrt(math.factorial(n)) for n in range(N + 1)]
    v2 = [a2**n / math.sqrt(math.factorial(n)) for n in range(N + 1)]
    n1 = math.sqrt(sum(x * x for x in v1))
    n2 = math.sqrt(sum(x * x for x in v2))
    return sum(x * y for x, y in zip(v1, v2)) / (n1 * n2)


class TestQuasiCoherentState:
    def test_vacuum_vector(self):
        v = QuasiCoherentState(0.0, 5).fock_vector()
        assert v[0] == 1.0
        assert np.all(v[1:] == 0.0)

    @pytest.mark.parametrize("alpha,N", [(0.5, 8), (2.0, 40), (30.0, 1481)])
    def test_unit_norm(self, alpha, N):
        v = QuasiCoherentState(alpha, N).fock_vector()
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_fock_vector_is_a_copy_of_the_shared_cache(self):
        state = QuasiCoherentState(3.0, 40)
        v = state.fock_vector()
        table = _fock_table(3.0, 40)
        want = np.exp(table.log_weights + table.log_norm)
        assert v.tobytes() == want.tobytes()
        v[:] = 0.0  # the caller's own array; the table's are read-only
        assert state.fock_vector().tobytes() == want.tobytes()
        assert not table.log_weights.flags.writeable

    def test_large_alpha_state_is_accepted(self):
        # a valid state whose ||v|| - 1 = 1.55e-12 is all rounding in a log norm near -8e4
        v = QuasiCoherentState(400.0, 250_000).fock_vector()
        assert v.shape == (250_001,) and abs(np.linalg.norm(v) - 1.0) < 1e-11

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            QuasiCoherentState(-1.0, 5)

    def test_truncation_floor(self):
        with pytest.raises(ValidationError):
            QuasiCoherentState(1.0, 0)

    @pytest.mark.parametrize(
        "N", [3.7, 3.0, True, np.bool_(True), "3", np.float64(3.0)],
        ids=["fraction", "integral-float", "bool", "numpy-bool", "string", "numpy-float"],
    )
    def test_non_integer_truncation_rejected(self, N):
        # int(3.7) would give a 3-level state, not the one asked for
        with pytest.raises(ValidationError) as err:
            QuasiCoherentState(2.0, N)
        assert str(err.value) == f"N: expected an integer, got {N!r}"

    def test_integer_truncation_of_any_kind_is_kept_as_an_int(self):
        for N in (np.int64(3), np.uint8(3)):
            state = QuasiCoherentState(2.0, N)
            assert type(state.N) is int and state == QuasiCoherentState(2.0, 3)

    @pytest.mark.parametrize("alpha,N", [(0.0, 3), (6.0, 200), (30.0, 1481)])
    def test_log_norm_cached_with_unchanged_bits(self, alpha, N):
        want = -0.5 * _logsumexp(2.0 * _fock_table(alpha, N).log_weights)
        assert QuasiCoherentState(alpha, N).log_norm == want
        hits = _fock_table.cache_info().hits
        assert QuasiCoherentState(alpha, N).log_norm == want
        assert _fock_table.cache_info().hits == hits + 1


class TestOmnesConfig:
    def test_delta_mapping(self):
        assert config(L0=10.0).delta == pytest.approx(10.0, rel=1e-15)
        assert config(L0=10.0, hbar=2.0).delta == pytest.approx(5.0, rel=1e-15)

    def test_norm_enforced(self):
        with pytest.raises(ValidationError):
            config(a=0.9, b=0.6)

    @pytest.mark.parametrize(
        "a, b",
        [(complex("nan"), 1.0), (1.0, math.nan), (complex("inf"), 1.0), (0.0, complex(0.0, -math.inf))],
    )
    def test_non_finite_amplitude_rejected(self, a, b):
        # named by the number rule's complex form before the norm is taken
        name, value = ("a", a) if not cmath.isfinite(a) else ("b", b)
        with pytest.raises(ValidationError) as err:
            config(a=a, b=b)
        assert str(err.value) == f"{name}: must be finite, got {value!r}"

    def test_overflowing_amplitude_rejected(self):
        with pytest.raises(ValidationError, match=r"\|a\|\^2 \+ \|b\|\^2 = inf must be 1 within"):
            OmnesConfig(1, 2, 1, 0.1, 1.0, 1e200, 0, 10)

    @pytest.mark.parametrize("scales", [{"L0": 1e200}, {"m": 1e300, "omega": 1e300}, {"hbar": 1e-300}])
    def test_overflowing_delta_squared_rejected(self, scales):
        with pytest.raises(ValidationError, match=r"Delta\^2 overflows"):
            config(**scales)

    @pytest.mark.parametrize("s", [1e-200, 1e200], ids=["m-omega-underflows", "m-omega-overflows"])
    def test_delta_where_m_omega_leaves_the_float_range(self, s):
        # m omega = 1e-400 reads 0.0 and 1e400 inf, yet Delta = L0 sqrt(m omega / 2) / hbar = sqrt(1/2)
        cfg = config(m=s, omega=s, hbar=s, L0=1.0)
        with mpmath.workprec(256):
            exact = mpmath.sqrt(mpmath.mpf(s) * mpmath.mpf(s) / 2) / mpmath.mpf(s)
        assert abs(cfg.delta - exact) <= 2 * math.ulp(0.7071067811865476)

    def test_positive_scales(self):
        with pytest.raises(ValidationError):
            config(gamma0=0.0)
        with pytest.raises(ValidationError):
            config(L0=-1.0)

    @pytest.mark.parametrize("N", [200.9, 200.0, True, None])
    def test_non_integer_truncation_rejected(self, N):
        with pytest.raises(ValidationError) as err:
            OmnesConfig(1, 2, 1, 0.1, 6.0, math.sqrt(0.5), math.sqrt(0.5), N)
        assert str(err.value) == f"N: expected an integer, got {N!r}"
        assert OmnesConfig(1, 2, 1, 0.1, 6.0, math.sqrt(0.5), math.sqrt(0.5), np.int32(200)).N == 200

    def test_pole_builder(self):
        assert config(gamma0=0.25).z0() == complex(0.0, -0.25)
        assert config(gamma0=0.25).z0(omega_prime=1.5) == complex(1.5, -0.25)


class TestTruncatedOverlap:
    def test_identical_states(self):
        s = QuasiCoherentState(3.0, 20)
        assert overlap_truncated(s, s) == 1.0

    def test_symmetry(self):
        s1 = QuasiCoherentState(0.0, 15)
        s2 = QuasiCoherentState(2.5, 15)
        assert overlap_truncated(s1, s2) == overlap_truncated(s2, s1)

    def test_truncation_mismatch(self):
        with pytest.raises(ValidationError):
            overlap_truncated(QuasiCoherentState(0.0, 5), QuasiCoherentState(1.0, 6))

    def test_frozen_partial_sum(self):
        """Delta = 2, N = 10: eleven alternating terms, exactly summed."""
        got = overlap_truncated(QuasiCoherentState(0.0, 10), QuasiCoherentState(2.0, 10))
        assert got == pytest.approx(0.13537918871252204586, abs=1e-14)

    def test_converges_to_gaussian(self):
        # N far past Delta^2/2: remainder below working precision
        got = overlap_truncated(QuasiCoherentState(0.0, 20), QuasiCoherentState(1.0, 20))
        assert got == pytest.approx(math.exp(-0.5), abs=1e-14)

    @pytest.mark.parametrize(
        "delta, N, line",
        [
            # the terms (Delta^2/2)^n / n! peak near e^800 and overflow; fsum met -inf + inf
            (40.0, 2000, "Delta = 40.0, N = 2000: terms past the float range"),
            # (Delta^2)/2 itself overflows: float ** raised OverflowError
            (1e200, 5, "Delta = 1e+200, N = 5: terms past the float range"),
        ],
        ids=["term-overflows", "delta-squared-overflows"],
    )
    def test_terms_past_the_float_range_are_rejected(self, delta, N, line):
        with pytest.raises(ValidationError) as info:
            overlap_truncated(QuasiCoherentState(0.0, N), QuasiCoherentState(delta, N))
        assert str(info.value) == line

    def test_remainder_bound(self):
        s1 = QuasiCoherentState(0.0, 12)
        s2 = QuasiCoherentState(3.0, 12)
        diff = abs(overlap_truncated(s1, s2) - math.exp(-4.5))
        assert diff <= overlap_error_bound(3.0, 12) + 1e-13


class TestFockOverlap:
    def test_frozen_value(self):
        got = fock_overlap(QuasiCoherentState(0.0, 10), QuasiCoherentState(2.0, 10))
        assert got == pytest.approx(0.13552785375134996038, abs=1e-14)

    def test_identical_states(self):
        s = QuasiCoherentState(2.0, 12)
        assert fock_overlap(s, s) == 1.0

    def test_truncations_must_agree(self):
        with pytest.raises(ValidationError, match="truncations differ: 10 != 11"):
            fock_overlap(QuasiCoherentState(1.0, 10), QuasiCoherentState(1.0, 11))

    @pytest.mark.parametrize("a1,a2,N", [(0.0, 2.0, 10), (1.5, 3.2, 30), (0.0, 0.7, 4)])
    def test_brute_force_oracle(self, a1, a2, N):
        got = fock_overlap(QuasiCoherentState(a1, N), QuasiCoherentState(a2, N))
        assert got == pytest.approx(brute_normalized_overlap(a1, a2, N), rel=1e-12)

    def test_agrees_with_partial_sum_at_large_n(self):
        s1 = QuasiCoherentState(0.0, 60)
        s2 = QuasiCoherentState(2.0, 60)
        assert abs(fock_overlap(s1, s2) - overlap_truncated(s1, s2)) < 1e-12

    def test_differs_from_partial_sum_at_small_n(self):
        # the renormalized inner product and the bare alternating sum are
        # distinct quantities until both truncation corrections vanish
        s1 = QuasiCoherentState(0.0, 10)
        s2 = QuasiCoherentState(2.0, 10)
        assert abs(fock_overlap(s1, s2) - overlap_truncated(s1, s2)) > 1e-5


class TestLogFactorials:
    """The Fock table's log weights at alpha = 1 are -log(n!) / 2, from lgamma."""

    @pytest.mark.parametrize("N", [1, 40, 1000])
    def test_values_bit_identical_to_lgamma(self, N):
        want = 0.0 - 0.5 * np.array([math.lgamma(k + 1.0) for k in range(N + 1)])  # +0.0 at n = 0
        assert _fock_table(1.0, N).log_weights.tobytes() == want.tobytes()

    def test_cached_and_read_only(self):
        table = _fock_table(2.0, 57)
        assert _fock_table(2.0, 57) is table
        for arr in (table.log_weights, table.q_live):
            with pytest.raises(ValueError):
                arr[3] = 0.0


class TestErrorBound:
    def test_zero_delta(self):
        assert overlap_error_bound(0.0, 10) == 0.0

    def test_delta_whose_square_underflows(self):
        # 0.5 * 1e-200**2 is 0.0; the ceiling is 0, not a math domain error
        assert overlap_error_bound(1e-200, 3) == 0.0

    @pytest.mark.parametrize("delta, N", [(1000.0, 1000), (1e150, 10)], ids=["large-N", "large-delta"])
    def test_ceiling_past_the_float_range_is_inf(self, delta, N):
        # exp of (N + 1) log(Delta^2 / 2) - log((N + 1)!) > 709.8 overflowed with a bare OverflowError
        assert overlap_error_bound(delta, N) == math.inf

    def test_closed_form(self):
        assert overlap_error_bound(2.0, 9) == pytest.approx(1024.0 / 3628800.0, rel=1e-12)

    def test_monotone_in_n(self):
        values = [overlap_error_bound(2.0, n) for n in range(4, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            overlap_error_bound(-1.0, 5)
        with pytest.raises(ValidationError, match=r"^N: must be >= 0, got -1$"):
            overlap_error_bound(1.0, -1)

    @pytest.mark.parametrize("N", [2.5, 2.0, False, math.nan])
    def test_non_integer_truncation_rejected(self, N):
        # int(2.5) would give the N = 2 remainder for a truncation that has none
        with pytest.raises(ValidationError) as err:
            overlap_error_bound(2.0, N)
        assert str(err.value) == f"N: expected an integer, got {N!r}"
        assert overlap_error_bound(2.0, np.int64(0)) == overlap_error_bound(2.0, 0) == 2.0


class TestMacroscopicity:
    def test_passes_with_margins(self):
        report = macroscopicity_check(config(L0=20.0, N=10**6))
        assert report.passed
        assert report.lower_margin == pytest.approx(2.0, rel=1e-12)
        assert report.upper_margin == pytest.approx(0.1 * math.sqrt(2e6 + 2) / 20.0, rel=1e-12)

    def test_fails_small_separation(self):
        report = macroscopicity_check(config(L0=0.5, N=100))
        assert not report.passed
        assert report.lower_margin < 1.0

    def test_fails_tight_truncation(self):
        report = macroscopicity_check(config(L0=20.0, N=100))
        assert not report.passed
        assert report.lower_margin >= 1.0
        assert report.upper_margin < 1.0

    def test_delta_that_underflows_to_zero(self):
        # Delta = L0 / hbar = 1e-170 / 1e154 reads 0.0, which the upper margin once divided by
        report = macroscopicity_check(config(L0=1e-170, hbar=1e154, N=8))
        assert report.delta == 0.0 and report.upper_margin == math.inf and not report.passed

    def test_default_reference_config(self):
        report = macroscopicity_check(config())  # Delta 10, N 6000
        assert report.passed
        assert report.delta == pytest.approx(10.0, rel=1e-15)


class TestEvolvedOverlaps:
    """The closed-form frame overlaps s = exp(-Delta^2/2) and w(t), and the warning of their users."""

    def test_initial_values(self):
        cfg = config()
        s, w = _frame_overlaps(cfg, cfg.z0(), 0.0, closed_form=True)
        assert s == pytest.approx(math.exp(-50.0), rel=1e-15)
        assert w == 1.0

    def test_long_time_floor(self):
        cfg = config()
        _, w = _frame_overlaps(cfg, cfg.z0(), 50.0 / cfg.gamma0, closed_form=True)
        assert abs(w) == pytest.approx(math.exp(-100.0), rel=1e-12)

    def test_oscillatory_magnitude(self):
        cfg = config()
        z0 = cfg.z0(omega_prime=2.0)
        t = 0.9
        _, w = _frame_overlaps(cfg, z0, t, closed_form=True)
        want = math.exp(-100.0 * (1.0 - math.cos(2.0 * t) * math.exp(-0.1 * t)))
        assert abs(w) == pytest.approx(want, rel=1e-12)

    def test_growth_pole_rejected(self):
        cfg = config()
        for closed_form in (True, False):
            with pytest.raises(ValidationError):
                _frame_overlaps(cfg, complex(0.0, 0.1), 1.0, closed_form)

    def test_not_macroscopic_is_reported_not_warned(self):
        # the regime is macroscopicity_check's report; the frame quantities return outside it too
        for cfg in (config(L0=2.0, N=400), config(L0=2.0, N=50)):
            assert macroscopicity_check(cfg).passed is False
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                nd_decay(cfg, cfg.z0(), [0.5])
                nd_block(cfg, cfg.z0(), 0.5)

    def test_quiet_when_macroscopic(self):
        cfg = config()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nd_decay(cfg, cfg.z0(), [0.5])


class TestNDBlock:
    def test_initial_coherence(self):
        cfg = config(a=0.6, b=0.8)
        nd = nd_block(cfg, cfg.z0(), 0.0)
        assert nd.rho21 == 0.6 * 0.8 + 0.0j
        assert nd.rho12 == nd.rho21.conjugate()
        assert nd.envelope == 1.0

    def test_long_time_asymptote(self):
        cfg = config(L0=6.0, N=255)
        t = 80.0 / cfg.gamma0
        nd = nd_block(cfg, cfg.z0(), t)
        floor = 0.5 * math.exp(-36.0)
        assert abs(nd.rho21) == pytest.approx(floor, rel=1e-12)
        assert abs(nd.rho21) <= 0.5 * math.exp(-18.0)  # coarser half-exponent ceiling

    def test_envelope_tracks_magnitude(self):
        cfg = config()
        for t in (0.3, 1.0, 4.0):
            nd = nd_block(cfg, cfg.z0(), t)
            assert nd.envelope == pytest.approx(abs(nd.rho21) / 0.5, rel=1e-12)

    def test_small_time_rate(self):
        cfg = config()
        dt = 1e-5 / (cfg.delta**2 * cfg.gamma0)
        nd = nd_block(cfg, cfg.z0(), dt)
        slope = math.log(nd.envelope) / dt
        assert slope == pytest.approx(-(cfg.delta**2) * cfg.gamma0, rel=1e-4)

    def test_diagonal_residuals_stay_static(self):
        cfg = config(a=ROOT_HALF, b=ROOT_HALF)
        s = math.exp(-0.5 * cfg.delta**2)
        for t in (0.0, 1.0, 30.0):
            nd = nd_block(cfg, cfg.z0(), t)
            assert abs(nd.rho11) <= s * (1 + 1e-12)
            assert abs(nd.rho22) <= s * (1 + 1e-12)

    def test_conjugate_pair_enforced(self):
        with pytest.raises(ValidationError):
            NDComponents(t=0.0, rho11=0.0, rho12=0.3 + 0.1j, rho21=0.3 + 0.1j, rho22=0.0, envelope=1.0)


class TestCollectiveRate:
    def test_reference_numbers(self):
        rate = collective_rate(config())
        assert rate.gamma_tilde == pytest.approx(10.0, rel=1e-15)
        assert rate.t_D == pytest.approx(0.1, rel=1e-15)
        assert rate.t_R == pytest.approx(10.0, rel=1e-15)

    def test_rate_ratio_is_delta_squared(self):
        cfg = config(L0=20.0, N=10**6)
        rate = collective_rate(cfg)
        assert rate.gamma_tilde / cfg.gamma0 == pytest.approx(cfg.delta**2, rel=1e-12)

    def test_separation_invariant(self):
        products = []
        for l0 in (10.0, 20.0, 40.0):
            rate = collective_rate(config(L0=l0, N=10**6))
            products.append(rate.t_D * l0 * l0)
        assert max(products) - min(products) <= 1e-12 * products[0]

    def test_doubling_separation_quarters_t_d(self):
        a = collective_rate(config(L0=10.0, N=10**6))
        b = collective_rate(config(L0=20.0, N=10**6))
        assert a.t_D / b.t_D == pytest.approx(4.0, rel=1e-12)

    def test_macroscopic_hierarchy(self):
        rate = collective_rate(config())
        assert rate.t_D < rate.t_R / 10.0

    @pytest.mark.parametrize(
        "hbar", [1e-170, 1e-155, 1e160], ids=["2hbar2-is-zero", "2hbar2-is-subnormal", "2hbar2-overflows"]
    )
    def test_rate_where_2_hbar_squared_leaves_the_normal_range(self, hbar):
        # 2 hbar^2 underflows or overflows; Delta = L0 / hbar = 1 keeps gamma_tilde = Delta^2 gamma0 = gamma0
        cfg = config(hbar=hbar, L0=hbar, N=50)
        rate = collective_rate(cfg)
        assert rate.gamma_tilde == 0.1
        assert rate.t_D == hbar / 0.1 and rate.t_R == hbar / 0.1
        # the partition threshold is the same number
        assert collective_rate_rule(cfg.m, cfg.omega, cfg.L0, cfg.hbar)((cfg.gamma0,)) == rate.gamma_tilde

    def test_ordinary_rate_keeps_its_order_of_operations(self):
        # (m omega / 2 hbar^2) L0^2 gamma0, which td_vs_L0.csv has always printed
        cfg = config(L0=17.3, gamma0=0.37, m=1.3, omega=2.9, hbar=1.7)
        want = (1.3 * 2.9 / (2.0 * 1.7 * 1.7)) * 17.3 * 17.3 * 0.37
        assert want != cfg.delta * cfg.delta * 0.37  # the two orders differ in the last bit here
        assert collective_rate(cfg).gamma_tilde == want

    def test_rate_where_m_omega_underflows(self):
        # Delta = sqrt(1/2), so gamma_tilde = gamma0 / 2 and t_D = 2 hbar / gamma0; m omega reads 0.0
        rate = collective_rate(config(m=1e-200, omega=1e-200, hbar=1e-200, L0=1.0, gamma0=1.0, N=50))
        assert rate.gamma_tilde == pytest.approx(0.5, rel=1e-15)
        assert rate.t_D == pytest.approx(2e-200, rel=1e-15)

    @pytest.mark.parametrize("hbar, L0, gamma0", [(1e-10, 1e-168, 1.0), (1.0, 1.7e-155, 100.0)],
                             ids=["gamma_tilde-subnormal", "Delta2-subnormal"])
    def test_t_d_keeps_its_digits_where_a_factor_is_subnormal(self, hbar, L0, gamma0):
        # Delta = L0 / hbar; hbar / gamma_tilde would carry the subnormal's lost digits into t_D
        rate = collective_rate(config(L0=L0, gamma0=gamma0, hbar=hbar, N=50))
        delta = L0 * math.sqrt(1.0) / hbar
        assert rate.gamma_tilde == delta * delta * gamma0  # its bits do not move
        with mpmath.workprec(256):
            exact = mpmath.mpf(hbar) / ((mpmath.mpf(L0) / mpmath.mpf(hbar)) ** 2 * gamma0)
            assert abs(rate.t_D - exact) <= 10 * 2.0**-53 * exact

    def test_not_macroscopic_is_reported_not_warned(self):
        for cfg in (config(L0=2.0, N=400), config(L0=2.0, N=50)):
            assert macroscopicity_check(cfg).passed is False
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                collective_rate(cfg)

    @pytest.mark.parametrize(
        "cfg, line",
        [
            # gamma_tilde = Delta^2 gamma0 overflows, so t_D = hbar / inf would read 0
            (config(L0=400.0, gamma0=1e306), "gamma_tilde = inf gives t_D = 0.0"),
            # gamma_tilde underflows to 0, where hbar / gamma_tilde raised ZeroDivisionError
            (config(L0=1e-200, gamma0=1e-300), "gamma_tilde = 0.0 gives t_D = inf"),
            # hbar / gamma_tilde underflows
            (config(L0=1.0, gamma0=1.0, hbar=1e-150), "gamma_tilde = 9.999999999999999e+299 gives t_D = 0.0"),
        ],
        ids=["rate-overflows", "rate-underflows", "t_D-underflows"],
    )
    def test_rate_outside_the_float_range_is_rejected(self, cfg, line):
        with pytest.raises(ValidationError) as info:
            collective_rate(cfg)
        assert str(info.value) == f"{line}, outside the float range"


class TestFockDensity:
    def test_pure_branch_is_projector(self):
        cfg = config(L0=4.0, N=63, a=1.0, b=0.0)
        rho = build_density_matrix(cfg, cfg.z0(), 0.0)
        assert rho.entries[0, 0] == pytest.approx(1.0, rel=1e-14)
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def state_norm(cfg, z0, t):
        """Length of the unnormalized state, read off rho: rho_00 = |a + b v_0|^2 / norm^2."""
        rho = build_density_matrix(cfg, z0, t).entries
        assert np.max(np.abs(rho - oracle_density(cfg, z0, t))) <= FOCK_ORACLE_TOL
        return abs(oracle_state(cfg, z0, t)[0]) / math.sqrt(rho[0, 0].real)

    def test_initial_norm(self):
        cfg = config(L0=4.0, N=63, a=0.6, b=0.8)
        s_n = float(cfg.state2().fock_vector()[0])
        assert self.state_norm(cfg, cfg.z0(), 0.0) == pytest.approx(math.sqrt(1.0 + 2 * 0.6 * 0.8 * s_n), rel=1e-12)

    def test_norm_decays(self):
        # the displaced branch damps toward its n = 0 component, so the state loses length
        cfg = config(L0=4.0, N=63)
        early = self.state_norm(cfg, cfg.z0(), 0.0)
        late = self.state_norm(cfg, cfg.z0(), 40.0 / cfg.gamma0)
        assert late < early
        assert late == pytest.approx(np.linalg.norm(oracle_state(cfg, cfg.z0(), 40.0 / cfg.gamma0)), rel=1e-12)

    def test_positive_unit_spectrum(self):
        cfg = config(L0=4.0, N=63)
        for t in (0.0, 1.3, 9.0):
            rho = build_density_matrix(cfg, cfg.z0(), t)
            eigs = np.linalg.eigvalsh(rho.entries)
            assert eigs[0] >= -1e-12
            assert np.sum(eigs) == pytest.approx(1.0, abs=1e-12)

    def test_coherence_matches_closed_form(self):
        # frame matrix element of the full Fock construction against the
        # two-level closed form; the static overlap floor limits agreement
        cfg = config(L0=8.0, N=511)
        z0 = cfg.z0()
        t = 1.3
        rho = build_density_matrix(cfg, z0, t).entries
        assert np.max(np.abs(rho - oracle_density(cfg, z0, t))) <= FOCK_ORACLE_TOL
        rho_unnormalized = np.linalg.norm(oracle_state(cfg, z0, t)) ** 2 * rho
        v2 = cfg.state2().fock_vector().astype(complex)
        e0 = np.zeros(cfg.N + 1, dtype=complex)
        e0[0] = 1.0
        bra_ket = complex(v2.conj() @ rho_unnormalized @ e0)
        nd = nd_block(cfg, z0, t)
        assert abs(bra_ket - nd.rho21) < 1e-10


class TestFramePicture:
    @pytest.mark.parametrize(
        "reader",
        [
            lambda cfg, z0: frame_projection(cfg, z0, 1.0, closed_form=True),
            lambda cfg, z0: frame_projection(cfg, z0, 1.0, closed_form=False),
            lambda cfg, z0: nd_block(cfg, z0, 1.0),
            lambda cfg, z0: nd_decay(cfg, z0, [0.0, 1.0]),
            lambda cfg, z0: build_density_matrix(cfg, z0, 1.0),
        ],
        ids=["frame_projection-closed", "frame_projection", "nd_block", "nd_decay", "build_density_matrix"],
    )
    def test_growth_pole_rejected(self, reader):
        with pytest.raises(ValidationError) as info:
            reader(config(), 0.1j)
        assert str(info.value) == "Im z0 = 0.1 must be <= 0 (decaying pole)"

    def test_f1_static(self):
        cfg = config(L0=6.0, N=255)
        f1_a, _ = frame_pair(cfg, cfg.z0(), 0.0)
        f1_b, _ = frame_pair(cfg, cfg.z0(), 7.0)
        assert f1_a == f1_b

    def test_closed_and_exact_agree_when_converged(self):
        cfg = config(L0=8.0, N=511)
        for t in (0.0, 0.4, 2.0):
            closed = frame_pair(cfg, cfg.z0(), t, closed_form=True)
            exact = frame_pair(cfg, cfg.z0(), t, closed_form=False)
            assert abs(closed[0] - exact[0]) < 1e-12
            assert abs(closed[1] - exact[1]) < 1e-12

    def test_matches_fock_inner_products(self):
        cfg = config(L0=6.0, N=255, a=0.6, b=0.8)
        z0 = cfg.z0()
        t = 0.9
        f1, f2 = frame_pair(cfg, z0, t, closed_form=False)
        state = oracle_state(cfg, z0, t)
        v2 = cfg.state2().fock_vector().astype(complex)
        assert complex(state[0]) == pytest.approx(f1, rel=1e-12)
        assert complex(v2.conj() @ state) == pytest.approx(f2, rel=1e-12)

    def test_projection_is_pure(self):
        cfg = config(L0=6.0, N=255)
        rho = frame_projection(cfg, cfg.z0(), 1.1)
        eigs = np.linalg.eigvalsh(rho.entries)
        assert eigs[0] >= -1e-12
        assert eigs[1] == pytest.approx(1.0, abs=1e-12)  # rank one by construction


class TestTowerOracle:
    """The truncated ladder sum against a 40-digit oracle.

    f2 = a N2 + b N2^2 sum_n Delta^2n / n! x^n with x = exp(-i z0 t / hbar),
    over N <= 400, Delta <= 23, hbar in [0.5, 2], gamma0 in [0.05, 2],
    |omega'| in [0.1, 5] and t <= 40 hbar / gamma0.  The tolerance is 1e-12
    of |a| N2 + |b| sum |q_n x^n|, the size of what is summed: exp(log N2)
    alone carries a relative error of about |log N2| ulps.
    """

    @staticmethod
    def cases():
        rng = np.random.default_rng(31)
        for _ in range(40):
            hbar = float(rng.uniform(0.5, 2.0))
            gamma0 = float(rng.uniform(0.05, 2.0))
            weight = float(rng.uniform(0.05, 0.95))
            phase_a, phase_b = rng.uniform(0.0, 2.0 * math.pi, 2)
            cfg = config(
                L0=float(rng.uniform(0.0, 23.0)) * hbar,  # Delta = L0 / hbar here
                gamma0=gamma0,
                N=int(rng.integers(1, 401)),
                a=cmath.rect(math.sqrt(weight), phase_a),
                b=cmath.rect(math.sqrt(1.0 - weight), phase_b),
                hbar=hbar,
            )
            omega_prime = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 5.0))
            yield cfg, cfg.z0(omega_prime), float(rng.uniform(0.0, 40.0 * hbar / gamma0))

    @staticmethod
    def oracle(cfg, z0, t):
        """(w, sum |q_n x^n|, N2) at 40 digits."""
        with mpmath.workdps(40):
            d2 = mpmath.mpf(cfg.delta) ** 2
            terms = [d2**n / mpmath.factorial(n) for n in range(cfg.N + 1)]
            n2 = 1 / mpmath.sqrt(mpmath.fsum(terms))
            x = mpmath.exp(-1j * mpmath.mpc(z0) * t / cfg.hbar)
            qx = [n2**2 * c * x**n for n, c in enumerate(terms)]
            return mpmath.fsum(qx), mpmath.fsum(abs(v) for v in qx), n2

    def test_truncated_f2(self):
        for cfg, z0, t in self.cases():
            w, size, n2 = self.oracle(cfg, z0, t)
            _, f2 = frame_pair(cfg, z0, t, closed_form=False)
            want = complex(cfg.a * n2 + cfg.b * w)
            tol = 1e-12 * float(abs(cfg.a) * n2 + abs(cfg.b) * size)
            assert abs(f2 - want) <= tol, (cfg, z0, t)

    def test_ladder_sum_over_the_fock_vector(self):
        # w = sum_n v_n^2 x^n over all N + 1 ladder phases, the Fock density's ladder
        for cfg, z0, t in self.cases():
            w, size, _ = self.oracle(cfg, z0, t)
            v2 = cfg.state2().fock_vector()
            got = complex(np.sum(v2 * v2 * _ladder_phases(_fock_table(cfg.alpha2, cfg.N).ladder, z0, t, cfg.hbar)))
            assert abs(got - complex(w)) <= 1e-12 * float(size), (cfg, z0, t)


def all_fock_weights(cfg):
    """Reference: q_n = |<n|alpha2>|^2 for all N + 1 weights, by the table's own formula."""
    table = _fock_table(cfg.alpha2, cfg.N)
    return np.exp(2.0 * (table.log_weights + table.log_norm))


def head_window(cfg):
    """Reference: how many leading Fock weights are left once the trailing weights that sum
    below EPS of all of them are dropped, from the tail sums of ``all_fock_weights``."""
    q = all_fock_weights(cfg)
    tails = np.cumsum(q[::-1])  # weight summed from the top; the zero weights past the live ones add 0
    return q.size - int(np.count_nonzero(tails < EPS * tails[-1]))


def full_sum_projection(cfg, z0, t, size=None):
    """Reference: the truncated frame projection with w summed over the first ``size`` Fock weights,
    all N + 1 by default."""
    s = math.exp(cfg.state2().log_norm)
    phases = _ladder_phases(_fock_table(cfg.alpha2, cfg.N).ladder[:size], z0, t, cfg.hbar)
    w = complex(all_fock_weights(cfg)[:size] @ phases)
    f = np.array([cfg.a + cfg.b * s, cfg.a * s + cfg.b * w], dtype=complex)
    mat = np.outer(f, f.conj())
    return DensityMatrix(mat / float(mat[0, 0].real + mat[1, 1].real)).entries


def gamma(k):
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def assert_within_the_window_bound(got, cfg, z0, t):
    """frame_projection's rho at t >= 0 against the full sum's, within the stated bound.

    Both w lie within gamma_(hi+1) A of the exact sum over the live weights on the same phases,
    A = sum q_n |phase_n| (the head window's, by its dropped tail of at most 2^-60 A), so they differ
    by at most 2 gamma_(hi+1) A, and |b| times that in f2.  A change e in f moves f / |f| by at most
    2 |e| / |f| and each entry of rho by twice that; each side's rounding adds at most gamma_8 + 2^-110
    (``_formed_density``'s bound for d = 2; the reference takes fewer roundings).
    """
    q = all_fock_weights(cfg)
    area = float(np.abs(q) @ np.abs(_ladder_phases(_fock_table(cfg.alpha2, cfg.N).ladder, z0, t, cfg.hbar)))
    hi = int(np.flatnonzero(q)[-1])
    dw = 2.0 * gamma(hi + 1) * area * (1.0 + gamma(q.size))  # A itself rounded, within gamma_(N+1)
    f1, f2 = frame_pair(cfg, z0, t, closed_form=False)
    tol = 4.0 * abs(cfg.b) * dw / math.hypot(abs(f1), abs(f2)) + 2.0 * (gamma(8) + 2.0**-110)
    assert np.max(np.abs(got - full_sum_projection(cfg, z0, t))) <= tol, (z0, t)


class TestLiveFrameSum:
    """The truncated frame sum skips the trailing Fock weights that underflow to 0, and the trailing
    live ones that sum below 2^-60 of all of them (the head window)."""

    # (L0, gamma0, N): the N = 675 and N = 1000 frame_convergence rungs of benchmark seed 1,
    # whose weights past n = 376 and n = 508 are 0, and Delta^2 = 900, whose leading weights are 0 too
    CONFIGS = [(4.523577032591694, 0.2687303789149563, 675),
               (6.909361516294221, 0.10149755922438554, 1000), (30.0, 0.01, 3000)]

    @pytest.mark.parametrize("L0, gamma0, N", CONFIGS + [(6.0, 0.1, 255), (1e-200, 0.1, 40)])
    def test_live_weights_are_the_prefix_to_the_last_nonzero_weight(self, L0, gamma0, N):
        cfg = config(L0=L0, gamma0=gamma0, N=N)
        q, live = all_fock_weights(cfg), _fock_table(cfg.alpha2, cfg.N).q_live
        assert live.dtype == complex and not live.flags.writeable
        assert live[-1] != 0.0 and not np.any(q[live.size :])
        assert live.tobytes() == q[: live.size].astype(complex).tobytes()
        if L0 == 30.0:
            assert q[0] == 0.0  # the leading zeros stay in place
        if (L0, gamma0, N) in self.CONFIGS:
            assert live.size < q.size  # a dead tail to cut

    @pytest.mark.parametrize("L0, gamma0, N", CONFIGS)
    def test_projection_equals_the_full_sum(self, L0, gamma0, N):
        # the bits of the plain formula over the head window; the full sum within the stated bound
        cfg = config(L0=L0, gamma0=gamma0, N=N)
        head = head_window(cfg)
        for z0 in (cfg.z0(), cfg.z0(0.7)):
            for t in np.linspace(0.0, 6.0 / gamma0, 81).tolist():
                got = frame_projection(cfg, z0, t, closed_form=False).entries
                assert got.tobytes() == full_sum_projection(cfg, z0, t, head).tobytes(), (z0, t)
                assert_within_the_window_bound(got, cfg, z0, t)

    def test_negative_time_is_refused(self):
        # before t = 0, |x| > 1 weights the dropped tail up and the head window's bound fails: no form serves it
        cfg = config(L0=6.9, gamma0=0.2, N=1000)
        for closed_form in (True, False):
            with pytest.raises(ValidationError) as err:
                frame_projection(cfg, cfg.z0(), -5.0, closed_form=closed_form)
            assert str(err.value) == "t: must be >= 0, got -5.0"


def plain_formula_projection(cfg, z0, t):
    """Reference: frame_projection(closed_form=False) at t >= 0 by its plain formula, sharing no fast path.

    The weights of ``head_window``, one-pass ladder phases (c = -i z0 t / hbar formed once), the
    log norm through a QuasiCoherentState, np.outer, the trace from two indexed entries and the
    (T, d, d) stack check.
    """
    q = all_fock_weights(cfg)[: head_window(cfg)].astype(complex)
    w = complex(q @ np.exp(np.arange(q.size) * (-1j * complex(z0) * t / cfg.hbar)))
    s = math.exp(cfg.state2().log_norm)
    f = np.array([cfg.a + cfg.b * s, cfg.a * s + cfg.b * w], dtype=complex)
    mat = np.outer(f, f.conj())
    return _checked_entries((mat / float(mat[0, 0].real + mat[1, 1].real))[None], 3, unit_trace=True)[0]


class TestFrameProjectionBits:
    """frame_projection keeps its bits on the five frame_convergence rungs of benchmark seed 101."""

    RUNGS = [(4.786104290810715, 0.1959739668531147, 200), (6.480614473176781, 0.269246163824954, 300),
             (5.280865732464273, 0.21487770849824317, 450), (7.5308890050360935, 0.08219132052424301, 675),
             (6.989853241381825, 0.1854404473928758, 1000)]

    @pytest.mark.parametrize("L0, gamma0, N", RUNGS)
    def test_grid_bits(self, L0, gamma0, N):
        cfg = config(L0=L0, gamma0=gamma0, N=N)
        for t in np.linspace(0.0, 6.0 * cfg.hbar / gamma0, 81).tolist():
            got = frame_projection(cfg, cfg.z0(), t, closed_form=False).entries
            assert got.tobytes() == plain_formula_projection(cfg, cfg.z0(), t).tobytes(), t
            assert_within_the_window_bound(got, cfg, cfg.z0(), t)


class TestFormedStates:
    """frame_projection and build_density_matrix return through numerics._formed_density."""

    FRAME = config(L0=6.0, gamma0=0.2, N=200)
    FOCK = config(L0=4.0, N=48)
    BUILDS = {
        "frame-closed": lambda cfg, z0, t: frame_projection(cfg, z0, t),
        "frame-truncated": lambda cfg, z0, t: frame_projection(cfg, z0, t, closed_form=False),
        "fock": build_density_matrix,
    }

    @pytest.mark.parametrize("name", BUILDS)
    def test_no_hermitian_check_on_the_way(self, monkeypatch, name):
        def refuse(a):
            raise AssertionError("hermitian_average called on a formed state")

        monkeypatch.setattr("decopoles.numerics.hermitian_average", refuse)
        cfg = self.FOCK if name == "fock" else self.FRAME
        rho = self.BUILDS[name](cfg, cfg.z0(0.3), 2.0)
        assert type(rho) is DensityMatrix and not rho.entries.flags.writeable
        assert np.array_equal(rho.entries, rho.entries.conj().T)

    @pytest.mark.parametrize("name", BUILDS)
    def test_no_errstate_block_for_a_state_below_the_gate(self, monkeypatch, name):
        # every part of these states is below 2^511, so no product can overflow and no guard is paid for
        def refuse(**kwargs):
            raise AssertionError("np.errstate entered for a state below 2^511")

        monkeypatch.setattr(np, "errstate", refuse)
        cfg = self.FOCK if name == "fock" else self.FRAME
        assert type(self.BUILDS[name](cfg, cfg.z0(0.3), 2.0)) is DensityMatrix

    @pytest.mark.parametrize("name", BUILDS)
    @pytest.mark.parametrize("t", [-13.1, -14.0, -1e3, -1e308])
    def test_backward_state_is_refused(self, name, t):
        # before t = 0 the displaced branch grows: back to t = -14 |w| reaches 1e148-1e241, past |w|^2's
        # range; at t = -1e3 the Fock amplitudes grow as e^(100 n), and at -1e3 (frame) and -1e308 (Fock)
        # the ladder phases overflow to NaN or Inf; every builder refuses the time, in the number rule's form
        cfg = self.FOCK if name == "fock" else self.FRAME
        with pytest.raises(ValidationError) as err:
            self.BUILDS[name](cfg, cfg.z0(), t)
        assert str(err.value) == f"t: must be >= 0, got {t!r}"

    def test_far_backward_frame_state_is_refused(self):
        # ROADMAP's F6 reproducer: L0 = 6, gamma0 = 0.2, a = b = 1/sqrt(2), N = 200, z0 = -0.2i, t = -20, in
        # both forms; w = exp(-Delta^2 (1 - exp(-i z0 t / hbar))) overflowed in exp there with a numpy warning
        cfg = self.FRAME
        for closed_form in (True, False):
            with pytest.raises(ValidationError) as err:
                frame_projection(cfg, cfg.z0(), -20.0, closed_form=closed_form)
            assert str(err.value) == "t: must be >= 0, got -20.0"

    @pytest.mark.parametrize("L0", [2000.0, 2300.0, 2371.0, 2400.0])
    def test_subnormal_squared_norm_gives_the_oracle_state(self, L0):
        # the n = 0 weight alone survives, near 1e-162: its square is subnormal (past L0 = 2399 it
        # is 0), so an unscaled norm is rounded far off (or reads 0) and rho's trace misses 1
        cfg = OmnesConfig(1.0, 2.0, 1.0, 1.0, L0, 0.0, 1.0, 60)
        u = oracle_state(cfg, cfg.z0(), 20.0)
        u = u / math.hypot(*u.real, *u.imag)  # math.hypot scales its arguments, so no square underflows
        rho = build_density_matrix(cfg, cfg.z0(), 20.0).entries
        assert np.max(np.abs(rho - np.outer(u, u.conj()))) <= FOCK_ORACLE_TOL

    def test_underflowing_fock_weights_give_the_oracle_state(self):
        # past L0 = 1.1e6 even the n = 0 weight underflows: in linear scale the state read zero where
        # the exact one is nearly |0>, since the weights grow as alpha^n / sqrt(n!) but the phases damp as e^(-20 n)
        cfg = OmnesConfig(1.0, 2.0, 1.0, 1.0, 1e7, 0.0, 1.0, 60)
        with mpmath.workprec(160):
            x = mpmath.mpc(0, -1) * mpmath.mpc(cfg.z0()) * 20.0 / cfg.hbar
            u = [mpmath.mpf(cfg.alpha2) ** n / mpmath.sqrt(mpmath.factorial(n)) * mpmath.exp(n * x)
                 for n in range(cfg.N + 1)]
            tr = mpmath.fsum(abs(ui) ** 2 for ui in u)
            want = np.array([[complex(ui * mpmath.conj(uj) / tr) for uj in u] for ui in u])
        rho = build_density_matrix(cfg, cfg.z0(), 20.0).entries
        assert np.max(np.abs(rho - want)) <= FOCK_ORACLE_TOL

    def test_vacuum_far_below_the_float_range(self):
        # a = 0 and Delta = 1e20: at t = 1e3 every amplitude's log is below -2600, so e^-shift alone would
        # overflow; the state is |0> to within e^-954 per level
        cfg = OmnesConfig(1.0, 2.0, 1.0, 1.0, 1e20, 0.0, 1.0, 60)
        rho = build_density_matrix(cfg, cfg.z0(), 1e3).entries
        assert rho[0, 0] == 1.0 and not np.any(rho.ravel()[1:])

    @pytest.mark.parametrize(
        "omega_prime, hbar", [(0.5, 0.25), (0.0, 0.25), (0.5, 1.0)], ids=["reproducer", "pure-damping", "finite-c"]
    )
    def test_overflowing_ladder_exponent_leaves_phase_zero(self, monkeypatch, omega_prime, hbar):
        # at t = 1e308 and hbar = 0.25, c = -i z0 t / hbar overflows: (n + 0j) c once made every
        # phase NaN, where the exact phases are 1 at n = 0 and 0 past it; at hbar = 1, c is finite but
        # n c overflows from n = 2, and the product once returned the state with an overflow warning
        cfg = OmnesConfig(1.0, 2.0, hbar, 1.0, 1.5, math.sqrt(0.5), math.sqrt(0.5), 60)
        z0 = cfg.z0(omega_prime)
        got = [build(cfg, z0, 1e308).entries for build in (self.BUILDS["fock"], self.BUILDS["frame-truncated"])]

        def exponent_zero(ladder, z0, t, hbar):  # exponents (0, -inf, -inf, ...): phases (1, 0, 0, ...)
            exponents = np.full(ladder.size, -np.inf, dtype=complex)
            exponents[0] = 0.0
            return exponents

        def unit_phase_zero(ladder, z0, t, hbar):
            return np.exp(exponent_zero(ladder, z0, t, hbar))

        monkeypatch.setattr("decopoles.omnes._ladder_exponents", exponent_zero)
        monkeypatch.setattr("decopoles.omnes._ladder_phases", unit_phase_zero)
        want = [build(cfg, z0, 1e308).entries for build in (self.BUILDS["fock"], self.BUILDS["frame-truncated"])]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("closed_form, N", [(True, 60), (False, 1000)], ids=["closed", "truncated"])
    def test_frame_weight_below_2_to_the_minus_1021(self, closed_form, N):
        # from t = 0.7 on, f1 and f2 are near 1e-157: |f1|^2 + |f2|^2 < 2^-1021, and 1 / tr would overflow
        a = 1e-157
        cfg = OmnesConfig(1.0, 1.0, 1.0, 1.0, 38.03, a, math.sqrt(1.0 - a * a), N)
        tiny = 0
        for t in np.linspace(0.5, 0.9, 9).tolist():
            f1, f2 = frame_pair(cfg, cfg.z0(), t, closed_form)
            tiny += abs(f1) ** 2 + abs(f2) ** 2 < 2.0**-1021
            with mpmath.workprec(160):
                f = [mpmath.mpc(f1), mpmath.mpc(f2)]
                tr = abs(f[0]) ** 2 + abs(f[1]) ** 2
                want = [[complex(fi * mpmath.conj(fj) / tr) for fj in f] for fi in f]
            got = frame_projection(cfg, cfg.z0(), t, closed_form=closed_form).entries
            assert np.max(np.abs(got - np.array(want))) <= 1e-15, t
        assert tiny == 5


class TestUnderflowingDisplacement:
    """L0 = 1e-200 is valid, but Delta^2 underflows to 0: the tower is the vacuum."""

    cfg = OmnesConfig(1.0, 2.0, 1.0, 0.1, 1e-200, 0.6, 0.8, 40)

    def test_truncated_frame_equals_closed_form(self):
        z0 = self.cfg.z0()
        assert frame_pair(self.cfg, z0, 1.0, closed_form=False) == frame_pair(self.cfg, z0, 1.0)
        exact = frame_projection(self.cfg, z0, 1.0, closed_form=False).entries
        assert np.array_equal(exact, frame_projection(self.cfg, z0, 1.0).entries)

    def test_frame_catalogue_matrix(self):
        # only q_0 is nonzero (hi = 0), so every power k >= 1 is 0: a constant matrix, no mode
        cm = frame_catalogue_matrix(self.cfg)
        assert cm.gammas == () and cm.amplitudes.shape == (0, 2, 2)
        assert np.array_equal(cm.evaluate(1.0), np.full((2, 2), 1.4**2))
        assert cm.dropped_envelope(np.array([0.0, 1.0]), range(0)).tobytes() == np.zeros(2).tobytes()
        with pytest.raises(ValidationError, match="no poles to partition"):
            partition_report(cm.gammas, cm.hbar)

    def test_frame_catalogue_of_a_vanishing_f2(self):
        # a = -b: f2 = a s + b q_0 is exactly 0, so top and c hold no nonzero entry at all
        cfg = OmnesConfig(1.0, 2.0, 1.0, 0.1, 1e-200, ROOT_HALF, -ROOT_HALF, 40)
        cm = frame_catalogue_matrix(cfg)
        assert cm.gammas == () and not np.any(cm.equilibrium)
        assert not np.any(cm.evaluate(np.array([0.0, 2.0])))

    def test_fock_overlap(self):
        s = QuasiCoherentState(1e-200, 10)
        assert fock_overlap(s, s) == 1.0


EPS = 2.0**-60  # frame_catalogue_matrix's truncation, a share of ||rho(0)||_F


class TestFrameCatalogue:
    def test_tower_structure(self):
        # the live weights run to hi = 255 and 457, but both windows end at power 101 and both
        # mode tails at 157, where the tail of Frobenius norms drops below 2^-60 ||rho(0)||_F: one catalogue
        cms = []
        for N, hi in [(255, 255), (1000, 457)]:
            cfg = config(L0=6.0, N=N)
            cm = frame_catalogue_matrix(cfg)
            assert _fock_table(cfg.alpha2, N).q_live.size == hi + 1
            assert len(cm.poles) == 157
            assert cm.gammas[0] == pytest.approx(cfg.gamma0, rel=1e-15)
            assert cm.gammas[-1] == pytest.approx(157 * cfg.gamma0, rel=1e-15)
            assert np.any(cm.amplitudes[-1])  # the last mode is live
            # cross entries exist only up to the window's last weight, power 101
            assert np.any(cm.amplitudes[100][0, 1]) and not np.any(cm.amplitudes[101:, 0, 1])
            assert 0.0 < cm.truncation < 2.0 * EPS * rho0_norm(*frame_f2(cfg))
            cms.append(cm)
        for name in ("gammas", "truncation"):
            assert getattr(cms[0], name) == getattr(cms[1], name)
        for name in ("equilibrium", "amplitudes"):
            assert getattr(cms[0], name).tobytes() == getattr(cms[1], name).tobytes()

    def test_cut_scale_holds_in_the_displaced_branch(self):
        # f1 = a + b s and f2_0 = a s + b q_0 both vanish as a -> 0, so a cut at eps (|f1|^2 + |f2_0|^2)
        # kept 361 and 477 modes at a = 1e-3 and 0 where |a|^2 = 1/2 keeps 336; eps ||rho(0)||_F does not move
        counts = [len(frame_catalogue_matrix(config(N=400, a=a, b=math.sqrt(1.0 - a * a))).poles)
                  for a in (ROOT_HALF, 1e-3, 0.0)]
        assert all(abs(n - counts[0]) <= 0.01 * counts[0] for n in counts[1:]), counts

    def test_reproduces_unnormalized_frame_matrix(self):
        cfg = config(L0=6.0, N=255)
        cm = frame_catalogue_matrix(cfg)
        for t in (0.0, 0.5, 3.0, 30.0):
            f1, f2 = frame_pair(cfg, cfg.z0(), t, closed_form=False)
            direct = np.outer(np.array([f1, f2]), np.array([f1, f2]).conj())
            assert np.max(np.abs(cm.evaluate(t) - direct)) < 1e-12

    def test_collective_partition(self):
        cfg = config(L0=6.0, N=255)
        cm = frame_catalogue_matrix(cfg)
        rule = collective_rate_rule(cfg.m, cfg.omega, cfg.L0, cfg.hbar)
        rep = partition_report(cm.gammas, cm.hbar, rule=rule)
        assert rep.t_D == pytest.approx(1.0 / 3.6, rel=1e-12)
        assert len(rep.p_relevant) == 36  # poles at k gamma0 with k <= Delta^2


def frame_f2(cfg, weights=None):
    """(f1, f2): the frame's constant projection and the powers of f2 over the Fock ``weights``
    (the live ones by default)."""
    s = math.exp(cfg.state2().log_norm)
    f2 = cfg.b * (_fock_table(cfg.alpha2, cfg.N).q_live if weights is None else weights.astype(complex))
    f2[0] += cfg.a * s
    return cfg.a + cfg.b * s, f2


def rho0_norm(f1, f2):
    """S = ||rho(0)||_F = |f1|^2 + |f2(1)|^2, f2(1) = sum_j f2_j: the scale of the frame catalogue's truncation."""
    return abs(f1) ** 2 + abs(complex(f2.sum())) ** 2


def frame_tower(f1, f2, lo=0):
    """Reference: (equilibrium, amplitude per power k >= 1) of the frame matrix whose f2 holds the
    weights ``f2`` from power ``lo`` on and 0 at every other power."""
    hi = lo + f2.size
    c = np.convolve(f2.real, f2.real) + np.convolve(f2.imag, f2.imag) if f2.size else f2.real  # Re(f2 conj(f2))
    top = f1 * f2.conj()
    square = np.zeros(max(2 * hi - 1, 1))
    square[2 * lo : 2 * lo + c.size] = c
    top0 = top[0] if lo == 0 and top.size else 0j
    equilibrium = np.array([[abs(f1) ** 2, top0], [top0.conjugate(), square[0]]])
    amps = np.zeros((square.size - 1, 2, 2), dtype=complex)
    rows = slice(max(lo - 1, 0), hi - 1)  # powers max(lo, 1) .. hi - 1 at rows one lower
    amps[rows, 0, 1] = top[rows.start + 1 - lo :]
    amps[rows, 1, 0] = top[rows.start + 1 - lo :].conj()
    amps[:, 1, 1] = square[1:]
    return equilibrium, amps


def frame_truncation(cfg):
    """Reference: (lo, hi, n, tau) of ``frame_catalogue_matrix``: the window f2[lo:hi], the modes kept
    and the truncation term, by the rule its docstring states, in Python loops over the stored f2."""
    f1, f2 = frame_f2(cfg)
    size = [abs(v) for v in f2.tolist()]
    reach = 2.0 * math.fsum(size) + math.sqrt(2.0) * abs(f1)
    floor = EPS * rho0_norm(f1, f2)
    limit = 0.5 * floor / reach if reach > 0.0 else 0.0
    lo, low = 0, 0.0
    while lo < len(size) and low + size[lo] <= limit:
        low, lo = low + size[lo], lo + 1
    hi, high = len(size), 0.0
    while hi > 0 and high + size[hi - 1] <= limit:
        high, hi = high + size[hi - 1], hi - 1
    if lo >= hi:  # every weight dropped
        lo, hi, low, high = 0, 0, math.fsum(size), 0.0
    _, amps = frame_tower(f1, f2[lo:hi], lo)
    norms = [math.hypot(a[1, 1].real, math.sqrt(2.0) * abs(a[0, 1])) for a in amps]
    n, tail = len(norms), 0.0
    while n and not (tail + norms[n - 1] >= floor and tail + norms[n - 1] > 0.0):
        tail, n = tail + norms[n - 1], n - 1
    return lo, hi, n, (low + high) * reach + tail


def pole_list_frame_catalogue(cfg):
    """Reference: the frame catalogue built through ``Pole`` objects, over the window and up to
    the last mode that ``frame_truncation`` keeps."""
    lo, hi, n, tau = frame_truncation(cfg)
    f1, f2 = frame_f2(cfg)
    equilibrium, amps = frame_tower(f1, f2[lo:hi], lo)
    poles = [Pole(0.0, kk * cfg.gamma0) for kk in range(1, n + 1)]
    return CatalogueMatrix(poles, equilibrium, amps[:n], cfg.hbar), tau


class TestFrameCatalogueAgainstPoleList:
    """The width-array frame catalogue equals the one built from ``Pole`` objects by the stated rule."""

    @pytest.mark.parametrize("gamma0, N, hbar", [(0.1, 200, 1.0), (0.37, 255, 1.3), (0.0123, 1000, 0.7)])
    def test_same_catalogue(self, gamma0, N, hbar):
        cfg = config(L0=6.0, gamma0=gamma0, N=N, hbar=hbar)
        got, (want, tau) = frame_catalogue_matrix(cfg), pole_list_frame_catalogue(cfg)
        assert got.gammas == want.gammas
        assert got.poles == want.poles
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert got.equilibrium.tobytes() == want.equilibrium.tobytes()
        assert got.hbar == want.hbar
        assert got.truncation == pytest.approx(tau, rel=1e-13, abs=0.0)  # the reference sums with fsum
        assert 0.0 < tau < 2.0 * EPS * rho0_norm(*frame_f2(cfg))
        # the 2N powers over all N + 1 weights: the kept ones differ by the convolution's grouping
        # and the window's dropped weight, and the Frobenius norms past the last kept mode sum within tau
        equilibrium, full = frame_tower(*frame_f2(cfg, all_fock_weights(cfg)))
        n = len(got.gammas)
        assert full.shape[0] == 2 * N
        assert equilibrium.tobytes() == want.equilibrium.tobytes()
        assert np.max(np.abs(full[:n] - got.amplitudes)) <= 1e-15 * np.max(np.abs(full)) + got.truncation
        assert 0.0 < math.fsum(np.linalg.norm(full[n:], axis=(1, 2)).tolist()) <= got.truncation


class TestFrameWorkOnce:
    """The time-independent pieces of the frame picture are computed once per call."""

    @pytest.fixture
    def table_calls(self, monkeypatch):
        calls = []

        def counted(alpha, N):
            calls.append((alpha, N))
            return _fock_table(alpha, N)

        monkeypatch.setattr("decopoles.omnes._fock_table", counted)
        return calls

    def test_frame_projection_truncated(self, table_calls):
        cfg = config(L0=6.0, N=255)
        frame_projection(cfg, cfg.z0(), 0.7, closed_form=False)
        assert table_calls == [(cfg.alpha2, cfg.N)]  # one read of the table per point

    def test_frame_catalogue_matrix(self, table_calls):
        cfg = config(L0=6.0, N=255)
        frame_catalogue_matrix(cfg)
        assert table_calls == [(cfg.alpha2, cfg.N)]

    @pytest.mark.parametrize("t", [0.0, 0.3, 2.5, 40.0])
    def test_closed_form_self_overlap_bits(self, t):
        # every closed-form user evaluates exactly exp(-D^2 (1 - exp(-i z0 t / hbar)))
        cfg = config(L0=6.0, N=255, a=0.6, b=0.8)
        z0 = cfg.z0(0.3)
        want = complex(np.exp(-cfg.delta**2 * (1.0 - np.exp(-1j * z0 * t / cfg.hbar))))
        s = math.exp(-0.5 * cfg.delta**2)
        assert _frame_overlaps(cfg, z0, t, closed_form=True) == (s, want)
        assert nd_block(cfg, z0, t).rho21 == cfg.a.conjugate() * cfg.b * want
        f = np.array([cfg.a + cfg.b * s, cfg.a * s + cfg.b * want])
        mat = np.outer(f, f.conj())
        want_rho = DensityMatrix(mat / float(mat[0, 0].real + mat[1, 1].real)).entries
        assert frame_projection(cfg, z0, t).entries.tobytes() == want_rho.tobytes()
