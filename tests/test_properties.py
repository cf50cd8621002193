"""Property tests of the paper's invariants over generated inputs."""

import math
import sys
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from decopoles.omnes import (
    OmnesConfig,
    QuasiCoherentState,
    collective_rate,
    nd_block,
    nd_decay,
    overlap_error_bound,
    overlap_truncated,
)
from decopoles.pole_models import (
    BOUNDARY_IRRELEVANT,
    BOUNDARY_RELEVANT,
    RULE_BACKGROUND,
    RULE_SECOND_SMALLEST,
    RULE_SLOWEST,
    CatalogueMatrix,
    KhalfinTail,
    Pole,
    PoleCatalogue,
    coincidence_check,
    decoherence_time,
    partition_report,
    preferred_signal,
    signal_from_csv,
    signal_to_csv,
    synthesize,
)

_RULES = st.sampled_from((RULE_SECOND_SMALLEST, RULE_SLOWEST, RULE_BACKGROUND))
_BOUNDARIES = st.sampled_from((BOUNDARY_RELEVANT, BOUNDARY_IRRELEVANT))
_WIDTHS = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8, unique=True).map(sorted)

_ENTRY = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def matrix_catalogues(draw):
    """(poles, equilibrium, Hermitian amplitudes, hbar) with distinct positive widths."""
    dim = draw(st.sampled_from((2, 3)))
    gammas = draw(
        st.lists(st.floats(1e-3, 1e3, allow_nan=False), min_size=1, max_size=8, unique=True)
    )
    omegas = draw(st.lists(_ENTRY, min_size=len(gammas), max_size=len(gammas)))
    raw = draw(hnp.arrays(float, (len(gammas), 2, dim, dim), elements=_ENTRY))
    amps = raw[:, 0] + 1j * raw[:, 1]
    amps = (amps + np.conj(np.swapaxes(amps, -1, -2))) / 2.0
    eq = draw(hnp.arrays(float, (dim,), elements=st.floats(0.0, 1.0)))
    hbar = draw(st.floats(0.1, 10.0))
    return [Pole(w, g) for w, g in zip(omegas, gammas)], np.diag(eq), amps, hbar


class TestCatalogueMatrixPermutationInvariance:
    @settings(deadline=None)
    @given(matrix_catalogues(), st.data(), st.floats(0.0, 50.0))
    def test_any_order_builds_the_same_catalogue(self, catalogue, data, t):
        poles, eq, amps, hbar = catalogue
        perm = data.draw(st.permutations(range(len(poles))))
        ref = CatalogueMatrix(poles, eq, amps, hbar)
        cm = CatalogueMatrix([poles[k] for k in perm], eq, amps[perm], hbar)
        assert cm.gammas == ref.gammas
        assert cm.poles == ref.poles
        assert np.array_equal(cm.amplitudes, ref.amplitudes)
        assert np.max(np.abs(cm.evaluate(t) - ref.evaluate(t))) <= 1e-15


class TestPartitionInvariants:
    @settings(deadline=None, max_examples=100)
    @given(_WIDTHS, st.floats(0.1, 10.0), _RULES, _BOUNDARIES)
    def test_t_d_within_t_r_and_every_index_once(self, gammas, hbar, rule, boundary):
        rep = partition_report(gammas, hbar, rule, boundary)
        assert rep.t_D <= rep.t_R
        assert sorted(rep.p_relevant + rep.p_irrelevant) == list(range(len(gammas)))


@st.composite
def scalar_catalogues(draw):
    """Scalar catalogues with distinct widths, complex amplitudes and an optional tail."""
    gammas = draw(_WIDTHS)
    amps = draw(st.lists(st.complex_numbers(max_magnitude=10.0), min_size=len(gammas),
                         max_size=len(gammas)))
    tail = draw(st.none() | st.builds(KhalfinTail, _ENTRY, st.floats(0.1, 10.0), st.floats(0.5, 5.0)))
    return PoleCatalogue(
        draw(_ENTRY),
        tuple((Pole(0.0, g), a) for g, a in zip(gammas, amps)),
        tail,
        draw(st.floats(0.1, 10.0)),
    )


class TestCoincidenceInvariant:
    @settings(deadline=None, max_examples=100)
    @given(scalar_catalogues(), _RULES, _BOUNDARIES, st.integers(1, 80))
    def test_preferred_signal_coincides_past_t_d(self, cat, rule, boundary, k):
        rep = decoherence_time(cat, rule, boundary)
        grid = np.linspace(0.0, 5.0 * rep.t_D, 5 * k + 1)  # a sample at t_D, where the bound is tight
        result = coincidence_check(synthesize(cat, grid), preferred_signal(cat, rep, grid), cat, rep)
        assert result.passed, result


class TestCollectiveRateInvariant:
    @settings(deadline=None, max_examples=100)
    @given(*(st.floats(1e-2, 1e2) for _ in range(5)))
    def test_t_d_times_l0_squared_is_separation_free(self, m, omega, hbar, gamma0, L0):
        cfg = OmnesConfig(m, omega, hbar, gamma0, L0, np.sqrt(0.5), np.sqrt(0.5), 8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # most generated configs are not macroscopic
            t_d = collective_rate(cfg).t_D
        want = 2.0 * hbar**3 / (m * omega * gamma0)
        assert abs(t_d * L0 * L0 - want) <= 1e-12 * want


class TestSignalCsvRoundTrip:
    @settings(deadline=None, max_examples=100)
    @given(scalar_catalogues(), st.floats(1e-3, 1e3), st.integers(2, 200))
    def test_times_and_values_come_back_bit_identical(self, cat, t_max, n):
        s = synthesize(cat, np.linspace(0.0, t_max, n))
        again = signal_from_csv(signal_to_csv(s))
        assert again.times.tobytes() == s.times.tobytes()
        assert again.values.tobytes() == s.values.tobytes()


class TestOverlapRemainderBound:
    @settings(deadline=None, max_examples=200)
    @given(st.floats(0.0, 12.0), st.integers(1, 400))
    def test_truncated_overlap_within_remainder_and_rounding(self, delta, N):
        # exact remainder ceiling plus rounding of a few ulps of the largest alternating term
        x = 0.5 * delta * delta
        n = min(N, math.floor(x))  # the terms x^n / n! peak at n = floor(x)
        largest = x**n / math.factorial(n)
        got = overlap_truncated(QuasiCoherentState(0.0, N), QuasiCoherentState(delta, N))
        slack = overlap_error_bound(delta, N) + 4.0 * sys.float_info.epsilon * largest
        assert abs(got - math.exp(-x)) <= slack


@st.composite
def coherence_setups(draw):
    """(config, pole, grid) with hbar != 1, omega' != 0, complex a and b, Delta in [6, 12]."""
    hbar = draw(st.floats(0.1, 10.0).filter(lambda h: h != 1.0))
    m, omega, gamma0 = (draw(st.floats(0.1, 10.0)) for _ in range(3))
    delta = draw(st.floats(6.0, 12.0))
    weight = draw(st.floats(0.05, 0.95))
    phase_a, phase_b = (draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(2))
    a = math.sqrt(weight) * complex(math.cos(phase_a), math.sin(phase_a))
    b = math.sqrt(1.0 - weight) * complex(math.cos(phase_b), math.sin(phase_b))
    L0 = delta * hbar / math.sqrt(m * omega / 2.0)
    cfg = OmnesConfig(m, omega, hbar, gamma0, L0, a, b, 64)
    omega_prime = draw(st.floats(-5.0, 5.0).filter(lambda w: w != 0.0))
    span = draw(st.floats(0.0, 50.0))  # t_max gamma0 / hbar
    grid = np.linspace(0.0, span * hbar / gamma0, draw(st.integers(2, 64)))
    return cfg, cfg.z0(omega_prime), grid


class TestNdDecayBits:
    @settings(deadline=None, max_examples=200)
    @given(coherence_setups())
    def test_one_pass_equals_nd_block_at_every_point(self, setup):
        cfg, z0, grid = setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # N = 64 is not macroscopic
            got = nd_decay(cfg, z0, grid).tolist()
            want = [abs(nd_block(cfg, z0, t).rho12) for t in grid.tolist()]
        assert got == want
