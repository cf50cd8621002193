"""Property tests of the paper's invariants over generated inputs."""

import cmath
import math
import sys
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from decopoles.errors import ValidationError
from decopoles.numerics import (
    HERMITICITY_TOL,
    DensityMatrix,
    _density_stack,
    eigh,
    hermitian_average,
    matrix_pencil_fit,
)
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
from decopoles.preferred_basis import _argmax_match, _greedy_match

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
def separated_catalogues(draw):
    """(catalogue, grid) for extraction: 1-3 modes on a uniform grid.

    hbar in [0.5, 2]; the slowest width in [0.1, 1] and each next one 1.5x
    to 4x the last; |amplitude| in [0.5, 3] at any phase; equilibrium in
    [-1, 1]; 64-256 samples from t = 0 to t_max with
    gamma_slowest t_max / hbar in [1, 8].
    """
    hbar = draw(st.floats(0.5, 2.0))
    gammas = [draw(st.floats(0.1, 1.0))]
    for _ in range(draw(st.integers(0, 2))):
        gammas.append(gammas[-1] * draw(st.floats(1.5, 4.0)))
    modes = tuple(
        (Pole(0.0, g), cmath.rect(draw(st.floats(0.5, 3.0)), draw(st.floats(0.0, 2.0 * math.pi))))
        for g in gammas
    )
    cat = PoleCatalogue(draw(st.floats(-1.0, 1.0)), modes, None, hbar)
    t_max = draw(st.floats(1.0, 8.0)) * hbar / gammas[0]
    return cat, np.linspace(0.0, t_max, draw(st.integers(64, 256)))


class TestExtractionRoundTrip:
    @settings(deadline=None, max_examples=100)
    @given(separated_catalogues())
    def test_pencil_recovers_every_width_from_the_csv(self, setup):
        # widths within 1e-6 relative, and no fitted mode grows over the window
        cat, grid = setup
        signal = signal_from_csv(signal_to_csv(synthesize(cat, grid)))
        fitted = matrix_pencil_fit(signal.times, signal.values - cat.equilibrium, len(cat.modes))
        t_span = float(grid[-1])
        assert all(z.real * t_span <= 1e-8 for z, _ in fitted)
        got = sorted(-z.real * cat.hbar for z, _ in fitted)
        for g, want in zip(got, (m.pole.gamma for m in cat.modes)):
            assert abs(g - want) <= 1e-6 * want


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


@st.composite
def overlap_stacks(draw):
    """(T, d, d) nonnegative matrices on a coarse lattice, so entries tie often.

    Some matrices get a boosted permutation, which makes their row argmaxes
    distinct while ties remain everywhere else.
    """
    d = draw(st.integers(1, 5))
    count = draw(st.integers(1, 6))
    stack = draw(hnp.arrays(float, (count, d, d), elements=st.integers(0, 4).map(float))) / 4.0
    for k in range(count):
        if draw(st.booleans()):
            perm = draw(st.permutations(range(d)))
            stack[k, np.arange(d), perm] += 1.0
    return stack


class TestArgmaxMatch:
    @settings(deadline=None, max_examples=300)
    @given(overlap_stacks())
    def test_distinct_row_argmaxes_are_the_greedy_match(self, stack):
        best, distinct = _argmax_match(stack)
        for k in range(stack.shape[0]):
            rows = best[k].tolist()
            assert distinct[k] == (len(set(rows)) == len(rows))
            if distinct[k]:
                assert rows == _greedy_match(stack[k]).tolist()


@st.composite
def hermitian_families(draw):
    """(T, d, d) Hermitian stacks with d = 2..5 and T <= 30."""
    d = draw(st.integers(2, 5))
    count = draw(st.integers(1, 30))
    raw = draw(hnp.arrays(float, (count, 2, d, d), elements=_ENTRY))
    mats = raw[:, 0] + 1j * raw[:, 1]
    return (mats + np.conj(np.swapaxes(mats, -1, -2))) / 2.0


class TestStackedEigh:
    @settings(deadline=None, max_examples=100)
    @given(hermitian_families())
    def test_stack_equals_one_call_per_matrix(self, mats):
        got = eigh(mats)
        for k, mat in enumerate(mats):
            one = eigh(mat)
            assert np.array_equal(got.eigenvalues[k], one.eigenvalues)
            assert np.max(np.abs(got.eigenvectors[k] - one.eigenvectors)) <= 1e-14


def reference_hermitian_average(a):
    """Reference: the Hermitian check and average as first written, through numpy wrappers."""
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix contains NaN or Inf entries")
    ah = np.conj(np.swapaxes(a, -1, -2))
    scale = np.max(np.abs(a), axis=(-2, -1))
    dev = np.max(np.abs(a - ah), axis=(-2, -1))
    bad = np.flatnonzero(dev > HERMITICITY_TOL * np.maximum(scale, 1.0))
    if bad.size:
        k = bad[0]
        raise ValidationError(
            f"matrix is not Hermitian: max deviation {dev.flat[k]:.3e} at scale {scale.flat[k]:.3e}"
        )
    return (a + ah) / 2.0


_NON_FINITE = (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 1.0))


@st.composite
def spoilt_stacks(draw, unit_trace=False):
    """(T, d, d) Hermitian stacks, d = 1..5, some members spoilt.

    Members carry scales from 1e-3 to 1e6, or with ``unit_trace`` are
    normalized to trace one.  A spoilt member gets a NaN or
    Inf entry, a deviation from Hermiticity just inside or outside the
    tolerance at its own scale, or (with ``unit_trace``) a trace off by
    about the trace tolerance.
    """
    d = draw(st.integers(1, 5))
    count = draw(st.integers(1, 6))
    raw = draw(hnp.arrays(float, (count, 2, d, d), elements=_ENTRY))
    mats = raw[:, 0] + 1j * raw[:, 1]
    mats = (mats + np.conj(np.swapaxes(mats, -1, -2))) / 2.0
    diag = np.arange(d)
    mats[:, diag, diag] = np.abs(mats[:, diag, diag]) + 0.5
    if unit_trace:
        mats /= np.trace(mats, axis1=-2, axis2=-1).real[:, None, None]
    else:
        mats *= draw(hnp.arrays(float, (count, 1, 1), elements=st.sampled_from((1e-3, 1.0, 1e6))))
    kinds = ("none", "none", "deviation", "non-finite") + (("trace",) if unit_trace else ())
    for k in range(count):
        kind = draw(st.sampled_from(kinds))
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if kind == "deviation":
            size = draw(st.sampled_from((0.3, 0.9, 1.1, 3.0))) * HERMITICITY_TOL
            size *= max(float(np.max(np.abs(mats[k]))), 1.0)
            mats[k, i, j] += size * draw(st.sampled_from((1.0, -1.0, 1j, -1j)))
        elif kind == "non-finite":
            mats[k, i, j] = draw(st.sampled_from(_NON_FINITE))
        elif kind == "trace":
            mats[k] *= 1.0 + draw(st.sampled_from((-3e-12, -5e-13, 5e-13, 3e-12)))
    return mats


def outcome(check, a):
    """("ok", result) or (the ValidationError message, None)."""
    try:
        return "ok", check(a)
    except ValidationError as exc:
        return str(exc), None


class TestHermitianCheck:
    @settings(deadline=None, max_examples=300)
    @given(spoilt_stacks(), st.booleans())
    def test_same_decision_message_and_bits_as_the_loop_body(self, mats, one):
        a = mats[0] if one else mats
        got, got_out = outcome(hermitian_average, a)
        want, want_out = outcome(reference_hermitian_average, a)
        assert got == want
        if want_out is not None:
            assert got_out.shape == want_out.shape
            assert got_out.tobytes() == want_out.tobytes()

    @settings(deadline=None, max_examples=300)
    @given(spoilt_stacks(unit_trace=True))
    def test_density_stack_decides_as_one_density_matrix_each(self, mats):
        got, stack = outcome(_density_stack, mats)
        each = [outcome(DensityMatrix, m) for m in mats]
        failures = [msg for msg, _ in each if msg != "ok"]
        if not failures:
            assert got == "ok"
            for rho, (_, want) in zip(stack, each):
                assert rho.entries.tobytes() == want.entries.tobytes()
        else:
            assert got in failures
            if len(failures) == 1:
                assert got == failures[0]
