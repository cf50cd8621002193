"""Property tests of the paper's invariants over generated inputs."""

import cmath
import json
import math
import sys
import warnings

import mpmath
import numpy as np
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from decopoles.errors import ValidationError
from decopoles.numerics import (
    HERMITICITY_TOL,
    DensityMatrix,
    _checked_entries,
    _density_stack,
    eigh,
    hermitian_average,
    matrix_pencil_fit,
)
from decopoles.omnes import (
    OmnesConfig,
    QuasiCoherentState,
    build_density_matrix,
    collective_rate,
    density_components,
    frame_catalogue_matrix,
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
    Mode,
    Pole,
    PoleCatalogue,
    catalogue_from_json,
    catalogue_to_json,
    coincidence_check,
    collective_rate_rule,
    decoherence_time,
    partition_report,
    preferred_signal,
    signal_from_csv,
    signal_to_csv,
    synthesize,
)
from decopoles.preferred_basis import _greedy_match, preferred_state
from test_preferred_basis import reference_greedy_match

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


# entry sizes of a catalogue with dead modes: exact zeros, entries whose Frobenius
# norm underflows (|a|^2 < 1e-323), entries below 1e-300, and unit-sized entries
_SMALL_SIZES = (0.0, 1e-200, 1e-305)


@st.composite
def sparse_matrix_catalogues(draw):
    """(poles, equilibrium, Hermitian amplitudes, hbar) with planted zero and tiny modes.

    Half the catalogues hold no unit-sized entry, so a tiny mode's share of
    a sum is not lost to rounding against the rest.
    """
    dim = draw(st.sampled_from((1, 2, 3)))
    gammas = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=64, unique=True))
    k = len(gammas)
    sizes = _SMALL_SIZES + draw(st.sampled_from(((), (1.0,))))
    scale = draw(hnp.arrays(float, (k, dim, dim), elements=st.sampled_from(sizes)))
    raw = draw(hnp.arrays(float, (k, 2, dim, dim), elements=st.floats(-1.0, 1.0)))
    amps = np.triu((raw[:, 0] + 1j * raw[:, 1]) * scale, 1)
    amps = amps + np.conj(np.swapaxes(amps, -1, -2))
    amps += np.eye(dim) * (raw[:, 0] * scale).diagonal(axis1=-2, axis2=-1)[:, None, :]
    amps[draw(hnp.arrays(bool, (k,)))] = 0.0  # whole modes planted dead
    eq = np.diag(draw(hnp.arrays(float, (dim,), elements=st.sampled_from((0.0, 0.25, 1.0)))))
    return [Pole(0.0, g) for g in gammas], eq, amps, draw(st.floats(0.1, 10.0))


def unmasked_decay(cm, t, idx):
    """exp(-gamma t / hbar) of every ``idx`` mode, dead ones included."""
    decay = np.multiply.outer(t, -np.array(cm.gammas)[idx])
    decay /= cm.hbar
    return np.exp(decay)


def unmasked_evaluate(cm, t, keep=None):
    """Reference: the sum over every kept mode, dead ones included."""
    idx = slice(None) if keep is None else np.asarray(keep, dtype=np.intp)
    return cm.equilibrium + np.tensordot(unmasked_decay(cm, t, idx), cm.amplitudes[idx], 1)


def unmasked_envelope(cm, t, dropped):
    """Reference: norm times decay summed over every ``dropped`` mode, dead ones included."""
    idx = np.asarray(dropped, dtype=np.intp)
    norms = np.linalg.norm(cm.amplitudes, axis=(-2, -1))[idx]
    return (unmasked_decay(cm, t, idx) * norms).sum(axis=-1)


class TestLiveModes:
    """A mode whose amplitude is exactly 0 moves no bit of ``evaluate``, and
    ``dropped_envelope`` sums over the other modes only."""

    # stated before measuring: dropped_envelope regroups a pairwise sum of
    # at most 64 nonnegative terms, a few ulps of the total
    ENVELOPE_REL = 1e-14

    @settings(deadline=None, max_examples=300)
    @given(
        sparse_matrix_catalogues(), _RULES, _BOUNDARIES,
        st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        st.lists(st.floats(0.0, 20.0), max_size=6).map(lambda ts: np.array([0.0] + ts)),
    )
    def test_same_bits_as_the_unmasked_sum(self, catalogue, rule, boundary, t, grid):
        cm = CatalogueMatrix(*catalogue)
        rep = partition_report(cm.gammas, cm.hbar, rule, boundary)
        for keep in (None, rep.p_relevant, rep.p_irrelevant):
            for when in (t, grid):
                got, want = cm.evaluate(when, keep=keep), unmasked_evaluate(cm, when, keep)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (keep, when)
        # live: a nonzero entry, however small its (underflowing) norm
        live = [i for i in rep.p_irrelevant if np.any(cm.amplitudes[i] != 0)]
        for when in (t, grid):
            got = np.asarray(cm.dropped_envelope(when, rep.p_irrelevant))
            want = unmasked_envelope(cm, when, rep.p_irrelevant)
            assert np.all(np.abs(got - want) <= self.ENVELOPE_REL * want), when
            assert got.tobytes() == np.asarray(unmasked_envelope(cm, when, live)).tobytes(), when

    def test_modes_below_norm_underflow_keep_their_slots_in_the_envelope(self):
        # every other mode has entries of 1e-200 or 1e-305, so its norm is 0; leaving
        # those modes out of the sum would regroup numpy's pairwise sum of the others
        sizes = np.tile([1.0, 1e-200, 1.0, 1e-305], 6) * np.random.default_rng(10).uniform(0.5, 1.5, 24)
        cm = CatalogueMatrix([Pole(0.0, g) for g in range(1, 25)], np.eye(1), sizes[:, None, None])
        grid = np.array([0.0, 0.01, 0.1])
        got = cm.dropped_envelope(grid, range(24))
        assert got.tobytes() == unmasked_envelope(cm, grid, range(24)).tobytes()
        for cut in (1e-100, 1e-300):  # the test can tell either set of modes missing
            assert got.tobytes() != unmasked_envelope(cm, grid, np.flatnonzero(sizes > cut)).tobytes()


@st.composite
def tied_widths(draw):
    """Sorted widths in which each drawn width repeats 1-4 times, so ties sit at any threshold."""
    runs = draw(st.lists(st.tuples(st.floats(1e-3, 1e3), st.integers(1, 4)), min_size=1, max_size=8))
    return sorted(g for g, count in runs for _ in range(count))


class TestPartitionInvariants:
    @settings(deadline=None, max_examples=100)
    @given(_WIDTHS, st.floats(0.1, 10.0), _RULES, _BOUNDARIES)
    def test_t_d_within_t_r_and_every_index_once(self, gammas, hbar, rule, boundary):
        rep = partition_report(gammas, hbar, rule, boundary)
        assert rep.t_D <= rep.t_R
        assert sorted(list(rep.p_relevant) + list(rep.p_irrelevant)) == list(range(len(gammas)))

    @settings(deadline=None, max_examples=300)
    @given(tied_widths(), st.floats(0.1, 10.0), _RULES | st.just("custom"), _BOUNDARIES, st.data())
    @example([0.5], 1.0, RULE_SECOND_SMALLEST, BOUNDARY_RELEVANT, None)
    @example([0.25, 0.5, 0.5, 2.0], 1.0, RULE_SECOND_SMALLEST, BOUNDARY_IRRELEVANT, None)
    def test_cut_gives_the_per_index_split(self, gammas, hbar, rule, boundary, data):
        # the reference: the rule's threshold, then t_R, t_D and the split one index at a time
        if rule == "custom":  # a rate at a width, or above one (never below the slowest)
            threshold = data.draw(st.sampled_from(gammas)) * data.draw(st.just(1.0) | st.floats(1.0, 4.0))
            rule = lambda g: threshold
        else:
            threshold = gammas[1] if rule == RULE_SECOND_SMALLEST and len(gammas) > 1 else gammas[0]
        rep = partition_report(gammas, hbar, rule, boundary)
        keep = (lambda g: g <= threshold) if boundary == BOUNDARY_RELEVANT else (lambda g: g < threshold)
        relevant = () if rule == RULE_BACKGROUND else tuple(i for i, g in enumerate(gammas) if keep(g))
        irrelevant = tuple(i for i in range(len(gammas)) if i not in set(relevant))
        assert (rep.t_R.hex(), rep.t_D.hex()) == ((hbar / gammas[0]).hex(), (hbar / threshold).hex())
        assert (tuple(rep.p_relevant), tuple(rep.p_irrelevant)) == (relevant, irrelevant)


_TAILS = st.builds(KhalfinTail, _ENTRY, st.floats(0.1, 10.0), st.floats(0.5, 5.0))


@st.composite
def scalar_catalogues(draw):
    """Scalar catalogues with distinct widths, complex amplitudes and an optional tail."""
    gammas = draw(_WIDTHS)
    amps = draw(st.lists(st.complex_numbers(max_magnitude=10.0), min_size=len(gammas),
                         max_size=len(gammas)))
    tail = draw(st.none() | _TAILS)
    return PoleCatalogue(
        draw(_ENTRY),
        tuple((Pole(0.0, g), a) for g, a in zip(gammas, amps)),
        tail,
        draw(st.floats(0.1, 10.0)),
    )


@st.composite
def schema_catalogues(draw):
    """Catalogues of 0-6 modes (none only with a tail), frequencies free and widths often tied."""
    n = draw(st.integers(0, 6))
    modes = draw(st.lists(
        st.builds(
            Mode,
            st.builds(Pole, _ENTRY, st.floats(1e-3, 1e3) | st.sampled_from((0.5, 2.0))),
            st.complex_numbers(max_magnitude=10.0),
        ),
        min_size=n,
        max_size=n,
    ))
    tail = draw(_TAILS if n == 0 else st.none() | _TAILS)
    return PoleCatalogue(draw(_ENTRY), tuple(modes), tail, draw(st.floats(0.1, 10.0)))


class TestCatalogueJsonRoundTrip:
    @settings(deadline=None, max_examples=200)
    @given(schema_catalogues())
    def test_reads_back_equal(self, cat):
        assert catalogue_from_json(catalogue_to_json(cat)) == cat

    @settings(deadline=None, max_examples=200)
    @given(schema_catalogues(), st.data())
    def test_permuted_modes_read_back_sorted(self, cat, data):
        # the scalar catalogue's permutation invariance, through its JSON schema
        doc = json.loads(catalogue_to_json(cat))
        doc["modes"] = data.draw(st.permutations(doc["modes"]))
        again = catalogue_from_json(json.dumps(doc))
        assert again == cat
        assert catalogue_to_json(again) == catalogue_to_json(cat)


class TestCoincidenceInvariant:
    @settings(deadline=None, max_examples=100)
    @given(scalar_catalogues(), _RULES, _BOUNDARIES, st.integers(1, 80))
    def test_preferred_signal_coincides_past_t_d(self, cat, rule, boundary, k):
        rep = decoherence_time(cat, rule, boundary)
        grid = np.linspace(0.0, 5.0 * rep.t_D, 5 * k + 1)  # a sample at t_D, where the bound is tight
        result = coincidence_check(synthesize(cat, grid), preferred_signal(cat, rep, grid), cat, rep)
        assert result.passed, result


def scales():
    """A mantissa in [1, 10) times 10^k, k in [-170, 170]: 2 hbar^2 under- and overflows."""
    return st.builds(lambda mant, k: mant * 10.0**k, st.floats(1.0, 10.0, exclude_max=True), st.integers(-170, 170))


# the normal floats, less a factor 2 at each end, so no rounding below carries a value across
_NORMAL = (mpmath.mpf(2) ** -1021, mpmath.mpf(2) ** 1023)
# relative roundings, to first order in 2^-53: (m omega / 2 hbar^2) L0^2 gamma0 takes 6 (m omega,
# hbar^2, the quotient, two L0s, gamma0); Delta = L0 sqrt(m omega / 2) / hbar carries 3.5 (the sqrt
# halves m omega's), doubled by Delta * Delta, plus that product and gamma0: 9; hbar / gamma_tilde
# adds one to either; the factor 1 + 1e-9 covers the second-order terms
_RATE_REL = 10 * 2.0**-53 * (1 + 1e-9)


class TestCollectiveRateInvariant:
    @settings(deadline=None, max_examples=100)
    @given(st.floats(1e-2, 1e2), st.floats(1e-2, 1e2), scales(), st.floats(1e-2, 1e2), scales())
    @example(1.0, 2.0, 1e160, 1.0, 1e160)  # 2 hbar^2 overflows
    @example(1.0, 2.0, 1e-170, 1.0, 1e-150)  # 2 hbar^2 underflows to 0
    @example(0.01, 0.01, 9e153, 1.0, 1e160)  # m omega / 2 hbar^2 is subnormal, Delta^2 is not
    @example(0.299, 1.226, 0.549, 0.25, 1.614)  # two orders of m omega L0^2 / 2 hbar^2 differ here
    def test_t_d_times_l0_squared_is_separation_free(self, m, omega, hbar, gamma0, L0):
        try:
            cfg = OmnesConfig(m, omega, hbar, gamma0, L0, np.sqrt(0.5), np.sqrt(0.5), 8)
        except ValidationError:
            reject()  # Delta^2 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # most generated configs are not macroscopic
            try:
                rate = collective_rate(cfg)
            except ValidationError:
                rate = None
        with mpmath.workprec(256):
            delta2 = mpmath.mpf(m) * omega * mpmath.mpf(L0) ** 2 / (2 * mpmath.mpf(hbar) ** 2)
            gamma_tilde = delta2 * gamma0
            t_d = hbar / gamma_tilde
            if all(_NORMAL[0] <= x <= _NORMAL[1] for x in (delta2, gamma_tilde, t_d)):
                assert rate is not None
                assert abs(rate.gamma_tilde - gamma_tilde) <= _RATE_REL * gamma_tilde
                assert abs(rate.t_D - t_d) <= _RATE_REL * t_d
            if rate is None:
                return
            # the partition threshold at gamma0 is the same number
            assert collective_rate_rule(m, omega, L0, hbar)((gamma0,)) == rate.gamma_tilde
            if min(rate.gamma_tilde, rate.t_D) >= 2.0**-1022:  # a subnormal keeps too few digits
                want = 2 * mpmath.mpf(hbar) ** 3 / (mpmath.mpf(m) * omega * gamma0)  # hbar^3 overflows
                assert abs(mpmath.mpf(rate.t_D) * mpmath.mpf(L0) ** 2 - want) <= 1e-12 * want


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


@st.composite
def oscillating_catalogues(draw):
    """``separated_catalogues`` with each mode rotating at a nonzero frequency.

    omega_k / hbar is +-[0.05, 0.9] of the Nyquist limit pi / dt, so every
    per-step ratio exp(z_k dt) keeps off the branch cut of its logarithm.
    """
    cat, grid = draw(separated_catalogues())
    nyquist = math.pi * cat.hbar / float(grid[1] - grid[0])
    fractions = [draw(st.floats(0.05, 0.9)) * draw(st.sampled_from((-1.0, 1.0))) for _ in cat.modes]
    modes = tuple(
        Mode(Pole(f * nyquist, m.pole.gamma), m.amplitude) for f, m in zip(fractions, cat.modes)
    )
    return PoleCatalogue(cat.equilibrium, modes, None, cat.hbar, pair_product=True), grid


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

    @settings(deadline=None, max_examples=100)
    @given(oscillating_catalogues())
    def test_pencil_recovers_every_exponent_and_amplitude_from_the_csv(self, setup):
        """Modes rotating at nonzero frequencies inside the Nyquist band.

        Paired by width, each fitted mode has its width within 1e-6 gamma_k
        (as at zero frequency), its frequency within 1e-6 |omega_k - i gamma_k|
        of omega_k, and its complex amplitude within 1e-5 |a_k| of a_k.
        """
        cat, grid = setup
        signal = signal_from_csv(signal_to_csv(synthesize(cat, grid, rendering="full")))
        fitted = matrix_pencil_fit(signal.times, signal.values - cat.equilibrium, len(cat.modes))
        assert all(z.real * float(grid[-1]) <= 1e-8 for z, _ in fitted)
        fitted.sort(key=lambda mode: -mode[0].real)
        for (z, amp), mode in zip(fitted, sorted(cat.modes, key=lambda m: m.pole.gamma)):
            gamma, omega = mode.pole.gamma, mode.pole.omega
            assert abs(-z.real * cat.hbar - gamma) <= 1e-6 * gamma
            assert abs(-z.imag * cat.hbar - omega) <= 1e-6 * abs(complex(omega, gamma))
            assert abs(amp - mode.amplitude) <= 1e-5 * abs(mode.amplitude)


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


class TestFockDensityBits:
    @settings(deadline=None, max_examples=50)
    @given(coherence_setups())
    def test_rho_alone_equals_the_full_split(self, setup):
        cfg, z0, grid = setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # N = 64 is not macroscopic
            for t in grid.tolist():
                got = build_density_matrix(cfg, z0, t).entries
                assert np.array_equal(got, density_components(cfg, z0, t).rho.entries)


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


class TestStackedGreedyMatch:
    @settings(deadline=None, max_examples=300)
    @given(overlap_stacks())
    def test_each_matrix_matches_as_the_one_matrix_greedy(self, stack):
        got = _greedy_match(stack)
        assert got.shape == stack.shape[:-1]
        for k in range(stack.shape[0]):
            assert got[k].tolist() == reference_greedy_match(stack[k]).tolist()


@st.composite
def fock_scale_overlaps(draw):
    """(T, d, d) overlap moduli with d up to 50, shaped as the moving basis meets them.

    * near_permutation: a permuted near-identity under off-diagonal noise, as
      consecutive grid points give;
    * rank_one: |u_i v_j| of two Poisson-shaped Fock profiles, rounded to a
      few digits on request, as a pure state's degenerate cluster gives;
    * lattice: entries in {0, 1/4, ..., 1}, some with a boosted permutation,
      so exact ties are everywhere.
    """
    kind = draw(st.sampled_from(("near_permutation", "rank_one", "lattice")))
    d = draw(st.integers(1, 50))
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "near_permutation":
        stack = rng.uniform(0.0, draw(st.sampled_from((1e-3, 0.1, 0.7))), (count, d, d))
        for k in range(count):
            stack[k, np.arange(d), rng.permutation(d)] += rng.uniform(0.5, 1.0, d)
    elif kind == "rank_one":
        n = np.arange(d)
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(d)])
        mean = rng.uniform(0.5, max(d, 1), (count, 2, 1))
        profiles = np.exp(0.5 * (n * np.log(mean) - mean - log_fact))
        stack = profiles[:, 0, :, None] * profiles[:, 1, None, :]
        digits = draw(st.sampled_from((None, 2, 4)))
        if digits is not None:
            stack = np.round(stack, digits)
    else:
        stack = rng.integers(0, 5, (count, d, d)) / 4.0
        for k in range(count):
            if rng.random() < 0.5:
                stack[k, np.arange(d), rng.permutation(d)] += 1.0
    return stack


class TestGreedyMatchAtFockScale:
    @settings(deadline=None, max_examples=150)
    @given(fock_scale_overlaps())
    def test_rounds_equal_the_sequential_rule(self, stack):
        got = _greedy_match(stack)
        for k in range(stack.shape[0]):
            assert got[k].tolist() == reference_greedy_match(stack[k]).tolist()


@st.composite
def hermitian_families(draw):
    """(T, d, d) Hermitian stacks with d = 2..5 and T <= 30."""
    d = draw(st.integers(2, 5))
    count = draw(st.integers(1, 30))
    raw = draw(hnp.arrays(float, (count, 2, d, d), elements=_ENTRY))
    mats = raw[:, 0] + 1j * raw[:, 1]
    return (mats + np.conj(np.swapaxes(mats, -1, -2))) / 2.0


class TestMinEigenvalue:
    """``min_eigenvalue`` is eigh's smallest eigenvalue within 1e-14 max(1, ||rho||_2)."""

    @staticmethod
    def assert_spectrum_minimum(rho):
        want = eigh(rho.entries).eigenvalues[-1]
        scale = max(1.0, float(np.linalg.norm(rho.entries, 2)))
        assert abs(rho.min_eigenvalue() - want) <= 1e-14 * scale

    @settings(deadline=None, max_examples=100)
    @given(hermitian_families())
    def test_unit_trace_hermitian(self, mats):
        # each member, shifted along the identity to unit trace; most are indefinite
        d = mats.shape[-1]
        shift = (1.0 - np.trace(mats, axis1=-2, axis2=-1).real) / d
        for mat, s in zip(mats, shift):
            self.assert_spectrum_minimum(DensityMatrix(mat + s * np.eye(d)))

    @settings(deadline=None, max_examples=30)
    @given(coherence_setups())
    def test_rank_one_fock_states(self, setup):
        cfg, z0, grid = setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # N = 64 is not macroscopic
            for t in grid.tolist()[:8]:
                self.assert_spectrum_minimum(build_density_matrix(cfg, z0, t))

    def test_preferred_state_before_t_D_is_indefinite(self):
        # the truncated catalogue is no state before t_D: rho_P has a negative eigenvalue
        cm = frame_catalogue_matrix(
            OmnesConfig(1.0, 2.0, 1.0, 0.5, 2.0, math.sqrt(0.3), math.sqrt(0.7), 30)
        )
        report = partition_report(cm.gammas, cm.hbar, rule=collective_rate_rule(1.0, 2.0, 2.0, 1.0))
        for rho in preferred_state(cm, report, np.linspace(0.0, report.t_D, 5)):
            assert rho.min_eigenvalue() < -0.05
            self.assert_spectrum_minimum(rho)


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
    """(T, d, d) Hermitian stacks, d = 1..5, T = 0..30 (1..30 with ``unit_trace``), some members spoilt.

    T runs on both sides of d^2, where the stack's reductions change axis.
    Members carry scales from 1e-3 to 1e6, or with ``unit_trace`` are
    normalized to trace one.  A spoilt member gets a NaN or
    Inf entry, a deviation from Hermiticity just inside or outside the
    tolerance at its own scale, or (with ``unit_trace``) a trace off by
    about the trace tolerance.
    """
    d = draw(st.integers(1, 5))
    count = draw(st.integers(1 if unit_trace else 0, 30))
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
        a = mats[0] if one and len(mats) else mats  # one 2x2 member is checked on Python floats
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


_KINDS = ("hermitian", "non-hermitian", "non-finite", "huge", "signed-zero", "at-tolerance", "off-trace")


@st.composite
def single_matrices(draw):
    """(m, unit_trace): one d x d complex matrix, d = 1..49 (2 half the time), of one of ``_KINDS``.

    Entries come from a drawn numpy seed, so large matrices cost no more to
    draw than small ones.  "hermitian" is exactly Hermitian at a scale from
    1e-300 to 1e300 (trace one with ``unit_trace``); "non-hermitian" adds a
    deviation of 0.3 to 1e6 tolerances; "non-finite" plants NaN or Inf;
    "huge" reaches past 2^1021, where the check halves, or holds an entry
    near 1.5e308 (1 +- 1j), whose abs overflows; "signed-zero" holds
    +-0.0 parts off a positive diagonal; "at-tolerance" deviates by exactly
    HERMITICITY_TOL * max(max|A|, 1); "off-trace" moves one diagonal entry of
    a density matrix, often a pure state |k><k|, by about the trace tolerance.
    """
    kind = draw(st.sampled_from(_KINDS))
    d = draw(st.just(2) | st.integers(2 if kind == "at-tolerance" else 1, 49))  # 2x2: Python floats
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit_trace = kind == "off-trace" or draw(st.booleans())
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = (m + m.conj().T) / 2.0  # exactly Hermitian
    diag = np.arange(d)
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    if kind == "signed-zero":
        signs = rng.choice((-1.0, 1.0), size=(2, d, d))
        m = np.copysign(0.0, signs[0]) + 1j * np.copysign(0.0, signs[1])
        m[diag, diag] += 1.0
    if kind == "off-trace" and draw(st.booleans()):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0  # a pure state: one diagonal entry holds the whole trace
    elif unit_trace or kind == "off-trace":
        m[diag, diag] = np.abs(m[diag, diag]) + 0.5
        m /= np.trace(m).real
    else:
        m *= draw(st.sampled_from((1e-300, 1e-3, 1.0, 1e6, 1e300)))
    unit = draw(st.sampled_from((1.0, -1.0, 1j, -1j)))
    if kind == "non-hermitian":
        size = draw(st.sampled_from((0.3, 0.9, 1.1, 3.0, 1e6))) * HERMITICITY_TOL
        m[i, j] += size * max(float(np.max(np.abs(m))), 1.0) * unit
    elif kind == "non-finite":
        m[i, j] = draw(st.sampled_from(_NON_FINITE))
    elif kind == "huge":
        m = m / float(np.max(np.abs(m))) * draw(st.sampled_from((2.0**1021 * 1.5, 1e308, 1.7e308)))
        if draw(st.booleans()):  # |entry| = 2.1e308 overflows; numpy's abs reads inf, Python's raises
            m[i, j] = 1.5e308 * complex(1.0, draw(st.sampled_from((1.0, -1.0))))
            m[j, i] = np.conj(m[i, j])
        if draw(st.booleans()):
            m[i, j] *= 1.0 + draw(st.sampled_from((1e-13, 1e-9)))
    elif kind == "at-tolerance":
        j = (i + 1 + j % (d - 1)) % d  # off the diagonal
        m[i, j] = m[j, i] = 0.0
        m[i, j] = HERMITICITY_TOL * max(float(np.max(np.abs(m))), 1.0) * unit
    elif kind == "off-trace":
        k = draw(st.integers(0, d - 1))
        k = (i + 1 + k % (d - 1)) % d if d > 1 and m[i, i] == 1.0 else k  # beside a pure state's entry
        m[k, k] += draw(st.sampled_from((-3e-12, -1.5e-12, 1.5e-12, 3e-12, 5e-13)))
    return m, unit_trace


def raised(check, *args, **kwargs):
    """(result, None), or (None, (class, message)) of any exception, numpy warnings included."""
    try:
        return check(*args, **kwargs), None
    except Exception as exc:  # the failure itself is what the caller compares
        return None, (type(exc), str(exc))


class TestSingleMatrixCheck:
    """One (d, d) matrix is checked as the one-member stack is: same bits, same failure."""

    @settings(deadline=None, max_examples=400)
    @given(single_matrices())
    @example((np.array([[1.0, 1e-12], [0.0, 1.0]], dtype=complex), False))  # at the tolerance
    @example((np.diag([1.5e308, 1.0]).astype(complex), False))  # past 2^1021: halved
    @example((np.diag([1.0, 3e-12]).astype(complex), True))  # off-trace beside a pure state
    @example((np.array([[-0.0, 0.5], [0.5, -0.0]], dtype=complex), True))  # trace +0.0, not -0.0
    def test_one_matrix_equals_the_one_member_stack(self, drawn):
        m, unit_trace = drawn
        # failures of any class are compared, not only ValidationError as in outcome(), so a
        # numpy RuntimeWarning (an error under pytest) on either path shows, as a huge trace's did
        got, got_exc = raised(_checked_entries, m, unit_trace=unit_trace)
        want, want_exc = raised(_checked_entries, m[None], 3, unit_trace=unit_trace)
        assert got_exc == want_exc
        if want_exc is None:
            assert got.shape == want[0].shape and got.tobytes() == want[0].tobytes()
