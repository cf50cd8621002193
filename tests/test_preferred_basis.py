"""Moving eigenbases, truncated preferred states, convergence, two-part runs."""

import math

import numpy as np
import pytest

from decopoles import numerics, preferred_basis
from decopoles.errors import ValidationError
from decopoles.numerics import DensityFamily, DensityMatrix, _phase_fix, eigh
from decopoles.omnes import (
    OmnesConfig,
    build_density_matrix,
    frame_catalogue_matrix,
    frame_projection,
)
from decopoles.pole_models import (
    BOUNDARY_IRRELEVANT,
    RULE_BACKGROUND,
    CatalogueMatrix,
    KhalfinTail,
    Mode,
    Pole,
    PoleCatalogue,
    collective_rate_rule,
    partition_report,
    signal_to_csv,
    synthesize,
)
from decopoles.preferred_basis import (
    _GAP_TOL,
    BiFriedrichModel,
    bifriedrich_run,
    convergence_profile,
    moving_eigenbasis,
    observable_signal,
    preferred_state,
)

PROFILE_FIELDS = (
    "t", "subspace_angle", "eigenvalue_gap", "bound", "max_eigenvalue_discrepancy", "reliable", "estimate",
)
U = 2.0**-53


def rotator(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotating_family(t, rate=0.3, weights=(0.7, 0.3)):
    r = rotator(rate * t)
    return r @ np.diag(weights) @ r.T


def two_pole_matrix_catalogue():
    """Slow relaxation pole plus a fast decoherence pole, trace preserved."""
    eq = np.diag([0.75, 0.25])
    slow = np.array([[-0.25, 0.1], [0.1, 0.25]])
    fast = np.array([[0.0, 0.3], [0.3, 0.0]])
    return CatalogueMatrix((Pole(0.0, 1.0), Pole(0.0, 10.0)), eq, (slow, fast))


def closed_form_angle(t):
    """Eigenvector mismatch of the two-pole model, from the 2x2 formulas."""
    d = 0.5 - 0.5 * math.exp(-t)
    c_full = 0.1 * math.exp(-t) + 0.3 * math.exp(-10.0 * t)
    c_pref = 0.1 * math.exp(-t)
    return abs(0.5 * math.atan2(2 * c_full, d) - 0.5 * math.atan2(2 * c_pref, d))


def bloch_angle(rho_r, rho_p):
    """Reference at d = 2: the greedy angle between the eigenbases of two 2 x 2 Hermitian matrices.

    Each is (tr rho / 2) I + n . sigma / 2, whose eigenvectors are the Bloch directions +-n, so the
    eigenvectors of one eigenvalue index meet at phi = atan2(|n_P x n_R|, n_P . n_R) / 2, half the
    angle between the Bloch vectors; the other pairing's angle is pi/2 - phi, and the greedy match
    takes the nearer, min(phi, pi/2 - phi).  No eigh and no matching.  Each n is scaled to its largest
    component first, which leaves phi as it is and keeps the products of huge entries finite.
    """
    bloch = (np.array([2.0 * m[0, 1].real, -2.0 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real]) for m in (rho_r, rho_p))
    n_r, n_p = (n / (np.max(np.abs(n)) or 1.0) for n in bloch)
    phi = 0.5 * math.atan2(float(np.linalg.norm(np.cross(n_p, n_r))), float(n_p @ n_r))
    return min(phi, 0.5 * math.pi - phi)


class TestMovingBasis:
    def test_static_diagonal(self):
        grid = np.linspace(0.0, 1.0, 5)
        basis = moving_eigenbasis([np.diag([0.9, 0.1])] * grid.size, grid)
        assert basis.dim == 2
        assert np.all(basis.eigenvalues == np.array([0.9, 0.1]))
        assert basis.degenerate_times == ()
        for k in range(5):
            assert np.array_equal(basis.eigenvectors[k], np.eye(2))

    def test_rotating_family_tracks(self):
        grid = np.linspace(0.0, 2.0, 41)
        basis = moving_eigenbasis([rotating_family(t) for t in grid], grid)
        # per-track eigenvalues stay put while the vectors rotate
        assert np.max(np.abs(basis.eigenvalues - np.array([0.7, 0.3]))) < 1e-12
        for k, t in enumerate(grid):
            want = np.array([math.cos(0.3 * t), math.sin(0.3 * t)])
            got = basis.eigenvectors[k][:, 0]
            assert abs(abs(np.vdot(want, got)) - 1.0) < 1e-10

    def test_phase_continuity(self):
        grid = np.linspace(0.0, 4.0, 81)
        basis = moving_eigenbasis([rotating_family(t) for t in grid], grid)
        for k in range(1, grid.size):
            for i in range(2):
                inner = np.vdot(basis.eigenvectors[k - 1][:, i], basis.eigenvectors[k][:, i])
                assert inner.real >= 0.0

    def test_sequence_input_matches_array(self):
        grid = np.linspace(0.0, 1.0, 9)
        mats = [rotating_family(t) for t in grid]
        b = moving_eigenbasis(mats, grid)
        for a in (moving_eigenbasis(np.stack(mats), grid), moving_eigenbasis(tuple(mats), grid)):
            assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()
            assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()

    def test_accepts_density_matrices(self):
        grid = np.array([0.0, 1.0])
        mats = [DensityMatrix(np.diag([0.8, 0.2]))] * 2
        basis = moving_eigenbasis(mats, grid)
        assert basis.eigenvalues[0][0] == 0.8

    def test_sequence_length_mismatch(self):
        with pytest.raises(ValidationError):
            moving_eigenbasis([np.eye(2)], np.array([0.0, 1.0]))

    def test_empty_grid(self):
        with pytest.raises(ValidationError):
            moving_eigenbasis([np.eye(2)], np.array([]))

    def test_nan_time_rejected(self):
        rho = np.diag([0.8, 0.2])
        with pytest.raises(ValidationError) as err:
            moving_eigenbasis([rho, rho], [0.0, math.nan])
        assert str(err.value) == "grid[1]: must be finite, got nan"

    def test_degeneracy_flagged(self):
        def crossing(t):
            return np.diag([0.5 + 0.1 * (t - 1.0), 0.5 - 0.1 * (t - 1.0)])

        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        basis = moving_eigenbasis([crossing(t) for t in grid], grid)
        assert basis.degenerate_times == (1.0,)

    def test_density_members_give_the_raw_stack_bits(self):
        grid = np.linspace(0.0, 2.0, 9)
        mats = [rotating_family(t) for t in grid]
        members = moving_eigenbasis([DensityMatrix(m) for m in mats], grid)
        raw = moving_eigenbasis(mats, grid)
        assert members.eigenvalues.tobytes() == raw.eigenvalues.tobytes()
        assert members.eigenvectors.tobytes() == raw.eigenvectors.tobytes()

    def test_reversed_traversal_same_spectra(self):
        grid = np.linspace(0.0, 2.0, 21)
        fwd = moving_eigenbasis([rotating_family(t) for t in grid], grid)
        rev = moving_eigenbasis([rotating_family(t) for t in grid[::-1]], grid[::-1])
        assert np.max(np.abs(fwd.eigenvalues - rev.eigenvalues[::-1])) < 1e-12


def preferred_case(source):
    """A catalogue, its report, a grid, and the per-point ``DensityMatrix`` path the stacked check replaced."""
    if source == "frame":
        cfg = OmnesConfig(1.0, 2.0, 1.0, 0.1, 6.0, math.sqrt(0.5), math.sqrt(0.5), 200)
        cm = frame_catalogue_matrix(cfg)
        rule = collective_rate_rule(cfg.m, cfg.omega, cfg.L0, cfg.hbar)
        rep = partition_report(cm.gammas, cm.hbar, rule=rule)
        grid = np.linspace(0.0, 60.0, 81)
    else:
        cm = two_pole_matrix_catalogue()
        rep = partition_report(cm.gammas, cm.hbar, boundary=BOUNDARY_IRRELEVANT)
        grid = np.linspace(0.0, 0.5, 51)
    mats = cm.evaluate(grid, keep=rep.p_relevant)
    traces = np.trace(mats, axis1=-2, axis2=-1).real
    return cm, rep, grid, [DensityMatrix(m / tr) for m, tr in zip(mats, traces)]


class TestPreferredState:
    def test_keeping_everything_reproduces_source(self):
        cm = two_pole_matrix_catalogue()
        rep = partition_report(cm.gammas, cm.hbar, rule=lambda g: 100.0 * max(g))
        assert rep.p_irrelevant == range(2, 2)
        grid = np.linspace(0.0, 2.0, 9)
        states = preferred_state(cm, rep, grid)
        for rho, t in zip(states, grid):
            full = cm.evaluate(t)
            full = full / np.trace(full).real
            assert np.max(np.abs(rho.entries - full)) < 1e-14

    def test_drops_fast_pole(self):
        cm = two_pole_matrix_catalogue()
        rep = partition_report(cm.gammas, cm.hbar, boundary=BOUNDARY_IRRELEVANT)
        assert rep.p_relevant == range(1)
        grid = np.array([0.0, 0.4, 2.0])
        states = preferred_state(cm, rep, grid)
        for rho, t in zip(states, grid):
            want = np.diag([0.75, 0.25]) + np.array([[-0.25, 0.1], [0.1, 0.25]]) * math.exp(-t)
            assert np.max(np.abs(rho.entries - want)) < 1e-14

    def test_states_are_physical(self):
        cm = two_pole_matrix_catalogue()
        rep = partition_report(cm.gammas, cm.hbar)
        grid = np.linspace(0.0, 3.0, 13)
        for rho in preferred_state(cm, rep, grid):
            eigs = np.linalg.eigvalsh(rho.entries)
            assert eigs[0] >= -1e-10
            assert abs(np.trace(rho.entries).real - 1.0) <= 1e-12

    def test_background_only_freezes_at_equilibrium(self):
        cm = two_pole_matrix_catalogue()
        rep = partition_report(cm.gammas, cm.hbar, rule=RULE_BACKGROUND)
        grid = np.array([0.0, 1.0, 50.0])
        states = preferred_state(cm, rep, grid)
        frozen = states[0].entries
        assert np.array_equal(states[1].entries, frozen)
        assert np.array_equal(states[2].entries, frozen)
        # the frozen matrix is the full trajectory's own late-time limit
        late = cm.evaluate(200.0)
        late = late / np.trace(late).real
        assert np.max(np.abs(frozen - late)) < 1e-12

    def test_zero_trace_rejected(self):
        cm = CatalogueMatrix(
            (Pole(0.0, 1.0),), np.zeros((2, 2)), (np.array([[0.0, 1.0], [1.0, 0.0]]),)
        )
        rep = partition_report(cm.gammas, cm.hbar)
        with pytest.raises(ValidationError):
            preferred_state(cm, rep, [0.5])

    def test_trace_within_the_rounding_of_its_terms_rejected(self):
        # the kept trace is 2e-191 against a kept off-diagonal of 0.5: an absolute 1e-200 floor
        # let it through as a "state" with off-diagonal 2.5e190j and eigenvalues +-2.5e190
        cm = CatalogueMatrix(
            [Pole(0.0, 1.0), Pole(0.0, 10.0)], np.diag([1e-191, 1e-191]),
            [[[0, 0.5j], [-0.5j, 0]], [[1.0, 0], [0, 0]]],
        )
        rep = partition_report(cm.gammas, cm.hbar, boundary=BOUNDARY_IRRELEVANT)
        assert rep.p_relevant == range(1)
        with pytest.raises(ValidationError, match=r"vanishing trace at t=0\.0$"):
            preferred_state(cm, rep, [0.0, 0.5])

    def test_the_trace_test_is_relative(self):
        # scaling a catalogue by 2^-800 (trace 1.5e-241) scales every sum exactly: the same state
        cm = two_pole_matrix_catalogue()
        tiny = CatalogueMatrix(cm.poles, cm.equilibrium * 2.0**-800, cm.amplitudes * 2.0**-800, cm.hbar)
        rep = partition_report(cm.gammas, cm.hbar)
        grid = [0.0, 0.5, 3.0]
        assert preferred_state(tiny, rep, grid).entries.tobytes() == preferred_state(cm, rep, grid).entries.tobytes()

    def test_a_huge_equilibrium_is_a_state(self):
        # ||EQ||^2 overflows here; the trace test's scale must not (an overflow warning is an error)
        cm = two_pole_matrix_catalogue()
        huge = CatalogueMatrix(cm.poles, cm.equilibrium * 1e200, cm.amplitudes, cm.hbar)
        state = preferred_state(huge, partition_report(cm.gammas, cm.hbar), [0.0, 0.5])
        assert np.array_equal(state.entries.diagonal(axis1=1, axis2=2).real, [[0.75, 0.25]] * 2)

    @pytest.mark.parametrize("grid", [[], 1.0, [[0.0, 1.0]]], ids=["empty", "scalar", "2-D"])
    def test_grid_must_be_nonempty_and_1d(self, grid):
        # a number once gave a bare IndexError, and a (1, 2) grid a complaint about a (1, 2, 2, 2) stack
        cm = two_pole_matrix_catalogue()
        with pytest.raises(ValidationError) as err:
            preferred_state(cm, partition_report(cm.gammas, cm.hbar), grid)
        assert str(err.value) == "grid must be a nonempty 1-D array"

    def test_foreign_report_rejected(self):
        cm = two_pole_matrix_catalogue()
        with pytest.raises(ValidationError):
            preferred_state(cm, partition_report((0.5, 2.0, 8.0)), [0.0, 1.0])

    @pytest.mark.parametrize("source", ["frame", "two-pole"])
    def test_equals_one_density_matrix_per_point(self, source):
        cm, rep, grid, want = preferred_case(source)
        got = preferred_state(cm, rep, grid)
        assert len(got) == grid.size
        assert all(type(rho) is DensityMatrix for rho in got)
        assert [rho.entries.tobytes() for rho in got] == [rho.entries.tobytes() for rho in want]

    @pytest.mark.parametrize("source", ["frame", "two-pole"])
    def test_is_one_read_only_family(self, source):
        cm, rep, grid, want = preferred_case(source)
        family = preferred_state(cm, rep, grid)
        assert type(family) is DensityFamily
        assert family.entries.shape == (grid.size, *want[0].entries.shape)
        assert not family.entries.flags.writeable
        assert family.entries.tobytes() == b"".join(rho.entries.tobytes() for rho in want)
        assert all(np.shares_memory(rho.entries, family.entries) for rho in family)
        assert eigh(family).entries is family.entries

    def test_family_is_not_checked_again(self, monkeypatch):
        cm, rep, grid, _ = preferred_case("two-pole")
        family = preferred_state(cm, rep, grid)
        rho_r = [DensityMatrix(cm.evaluate(t)) for t in grid]
        env = lambda t: cm.dropped_envelope(t, rep.p_irrelevant)
        calls = []
        monkeypatch.setattr("decopoles.numerics.hermitian_average", calls.append)
        basis = moving_eigenbasis(family, grid)
        profile = convergence_profile(rho_r, family, grid, t_D=rep.t_D, envelope=env)
        assert calls == []
        listed = list(family)
        want = moving_eigenbasis(listed, grid)
        assert basis.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert basis.eigenvectors.tobytes() == want.eigenvectors.tobytes()
        assert profile.tobytes() == convergence_profile(rho_r, listed, grid, rep.t_D, env).tobytes()

    def test_nan_time_rejected(self):
        cm = two_pole_matrix_catalogue()
        rep = partition_report(cm.gammas, cm.hbar, boundary=BOUNDARY_IRRELEVANT)
        with pytest.raises(ValidationError) as err:
            preferred_state(cm, rep, [0.0, math.nan])
        assert str(err.value) == "grid[1]: must be finite, got nan"
        # t = inf is no time either: the domain holds finite times only
        with pytest.raises(ValidationError) as err:
            preferred_state(cm, rep, [0.0, math.inf])
        assert str(err.value) == "grid[1]: must be finite, got inf"


class TestConvergenceProfile:
    def grid(self):
        return np.linspace(0.0, 0.5, 51)  # t_D = 0.1 for the two-pole model

    def profile(self, envelope=True):
        cm = two_pole_matrix_catalogue()
        rep = partition_report(cm.gammas, cm.hbar, boundary=BOUNDARY_IRRELEVANT)
        grid = self.grid()
        rho_p = preferred_state(cm, rep, grid)
        rho_r = [DensityMatrix(cm.evaluate(t)) for t in grid]
        env = (lambda t: cm.dropped_envelope(t, rep.p_irrelevant)) if envelope else None
        return convergence_profile(rho_r, rho_p, grid, t_D=0.1, envelope=env)

    def test_identical_families_have_zero_angle(self):
        grid = self.grid()
        cm = two_pole_matrix_catalogue()
        rho = [DensityMatrix(cm.evaluate(t)) for t in grid]
        for dist, mat in zip(convergence_profile(rho, rho, grid, t_D=0.1), rho):
            # rho_R - rho_P is 0, so the bound is its rounding term alone, 8 d u ||rho||_2 / gap
            norm = np.max(np.abs(eigh(mat).eigenvalues))
            assert dist.bound == 8.0 * 2 * U * norm / dist.eigenvalue_gap
            assert dist.subspace_angle <= dist.bound
            assert dist.max_eigenvalue_discrepancy == 0.0
            assert math.isnan(dist.estimate)
            assert dist.reliable

    def test_profile_is_a_record_array_of_columns(self):
        profile = self.profile()
        assert isinstance(profile, np.recarray)
        assert profile.dtype.names == PROFILE_FIELDS
        assert profile.shape == self.grid().shape
        assert np.array_equal(profile.t, self.grid())
        assert profile.reliable.dtype == bool
        for k in range(profile.size):
            for name in PROFILE_FIELDS:
                assert profile[k][name] == getattr(profile, name)[k]
                assert getattr(profile[k], name) == profile[name][k]

    def test_bound_reads_the_states_and_not_the_envelope(self):
        profile = self.profile(envelope=False)
        assert np.isnan(profile.estimate).all()
        assert np.isfinite(profile.bound).all()
        assert np.isfinite(self.profile().estimate).all()
        assert profile.bound.tobytes() == self.profile().bound.tobytes()

    def test_reliable_at_exactly_the_gap_tolerance(self):
        # LAPACK returns a diagonal matrix's entries exactly, so the gaps are
        # _GAP_TOL itself, just below it, and just above it
        below = np.nextafter(_GAP_TOL, 0.0)
        grid = np.array([0.0, 1.0, 2.0])
        rho = [np.diag([0.0, gap]) for gap in (_GAP_TOL, below, 2.0 * _GAP_TOL)]
        profile = convergence_profile(rho, rho, grid, t_D=0.5)
        assert profile.eigenvalue_gap.tolist() == [_GAP_TOL, below, 2.0 * _GAP_TOL]
        assert profile.reliable.tolist() == [True, False, True]

    def test_angle_matches_closed_form(self):
        profile = self.profile()
        at = {round(d.t, 10): d for d in profile}
        d2 = at[0.2]  # two decoherence times in
        assert d2.subspace_angle == pytest.approx(closed_form_angle(0.2), abs=1e-12)
        assert d2.subspace_angle == pytest.approx(0.0755684811203953, abs=1e-12)

    def test_bound_holds_at_every_reliable_point(self):
        profile = self.profile()
        assert profile.reliable.all()
        assert (profile.subspace_angle <= profile.bound).all()

    def test_bound_column_definition(self):
        # (2 ||rho_R - rho_P||_2 + 8 d u ||rho||_2) / gap, the norms here from numpy's SVD and eigvalsh
        cm = two_pole_matrix_catalogue()
        rho_p = preferred_state(cm, partition_report(cm.gammas, cm.hbar, boundary=BOUNDARY_IRRELEVANT), self.grid())
        for dist, p in zip(self.profile(), rho_p):
            r = cm.evaluate(dist.t)
            size = max(np.max(np.abs(np.linalg.eigvalsh(m))) for m in (r, p.entries))
            want = (2.0 * np.linalg.norm(r - p.entries, 2) + 8.0 * 2 * U * size) / dist.eigenvalue_gap
            assert dist.bound == pytest.approx(want, rel=1e-14)

    def test_estimate_column_definition(self):
        cm = two_pole_matrix_catalogue()
        for dist in self.profile():
            want = cm.dropped_envelope(dist.t, range(1, 2)) / dist.eigenvalue_gap
            assert dist.estimate == pytest.approx(want, rel=1e-12)

    def test_angle_shrinks_with_time(self):
        profile = self.profile(envelope=False)
        angles = [d.subspace_angle for d in profile if d.t >= 0.1]
        assert angles[-1] < angles[len(angles) // 2] < angles[0]

    def test_grid_must_span_three_t_d(self):
        cm = two_pole_matrix_catalogue()
        grid = np.linspace(0.0, 0.2, 11)
        rho = [DensityMatrix(cm.evaluate(t)) for t in grid]
        with pytest.raises(ValidationError):
            convergence_profile(rho, rho, grid, t_D=0.1)

    def test_negative_grid_rejected(self):
        # named by the one time rule, at the grid's first negative entry
        for grid, message in (
            (np.linspace(-0.1, 0.5, 11), "grid[0]: must be >= 0, got -0.1"),
            (np.array([0.0, -1.0, 5.0]), "grid[1]: must be >= 0, got -1.0"),
        ):
            rho = [np.diag([0.8, 0.2])] * grid.size
            with pytest.raises(ValidationError) as err:
                convergence_profile(rho, rho, grid, t_D=0.1)
            assert str(err.value) == message

    def test_reversed_grid_accepted(self):
        cm = two_pole_matrix_catalogue()
        grid = np.linspace(0.0, 3.0, 7)[::-1]  # spans exactly 3 t_D = 3
        rho = [DensityMatrix(cm.evaluate(t)) for t in grid]
        assert moving_eigenbasis(rho, grid).times.size == 7
        profile = convergence_profile(rho, rho, grid, t_D=1.0)
        forward = convergence_profile(rho[::-1], rho[::-1], grid[::-1], t_D=1.0)
        for name in PROFILE_FIELDS:
            assert np.array_equal(profile[name], forward[name][::-1], equal_nan=True)

    def test_nan_time_rejected(self):
        rho = [np.diag([0.8, 0.2])] * 3
        with pytest.raises(ValidationError) as err:
            convergence_profile(rho, rho, [0.0, 1.0, math.nan], t_D=0.1)
        assert str(err.value) == "grid[2]: must be finite, got nan"

    def test_bad_t_d(self):
        grid = self.grid()
        rho = [np.eye(2) / 2] * grid.size
        for t_D, why in ((0.0, "> 0"), (math.nan, "finite")):
            with pytest.raises(ValidationError) as err:
                convergence_profile(rho, rho, grid, t_D=t_D)
            assert str(err.value) == f"t_D: must be {why}, got {t_D!r}"

    def test_infinite_t_d_is_named(self):
        # named as t_D, not as a grid that cannot span 3 t_D = inf
        grid = self.grid()
        rho = [np.eye(2) / 2] * grid.size
        with pytest.raises(ValidationError) as err:
            convergence_profile(rho, rho, grid, t_D=math.inf)
        assert str(err.value) == "t_D: must be finite, got inf"

    def test_dimension_mismatch(self):
        grid = self.grid()
        a = [np.eye(2) / 2] * grid.size
        b = [np.eye(3) / 3] * grid.size
        with pytest.raises(ValidationError):
            convergence_profile(a, b, grid, t_D=0.1)

    def test_degenerate_spectrum_marked_unreliable(self):
        grid = self.grid()
        rho = [np.eye(2) / 2] * grid.size
        for dist in convergence_profile(rho, rho, grid, t_D=0.1, envelope=lambda t: 1.0):
            assert not dist.reliable
            assert dist.eigenvalue_gap == 0.0 and math.copysign(1.0, dist.eigenvalue_gap) == 1.0  # not -0.0
            assert dist.bound == math.inf
            assert dist.estimate == math.inf

    def test_envelope_called_once_with_the_grid(self):
        cm = two_pole_matrix_catalogue()
        calls = []

        def envelope(t):
            calls.append(np.array(t, copy=True))
            return cm.dropped_envelope(t, range(1, 2))

        grid = self.grid()
        rho = [DensityMatrix(cm.evaluate(t)) for t in grid]
        profile = convergence_profile(rho, rho, grid, t_D=0.1, envelope=envelope)
        assert len(calls) == 1
        assert np.array_equal(calls[0], grid)
        assert [d.estimate for d in profile] == [
            cm.dropped_envelope(t, range(1, 2)) / d.eigenvalue_gap for t, d in zip(grid.tolist(), profile)
        ]

    @pytest.mark.parametrize(
        "envelope",
        [lambda t: np.ones(t.size - 1), lambda t: np.ones((t.size, 1)), lambda t: [1.0, 2.0]],
        ids=["short", "column", "list"],
    )
    def test_wrong_shape_envelope_rejected(self, envelope):
        cm = two_pole_matrix_catalogue()
        grid = self.grid()
        rho = [DensityMatrix(cm.evaluate(t)) for t in grid]
        with pytest.raises(ValidationError, match="envelope"):
            convergence_profile(rho, rho, grid, t_D=0.1, envelope=envelope)


def skewed(t):
    return np.array([[0.5, 0.2], [0.0, 0.5]]) if t == 1.0 else np.diag([0.6, 0.4])


class TestPlainFamiliesChecked:
    """Plain arrays, as a list or as one stack, are still checked for Hermiticity."""

    GRID = np.array([0.0, 1.0, 2.0, 3.0])
    FAMILIES = [np.stack([skewed(t) for t in GRID]), [skewed(t) for t in GRID]]

    @pytest.mark.parametrize("family", FAMILIES, ids=["array", "list"])
    def test_moving_eigenbasis_rejects(self, family):
        with pytest.raises(ValidationError, match="not Hermitian"):
            moving_eigenbasis(family, self.GRID)

    @pytest.mark.parametrize("family", FAMILIES, ids=["array", "list"])
    def test_convergence_profile_rejects(self, family):
        good = [DensityMatrix(np.diag([0.6, 0.4]))] * self.GRID.size
        for rho_r, rho_p in ((family, good), (good, family)):
            with pytest.raises(ValidationError, match="not Hermitian"):
                convergence_profile(rho_r, rho_p, self.GRID, t_D=1.0)

    def test_one_plain_member_among_checked_ones(self):
        family = [DensityMatrix(np.diag([0.6, 0.4]))] * 3 + [skewed(1.0)]
        with pytest.raises(ValidationError, match="not Hermitian"):
            moving_eigenbasis(family, self.GRID)


class TestFamilyForms:
    """A family reaches eigh as it is: one matrix per grid point, or a ValidationError."""

    GRID = np.array([0.0, 1.0])
    GOOD = [DensityMatrix(np.diag([0.6, 0.4]))] * 2
    BAD = [5, rotating_family, np.eye(2) / 2.0, [np.eye(2) / 2.0, np.eye(3) / 3.0], [np.eye(2) / 2.0] * 3]
    IDS = ["number", "callable", "one-matrix", "two-shapes", "three-for-two"]

    @pytest.mark.parametrize("family", BAD, ids=IDS)
    def test_moving_eigenbasis_rejects(self, family):
        with pytest.raises(ValidationError):
            moving_eigenbasis(family, self.GRID)

    @pytest.mark.parametrize("family", BAD, ids=IDS)
    def test_convergence_profile_rejects(self, family):
        for rho_r, rho_p in ((family, self.GOOD), (self.GOOD, family)):
            with pytest.raises(ValidationError):
                convergence_profile(rho_r, rho_p, self.GRID, t_D=0.1)

    def test_count_mismatch_messages(self):
        with pytest.raises(ValidationError) as err:
            moving_eigenbasis(np.eye(2) / 2.0, self.GRID)  # d == T: one matrix, not two
        assert str(err.value) == "one matrix, not a stack, was supplied for a grid of 2 points"
        with pytest.raises(ValidationError) as err:
            moving_eigenbasis([np.eye(2) / 2.0] * 3, self.GRID)
        assert str(err.value) == "3 matrices supplied for a grid of 2 points"


def reference_greedy_match(overlaps):
    """Reference: largest remaining overlap first, one row and column at a time."""
    d = overlaps.shape[0]
    perm = np.full(d, -1, dtype=int)
    scores = np.array(overlaps, dtype=float)
    for _ in range(d):
        i, j = np.unravel_index(np.argmax(scores), scores.shape)
        perm[i] = j
        scores[i, :] = -1.0
        scores[:, j] = -1.0
    return perm


def loop_moving_eigenbasis(mats, grid, gap_tol=1e-10):
    """Reference: one eigh and one greedy match per time point.

    Returns eigenvalues, eigenvectors, degenerate times, and the column of
    each point's decomposition that every track follows.
    """
    vals_out, vecs_out, tracks, degenerate = [], [], [], []
    prev_vecs = None
    for tk, mat in zip(grid, mats):
        dec = eigh(mat)
        vals = np.array(dec.eigenvalues)
        vecs = np.array(dec.eigenvectors)
        perm = np.arange(vals.size)
        if prev_vecs is not None:
            overlaps = np.abs(prev_vecs.conj().T @ vecs)
            perm = reference_greedy_match(overlaps)
            vals = vals[perm]
            vecs = vecs[:, perm]
            for i in range(vecs.shape[1]):
                inner = complex(np.vdot(prev_vecs[:, i], vecs[:, i]))
                if abs(inner) > 0.0:
                    vecs[:, i] *= inner.conjugate() / abs(inner)
        if vals.size > 1:
            gaps = np.abs(np.diff(np.sort(vals)))
            if float(np.min(gaps)) < gap_tol:
                degenerate.append(float(tk))
        vals_out.append(vals)
        vecs_out.append(vecs)
        tracks.append(perm)
        prev_vecs = vecs
    return np.array(vals_out), np.array(vecs_out), tuple(degenerate), np.array(tracks)


def loop_convergence_profile(mats_r, mats_p, grid, envelope=None, gap_tol=1e-10):
    """Reference: the per-time pairing, angle, gap, bound and estimate of two loop bases, as columns.

    A pair's angle is atan2 of the root of the other squared overlaps in its column and its own
    overlap; the bound is (2 ||rho_R - rho_P||_2 + 8 d u ||rho||_2) / gap with the first norm from
    numpy's SVD of the checked matrices' difference.
    """
    vals_r, vecs_r, _, _ = loop_moving_eigenbasis(mats_r, grid, gap_tol)
    vals_p, vecs_p, _, _ = loop_moving_eigenbasis(mats_p, grid, gap_tol)
    out = []
    for k, tk in enumerate(grid):
        overlaps = np.abs(vecs_p[k].conj().T @ vecs_r[k])
        perm = reference_greedy_match(overlaps)
        d = vals_p.shape[1]
        angle = 0.0
        val_err = 0.0
        for i in range(d):
            sin = math.sqrt(sum(float(overlaps[r, perm[i]]) ** 2 for r in range(d) if r != i))
            angle = max(angle, math.atan2(sin, float(overlaps[i, perm[i]])))
            val_err = max(val_err, abs(float(vals_p[k][i] - vals_r[k][perm[i]])))
        pvals = np.sort(vals_p[k])
        gap = float(np.min(np.diff(pvals))) if pvals.size > 1 else math.inf
        spread = float(np.linalg.norm(eigh(mats_r[k]).entries - eigh(mats_p[k]).entries, 2))
        size = max(np.max(np.abs(vals_r[k])), np.max(np.abs(vals_p[k])))
        bound = (2.0 * spread + 8.0 * d * U * size) / gap if gap > 0.0 else math.inf
        estimate = math.nan
        if envelope is not None:
            estimate = float(envelope(float(tk))) / gap if gap > 0.0 else math.inf
        out.append((float(tk), angle, gap, bound, val_err, gap >= gap_tol, estimate))
    return dict(zip(PROFILE_FIELDS, map(np.array, zip(*out))))


def assert_profile_as_loop(got, want, d):
    """``convergence_profile`` against ``loop_convergence_profile`` on d x d families.

    Every column keeps the loop's bits but the angle and the bound.  Both sides take each overlap
    as the modulus of a d-term product of the same LAPACK vectors, which the loop has turned
    twice, so the two overlaps lie within delta = 4 (d + 2) u of each other, u = 2^-53; a pair's
    sine, the root of d - 1 of them squared, moves by at most sqrt(d - 1) delta plus its own
    rounding, and atan2 moves by at most the moves of its two arguments on the unit circle, so
    the angles lie within 2 d delta.  The bound's ||rho_R - rho_P||_2 is one ``eigvalsh`` on one
    side and numpy's SVD on the other, each within about d u of the exact norm, of one difference
    matrix, so the bounds lie within 8 d u of each other, relative.
    """
    for name in ("t", "eigenvalue_gap", "reliable", "max_eigenvalue_discrepancy", "estimate"):
        assert got[name].tobytes() == want[name].astype(got[name].dtype).tobytes(), name
    delta = 4 * (d + 2) * U
    assert np.max(np.abs(got.subspace_angle - want["subspace_angle"])) <= 2 * d * delta
    with np.errstate(invalid="ignore"):  # inf - inf where both bounds are inf
        near = np.abs(got.bound - want["bound"]) <= 8 * d * U * np.abs(want["bound"])
    assert np.all((got.bound == want["bound"]) | near)


def frame_stack(N=200, n_grid=81):
    """Exact frame projections and preferred states of the collective-rate partition."""
    cfg = OmnesConfig(1.0, 2.0, 1.0, 0.1, 6.0, math.sqrt(0.5), math.sqrt(0.5), N)
    cm = frame_catalogue_matrix(cfg)
    rep = partition_report(
        cm.gammas, cm.hbar, rule=collective_rate_rule(cfg.m, cfg.omega, cfg.L0, cfg.hbar)
    )
    grid = np.linspace(0.0, 60.0, n_grid)
    rho_r = [frame_projection(cfg, cfg.z0(), t, closed_form=False).entries for t in grid]
    rho_p = [rho.entries for rho in preferred_state(cm, rep, grid)]
    env = lambda t: 5.0 * cm.dropped_envelope(t, rep.p_irrelevant)
    return grid, rho_r, rho_p, rep.t_D, env


def fock_stack(N=24, n_grid=41):
    """Rank-one Fock density matrices: an N-fold degenerate null space at every point."""
    half = math.sqrt(0.5)
    cfg = OmnesConfig(m=1.0, omega=2.0, hbar=1.0, gamma0=0.1, L0=2.0, a=half, b=half, N=N)
    grid = np.linspace(0.0, 40.0, n_grid)
    return grid, [build_density_matrix(cfg, cfg.z0(0.3), t).entries for t in grid]


def crossing_stack():
    grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    return grid, [np.diag([0.5 + 0.1 * (t - 1.0), 0.5 - 0.1 * (t - 1.0)]) for t in grid]


class TestBatchedAgainstLoop:
    """The one-pass moving basis and profile against the per-point loop they replaced."""

    @pytest.fixture(scope="class")
    def frame(self):
        return frame_stack()

    @pytest.fixture(scope="class")
    def fock(self):
        return fock_stack()

    def assert_same_basis(self, mats, grid):
        want_vals, want_vecs, want_degenerate, want_tracks = loop_moving_eigenbasis(mats, grid)
        got = moving_eigenbasis(mats, grid)
        assert np.array_equal(got.eigenvalues, want_vals)
        assert got.degenerate_times == want_degenerate
        assert np.max(np.abs(got.eigenvectors - want_vecs)) <= 1e-14
        # the column of each point's own decomposition that a track follows
        raw = eigh(np.stack(mats)).eigenvectors
        tracks = np.argmax(np.abs(np.swapaxes(raw.conj(), -1, -2) @ got.eigenvectors), axis=-2)
        assert np.array_equal(tracks, want_tracks)

    def test_frame_stacks(self, frame):
        grid, rho_r, rho_p, _, _ = frame
        self.assert_same_basis(rho_r, grid)
        self.assert_same_basis(rho_p, grid)

    def test_rank_one_fock_stack_takes_the_greedy_fallback(self, fock):
        grid, mats = fock
        vecs = eigh(np.stack(mats)).eigenvectors
        best = np.argmax(np.abs(np.swapaxes(vecs[:-1].conj(), -1, -2) @ vecs[1:]), axis=-1)
        # some step's row argmaxes collide, so the match there is no row-wise argmax
        assert any(len(set(rows)) < len(rows) for rows in best.tolist())
        self.assert_same_basis(mats, grid)

    def test_crossing_family(self):
        grid, mats = crossing_stack()
        self.assert_same_basis(mats, grid)

    def test_frame_profile(self, frame):
        grid, rho_r, rho_p, t_d, env = frame
        got = convergence_profile(rho_r, rho_p, grid, t_D=t_d, envelope=env)
        assert_profile_as_loop(got, loop_convergence_profile(rho_r, rho_p, grid, env), 2)

    def test_two_pole_profile(self):
        cm = two_pole_matrix_catalogue()
        rep = partition_report(cm.gammas, cm.hbar, boundary=BOUNDARY_IRRELEVANT)
        grid = np.linspace(0.0, 0.5, 51)
        rho_p = [rho.entries for rho in preferred_state(cm, rep, grid)]
        rho_r = [cm.evaluate(t) for t in grid]
        got = convergence_profile(rho_r, rho_p, grid, t_D=0.1)
        assert_profile_as_loop(got, loop_convergence_profile(rho_r, rho_p, grid), 2)


class TestPhaseOnFirstRead:
    """``eigh`` fixes phases only when ``eigenvectors`` is read; the profile never reads it."""

    @pytest.fixture(scope="class")
    def frame(self):
        return frame_stack()

    def test_profile_fixes_no_phase(self, frame, monkeypatch):
        grid, rho_r, rho_p, t_d, env = frame
        want = convergence_profile(rho_r, rho_p, grid, t_D=t_d, envelope=env)

        def refuse(_):
            raise AssertionError("convergence_profile fixed a phase")

        monkeypatch.setattr(numerics, "_phase_fix", refuse)
        got = convergence_profile(rho_r, rho_p, grid, t_D=t_d, envelope=env)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", ["frame_r", "frame_p", "fock"])
    def test_eigenvectors_are_phase_fixed_once_on_first_read(self, frame, family, monkeypatch):
        mats = {"frame_r": frame[1], "frame_p": frame[2], "fock": fock_stack()[1]}[family]
        dec = eigh(np.stack(mats))
        values, vecs = np.linalg.eigh(dec.entries)
        assert dec.eigenvalues.tobytes() == values[..., ::-1].tobytes()
        assert dec.unphased_vectors.tobytes() == np.ascontiguousarray(vecs[..., ::-1]).tobytes()
        assert "eigenvectors" not in vars(dec)
        calls = []
        monkeypatch.setattr(numerics, "_phase_fix", lambda v: calls.append(v) or _phase_fix(v))
        first = dec.eigenvectors
        assert dec.eigenvectors is first and len(calls) == 1
        assert first.tobytes() == _phase_fix(vecs[..., ::-1]).tobytes()

    def test_lapack_is_reached_through_the_module_name(self, frame, monkeypatch):
        grid, rho_r, rho_p, t_d, _ = frame
        calls = []
        monkeypatch.setattr(preferred_basis, "eigh", lambda a: calls.append(a) or eigh(a))
        moving_eigenbasis(rho_r, grid)
        assert len(calls) == 1
        convergence_profile(rho_r, rho_p, grid, t_D=t_d)
        assert len(calls) == 3


class TestMacroscopicConvergence:
    """Collective-mode truncation of the displaced-oscillator tower."""

    def test_preferred_basis_is_reached(self):
        cfg = OmnesConfig(
            m=1.0, omega=2.0, hbar=1.0, gamma0=0.1, L0=6.0,
            a=math.sqrt(0.5), b=math.sqrt(0.5), N=255,
        )
        cm = frame_catalogue_matrix(cfg)
        rule = collective_rate_rule(cfg.m, cfg.omega, cfg.L0, cfg.hbar)
        rep = partition_report(cm.gammas, cm.hbar, rule=rule)
        t_r = 1.0 / cfg.gamma0
        grid = np.linspace(0.0, 6.0 * t_r, 289)

        rho_p = preferred_state(cm, rep, grid)
        rho_r = [frame_projection(cfg, cfg.z0(), t, closed_form=False) for t in grid]
        profile = convergence_profile(rho_r, rho_p, grid, t_D=rep.t_D)

        for dist in profile:
            if dist.t >= 5.0 * t_r:
                assert dist.subspace_angle < 1e-6
            if dist.reliable:
                assert dist.subspace_angle <= dist.bound


class TestConvergenceProfileOnTheSeedOneRung:
    """The angle reads 0 only where the bases agree, and stays within the bound, on one benchmark rung.

    Planted defects they catch: ``arccos`` of the matched overlap as the angle (42 of the 80
    reliable points past t_D read 0 with sin theta > 0), and the estimate envelope / gap as the
    bound (NaN without an envelope; with the dropped envelope the angle exceeds it at t = 1.902,
    2.261e-6 against 1.600e-6).

    The rung is the benchmark's seed-1 N = 200 frame rung: m = 1, omega = 2, hbar = 1,
    a = b = sqrt(1/2), and gamma0, L0 as drawn, over 81 points on [0, 6 t_R] with the
    collective-rate partition.  rho_R is ``frame_projection(closed_form=False)``.  sin theta
    of a matched pair is the root of the sum of the other squared overlaps in its column
    of |V_P^H V_R|, with V_P and V_R from one ``eigh`` of each family.
    """

    CFG = OmnesConfig(
        m=1.0, omega=2.0, hbar=1.0, gamma0=0.15772049688608442, L0=6.125677666997265,
        a=math.sqrt(0.5), b=math.sqrt(0.5), N=200,
    )

    @pytest.fixture(scope="class")
    def rung(self):
        cfg = self.CFG
        cm = frame_catalogue_matrix(cfg)
        rep = partition_report(cm.gammas, cm.hbar, rule=collective_rate_rule(cfg.m, cfg.omega, cfg.L0, cfg.hbar))
        grid = np.linspace(0.0, 6.0 * cfg.hbar / cfg.gamma0, 81)
        rho_p = preferred_state(cm, rep, grid)
        rho_r = [frame_projection(cfg, cfg.z0(), float(t), closed_form=False) for t in grid]
        return cm, rep, grid, rho_r, rho_p

    @staticmethod
    def sines(rho_r, rho_p):
        overlaps = np.abs(np.swapaxes(eigh(rho_p).unphased_vectors.conj(), -1, -2) @ eigh(rho_r).unphased_vectors)
        out = []
        for m in overlaps:
            perm = reference_greedy_match(m)
            out.append(max(math.sqrt(sum(m[r, j] ** 2 for r in range(len(m)) if r != i)) for i, j in enumerate(perm)))
        return np.array(out)

    def test_angle_reads_zero_only_where_the_bases_agree(self, rung):
        cm, rep, grid, rho_r, rho_p = rung
        profile = convergence_profile(rho_r, rho_p, grid, t_D=rep.t_D)
        sines = self.sines(rho_r, rho_p)
        past = profile.reliable & (profile.t >= rep.t_D)
        zero = past & (profile.subspace_angle == 0.0) & (sines > 0.0)
        assert not zero.any(), (
            f"{zero.sum()} of {past.sum()} angles read 0 with sin theta > 0, "
            f"first at t = {profile.t[zero][0]:.4g} (sin theta = {sines[zero][0]:.3g})"
        )

    def test_angle_within_the_bound(self, rung):
        cm, rep, grid, rho_r, rho_p = rung
        profile = convergence_profile(rho_r, rho_p, grid, t_D=rep.t_D)
        past = profile.reliable & (profile.t >= rep.t_D)
        over = past & ~(profile.subspace_angle <= profile.bound)  # a NaN bound is no bound
        ratio = np.where(over, profile.subspace_angle / profile.bound, 0.0)
        worst = int(np.argmax(ratio))
        assert not over.any(), (
            f"{over.sum()} of {past.sum()} angles exceed the bound, worst at t = {profile.t[worst]:.4g}: "
            f"{profile.subspace_angle[worst]:.4g} against {profile.bound[worst]:.4g} (ratio {ratio[worst]:.4g})"
        )


class TestBiFriedrich:
    def model(self):
        part1 = PoleCatalogue(0.5, (Mode(Pole(0.0, 1.0), 1.0),))
        part2 = PoleCatalogue(0.25, (Mode(Pole(0.0, 0.01), 1.0),))
        return BiFriedrichModel(part1, part2)

    def test_part_selection(self):
        m = self.model()
        assert m.part("O1") is m.part1
        assert m.part("O2") is m.part2
        assert m.part(0) is m.part1
        assert m.part(1) is m.part2
        with pytest.raises(ValidationError):
            m.part("O3")

    def test_relaxation_times(self):
        m = self.model()
        assert m.relaxation_time(0) == 1.0
        assert m.relaxation_time(1) == 100.0

    def test_tail_only_part_already_relaxed(self):
        quiet = PoleCatalogue(0.5, (), KhalfinTail(0.1, 1.0, 3.0))
        m = BiFriedrichModel(self.model().part1, quiet)
        assert m.relaxation_time(1) == 0.0

    def test_observable_signal_sees_own_part_only(self):
        m = self.model()
        grid = np.linspace(0.0, 5.0, 21)
        s1 = observable_signal(m, 0, grid)
        assert np.array_equal(s1.values, synthesize(m.part1, grid).values)

    def test_verdict_window(self):
        # verdicts are (classical, quantum) exactly on the open window
        # between the two relaxation times
        m = self.model()
        grid = np.linspace(0.25, 149.75, 300)  # never hits 1 or 100 exactly
        result = bifriedrich_run(m, grid)
        assert result.t_R1 == 1.0
        assert result.t_R2 == 100.0
        for t, v1, v2 in result.verdicts:
            if 1.0 < t < 100.0:
                assert (v1, v2) == ("classical", "quantum")
            else:
                assert (v1, v2) != ("classical", "quantum")

    def test_verdict_boundary_is_strict(self):
        m = self.model()
        result = bifriedrich_run(m, np.array([0.0, 1.0, 2.0]))
        assert result.verdicts[1][1] == "quantum"  # t == t_R1 not yet past it
        assert result.verdicts[2][1] == "classical"

    def test_verdicts_are_columns_split_at_t_r(self):
        grid = 0.5 * np.arange(401)  # holds t_R1 = 1 and t_R2 = 100 exactly
        verdicts = bifriedrich_run(self.model(), grid).verdicts
        assert isinstance(verdicts, np.recarray)
        assert verdicts.dtype.names == ("t", "part1_state", "part2_state")
        assert np.array_equal(verdicts.t, grid)
        q, c = "quantum", "classical"
        assert verdicts.part1_state.tolist() == [q] * 3 + [c] * 398
        assert verdicts.part2_state.tolist() == [q] * 201 + [c] * 200
        assert verdicts.tolist()[3] == (1.5, c, q)
        assert all(type(v) is str for row in verdicts.tolist() for v in row[1:])

    def test_signal1_blind_to_part2(self):
        grid = np.linspace(0.0, 20.0, 101)
        base = self.model()
        mutated = BiFriedrichModel(
            base.part1,
            PoleCatalogue(
                0.9,
                (Mode(Pole(0.0, 0.02), 2.0), Mode(Pole(0.0, 3.0), -1.0)),
                KhalfinTail(0.3, 2.0, 3.0),
            ),
        )
        s_base = bifriedrich_run(base, grid).signal1
        s_mut = bifriedrich_run(mutated, grid).signal1
        assert np.array_equal(s_base.values, s_mut.values)
        assert signal_to_csv(s_base) == signal_to_csv(s_mut)
