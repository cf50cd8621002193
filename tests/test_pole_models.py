"""Catalogue construction, timescales, partitioning, serialization."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from decopoles import pole_models
from decopoles.errors import ValidationError
from decopoles.omnes import OmnesConfig, collective_rate, frame_catalogue_matrix
from decopoles.pole_models import (
    BOUNDARY_IRRELEVANT,
    BOUNDARY_RELEVANT,
    RULE_BACKGROUND,
    RULE_CUSTOM,
    RULE_SECOND_SMALLEST,
    RULE_SLOWEST,
    CatalogueMatrix,
    CoincidenceResult,
    KhalfinTail,
    Mode,
    Pole,
    PoleCatalogue,
    Signal,
    TimescaleReport,
    catalogue_from_json,
    catalogue_to_json,
    check_report_matches,
    coincidence_check,
    collective_rate_rule,
    csv_chunks,
    decoherence_time,
    model1_times,
    model2_times,
    partition_report,
    preferred_signal,
    signal_csv_chunks,
    signal_from_csv,
    signal_to_csv,
    synthesize,
)
from test_omnes import frame_f2, rho0_norm


def figure_catalogue(equilibrium=0.0, khalfin=None, hbar=1.0):
    """Three well-separated poles, amplitudes 3/2/1."""
    return PoleCatalogue(
        equilibrium,
        (
            Mode(Pole(0.0, 0.1), 3.0),
            Mode(Pole(0.0, 1.0), 2.0),
            Mode(Pole(0.0, 5.0), 1.0),
        ),
        khalfin,
        hbar,
    )


class TestBuildingBlocks:
    def test_pole_z(self):
        p = Pole(2.0, 0.5)
        assert p.z == complex(2.0, -0.25)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_pole_bad_gamma(self, gamma):
        with pytest.raises(ValidationError):
            Pole(1.0, gamma)

    def test_pole_bad_omega(self):
        with pytest.raises(ValidationError):
            Pole(math.inf, 1.0)

    def test_khalfin_values(self):
        tail = KhalfinTail(0.4, 2.0, 3.0)
        assert tail(0.0) == 0.4
        assert tail(2.0) == pytest.approx(0.4 / 8.0, rel=1e-15)

    def test_khalfin_power_law_ratio(self):
        # for t >> tau, doubling t multiplies the tail by 2^-p
        tail = KhalfinTail(1.0, 1.0, 3.0)
        t = 1e6
        assert tail(2 * t) / tail(t) == pytest.approx(2.0**-3, rel=1e-5)

    def test_tail_at_or_before_minus_tau_is_refused(self):
        # (1 + t / tau) ** (-p) warned at t <= -tau (divide by zero, then a negative base's invalid power);
        # the tail and every catalogue that carries it run forward from t = 0, and refuse the time first
        for p, t in ((3.0, -1.0), (2.5, -2.0)):
            tail = KhalfinTail(0.5, 1.0, p)
            cat = PoleCatalogue(0.0, ((Pole(0.0, 1.0), 1.0),), tail)
            with pytest.raises(ValidationError) as err:
                synthesize(cat, np.array([t, 0.0, 1.0]))
            assert str(err.value) == f"grid[0]: must be >= 0, got {t!r}"
            with pytest.raises(ValidationError) as err:
                tail(t)
            assert str(err.value) == f"t: must be >= 0, got {t!r}"

    @pytest.mark.parametrize(
        "kwargs", [dict(tau=0.0), dict(tau=-1.0), dict(p=0.0), dict(p=-2.0), dict(amplitude=math.inf)]
    )
    def test_khalfin_bad_params(self, kwargs):
        params = dict(amplitude=1.0, tau=1.0, p=3.0)
        params.update(kwargs)
        with pytest.raises(ValidationError):
            KhalfinTail(**params)

    def test_mode_bad_amplitude(self):
        with pytest.raises(ValidationError):
            Mode(Pole(0.0, 1.0), complex(math.nan, 0.0))

    def test_catalogue_needs_content(self):
        with pytest.raises(ValidationError):
            PoleCatalogue(0.0, ())

    def test_catalogue_equilibrium_must_be_finite(self):
        with pytest.raises(ValidationError, match=r"^equilibrium: must be finite, got nan$"):
            PoleCatalogue(math.nan, ((Pole(0.0, 1.0), 1.0),))

    def test_catalogue_tail_only(self):
        cat = PoleCatalogue(0.1, (), KhalfinTail(0.5, 1.0, 3.0))
        assert cat.gammas == ()

    def test_catalogue_khalfin_type(self):
        with pytest.raises(ValidationError):
            PoleCatalogue(0.0, (Mode(Pole(0.0, 1.0), 1.0),), khalfin=lambda t: t)

    def test_canonical_ordering(self):
        cat = PoleCatalogue(
            0.0,
            (Mode(Pole(0.0, 5.0), 1.0), Mode(Pole(0.0, 0.1), 3.0), Mode(Pole(0.0, 1.0), 2.0)),
        )
        assert cat.gammas == (0.1, 1.0, 5.0)
        assert all(type(g) is float for g in cat.gammas)
        # the amplitude column is read-only and sorted with the modes
        assert cat.amplitudes.dtype == complex and cat.amplitudes.shape == (3,)
        assert cat.amplitudes.tolist() == [m.amplitude for m in cat.modes] == [3.0, 2.0, 1.0]
        with pytest.raises(ValueError):
            cat.amplitudes[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cat.modes = ()

    def test_modes_accept_bare_tuples(self):
        cat = PoleCatalogue(0.0, ((Pole(0.0, 2.0), 1.5), ((1.0, 0.5), 2.5)))
        assert cat.gammas == (0.5, 2.0)
        assert cat.modes[0].amplitude == 2.5
        # all three input forms, in either order, make one catalogue
        for modes in (
            (Mode(Pole(0.0, 2.0), 1.5), Mode(Pole(1.0, 0.5), 2.5)),
            (((1.0, 0.5), 2.5), (Pole(0.0, 2.0), 1.5)),
        ):
            other = PoleCatalogue(0.0, modes)
            assert other == cat and hash(other) == hash(cat)


class TestSynthesize:
    def test_initial_value(self):
        cat = figure_catalogue(equilibrium=0.25, khalfin=KhalfinTail(0.5, 1.0, 3.0))
        s = synthesize(cat, [0.0])
        assert s.values[0] == pytest.approx(0.25 + 6.0 + 0.5, rel=1e-15)

    def test_three_mode_point_value(self):
        s = synthesize(figure_catalogue(), [0.0, 2.0])
        want = 3 * math.exp(-0.2) + 2 * math.exp(-2.0) + math.exp(-10.0)
        assert s.values[1].real == pytest.approx(want, rel=1e-14)
        assert s.values[1].imag == 0.0

    def test_order_invariance_bitwise(self):
        grid = np.linspace(0.0, 6.0, 97)
        a = synthesize(figure_catalogue(), grid)
        shuffled = PoleCatalogue(
            0.0,
            (Mode(Pole(0.0, 1.0), 2.0), Mode(Pole(0.0, 5.0), 1.0), Mode(Pole(0.0, 0.1), 3.0)),
        )
        b = synthesize(shuffled, grid)
        assert np.array_equal(a.values, b.values)

    def test_long_linspace_grid_accepted(self):
        # linspace roundoff on this grid (~1.6e-12) grows with the endpoint
        # magnitude and exceeds the 1e-12 step-relative tolerance alone
        grid = np.linspace(0.0, 1e4, 1_000_001)
        s = synthesize(figure_catalogue(), grid)
        assert len(s) == grid.size

    def test_monotone_envelope(self):
        # positive amplitudes, no tail: strictly decreasing trajectory
        s = synthesize(figure_catalogue(), np.linspace(0.0, 10.0, 201))
        assert np.all(np.diff(s.values.real) < 0.0)
        assert np.all(s.values.imag == 0.0)

    def test_equilibrium_limit(self):
        cat = figure_catalogue(equilibrium=0.7, khalfin=KhalfinTail(0.2, 1.0, 3.0))
        for t_end in (50.0, 200.0):
            s = synthesize(cat, [t_end])
            ceiling = sum(
                abs(m.amplitude) * math.exp(-m.pole.gamma * t_end) for m in cat.modes
            ) + abs(cat.khalfin(t_end))
            assert abs(s.values[0] - 0.7) <= ceiling * (1 + 1e-12)

    def test_hbar_rescales_time(self):
        cat = figure_catalogue(hbar=2.0)
        ref = figure_catalogue(hbar=1.0)
        a = synthesize(cat, [3.0])
        b = synthesize(ref, [1.5])
        assert a.values[0] == b.values[0]

    def test_full_rendering_of_a_plain_catalogue(self):
        # a catalogue is its data: the stored omega rotates a mode however it was built
        cat = PoleCatalogue(0.0, (Mode(Pole(2.0, 0.4), 2.0),))
        full = synthesize(cat, [1.0])
        want = 2 * math.exp(-0.4) * complex(math.cos(2.0), -math.sin(2.0))
        assert full.values[0] == pytest.approx(want, rel=1e-14)

    def test_empty_grid(self):
        with pytest.raises(ValidationError):
            synthesize(figure_catalogue(), [])

    @pytest.mark.parametrize("grid", [[], 1.0, [[0.0, 1.0]]], ids=["empty", "scalar", "2-D"])
    def test_grid_must_be_nonempty_and_1d(self, grid):
        with pytest.raises(ValidationError) as err:
            synthesize(figure_catalogue(), grid)
        assert str(err.value) == "grid must be a nonempty 1-D array"

    def test_nan_time_rejected(self):
        with pytest.raises(ValidationError) as err:
            synthesize(figure_catalogue(), [0.0, math.nan])
        assert str(err.value) == "grid[1]: must be finite, got nan"

    @pytest.mark.parametrize("omega", [0.0, 0.5], ids=["still", "turning"])
    def test_sum_past_the_float_range_is_rejected_without_a_warning(self, omega):
        # each mode is finite, their sum 2e308 is not: Signal's finiteness check decides, and no
        # numpy overflow warning escapes (an error under this suite's warning filter), on the
        # envelope path and on the path that turns each mode at its omega
        cat = PoleCatalogue(0.0, ((Pole(omega, 1.0), 1e308), (Pole(omega, 2.0), 1e308)))
        report = decoherence_time(cat)
        for build in (lambda: synthesize(cat, [0.0, 0.5]), lambda: preferred_signal(cat, report, [0.0, 0.5])):
            with pytest.raises(ValidationError) as err:
                build()
            assert str(err.value) == "signal contains NaN or Inf"


class TestSignal:
    def test_len(self):
        s = Signal(np.linspace(0, 1, 11), np.zeros(11))
        assert len(s) == 11

    def test_nonuniform_rejected(self):
        with pytest.raises(ValidationError):
            Signal(np.array([0.0, 1.0, 2.5]), np.zeros(3))

    def test_decreasing_rejected(self):
        with pytest.raises(ValidationError):
            Signal(np.array([0.0, 2.0, 1.0]), np.zeros(3))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            Signal(np.array([0.0, 1.0]), np.array([1.0, math.nan]))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            Signal(np.array([0.0, 1.0]), np.zeros(3))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="times must be a nonempty 1-D array"):
            Signal([], [])

    def test_write_protected(self):
        s = Signal(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_inputs_are_copied_not_frozen(self):
        grid, values = np.linspace(0.0, 1.0, 11), np.zeros(11, dtype=complex)
        signals = synthesize(figure_catalogue(), grid), Signal(grid, values)
        for s in signals:
            assert s.times is not grid and s.values is not values
            assert not (s.times.flags.writeable or s.values.flags.writeable)
        assert grid.flags.writeable and values.flags.writeable
        grid[0] = 0.5  # the caller's arrays stay the caller's
        assert [s.times[0] for s in signals] == [0.0, 0.0]


class TestCharacteristicTimes:
    def test_model1(self):
        assert model1_times(0.5) == (2.0, 4.0, 4.0, math.inf)

    def test_model1_hbar(self):
        assert model1_times(2.0, hbar=2.0) == (1.0, 2.0, 2.0, math.inf)

    def test_model1_bad(self):
        with pytest.raises(ValidationError):
            model1_times(0.0)

    @staticmethod
    def model2_quiet(gamma0, gamma1):
        """model2_times under an error filter: it reports weak separation as data, never as a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return model2_times(gamma0, gamma1)

    def test_model2(self):
        times = self.model2_quiet(0.1, 1.0)
        assert times.t_R == 10.0
        assert times.t_D == 1.0
        assert times.intermediate == pytest.approx(1.0 / 1.1, rel=1e-15)

    def test_model2_weak_separation(self):
        assert self.model2_quiet(0.5, 1.0).weak_separation is True

    def test_model2_weak_at_ratio_ten(self):
        # ratio exactly 10 counts as weak separation
        assert self.model2_quiet(0.1, 1.0).weak_separation is True

    def test_model2_quiet_when_separated(self):
        assert self.model2_quiet(0.099, 1.0).weak_separation is False


class TestPartition:
    def test_default_rule(self):
        rep = partition_report((0.1, 1.0, 5.0))
        assert rep.t_R == 10.0
        assert rep.t_D == 1.0
        assert rep.p_relevant == range(2)
        assert rep.p_irrelevant == range(2, 3)
        assert rep.rule == RULE_SECOND_SMALLEST
        assert rep.boundary == BOUNDARY_RELEVANT

    def test_strict_boundary(self):
        rep = partition_report((0.1, 1.0, 5.0), boundary=BOUNDARY_IRRELEVANT)
        assert rep.t_D == 1.0
        assert rep.p_relevant == range(1)
        assert rep.p_irrelevant == range(1, 3)

    def test_single_pole(self):
        rep = partition_report((0.25,))
        assert rep.t_R == rep.t_D == 4.0
        assert rep.p_relevant == range(1)
        assert rep.p_irrelevant == range(1, 1)

    def test_slowest_only(self):
        rep = partition_report((0.1, 0.1, 5.0), rule=RULE_SLOWEST)
        assert rep.t_D == rep.t_R == 10.0
        assert rep.p_relevant == range(2)
        assert rep.p_irrelevant == range(2, 3)

    def test_background_only(self):
        rep = partition_report((0.1, 1.0), rule=RULE_BACKGROUND)
        assert rep.p_relevant == range(0)
        assert rep.p_irrelevant == range(2)
        assert rep.t_D == rep.t_R == 10.0
        assert rep.rule == RULE_BACKGROUND

    @pytest.mark.parametrize("boundary", [BOUNDARY_RELEVANT, BOUNDARY_IRRELEVANT])
    def test_wide_partition_equals_per_index_split(self, boundary):
        # a frame-catalogue-shaped tower k gamma0 whose collective-rate
        # threshold 36 gamma0 sits exactly on a width
        gammas = tuple(k * 0.1 for k in range(1, 2001))
        rule = collective_rate_rule(1.0, 2.0, 6.0)
        threshold = rule(gammas)
        assert threshold in gammas
        if boundary == BOUNDARY_RELEVANT:
            relevant = tuple(i for i, g in enumerate(gammas) if g <= threshold)
        else:
            relevant = tuple(i for i, g in enumerate(gammas) if g < threshold)
        irrelevant = tuple(i for i in range(len(gammas)) if i not in set(relevant))
        rep = partition_report(gammas, rule=rule, boundary=boundary)
        assert rep == TimescaleReport(10.0, 1.0 / threshold, len(relevant), len(gammas), RULE_CUSTOM, boundary)
        assert (tuple(rep.p_relevant), tuple(rep.p_irrelevant)) == (relevant, irrelevant)
        assert len(relevant) == (36 if boundary == BOUNDARY_RELEVANT else 35)

    def test_custom_rule(self):
        rate = collective_rate_rule(1.0, 2.0, 10.0)  # threshold scale 100
        rep = partition_report((0.1, 1.0), rule=rate)
        assert rep.rule == RULE_CUSTOM
        assert rep.t_D == pytest.approx(0.1, rel=1e-15)
        assert rep.p_relevant == range(2)  # threshold far above both widths

    def test_collective_rule_has_the_bits_of_collective_rate(self):
        # the threshold at gamma0 is collective_rate's gamma_tilde; the rule's own
        # m omega L0^2 / (2 hbar^2) gave 0.39603543273910835, one ulp above it
        cfg = OmnesConfig(m=0.299, omega=1.226, hbar=0.549, gamma0=0.25, L0=1.614, a=1.0, b=0.0, N=8)
        threshold = collective_rate_rule(cfg.m, cfg.omega, cfg.L0, cfg.hbar)((cfg.gamma0,))
        assert threshold == collective_rate(cfg).gamma_tilde == 0.3960354327391083

    @pytest.mark.parametrize("hbar", [1.0, 1e160], ids=["product-order", "delta-order"])
    def test_collective_rule_rejects_a_negative_scale(self, hbar):
        # m omega < 0 has no Delta: the rule names m before either path forms its scale
        with pytest.raises(ValidationError) as err:
            collective_rate_rule(-1.0, 2.0, 6.0, hbar)
        assert str(err.value) == "m: must be > 0, got -1.0"

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
    def test_collective_rule_names_a_bad_hbar(self, hbar):
        # hbar = 0 divided by zero on the Delta path before the rule checked its scale
        with pytest.raises(ValidationError) as err:
            collective_rate_rule(1.0, 2.0, 6.0, hbar)
        assert str(err.value) == f"hbar: must be {'> 0' if math.isfinite(hbar) else 'finite'}, got {hbar!r}"

    def test_custom_rule_nonpositive(self):
        with pytest.raises(ValidationError):
            partition_report((0.1, 1.0), rule=lambda gammas: 0.0)

    def test_custom_rule_slower_than_relaxation(self):
        # a threshold below gamma0 would put t_D above t_R
        with pytest.raises(ValidationError):
            partition_report((0.1, 1.0), rule=lambda gammas: 0.05 * min(gammas))

    def test_hbar_scaling(self):
        rep = partition_report((0.1, 1.0, 5.0), hbar=2.0)
        assert rep.t_R == 20.0
        assert rep.t_D == 2.0

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError):
            partition_report((1.0, 0.1))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            partition_report(())

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            partition_report((0.0, 1.0))

    def test_unknown_rule(self):
        with pytest.raises(ValidationError):
            partition_report((0.1, 1.0), rule="largest-gamma")
        # the report takes the custom rule's name, but only a callable makes one
        with pytest.raises(ValidationError, match="unknown rule 'custom-f'"):
            partition_report((0.1, 1.0), rule=RULE_CUSTOM)

    def test_unknown_boundary(self):
        with pytest.raises(ValidationError):
            partition_report((0.1, 1.0), boundary="inclusive")
        # the report names it, whatever the rule
        for rule in (RULE_SECOND_SMALLEST, RULE_BACKGROUND, collective_rate_rule(1.0, 2.0, 6.0)):
            with pytest.raises(ValidationError, match="unknown boundary mode 'inclusive'"):
                partition_report((0.1, 1.0), rule=rule, boundary="inclusive")
        # an unhashable name is named too, by the report, not lost to a dict lookup's TypeError
        cat = PoleCatalogue(0.0, ((Pole(0.0, 0.1), 1.0), (Pole(0.0, 1.0), 1.0)))
        for boundary in (["relevant"], {"relevant": 1}):
            for call in (lambda: partition_report((0.1, 1.0), boundary=boundary),
                         lambda: decoherence_time(cat, boundary=boundary)):
                with pytest.raises(ValidationError) as err:
                    call()
                assert str(err.value) == f"unknown boundary mode {boundary!r}"

    @pytest.mark.parametrize(
        "gammas, message",
        [
            ((0.1, math.nan, 5.0), "widths must be positive and finite"),
            ((0.1, 1.0, math.inf), "widths must be positive and finite"),
            ((0.0, 1.0), "widths must be positive and finite"),
            ((-0.0, 1.0), "widths must be positive and finite"),
            ((0.1, -1.0, 5.0), "widths must be positive and finite"),
            ((0.1, 5.0, 1.0), "widths must be sorted ascending"),
            ((), "no poles to partition"),
        ],
        ids=["nan", "inf", "zero", "negative-zero", "negative", "unsorted", "none"],
    )
    @pytest.mark.parametrize("kind", [tuple, list, np.array])
    def test_rejected_widths_name_the_fault(self, gammas, message, kind):
        with pytest.raises(ValidationError) as err:
            partition_report(kind(gammas))
        assert str(err.value) == message

    @pytest.mark.parametrize("rule", [RULE_SECOND_SMALLEST, RULE_SLOWEST, RULE_BACKGROUND,
                                      collective_rate_rule(1.0, 2.0, 6.0)])
    @pytest.mark.parametrize("boundary", [BOUNDARY_RELEVANT, BOUNDARY_IRRELEVANT])
    def test_tuple_list_and_array_give_one_report(self, rule, boundary):
        gammas = tuple(k * 0.1 for k in range(1, 2001))
        reports = [partition_report(kind(gammas), 1.3, rule, boundary) for kind in (tuple, list, np.array)]
        for rep in reports[1:]:
            assert (rep.t_R.hex(), rep.t_D.hex()) == (reports[0].t_R.hex(), reports[0].t_D.hex())
            assert rep == reports[0]  # the cut and mode count too

    def test_decoherence_time_uses_catalogue(self):
        rep = decoherence_time(figure_catalogue(hbar=2.0))
        assert rep.t_R == 20.0
        assert rep.t_D == 2.0
        assert rep.hbar == 2.0

    def test_decoherence_time_needs_modes(self):
        # partition_report owns the rule, and its wording, for a tail-only catalogue's empty widths
        cat = PoleCatalogue(0.0, (), KhalfinTail(1.0, 1.0, 3.0))
        with pytest.raises(ValidationError) as err:
            decoherence_time(cat)
        assert str(err.value) == "no poles to partition"


class TestReportValidation:
    def test_t_d_cannot_exceed_t_r(self):
        with pytest.raises(ValidationError):
            TimescaleReport(1.0, 2.0, 1, 1, RULE_SECOND_SMALLEST)

    def test_t_d_slack(self):
        rep = TimescaleReport(1.0, 1.0 * (1 + 5e-13), 1, 1, RULE_SECOND_SMALLEST)
        assert rep.t_D >= rep.t_R

    def test_check_matches_roundtrip(self):
        cat = figure_catalogue()
        check_report_matches(cat, decoherence_time(cat))

    def test_check_rejects_foreign_report(self):
        cat = figure_catalogue()
        other = partition_report((0.1, 1.0))
        with pytest.raises(ValidationError):
            check_report_matches(cat, other)

    def test_check_rejects_tampered_partition(self):
        cat = figure_catalogue()
        rep = decoherence_time(cat)
        forged = TimescaleReport(rep.t_R, rep.t_D, 1, 3, rep.rule, rep.boundary, rep.hbar)
        with pytest.raises(ValidationError):
            check_report_matches(cat, forged)

    @pytest.mark.parametrize("rule", [RULE_SECOND_SMALLEST, RULE_SLOWEST])
    @pytest.mark.parametrize("boundary", [BOUNDARY_RELEVANT, BOUNDARY_IRRELEVANT])
    def test_check_accepts_width_one_ulp_from_threshold(self, rule, boundary):
        # the threshold width and its neighbour differ by one ulp, less than
        # the rounding t_D = hbar / threshold leaves to recover the threshold from
        low, high = (0.001, 0.0010000000000000002)
        cat = PoleCatalogue(0.0, tuple((Pole(0.0, g), 0j) for g in (low, high, 1.0)))
        rep = decoherence_time(cat, rule, boundary)
        check_report_matches(cat, rep)
        preferred_signal(cat, rep, np.linspace(0.0, 5.0 * rep.t_D, 6))

    @pytest.mark.parametrize("rate", [1.0 - 1e-14, 1.0 + 1e-14])
    @pytest.mark.parametrize("boundary", [BOUNDARY_RELEVANT, BOUNDARY_IRRELEVANT])
    def test_check_accepts_custom_rate_within_rounding_of_a_width(self, rate, boundary):
        # t_D = hbar / rate gives the rate back only to rounding, so a width
        # that close to it may fall on either side of the cut
        cat = PoleCatalogue(0.0, tuple((Pole(0.0, g), 0j) for g in (0.5, 1.0)))
        rep = partition_report(cat.gammas, cat.hbar, rule=lambda g: rate, boundary=boundary)
        check_report_matches(cat, rep)
        far = TimescaleReport(rep.t_R, 1.0 / 0.9, 2, 2, RULE_CUSTOM, boundary)
        with pytest.raises(ValidationError, match="does not match"):
            check_report_matches(cat, far)

    def test_mismatch_message_names_the_cuts(self):
        # 2000 modes cut at 1000 under slowest-only: the message names two cuts, not 1000 indices
        cm = CatalogueMatrix._from_widths(np.arange(1.0, 2001.0), np.eye(1), np.ones((2000, 1, 1)))
        with pytest.raises(ValidationError) as err:
            check_report_matches(cm, TimescaleReport(1.0, 1.0, 1000, 2000, RULE_SLOWEST))
        assert str(err.value) == "report cut 1000 does not match the catalogue's threshold cut 1"
        # a custom rate is known to its rounding, which puts 1.0 and 1 + 1e-13 on either side
        cat = PoleCatalogue(0.0, tuple((Pole(0.0, g), 0j) for g in (0.5, 1.0, 1.0 + 1e-13, 2.0)))
        with pytest.raises(ValidationError) as err:
            check_report_matches(cat, TimescaleReport(2.0, 1.0, 4, 4, RULE_CUSTOM))
        assert str(err.value) == "report cut 4 does not match the catalogue's threshold cut 1 to 3"

    @pytest.mark.parametrize(
        "fields, message",
        [({"cut": 2, "n_modes": 2}, "report partitions 2 modes but the catalogue has 3 modes"),
         ({"cut": 2, "n_modes": 4}, "report partitions 4 modes but the catalogue has 3 modes"),
         ({"cut": 0, "n_modes": 0}, "report partitions 0 modes but the catalogue has 3 modes"),
         # a report that cannot be built is named where it is built
         ({"cut": -1}, "cut: must be >= 0, got -1"),
         ({"cut": 0, "n_modes": -3}, "n_modes: must be >= 0, got -3"),
         ({"cut": True}, "cut: expected an integer, got True"),
         ({"cut": 1, "n_modes": False}, "n_modes: expected an integer, got False"),
         ({"cut": np.True_}, f"cut: expected an integer, got {np.True_!r}"),
         ({"cut": 1.0}, "cut: expected an integer, got 1.0"),
         ({"cut": 1, "n_modes": 3.0}, "n_modes: expected an integer, got 3.0"),
         ({"cut": 4}, "cut = 4 exceeds n_modes = 3"),
         ({"rule": "fastest"}, "unknown rule 'fastest'"),
         ({"boundary": "inclusive"}, "unknown boundary mode 'inclusive'"),
         ({"boundary": ["x"]}, "unknown boundary mode ['x']"),
         ({"boundary": {"x": 1}}, "unknown boundary mode {'x': 1}"),
         ({"t_D": 0.0}, "characteristic times must be positive")],
        ids=["misses-last", "out-of-range", "empty", "negative", "negative-modes", "bool-cut",
             "bool-modes", "numpy-bool-cut", "float-cut", "float-modes", "cut-past-modes",
             "unknown-rule", "unknown-boundary", "list-boundary", "dict-boundary", "zero-t-d"],
    )
    def test_check_names_the_partitioned_indices(self, fields, message):
        fields = {"t_R": 10.0, "t_D": 1.0, "cut": 2, "n_modes": 3, "rule": RULE_SECOND_SMALLEST, **fields}
        cat = figure_catalogue()
        with pytest.raises(ValidationError) as err:
            check_report_matches(cat, TimescaleReport(**fields))
        assert str(err.value) == message

    def test_integer_cut_of_any_kind_is_kept_as_an_int(self):
        rep = TimescaleReport(10.0, 1.0, np.int64(2), np.uint8(3), RULE_SECOND_SMALLEST)
        assert (type(rep.cut), type(rep.n_modes)) == (int, int)
        assert rep == TimescaleReport(10.0, 1.0, 2, 3, RULE_SECOND_SMALLEST)
        check_report_matches(figure_catalogue(), rep)

    def test_check_rejects_named_rule_with_foreign_t_d(self):
        cat = figure_catalogue()
        rep = decoherence_time(cat)
        forged = TimescaleReport(rep.t_R, 0.9 * rep.t_D, rep.cut, rep.n_modes, rep.rule, rep.boundary)
        with pytest.raises(ValidationError, match="does not follow"):
            check_report_matches(cat, forged)

    def test_check_rejects_background_report_with_t_d_below_t_r(self):
        # background-only keeps no pole and sets t_D = t_R; a shorter t_D is another rule's report
        cat = figure_catalogue()
        check_report_matches(cat, decoherence_time(cat, RULE_BACKGROUND))
        forged = TimescaleReport(10.0, 1.0, 0, 3, RULE_BACKGROUND)
        with pytest.raises(ValidationError, match="does not follow from the background-only rule's t_D = 10.0"):
            check_report_matches(cat, forged)

    def test_check_names_the_background_cut(self):
        cat = figure_catalogue()
        with pytest.raises(ValidationError) as err:
            check_report_matches(cat, TimescaleReport(10.0, 10.0, 1, 3, RULE_BACKGROUND))
        assert str(err.value) == "report cut 1 does not match the catalogue's threshold cut 0"

    def test_check_takes_a_report_on_no_modes(self):
        # an empty matrix catalogue has no widths to derive a report from: its t_D is a rate's
        cm = CatalogueMatrix((), np.eye(2) / 2, np.zeros((0, 2, 2)))
        check_report_matches(cm, TimescaleReport(1.0, 1.0, 0, 0, RULE_SECOND_SMALLEST))

    def test_check_rejects_hbar_mismatch(self):
        cat = figure_catalogue(hbar=2.0)
        rep = partition_report(cat.gammas, hbar=1.0)
        with pytest.raises(ValidationError):
            check_report_matches(cat, rep)


class TestPreferredSignal:
    def test_background_only_keeps_equilibrium_and_tail(self):
        tail = KhalfinTail(0.5, 2.0, 3.0)
        cat = PoleCatalogue(0.3, (Mode(Pole(0.0, 0.5), 2.0),), tail)
        rep = decoherence_time(cat, rule=RULE_BACKGROUND)
        grid = np.linspace(0.0, 8.0, 33)
        s = preferred_signal(cat, rep, grid)
        assert np.array_equal(s.values, 0.3 + tail(grid).astype(complex))

    def test_all_relevant_matches_synthesize_bitwise(self):
        cat = figure_catalogue()
        rate = collective_rate_rule(1.0, 2.0, 100.0)
        rep = decoherence_time(cat, rule=rate)
        assert rep.p_irrelevant == range(3, 3)
        grid = np.linspace(0.0, 5.0, 41)
        assert np.array_equal(preferred_signal(cat, rep, grid).values, synthesize(cat, grid).values)

    def test_drops_fast_pole(self):
        cat = figure_catalogue()
        rep = decoherence_time(cat)
        grid = np.linspace(0.0, 6.0, 25)
        s = preferred_signal(cat, rep, grid)
        want = 3 * np.exp(-0.1 * grid) + 2 * np.exp(-grid)
        assert np.max(np.abs(s.values - want)) < 1e-15

    def test_report_must_match(self):
        cat = figure_catalogue()
        with pytest.raises(ValidationError):
            preferred_signal(cat, partition_report((0.1, 1.0)), [0.0, 1.0])


class TestCoincidence:
    def test_figure_scenario_passes(self):
        cat = figure_catalogue()
        rep = decoherence_time(cat)
        grid = np.linspace(0.0, 6.0, 241)
        result = coincidence_check(synthesize(cat, grid), preferred_signal(cat, rep, grid), cat, rep)
        assert isinstance(result, CoincidenceResult)
        assert result.t_D == 1.0
        assert result.bound == pytest.approx(math.exp(-5.0), rel=1e-15)
        assert result.max_deviation == pytest.approx(math.exp(-5.0), rel=1e-12)
        assert result.passed

    def test_identical_signals(self):
        cat = figure_catalogue()
        rep = decoherence_time(cat)
        grid = np.linspace(0.0, 6.0, 49)
        s = synthesize(cat, grid)
        rate = collective_rate_rule(1.0, 2.0, 100.0)
        rep_all = decoherence_time(cat, rule=rate)
        result = coincidence_check(s, preferred_signal(cat, rep_all, grid), cat, rep_all)
        assert result.max_deviation == 0.0
        assert result.bound == 0.0
        assert result.passed

    def test_grid_mismatch(self):
        cat = figure_catalogue()
        rep = decoherence_time(cat)
        a = synthesize(cat, np.linspace(0, 6, 25))
        b = preferred_signal(cat, rep, np.linspace(0, 5, 25))
        with pytest.raises(ValidationError):
            coincidence_check(a, b, cat, rep)

    def test_grid_must_reach_t_d(self):
        cat = figure_catalogue()
        rep = decoherence_time(cat)  # t_D = 1
        grid = np.linspace(0.0, 0.5, 11)
        with pytest.raises(ValidationError):
            coincidence_check(synthesize(cat, grid), preferred_signal(cat, rep, grid), cat, rep)


    def tight_catalogue(self):
        # the one dropped mode (gamma 27) is the fastest; t_D = 1/2
        return PoleCatalogue(0.2, ((Pole(0, 1), 1), (Pole(0, 2), 1), (Pole(0, 27), 1)))

    def test_tight_bound_is_not_a_false_fail(self):
        # the dropped mode's ceiling is attained at t_D itself, so deviation
        # and bound agree to rounding of the size-1 trajectories
        cat = self.tight_catalogue()
        rep = decoherence_time(cat)
        assert rep.t_D == 0.5
        grid = np.linspace(0.0, 2.5, 201)
        result = coincidence_check(synthesize(cat, grid), preferred_signal(cat, rep, grid), cat, rep)
        assert result.max_deviation == pytest.approx(result.bound, rel=1e-9)
        assert result.passed

    def test_cancelling_equilibrium_and_tail_is_not_a_false_fail(self):
        # the trajectories are ~0.1 where equilibrium 4 and the tail nearly cancel,
        # so the sums carry ulps of 4, not of 0.1
        cat = PoleCatalogue(
            4.0, ((Pole(0, 36), 1e-10), (Pole(0, 37), 0), (Pole(0, 38), 0)), KhalfinTail(-4.0, 1.0, 1.0)
        )
        rep = decoherence_time(cat, RULE_SLOWEST, BOUNDARY_IRRELEVANT)
        grid = np.linspace(0.0, 5.0 * rep.t_D, 6)
        result = coincidence_check(synthesize(cat, grid), preferred_signal(cat, rep, grid), cat, rep)
        assert result.max_deviation > result.bound * (1.0 + 1e-12)  # by rounding alone
        assert result.passed

    def test_wrong_kept_amplitude_fails(self):
        cat = self.tight_catalogue()
        off = PoleCatalogue(0.2, ((Pole(0, 1), 1 + 1e-3), (Pole(0, 2), 1), (Pole(0, 27), 1)))
        rep = decoherence_time(cat)
        grid = np.linspace(0.0, 2.5, 201)
        result = coincidence_check(synthesize(cat, grid), preferred_signal(off, rep, grid), cat, rep)
        assert not result.passed


# mode selections both CatalogueMatrix methods must reject at K = 2: every form but a
# range(start, stop) with 0 <= start <= stop <= 2, which is how a report gives its partition
BAD_INDICES = [
    (1.5,), (0.9,), (-1,), (2,), (True,), (False,), ((0, 1),),
    (0, True), (False, 1), [1, np.True_], np.array([True, False]), 1, np.int64(1), True,
    range(-1, 1), range(1, 3), range(2, -1, -1), range(0, 4, 3),
    # index sets of modes in [0, 2) that no report gives, and ranges that are not a cut's
    (), (1,), [0, 1], np.array([0, 1]), np.arange(2, dtype=np.uint8), np.True_, 0.5,
    range(0, 2, 2), range(1, -1, -1), range(2, 1), range(3, 3),
]


def mode_message(indices, k):
    """What a catalogue of ``k`` modes says to ``indices``: a forward step-1 range is out of
    bounds, anything else is of the wrong form."""
    if isinstance(indices, range) and indices.step == 1 and indices.start <= indices.stop:
        return f"mode indices must lie in [0, {k}), got {indices!r}"
    return f"modes must be a range(start, stop) with start <= stop, got {indices!r}"


class TestCatalogueMatrix:
    def build(self):
        eq = np.diag([0.75, 0.25])
        a0 = np.array([[-0.25, 0.1], [0.1, 0.25]])
        a1 = np.array([[0.0, 0.3], [0.3, 0.0]])
        return CatalogueMatrix((Pole(0.0, 1.0), Pole(0.0, 10.0)), eq, (a0, a1))

    def test_evaluate(self):
        cm = self.build()
        t = 0.37
        want = (
            np.diag([0.75, 0.25])
            + np.array([[-0.25, 0.1], [0.1, 0.25]]) * math.exp(-t)
            + np.array([[0.0, 0.3], [0.3, 0.0]]) * math.exp(-10 * t)
        )
        assert np.max(np.abs(cm.evaluate(t) - want)) < 1e-15

    def test_before_zero_is_refused(self):
        # F15: _decay's np.exp overflowed before t = 0 (exp(2 t) at t = -400) with a numpy warning; one time
        # and a grid are both refused, naming the time or the grid's first negative entry
        cm = CatalogueMatrix(
            [Pole(0.0, 0.5), Pole(0.0, 2.0)], np.eye(2) / 2, [[[0, 0.2], [0.2, 0]], [[0.1, 0], [0, -0.1]]]
        )
        for t in (-1.0, -400.0):
            for call in (cm.evaluate, lambda t: cm.dropped_envelope(t, range(1, 2))):
                for times, name in ((t, "t"), (np.array([0.0, t, t]), "grid[1]")):
                    with pytest.raises(ValidationError) as err:
                        call(times)
                    assert str(err.value) == f"{name}: must be >= 0, got {t!r}"

    def test_keep_subset(self):
        cm = self.build()
        got = cm.evaluate(0.5, keep=range(1))
        want = np.diag([0.75, 0.25]) + np.array([[-0.25, 0.1], [0.1, 0.25]]) * math.exp(-0.5)
        assert np.max(np.abs(got - want)) < 1e-15

    def test_sorted_jointly(self):
        # amplitudes must follow their poles through the canonical sort
        eq = np.zeros((2, 2))
        fast = np.array([[0.0, 1.0], [1.0, 0.0]])
        slow = np.eye(2)
        cm = CatalogueMatrix((Pole(0.0, 10.0), Pole(0.0, 1.0)), eq, (fast, slow))
        assert cm.gammas == (1.0, 10.0)
        assert np.array_equal(cm.amplitudes[0], slow)

    def test_nonzero_omega_is_refused(self):
        # ROADMAP F14's reproducer: evaluate renders exp(-gamma t / hbar) only, so an omega it
        # took would be left out of rho(t) without a word; the refusal names the pole and its omega
        with pytest.raises(ValidationError) as err:
            CatalogueMatrix([Pole(3.0, 0.5)], np.eye(2) / 2, [[[0, 0.5], [0.5, 0]]])
        assert str(err.value) == "poles[0]: omega = 3.0, but a matrix catalogue renders widths only"
        with pytest.raises(ValidationError, match=r"^poles\[1\]: omega = -5e-324, "):
            CatalogueMatrix([Pole(0.0, 1.0), Pole(-5e-324, 2.0)], np.eye(1), np.ones((2, 1, 1)))

    def test_negative_zero_omega_builds_the_zero_omega_catalogue(self):
        amps = [[[0, 0.5], [0.5, 0]]]
        got = CatalogueMatrix([Pole(-0.0, 0.5)], np.eye(2) / 2, amps)
        want = CatalogueMatrix([Pole(0.0, 0.5)], np.eye(2) / 2, amps)
        assert got.poles == want.poles == (Pole(0.0, 0.5),)
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert got.evaluate(1.0).tobytes() == want.evaluate(1.0).tobytes()

    def test_dropped_envelope(self):
        cm = self.build()
        want = math.sqrt(2 * 0.3**2) * math.exp(-10 * 0.2)
        assert cm.dropped_envelope(0.2, range(1, 2)) == pytest.approx(want, rel=1e-15)
        with pytest.raises(ValidationError, match=r"modes must be a range\(start, stop\)"):
            cm.dropped_envelope(0.2, None)  # unlike keep, there is no "every mode" default

    def test_decay_across_the_subnormal_edge_is_exp_or_zero(self):
        # exponents -gamma t on [-750, -700] in steps of 0.0025, and the floats next to
        # log(2^-1022): a factor is exp where that is a normal float, else 0.0, which
        # is within 2^-1022 of exp
        tiny = np.finfo(float).tiny
        at_edge = -math.log(2.0**-1022) + np.arange(-3, 4) * 2.0**-43  # its float and three on each side
        assert (np.exp(-at_edge) >= tiny).tolist() == [True] * 4 + [False] * 3
        gammas = np.sort(np.concatenate([np.linspace(700.0, 750.0, 20001), at_edge]))
        cm = CatalogueMatrix._from_widths(gammas, np.eye(1), np.ones((gammas.size, 1, 1)))
        for t in (1.0, np.array([1.0, 0.999, 1.001])):
            exact = np.exp(np.multiply.outer(t, -gammas))
            assert np.any((exact > 0.0) & (exact < tiny))
            got = cm._decay(t, slice(None))
            assert got.tobytes() == np.where(exact >= tiny, exact, 0.0).tobytes()
            assert np.all(np.abs(got - exact) < tiny)

    def test_partition_integration(self):
        cm = self.build()
        rep = partition_report(cm.gammas, cm.hbar, boundary=BOUNDARY_IRRELEVANT)
        check_report_matches(cm, rep)
        assert rep.p_relevant == range(1)

    def test_rejects_non_hermitian_amplitude(self):
        with pytest.raises(ValidationError):
            CatalogueMatrix((Pole(0.0, 1.0),), np.eye(2), (np.array([[0.0, 1.0], [0.0, 0.0]]),))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValidationError):
            CatalogueMatrix((Pole(0.0, 1.0),), np.eye(2), (np.eye(3),))

    def test_rejects_amplitudes_of_two_shapes(self):
        with pytest.raises(ValidationError, match="matrices must share one shape"):
            CatalogueMatrix((Pole(0.0, 1.0), Pole(0.0, 2.0)), np.eye(2), (np.eye(2), np.eye(3)))

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValidationError):
            CatalogueMatrix((Pole(0.0, 1.0),), np.eye(2), (np.eye(2), np.eye(2)))

    def test_rejects_bare_pole_tuples(self):
        with pytest.raises(ValidationError):
            CatalogueMatrix(((0.0, 1.0),), np.eye(2), (np.eye(2),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite_amplitude(self, bad):
        amp = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        amp[1, 1] = bad
        with pytest.raises(ValidationError):
            CatalogueMatrix((Pole(0.0, 1.0), Pole(0.0, 2.0)), np.eye(2), (np.eye(2), amp))

    def test_amplitudes_read_only(self):
        cm = self.build()
        with pytest.raises(ValueError):
            cm.amplitudes[0][0, 0] = 1.0

    @pytest.mark.parametrize("method", ["evaluate", "dropped_envelope"])
    @pytest.mark.parametrize("indices", BAD_INDICES)
    def test_rejects_bad_mode_indices(self, method, indices):
        cm = self.build()
        call = getattr(cm, method)
        with pytest.raises(ValidationError) as err:
            call(0.3, indices) if method == "dropped_envelope" else call(0.3, keep=indices)
        assert str(err.value) == mode_message(indices, 2)

    @pytest.mark.parametrize("method", ["evaluate", "dropped_envelope"])
    @pytest.mark.parametrize("indices", BAD_INDICES)
    def test_rejects_bad_mode_indices_on_a_grid(self, method, indices):
        cm = self.build()
        call = getattr(cm, method)
        grid = np.array([0.0, 0.3, 2.5])
        with pytest.raises(ValidationError) as err:
            call(grid, indices) if method == "dropped_envelope" else call(grid, keep=indices)
        assert str(err.value) == mode_message(indices, 2)

    @pytest.mark.parametrize("method", ["evaluate", "dropped_envelope"])
    @pytest.mark.parametrize(
        "indices",
        [[0, np.True_], [np.bool_(False), 1], tuple(range(1999)) + (True,), 1, np.int64(1), True, 0.5],
        ids=["np-bool-in-list", "np-bool-first", "true-after-1999-ints", "int", "np-int64", "bool", "float"],
    )
    def test_bool_in_a_sequence_or_a_scalar_is_named(self, method, indices):
        # none is a range, so each is named with the form, whatever it holds and however long
        cm = CatalogueMatrix._from_widths(np.arange(1.0, 2001.0), np.eye(2), np.ones((2000, 2, 2)))
        call = getattr(cm, method)
        with pytest.raises(ValidationError) as err:
            call(0.3, indices) if method == "dropped_envelope" else call(0.3, keep=indices)
        assert str(err.value) == mode_message(indices, 2000)

    def test_array_of_times(self):
        cm = self.build()
        grid = np.array([0.0, 0.37, 2.5])
        for keep in (None, range(1), range(0)):
            stack = cm.evaluate(grid, keep=keep)
            assert stack.shape == (3, 2, 2)
            for mat, t in zip(stack, grid):
                assert np.max(np.abs(mat - cm.evaluate(float(t), keep=keep))) <= 1e-16
        for dropped in (range(2), range(1, 2), range(2, 2)):
            env = cm.dropped_envelope(grid, dropped)
            assert env.shape == (3,)
            assert env.tolist() == [cm.dropped_envelope(float(t), dropped) for t in grid]
        assert type(cm.dropped_envelope(0.37, range(1, 2))) is float

    def test_empty_and_integer_indices(self):
        cm = self.build()
        for empty in (range(0), range(1, 1), range(2, 2)):
            assert np.array_equal(cm.evaluate(0.3, keep=empty), cm.equilibrium)
            assert cm.dropped_envelope(0.3, empty) == 0.0
        assert cm.evaluate(0.3, keep=range(2)).tobytes() == cm.evaluate(0.3).tobytes()
        # a sum of two terms rounds once, whichever way it is split
        split = cm.dropped_envelope(0.3, range(1)) + cm.dropped_envelope(0.3, range(1, 2))
        assert cm.dropped_envelope(0.3, range(2)) == split


def pole_message(omega, gamma):
    with pytest.raises(ValidationError) as err:
        Pole(omega, gamma)
    return str(err.value)


class TestCatalogueMatrixFromWidths:
    """The width-array path checks as ``Pole`` does, and builds the same catalogue."""

    EQ = np.diag([0.75, 0.25])
    # Hermitian to the bit, so the average keeps their bits: -0.1j would be -0.0 - 0.1j, and conj(0.1j) is 0.0 - 0.1j
    AMPS = np.array([[[0.0, 0.3], [0.3, 0.0]], np.eye(2), [[-0.25, 0.1j], [np.conj(0.1j), 0.25]]])

    def test_same_catalogue_as_pole_list(self):
        gammas = [10.0, 1.0, 1.0]  # a width tie, kept in input order
        got = CatalogueMatrix._from_widths(np.array(gammas), self.EQ, self.AMPS, 1.3)
        want = CatalogueMatrix([Pole(0.0, g) for g in gammas], self.EQ, self.AMPS, 1.3)
        assert got.gammas == want.gammas == (1.0, 1.0, 10.0)
        assert got.poles == want.poles
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes() == self.AMPS[[1, 2, 0]].tobytes()
        assert got.evaluate(0.4).tobytes() == want.evaluate(0.4).tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.5, math.nan, math.inf])
    def test_rejects_bad_width_with_the_pole_message(self, bad):
        gammas = np.array([1.0, bad, 3.0])
        with pytest.raises(ValidationError) as err:
            CatalogueMatrix._from_widths(gammas, self.EQ, self.AMPS)
        assert str(err.value) == pole_message(0.0, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_omega_with_the_pole_message(self, bad):
        # the width-array path takes no frequencies; the constructor's poles check their own
        with pytest.raises(ValidationError) as err:
            CatalogueMatrix([Pole(0.0, 1.0), Pole(0.0, 2.0), Pole(bad, 3.0)], self.EQ, self.AMPS)
        assert str(err.value) == pole_message(bad, 3.0) == f"omega: must be finite, got {bad!r}"

    def test_first_bad_pole_reports_as_pole_does(self):
        # pole 1 has a negative width and pole 2 a NaN one: one Pole at a time fails on pole 1
        with pytest.raises(ValidationError) as err:
            CatalogueMatrix._from_widths(np.array([1.0, -1.0, math.nan]), self.EQ, self.AMPS)
        assert str(err.value) == pole_message(0.0, -1.0) != pole_message(0.0, math.nan)

    def test_signed_zero_amplitude_keeps_its_bits(self):
        # a (0, 1) entry of -0.0 + 5e-324j, whose zero sign a complex / 2.0 halving turns to +0.0
        cross = complex(-0.0, 5e-324)
        amps = np.zeros((2, 2, 2), dtype=complex)  # Hermitian to the bit
        amps[:, 0, 1], amps[:, 1, 0], amps[:, 0, 0] = cross, cross.conjugate(), 1.0
        got = CatalogueMatrix._from_widths(np.array([1.0, 2.0]), self.EQ, amps)
        want = CatalogueMatrix([Pole(0.0, 1.0), Pole(0.0, 2.0)], self.EQ, amps)
        assert math.copysign(1.0, got.amplitudes[0, 0, 1].real) == -1.0
        assert got.amplitudes.tobytes() == amps.tobytes() == want.amplitudes.tobytes()

    def test_amplitudes_checked_as_the_constructor_checks_them(self):
        with pytest.raises(ValidationError, match="matrix is not Hermitian"):
            CatalogueMatrix._from_widths([1.0], np.eye(2) / 2, [[[0, 1], [0, 0]]])

    def test_poles_built_on_first_read(self):
        cm = CatalogueMatrix._from_widths(np.array([3.0, 1.0, 2.0]), self.EQ, self.AMPS)
        assert "poles" not in vars(cm)
        assert cm.poles == (Pole(0.0, 1.0), Pole(0.0, 2.0), Pole(0.0, 3.0))
        assert cm.poles is cm.poles

    def test_pole_list_still_type_checked(self):
        with pytest.raises(ValidationError, match="Pole instances"):
            CatalogueMatrix([(0.0, 1.0)], self.EQ[:1, :1], np.ones((1, 1, 1)))


def loop_evaluate(cm, t, keep=None):
    """Reference: the per-mode loop, one scaled amplitude added at a time."""
    indices = range(len(cm.poles)) if keep is None else keep
    out = np.array(cm.equilibrium, dtype=complex)
    for k in indices:
        out += cm.amplitudes[k] * math.exp(-cm.poles[k].gamma * t / cm.hbar)
    return out


def loop_dropped_envelope(cm, t, dropped):
    """Reference: per-mode Frobenius norm times its decay, summed in a loop, plus the truncation
    term when the range runs to the last mode."""
    total = 0.0
    for k in dropped:
        total += float(np.linalg.norm(cm.amplitudes[k])) * math.exp(
            -cm.poles[k].gamma * t / cm.hbar
        )
    return total + (cm.truncation if dropped.stop == len(cm.poles) else 0.0)


class TestCatalogueMatrixAgainstLoop:
    """The vectorized sums agree with the per-mode loop on a 157-mode frame catalogue."""

    TOL = 1e-13
    TIMES = (0.0, 0.05, 0.5, 3.0, 30.0)
    # Delta = 6 with m omega / 2 = hbar = 1; 2N = 400 powers, of which the truncation keeps 157
    CFG = OmnesConfig(1.0, 2.0, 1.0, 0.1, 6.0, math.sqrt(0.5), math.sqrt(0.5), 200)

    @pytest.fixture(scope="class")
    def frame(self):
        cfg = self.CFG
        cm = frame_catalogue_matrix(cfg)
        rule = collective_rate_rule(cfg.m, cfg.omega, cfg.L0, cfg.hbar)
        return cm, partition_report(cm.gammas, cm.hbar, rule=rule)

    @pytest.mark.parametrize("t", TIMES)
    @pytest.mark.parametrize("subset", ["all", "relevant"])
    def test_evaluate(self, frame, t, subset):
        cm, rep = frame
        keep = None if subset == "all" else rep.p_relevant
        want = loop_evaluate(cm, t, keep)
        got = cm.evaluate(t, keep=keep)
        assert np.max(np.abs(got - want)) <= self.TOL * np.max(np.abs(want))

    @pytest.mark.parametrize("subset", ["all", "relevant"])
    def test_evaluate_grid(self, frame, subset):
        cm, rep = frame
        keep = None if subset == "all" else rep.p_relevant
        stack = cm.evaluate(np.array(self.TIMES), keep=keep)
        for got, t in zip(stack, self.TIMES):
            want = loop_evaluate(cm, t, keep)
            assert np.max(np.abs(got - want)) <= self.TOL * np.max(np.abs(want))

    def test_evaluate_nothing_kept_is_equilibrium(self, frame):
        cm, _ = frame
        assert np.array_equal(cm.evaluate(0.7, keep=range(0)), cm.equilibrium)

    @pytest.mark.parametrize("t", TIMES)
    def test_dropped_envelope(self, frame, t):
        cm, rep = frame
        want = loop_dropped_envelope(cm, t, rep.p_irrelevant)
        assert want > 0.0
        assert cm.dropped_envelope(t, rep.p_irrelevant) == pytest.approx(want, rel=self.TOL)

    def test_dropped_envelope_grid(self, frame):
        cm, rep = frame
        grid = np.linspace(0.0, 30.0, 81)
        env = cm.dropped_envelope(grid, rep.p_irrelevant)
        assert env.tolist() == [cm.dropped_envelope(t, rep.p_irrelevant) for t in grid.tolist()]
        for got, t in zip(env[::20], grid[::20]):
            want = loop_dropped_envelope(cm, t, rep.p_irrelevant)
            assert got == pytest.approx(want, rel=self.TOL)

    def test_dropped_envelope_of_nothing_is_zero(self, frame):
        # no mode dropped: 0 before the last mode; past it the truncated tail remains, at every time
        cm, rep = frame
        for empty in (range(0, 0), range(36, 36), range(156, 156)):
            assert cm.dropped_envelope(0.7, empty) == 0.0
        assert 0.0 < cm.truncation < 2.0**-59 * rho0_norm(*frame_f2(self.CFG))
        assert cm.dropped_envelope(0.7, range(157, 157)) == cm.truncation
        assert cm.dropped_envelope(np.array([0.0, 1e3]), range(157, 157)).tolist() == [cm.truncation] * 2

    def test_partition_is_nontrivial(self, frame):
        cm, rep = frame
        assert len(cm.poles) == 157
        assert len(rep.p_relevant) == 36 and len(rep.p_irrelevant) == 121


class TestSerialization:
    def test_json_roundtrip(self):
        cat = figure_catalogue(equilibrium=0.5, khalfin=KhalfinTail(0.25, 2.0, 3.0), hbar=2.0)
        again = catalogue_from_json(catalogue_to_json(cat))
        assert again == cat

    def test_json_is_sorted_and_stable(self):
        cat = figure_catalogue()
        text = catalogue_to_json(cat)
        assert text == catalogue_to_json(catalogue_from_json(text))
        doc = json.loads(text)
        assert list(doc) == sorted(doc)

    def test_signed_zero_ties_write_one_order(self):
        # modes equal up to the sign of a zero must not keep their input order
        modes = [Mode(Pole(-0.0, 1.0), complex(0.0, -0.0)), Mode(Pole(0.0, 1.0), -0.0j)]
        texts = {catalogue_to_json(PoleCatalogue(0.0, tuple(m))) for m in (modes, modes[::-1])}
        assert len(texts) == 1
        # and the mode whose omega is -0.0 is written first
        assert [math.copysign(1.0, m["omega"]) for m in json.loads(texts.pop())["modes"]] == [-1.0, 1.0]

    def test_json_null_tail(self):
        cat = figure_catalogue()
        assert catalogue_from_json(catalogue_to_json(cat)).khalfin is None

    def test_json_unknown_key(self):
        doc = json.loads(catalogue_to_json(figure_catalogue()))
        doc["color"] = "blue"
        with pytest.raises(ValidationError):
            catalogue_from_json(json.dumps(doc))

    def test_json_missing_key(self):
        doc = json.loads(catalogue_to_json(figure_catalogue()))
        del doc["equilibrium"]
        with pytest.raises(ValidationError, match=r"^catalogue\.equilibrium: required field is missing"):
            catalogue_from_json(json.dumps(doc))

    def test_json_malformed(self):
        with pytest.raises(ValidationError):
            catalogue_from_json("{not json")

    def test_json_malformed_mode(self):
        doc = json.loads(catalogue_to_json(figure_catalogue()))
        del doc["modes"][0]["gamma"]
        with pytest.raises(ValidationError):
            catalogue_from_json(json.dumps(doc))

    def test_json_non_object(self):
        with pytest.raises(ValidationError):
            catalogue_from_json("[1, 2]")

    @pytest.mark.parametrize(
        "change, line",
        [
            ({"khalfin": [1]}, "catalogue.khalfin: expected an object, got list"),
            ({"modes": 5}, "catalogue.modes: expected a nonempty array of mode objects"),
            ({"hbar": None}, "catalogue.hbar: expected a number, got None"),
            ({"hbar": "2"}, "catalogue.hbar: expected a number, got '2'"),
            ({"equilibrium": True}, "catalogue.equilibrium: expected a number, got True"),
            ({"modes": [{"gamma": True}]}, "catalogue.modes[0].gamma: expected a number, got True"),
            (
                {"modes": [{"gamma": 1.0, "width": 2.0}]},
                "catalogue.modes[0]: unknown keys ['width']; "
                "allowed keys are ['amp_im', 'amp_re', 'gamma', 'omega']",
            ),
            ({"modes": [{"omega": 1.0}]}, "catalogue.modes[0].gamma: required field is missing"),
            ({"modes": []}, "catalogue.modes: expected a nonempty array of mode objects"),
            (
                {"khalfin": {"amplitude": 1.0, "tau": 0}},
                "catalogue.khalfin.tau: must be > 0, got 0.0",
            ),
            ({"equilibrium": 10**400}, "catalogue.equilibrium: must be finite, got inf"),
        ],
    )
    def test_json_bad_field_is_named(self, change, line):
        doc = json.loads(catalogue_to_json(figure_catalogue()))
        doc.update(change)
        with pytest.raises(ValidationError) as info:
            catalogue_from_json(json.dumps(doc))
        assert str(info.value) == line

    def test_json_mode_and_tail_defaults(self):
        doc = {
            "modes": [{"gamma": 0.5}, {"gamma": 2.0, "omega": 1.5, "amp_im": 0.25}],
            "khalfin": {"amplitude": 1},
            "equilibrium": 0.0,
            "hbar": 1.0,
        }
        want = PoleCatalogue(
            0.0,
            (Mode(Pole(0.0, 0.5), 1.0), Mode(Pole(1.5, 2.0), 1.0 + 0.25j)),
            KhalfinTail(1.0, 1.0, 3.0),
        )
        assert catalogue_from_json(json.dumps(doc)) == want

    def test_csv_roundtrip_lossless(self):
        cat = figure_catalogue(equilibrium=1.0 / 3.0)
        s = synthesize(cat, np.linspace(0.0, 7.0, 53))
        again = signal_from_csv(signal_to_csv(s))
        assert np.array_equal(again.times, s.times)
        assert np.array_equal(again.values, s.values)

    def test_csv_rows_match_one_format_per_row(self, monkeypatch):
        # the chunked renderer writes the bytes one f-string per row wrote, chunk edges included
        special = [-1.5, 0.0, -0.0, 5e-324, -1e-310, 1e-300, -1e300, 1e300, 3.0, -7.0, 2.0**53, 0.1]
        re = np.resize(special, 3 * len(special))
        im = np.resize(special[::-1], re.size)
        values = np.empty(re.size, dtype=complex)
        values.real = re
        values.imag = im
        times = np.arange(re.size, dtype=float)
        monkeypatch.setattr(pole_models, "_CSV_CHUNK_ROWS", 5)
        want = "t,re,im\n" + "".join(
            f"{t:.17g},{v.real:.17g},{v.imag:.17g}\n" for t, v in zip(times, values)
        )
        assert signal_to_csv(Signal(times, values)) == want
        assert len(list(signal_csv_chunks(Signal(times, values)))) == 1 + math.ceil(re.size / 5)
        want = "a,b\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(re, im))
        assert "".join(csv_chunks("a,b", (re, im))) == want
        # a column that is no float array (the CLI's name,value and verdict tables): each float at
        # 17 significant digits, anything else as str
        mixed = [x if k % 3 else (f"s{k}" if k % 2 else k) for k, x in enumerate(re.tolist())]
        states = np.where(re > 0.0, "classical", "quantum")
        want = "t,m,s\n" + "".join(
            f"{t:.17g},{m if not isinstance(m, float) else format(m, '.17g')},{s}\n"
            for t, m, s in zip(times, mixed, states)
        )
        assert "".join(csv_chunks("t,m,s", (times, mixed, states))) == want

    def test_csv_header_enforced(self):
        with pytest.raises(ValidationError):
            signal_from_csv("time,real,imag\n0,1,0\n")

    def test_csv_bad_row(self):
        with pytest.raises(ValidationError):
            signal_from_csv("t,re,im\n0,1\n")

    def test_csv_bad_number(self):
        with pytest.raises(ValidationError):
            signal_from_csv("t,re,im\n0,one,0\n")
