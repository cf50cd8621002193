"""Property tests of the paper's invariants over generated inputs."""

import cmath
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import sys
import tempfile
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from decopoles import cli
from decopoles.errors import ValidationError
from decopoles.friedrich import PerturbativePole, SpectralDensity
from decopoles.numerics import (
    HERMITICITY_TOL,
    DensityFamily,
    DensityMatrix,
    PencilFactorisation,
    _checked_entries,
    adaptive_simpson,
    eigh,
    fit_residual,
    hermitian_average,
    matrix_pencil_fit,
    principal_value_integral,
)
from decopoles import numerics, omnes
from decopoles.omnes import (
    OmnesConfig,
    _fock_table,
    QuasiCoherentState,
    build_density_matrix,
    collective_rate,
    frame_catalogue_matrix,
    frame_projection,
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
    Signal,
    TimescaleReport,
    catalogue_from_json,
    catalogue_to_json,
    coincidence_check,
    collective_rate_rule,
    decoherence_time,
    model1_times,
    model2_times,
    partition_report,
    preferred_signal,
    signal_from_csv,
    signal_to_csv,
    synthesize,
)
from decopoles.preferred_basis import (
    BiFriedrichModel, _greedy_match, convergence_profile, moving_eigenbasis, preferred_state,
)
from test_numerics import time_rule_evaluators
from test_omnes import (
    EPS, FOCK_ORACLE_TOL, ROOT_HALF, amplitude_damped, coherent_branch, exact_fock_state, frame_f2, frame_tower,
    frame_truncation, oracle_density, rho0_norm,
)
from test_preferred_basis import (
    assert_profile_as_loop, bloch_angle, loop_convergence_profile, loop_moving_eigenbasis, reference_greedy_match,
    two_pole_matrix_catalogue,
)

_RULES = st.sampled_from((RULE_SECOND_SMALLEST, RULE_SLOWEST, RULE_BACKGROUND))
_BOUNDARIES = st.sampled_from((BOUNDARY_RELEVANT, BOUNDARY_IRRELEVANT))
_WIDTHS = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8, unique=True).map(sorted)

_ENTRY = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def matrix_catalogues(draw):
    """(poles, equilibrium, Hermitian amplitudes, hbar) with distinct positive widths and omega = 0,
    the only frequency a matrix catalogue takes."""
    dim = draw(st.sampled_from((2, 3)))
    gammas = draw(
        st.lists(st.floats(1e-3, 1e3, allow_nan=False), min_size=1, max_size=8, unique=True)
    )
    raw = draw(hnp.arrays(float, (len(gammas), 2, dim, dim), elements=_ENTRY))
    amps = raw[:, 0] + 1j * raw[:, 1]
    amps = (amps + np.conj(np.swapaxes(amps, -1, -2))) / 2.0
    eq = draw(hnp.arrays(float, (dim,), elements=st.floats(0.0, 1.0)))
    hbar = draw(st.floats(0.1, 10.0))
    return [Pole(0.0, g) for g in gammas], np.diag(eq), amps, hbar


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
    """exp(-gamma t / hbar) of every ``idx`` mode, dead ones included, where it is a normal float, else 0."""
    decay = np.multiply.outer(t, -np.array(cm.gammas)[idx])
    decay /= cm.hbar
    decay = np.exp(decay)
    return np.where(decay >= np.finfo(float).tiny, decay, 0.0)


def unmasked_evaluate(cm, t, keep=None):
    """Reference: the sum over every kept mode, dead ones included, as one real product of the
    decay factors with the amplitudes' (K, 2 d^2) float view, the product ``evaluate`` forms."""
    idx = slice(None) if keep is None else np.asarray(keep, dtype=np.intp)
    amps = cm.amplitudes[idx]
    parts = unmasked_decay(cm, t, idx) @ amps.view(float).reshape(amps.shape[0], 2 * cm.dim**2)
    return cm.equilibrium + parts.view(complex).reshape(parts.shape[:-1] + amps.shape[1:])


def unmasked_envelope(cm, t, dropped):
    """Reference: norm times decay summed over every ``dropped`` mode, dead ones included.

    The norms are the catalogue's own, whose summation order is not pinned;
    ``TestCatalogueKernelAccuracy.test_dropped_envelope`` holds them to their rounding bound.
    """
    idx = np.asarray(dropped, dtype=np.intp)
    norms = cm._norms[idx]
    return (unmasked_decay(cm, t, idx) * norms).sum(axis=-1)


def _interior_dead_catalogue():
    """24 scalar modes of assorted sizes, every fourth exactly 0: leaving the dead ones out
    of the envelope regroups numpy's pairwise sum of the rest, which moves its bits."""
    sizes = np.tile([1.0, 1.0, 0.0, 1.0], 6) * np.random.default_rng(10).uniform(0.5, 1.5, 24)
    return [Pole(0.0, g) for g in range(1, 25)], np.eye(1), sizes[:, None, None].astype(complex), 1.0


class TestLiveModes:
    """``evaluate`` and ``dropped_envelope`` sum every mode they are given,
    dead ones (amplitude exactly 0) included, with the bits of that plain sum."""

    @settings(deadline=None, max_examples=300)
    @given(
        sparse_matrix_catalogues(), _RULES, _BOUNDARIES,
        st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        st.lists(st.floats(0.0, 20.0), max_size=6).map(lambda ts: np.array([0.0] + ts)),
    )
    @example(_interior_dead_catalogue(), RULE_BACKGROUND, BOUNDARY_RELEVANT, 0.0, np.array([0.0, 0.01, 0.1]))
    def test_same_bits_as_the_unmasked_sum(self, catalogue, rule, boundary, t, grid):
        cm = CatalogueMatrix(*catalogue)
        rep = partition_report(cm.gammas, cm.hbar, rule, boundary)
        for keep in (None, rep.p_relevant, rep.p_irrelevant):
            for when in (t, grid):
                got, want = cm.evaluate(when, keep=keep), unmasked_evaluate(cm, when, keep)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (keep, when)
        for when in (t, grid):
            got = np.asarray(cm.dropped_envelope(when, rep.p_irrelevant))
            assert got.tobytes() == np.asarray(unmasked_envelope(cm, when, rep.p_irrelevant)).tobytes(), when

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


# --- the catalogue kernels' precision contract --------------------------------
# Each kernel is held to the rounding bound its docstring states, against mpmath at
# 160 bits over the stored floats, whose own rounding is far below every bound.
# The references and the bodies that use them set those 160 bits themselves, so a
# run of this file alone (53 bits) or after a test that raised the precision holds
# the same bound.  u = 2^-53 and gamma_k = k u / (1 - k u) (Higham 2002, ch. 3).

_TINY = 2.0**-1022
_EDGE = math.log(_TINY)  # the least float whose exp is normal; see pole_models._EXP_NORMAL_EDGE


def _gamma(k):
    u = mpmath.mpf(2) ** -53
    return k * u / (1 - k * u)


@mpmath.workprec(160)
def exact_factor(cm, t, k):
    """(e, eps): exp(-gamma_k t / hbar) over the stored floats, and how far ``_decay`` may stray from it."""
    x = -mpmath.mpf(cm.gammas[k]) * mpmath.mpf(t) / mpmath.mpf(cm.hbar)
    e, drift = mpmath.exp(x), mpmath.exp(_gamma(2) * abs(x))
    if e < _TINY * drift:  # its exponent may round below the edge: stored as 0.0
        return e, e
    return e, e * ((1 + 2 * mpmath.mpf(2) ** -53) * drift - 1)


@mpmath.workprec(160)
def exact_norm(a):
    """||a||_F of one stored matrix, and the bound on the stored norm's distance from it."""
    n = mpmath.sqrt(mpmath.fsum(mpmath.mpf(v.real) ** 2 + mpmath.mpf(v.imag) ** 2 for v in a.ravel().tolist()))
    d = a.shape[-1]
    return n, _gamma(d * d + 2) * n + d * mpmath.mpf(2) ** -536


def _edge_catalogue(x):
    """One unit mode over a zero equilibrium whose exponent at t = 1 is ``x``."""
    return [Pole(0.0, -x)], np.zeros((1, 1)), np.ones((1, 1, 1)), 1.0


@st.composite
def decay_setups(draw):
    """(catalogue of unit scalar modes, times): exponents -gamma t / hbar over [-760, 0),
    a third of them within 4 of log 2^-1022, and some on the floats next to it."""
    hbar, t = draw(st.floats(0.1, 10.0)), draw(st.floats(0.01, 50.0))
    near_edge = _EDGE + np.arange(-3, 4) * 2.0**-43
    xs = draw(st.lists(
        st.floats(-760.0, -1e-3) | st.floats(_EDGE - 4.0, _EDGE + 4.0) | st.sampled_from(near_edge.tolist()),
        min_size=1, max_size=12,
    ))
    gammas = np.array([-x * hbar / t for x in xs])
    return (gammas, np.eye(1), np.ones((len(xs), 1, 1)), hbar), np.array([0.0, t, 2.0 * t])


class TestCatalogueKernelAccuracy:
    """``_decay``, ``evaluate`` and ``dropped_envelope`` within their stated bounds of the exact values."""

    @settings(deadline=None, max_examples=40)
    @given(decay_setups())
    @example(((np.array([705.0, -_EDGE]), np.eye(1), np.ones((2, 1, 1)), 1.0), np.array([1.0])))
    def test_decay_factors(self, setup):
        widths, times = setup
        cm = CatalogueMatrix._from_widths(*widths)
        got = cm._decay(times, slice(None))
        with mpmath.workprec(160):
            for i, t in enumerate(times.tolist()):
                for k, g in enumerate(got[i].tolist()):
                    assert g == 0.0 or g >= _TINY, (t, k, g)  # no subnormal factor
                    e, eps = exact_factor(cm, t, k)
                    assert abs(g - e) <= eps, (t, k, g)

    @settings(deadline=None, max_examples=25)
    @given(sparse_matrix_catalogues(), st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3).map(np.array))
    @example(_edge_catalogue(-705.0), np.array([1.0]))
    def test_evaluate(self, catalogue, times):
        cm = CatalogueMatrix(*catalogue)
        n, d = len(cm.gammas), cm.dim
        with mpmath.workprec(160):
            for when in (times, float(times[0])):
                got = cm.evaluate(when).reshape(-1, d, d)
                for i, t in enumerate(np.atleast_1d(when).tolist()):
                    factors = [exact_factor(cm, t, k) for k in range(n)]
                    for r in range(d):
                        for c in range(d):
                            sizes = [abs(a) for a in cm.amplitudes[:, r, c].tolist()]
                            slack = sum(s * eps for s, (_, eps) in zip(sizes, factors)) + (n + 1) * mpmath.mpf(2) ** -1074
                            for part in ("real", "imag"):
                                eq = mpmath.mpf(getattr(cm.equilibrium[r, c], part))
                                amps = [mpmath.mpf(getattr(a, part)) for a in cm.amplitudes[:, r, c].tolist()]
                                exact = eq + mpmath.fsum(a * e for a, (e, _) in zip(amps, factors))
                                scale = abs(eq) + sum(s * (e + eps) for s, (e, eps) in zip(sizes, factors))
                                assert abs(getattr(got[i, r, c], part) - exact) <= _gamma(n + 1) * scale + slack, (t, r, c)

    @settings(deadline=None, max_examples=25)
    @given(sparse_matrix_catalogues(), st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3).map(np.array))
    @example(_edge_catalogue(-705.0), np.array([1.0]))
    def test_dropped_envelope(self, catalogue, times):
        cm = CatalogueMatrix(*catalogue)
        n = len(cm.gammas)
        with mpmath.workprec(160):
            norms = [exact_norm(a) for a in cm.amplitudes]
            for got, (want, nu) in zip(cm._norms.tolist(), norms):
                assert abs(got - want) <= nu
            for when in (times, float(times[0])):
                got = np.atleast_1d(cm.dropped_envelope(when, range(n)))
                for i, t in enumerate(np.atleast_1d(when).tolist()):
                    factors = [exact_factor(cm, t, k) for k in range(n)]
                    exact = mpmath.fsum(nk * e for (nk, _), (e, _) in zip(norms, factors))
                    ceiling = (1 + _gamma(n)) * mpmath.fsum(
                        (nk + nu) * (e + eps) for (nk, nu), (e, eps) in zip(norms, factors)
                    )
                    assert abs(got[i] - exact) <= ceiling - exact + n * mpmath.mpf(2) ** -1074, t

    def test_references_run_at_160_bits(self):
        # at the 53 bits of a run that sets no precision, the references still form 160-bit values
        cm = CatalogueMatrix([Pole(0.0, 1.0)], np.eye(1), np.ones((1, 1, 1)))
        with mpmath.workprec(53):
            (n, _), (e, _) = exact_norm(np.array([[1.0, 2.0**-40]])), exact_factor(cm, 1.0, 0)
            assert n > 1 and mpmath.mpf(float(e)) != e  # sqrt(1 + 2^-80) and exp(-1) past 53 bits


def evaluate_slack(cm, factors, n):
    """The contract's bound on ||evaluate(t, keep=range(n)) - exact||_F: each part of each
    entry within its ``evaluate`` bound, so each entry within sqrt(2) times that bound."""
    total = mpmath.mpf(0)
    for r in range(cm.dim):
        for c in range(cm.dim):
            sizes = [abs(a) for a in cm.amplitudes[:n, r, c].tolist()]
            scale = abs(cm.equilibrium[r, c]) + mpmath.fsum(s * (e + eps) for s, (e, eps) in zip(sizes, factors))
            part = _gamma(n + 1) * scale + mpmath.fsum(s * eps for s, (_, eps) in zip(sizes, factors))
            total += 2 * (part + (n + 1) * mpmath.mpf(2) ** -1074) ** 2
    return mpmath.sqrt(total)


class TestDroppedEnvelopeBoundsTheCut:
    """The envelope of the modes a cut drops bounds what it drops from the state:
    ||evaluate(t) - evaluate(t, keep=range(c))||_F <= dropped_envelope(t, range(c, K)) + slack.

    Exactly, the difference is sum_{k >= c} A_k e_k, whose norm is at most
    sum_{k >= c} ||A_k||_F e_k by the triangle inequality.  The slack, fixed before any
    run, is the sum of the three contract bounds: each ``evaluate`` within
    ``evaluate_slack`` of its exact matrix, and the envelope within its stated
    bound of the exact ceiling.  The left side is the norm of the difference
    of the two computed matrices, taken to 160 bits in mpmath.
    """

    @settings(deadline=None, max_examples=60)
    @given(
        # the sparse catalogues' dead and tiny modes, and dense ones whose dropped modes all count
        st.one_of(sparse_matrix_catalogues(), matrix_catalogues()).flatmap(
            lambda c: st.tuples(st.just(c), st.integers(0, len(c[0])))
        ),
        st.floats(0.0, 20.0),
        st.lists(st.floats(0.0, 20.0), max_size=3).map(lambda ts: np.array([0.0] + ts)),
    )
    def test_envelope_bounds_the_dropped_modes(self, picked, t, grid):
        catalogue, cut = picked
        cm = CatalogueMatrix(*catalogue)
        n = len(cm.gammas)
        with mpmath.workprec(160):
            norms = [exact_norm(a) for a in cm.amplitudes]
            for when in (t, grid):
                full = cm.evaluate(when).reshape(-1, cm.dim * cm.dim)
                kept = cm.evaluate(when, keep=range(cut)).reshape(full.shape)
                envelope = np.atleast_1d(cm.dropped_envelope(when, range(cut, n)))
                for i, s in enumerate(np.atleast_1d(when).tolist()):
                    factors = [exact_factor(cm, s, k) for k in range(n)]
                    dropped = list(zip(norms[cut:], factors[cut:]))
                    exact = mpmath.fsum(nk * e for (nk, _), (e, _) in dropped)
                    ceiling = (1 + _gamma(n - cut)) * mpmath.fsum(
                        (nk + nu) * (e + eps) for (nk, nu), (e, eps) in dropped
                    )
                    slack = (evaluate_slack(cm, factors, n) + evaluate_slack(cm, factors[:cut], cut)
                             + ceiling - exact + (n - cut) * mpmath.mpf(2) ** -1074)
                    diff = mpmath.sqrt(mpmath.fsum(
                        abs(mpmath.mpc(a) - mpmath.mpc(b)) ** 2 for a, b in zip(full[i].tolist(), kept[i].tolist())
                    ))
                    assert diff <= envelope[i] + slack, (s, cut, float(diff), envelope[i], float(slack))


def _two_tied_modes():
    """Two poles of one width with different amplitudes, ahead of a slower third."""
    amps = np.array([[[0.0, 0.3], [0.3, 0.0]], [[-0.25, 0.1j], [np.conj(0.1j), 0.25]], np.eye(2)])
    return [Pole(0.0, 2.0), Pole(0.0, 2.0), Pole(0.0, 0.5)], np.diag([0.75, 0.25]), amps, 1.0


class TestWidthTiesKeepInputOrder:
    """Equal widths keep their input order, on both build paths, and reversing the input,
    which reorders every tie, moves ``evaluate`` only within its stated bound.

    ``matrix_catalogues`` draws distinct widths; here each pole's width is redrawn from
    at most three values.  The reversed catalogue's tied modes share their decay factors,
    so both sums are of the same exact terms: their difference lies within the two
    ``evaluate_slack`` bounds, taken to 160 bits in mpmath.
    """

    @settings(deadline=None, max_examples=30)
    @given(matrix_catalogues(), st.data(), st.floats(0.0, 50.0))
    def test_ties_keep_input_order(self, catalogue, data, t):
        poles, eq, amps, hbar = catalogue
        levels = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3, unique=True))
        self.check([Pole(0.0, data.draw(st.sampled_from(levels))) for _ in poles], eq, amps, hbar, t)

    def test_two_tied_modes(self):
        self.check(*_two_tied_modes(), 0.3)

    def check(self, poles, eq, amps, hbar, t):
        gammas = [p.gamma for p in poles]
        order = sorted(range(len(gammas)), key=gammas.__getitem__)  # Python's sort is stable
        cm = CatalogueMatrix(poles, eq, amps, hbar)
        assert cm.gammas == tuple(gammas[k] for k in order)
        assert np.array_equal(cm.amplitudes, amps[order])
        widths = CatalogueMatrix._from_widths(np.array(gammas), eq, amps, hbar)
        assert widths.gammas == cm.gammas and widths.amplitudes.tobytes() == cm.amplitudes.tobytes()
        assert widths.evaluate(t).tobytes() == cm.evaluate(t).tobytes()

        rev = CatalogueMatrix(poles[::-1], eq, amps[::-1], hbar)
        assert rev.gammas == cm.gammas
        n = len(gammas)
        with mpmath.workprec(160):
            factors = [exact_factor(cm, t, k) for k in range(n)]
            diff = mpmath.sqrt(mpmath.fsum(
                abs(mpmath.mpc(a) - mpmath.mpc(b)) ** 2
                for a, b in zip(cm.evaluate(t).ravel().tolist(), rev.evaluate(t).ravel().tolist())
            ))
            assert diff <= evaluate_slack(cm, factors, n) + evaluate_slack(rev, factors, n), (t, float(diff))


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


# --- the config record ---------------------------------------------------------
# Each schema below is written from the README, not from the reader: ``{key: default}``, with
# ("object", schema) or ("objects", schema) for a key holding one object or an array of them.  A key
# a generated config always gives (a required one) has default None; it is never read as a default.

_MODE_SCHEMA = {"omega": 0.0, "gamma": None, "amp_re": 1.0, "amp_im": 0.0}
_TAIL_SCHEMA = ("object", {"amplitude": None, "tau": 1.0, "p": 3.0})
_CATALOGUE_TAIL = {"equilibrium": 0.0, "khalfin": _TAIL_SCHEMA, "hbar": 1.0}
_CATALOGUE_SCHEMA = {"modes": ("objects", _MODE_SCHEMA), **_CATALOGUE_TAIL}
_OMNES_SCHEMA = {
    "m": 1.0, "omega": 2.0, "hbar": 1.0, "L0": 10.0, "a_re": math.sqrt(0.5), "a_im": 0.0,
    "b_re": math.sqrt(0.5), "b_im": 0.0, "N": 6000, "L0_sweep": [10.0, 20.0, 40.0],
}
# the README's default bands: center -+ 3000 width, and [0, 40 cutoff]
_DENSITY_BANDS = {
    "lorentzian": lambda d: (d["center"] - 3000.0 * d["width"], d["center"] + 3000.0 * d["width"]),
    "ohmic": lambda d: (0.0, 40.0 * d["cutoff"]),
}
_PARAMS_SCHEMAS = {
    "model1": {"gamma0": None, "amp_re": 1.0, "amp_im": 0.0, **_CATALOGUE_TAIL},
    "model2": {
        "gamma0": None, "amp0_re": 1.0, "amp0_im": 0.0, "gamma1": None, "amp1_re": 1.0, "amp1_im": 0.0,
        **_CATALOGUE_TAIL,
    },
    "model3": {**_CATALOGUE_SCHEMA, "rule": RULE_SECOND_SMALLEST, "boundary": BOUNDARY_RELEVANT},
    "bifriedrich": {"part1": ("object", _CATALOGUE_SCHEMA), "part2": ("object", _CATALOGUE_SCHEMA)},
    "extract": {"input_csv": None, "model_order": None, "equilibrium": 0.0, "hbar": 1.0},
}


def _params_schema(doc):
    params = doc.get("params", {})
    if doc["scenario"] != "omnes":
        return _PARAMS_SCHEMAS[doc["scenario"]]
    if "spectral_density" not in params:  # a key only asked after, to be refused, reads no value
        return {**_OMNES_SCHEMA, "gamma0": 0.1, "omega_prime": 0.0}
    density = params["spectral_density"]
    lo, hi = _DENSITY_BANDS[density["kind"]](density)
    shape = ("center", "width") if density["kind"] == "lorentzian" else ("cutoff",)
    schema = {"kind": None, "omega0": None, **dict.fromkeys(shape), "weight": 1.0, "lo": lo, "hi": hi}
    return {**_OMNES_SCHEMA, "spectral_density": ("object", schema)}


def _expected_record(doc, schema, path, record):
    """``record`` with ``path.key -> (value, given)`` for each key of ``schema``, and its objects' keys."""
    for key, spec in schema.items():
        kind, sub = spec if isinstance(spec, tuple) else ("leaf", None)
        given = key in doc
        value = doc[key] if given else (None if kind != "leaf" else spec)
        record[f"{path}.{key}"] = (value, given)
        if kind == "object" and value is not None:
            _expected_record(value, sub, f"{path}.{key}", record)
        if kind == "objects":
            for i, entry in enumerate(value):
                _expected_record(entry, sub, f"{path}.{key}[{i}]", record)
    return record


_POSITIVE = st.floats(0.2, 5.0) | st.integers(1, 5)
_REAL = st.floats(-2.0, 2.0) | st.integers(-2, 2)
_GIVEN_TAIL = st.none() | st.fixed_dictionaries(
    {"amplitude": _REAL}, optional={"tau": _POSITIVE, "p": _POSITIVE}
)
_TAIL_KEYS = {"equilibrium": _REAL, "khalfin": _GIVEN_TAIL, "hbar": _POSITIVE}


def _config_modes(min_size):
    # distinct widths, so every rule partitions them
    gammas = st.lists(st.floats(0.05, 20.0), min_size=min_size, max_size=4, unique=True)
    return gammas.flatmap(lambda gs: st.tuples(*(
        st.fixed_dictionaries({"gamma": st.just(g)}, optional={"omega": _REAL, "amp_re": _REAL, "amp_im": _REAL})
        for g in gs
    )).map(list))


def _catalogue_params(min_modes, **more):
    return st.fixed_dictionaries({"modes": _config_modes(min_modes)}, optional={**_TAIL_KEYS, **more})


@st.composite
def _omnes_params(draw):
    params = draw(st.fixed_dictionaries({}, optional={
        "m": st.floats(0.5, 2.0), "omega": st.floats(0.5, 2.0), "hbar": st.floats(0.5, 2.0),
        "L0": st.floats(1.0, 20.0) | st.integers(1, 20), "N": st.integers(1, 60),
        "L0_sweep": st.lists(st.floats(1.0, 40.0), min_size=1, max_size=3),
    }))
    if draw(st.booleans()):  # |a|^2 + |b|^2 = 1 with a = cos(theta) e^(i phi), b = sin(theta)
        theta, phi = draw(st.floats(0.1, 1.4)), draw(st.floats(-3.0, 3.0))
        params.update(a_re=math.cos(theta) * math.cos(phi), a_im=math.cos(theta) * math.sin(phi), b_re=math.sin(theta))
        params.update(draw(st.fixed_dictionaries({}, optional={"b_im": st.just(0.0)})))
    kind = draw(st.sampled_from(["rate", "lorentzian", "ohmic"]))
    if kind == "rate":
        params.update(draw(st.fixed_dictionaries({}, optional={"gamma0": st.floats(0.01, 1.0),
                                                              "omega_prime": st.floats(-1.0, 1.0)})))
        return params
    omega0 = draw(st.floats(0.5, 2.0))
    if kind == "lorentzian":
        shape = {"center": omega0 + draw(st.floats(-0.5, 0.5)), "width": draw(st.floats(0.2, 2.0))}
        bounds = {"lo": st.just(omega0 - draw(st.floats(0.5, 5.0))), "hi": st.just(omega0 + draw(st.floats(0.5, 5.0)))}
    else:
        shape = {"cutoff": omega0 / draw(st.floats(0.1, 3.0))}
        bounds = {"lo": st.just(omega0 * draw(st.floats(0.0, 0.9))), "hi": st.just(omega0 * draw(st.floats(1.1, 10.0)))}
    params["spectral_density"] = {
        "kind": kind, "omega0": omega0, **shape,
        **draw(st.fixed_dictionaries({}, optional={"weight": st.floats(0.1, 5.0), **bounds})),
    }
    return params


_SCENARIO_PARAMS = {
    "model1": st.fixed_dictionaries({"gamma0": _POSITIVE}, optional={
        "amp_re": _REAL, "amp_im": _REAL, **_TAIL_KEYS}),
    "model2": st.tuples(st.floats(0.05, 2.0), st.floats(1.5, 50.0)).flatmap(lambda g: st.fixed_dictionaries(
        {"gamma0": st.just(g[0]), "gamma1": st.just(g[0] * g[1])},
        optional={"amp0_re": _REAL, "amp0_im": _REAL, "amp1_re": _REAL, "amp1_im": _REAL, **_TAIL_KEYS},
    )),
    "model3": _catalogue_params(1, rule=_RULES, boundary=_BOUNDARIES),
    "bifriedrich": st.fixed_dictionaries({"part1": _catalogue_params(1), "part2": _catalogue_params(1)}),
    "omnes": _omnes_params(),
    "extract": st.fixed_dictionaries({"input_csv": st.just("signal.csv"), "model_order": st.integers(1, 3)},
                                     optional={"equilibrium": _REAL, "hbar": _POSITIVE}),
}


@st.composite
def valid_configs(draw, scenario):
    required = {"scenario": st.just(scenario), "params": _SCENARIO_PARAMS[scenario]}
    if scenario != "extract":
        required["grid"] = st.fixed_dictionaries({"t_max": _POSITIVE, "n_points": st.integers(2, 20)})
    doc = draw(st.fixed_dictionaries(required, optional={"output_dir": st.just("elsewhere")}))
    if scenario == "omnes" and not doc["params"] and draw(st.booleans()):
        del doc["params"]  # every omnes param has a default
    return doc


class TestConfigRecord:
    """A run's config record holds every key the config gives, as given, and every default that stood
    in for an absent key, as that default: nothing the config gives goes unread, and no read escapes."""

    @pytest.mark.parametrize("scenario", sorted(_SCENARIO_PARAMS))
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_record_is_the_config_and_its_defaults(self, scenario, data):
        doc = data.draw(valid_configs(scenario), label="config")
        root = {"output_dir": ".", "scenario": None, "params": {}}
        if scenario != "extract":  # extract only asks after a grid, to refuse it
            root["grid"] = ("object", {"t_max": None, "n_points": None})
        want = _expected_record(doc, root, "config", {})
        _expected_record(doc.get("params", {}), _params_schema(doc), "params", want)

        records, dispatch = [], cli._dispatch

        def validate_only(subcommand, root):
            dispatch(subcommand, root)
            records.append(root.record)
            return dict  # a run that writes nothing

        subcommand = scenario if scenario in ("omnes", "extract") else "simulate"
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_dispatch", validate_only):
            t = np.linspace(0.0, 10.0, 41)
            with open(os.path.join(tmp, "signal.csv"), "w", encoding="utf-8") as fh:
                fh.write(signal_to_csv(Signal(t, np.exp(-0.5 * t) + 0.5 * np.exp(-2.0 * t) + 0j)))
            with open(os.path.join(tmp, "config.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    code = cli.main([subcommand, "--config", "config.json", "--out", "out"])
            finally:
                os.chdir(cwd)
        assert code == 0, err.getvalue()
        assert records == [want]


def _closed_form_terms(params, t):
    """A config catalogue's terms at the times ``t``, each exactly as the closed form reads it: the equilibrium,
    then a exp(-(gamma + i omega) t / hbar) for each mode in ascending width, then the tail (0 without one)."""
    hbar = params.get("hbar", 1.0)
    terms = [np.full(t.shape, complex(params.get("equilibrium", 0.0)))]
    for m in sorted(params["modes"], key=lambda m: m["gamma"]):
        a, x = complex(m.get("amp_re", 1.0), m.get("amp_im", 0.0)), complex(-m["gamma"], -m.get("omega", 0.0))
        terms.append(np.array([a * cmath.exp(x * (s / hbar)) for s in t.tolist()]))
    tail = params.get("khalfin")
    if tail is not None:
        terms.append(tail["amplitude"] * (1.0 + t / tail.get("tau", 1.0)) ** -tail.get("p", 3.0) + 0j)
    return terms


class TestCatalogueRendersAsStored:
    """Every signal a model3 or bifriedrich run writes is the catalogue's closed form,
    equilibrium + sum_k a_k exp(-i omega_k t / hbar) exp(-gamma_k t / hbar) + tail, over the kept modes for
    ``preferred.csv``: within 1e-12 of the sum of the terms' magnitudes at each time.

    Planted defect it catches: ``pole_models._mode_sum`` without the rotation (each mode's envelope alone).
    """

    @staticmethod
    def run(doc):
        """``decopoles simulate`` of ``doc``: {file name: parsed signal or text} of what it wrote."""
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(["simulate", "--config", cfg, "--out", out])
            assert code == 0, err.getvalue()
            files = {}
            for name in os.listdir(out):
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    text = fh.read()
                files[name] = signal_from_csv(text) if name.startswith(("signal", "preferred")) else text
            return files

    @staticmethod
    def assert_closed_form(signal, terms):
        want = sum(terms)
        size = sum(np.abs(term) for term in terms)
        assert np.all(np.abs(signal.values - want) <= 1e-12 * size), np.max(np.abs(signal.values - want) / size)

    @settings(deadline=None, max_examples=60)
    @given(valid_configs("model3"))
    def test_model3_signal_and_preferred(self, doc):
        files = self.run(doc)
        terms = _closed_form_terms(doc["params"], files["signal.csv"].times)
        self.assert_closed_form(files["signal.csv"], terms)
        relevant = dict(row.split(",", 1) for row in files["timescales.csv"].splitlines()[1:])["p_relevant"]
        cut = len(relevant.split(";")) if relevant else 0
        has_tail = doc["params"].get("khalfin") is not None
        self.assert_closed_form(files["preferred.csv"], terms[: 1 + cut] + terms[len(terms) - has_tail:])

    @settings(deadline=None, max_examples=60)
    @given(valid_configs("bifriedrich"))
    def test_bifriedrich_signals(self, doc):
        files = self.run(doc)
        for k in (1, 2):
            signal = files[f"signal{k}.csv"]
            self.assert_closed_form(signal, _closed_form_terms(doc["params"][f"part{k}"], signal.times))


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
# hbar^2, the quotient, two L0s, gamma0); Delta = L0 sqrt(m omega / 2) / hbar carries 3.5 on either
# of its paths (m omega or the product of the frexp mantissas, the sqrt that halves it, the product
# with L0 and the quotient; the power-of-two scaling is exact), doubled by Delta * Delta, plus that
# product and gamma0: 9; hbar / gamma_tilde adds one to either, and so does t_D's mantissa path,
# h / (d d g), which takes Delta's 3.5 twice and three roundings of its own; the factor 1 + 1e-9
# covers the second-order terms
_RATE_REL = 10 * 2.0**-53 * (1 + 1e-9)


def _is_normal(x) -> bool:
    return _NORMAL[0] <= x <= _NORMAL[1]


class TestCollectiveRateInvariant:
    @settings(deadline=None, max_examples=100)
    @given(scales(), scales(), scales(), st.floats(1e-2, 1e2), scales())
    @example(1.0, 2.0, 1e160, 1.0, 1e160)  # 2 hbar^2 overflows
    @example(1.0, 2.0, 1e-170, 1.0, 1e-150)  # 2 hbar^2 underflows to 0
    @example(0.01, 0.01, 9e153, 1.0, 1e160)  # m omega / 2 hbar^2 is subnormal, Delta^2 is not
    @example(0.299, 1.226, 0.549, 0.25, 1.614)  # two orders of m omega L0^2 / 2 hbar^2 differ here
    @example(1e-160, 1e-160, 1e-160, 1.0, 1.0)  # m omega underflows to 0; Delta = sqrt(1/2)
    @example(1e160, 1e160, 1e160, 1.0, 1.0)  # m omega overflows; Delta = sqrt(1/2)
    @example(1e-160, 1e-150, 1e-150, 1.0, 1.0)  # m omega is subnormal, m omega / 2 hbar^2 is not
    @example(1.0, 2.0, 1e-10, 1.0, 1e-168)  # gamma_tilde = Delta^2 = 1e-316 is subnormal, t_D is not
    @example(1.0, 2.0, 1.0, 100.0, 1.7e-155)  # Delta^2 is subnormal, gamma_tilde is not
    def test_t_d_times_l0_squared_is_separation_free(self, m, omega, hbar, gamma0, L0):
        with mpmath.workprec(256):
            delta2 = mpmath.mpf(m) * omega * mpmath.mpf(L0) ** 2 / (2 * mpmath.mpf(hbar) ** 2)
            gamma_tilde = delta2 * gamma0
            t_d = hbar / gamma_tilde
        try:
            cfg = OmnesConfig(m, omega, hbar, gamma0, L0, np.sqrt(0.5), np.sqrt(0.5), 8)
        except ValidationError:
            assert delta2 > _NORMAL[1]  # only a Delta^2 past the float range is rejected
            reject()
        p = m * omega / 2.0
        if all(2.0**-1022 <= x < math.inf for x in (m * omega, p, L0 * math.sqrt(p), L0 * math.sqrt(p) / hbar)):
            assert cfg.delta == L0 * math.sqrt(p) / hbar  # the bits of that order where its steps are normal
        try:
            rate = collective_rate(cfg)
        except ValidationError:
            rate = None
        if all(_is_normal(x) for x in (delta2, gamma_tilde, t_d)):
            assert rate is not None
            assert abs(rate.gamma_tilde - gamma_tilde) <= _RATE_REL * gamma_tilde
        if _is_normal(t_d) and 2.0**-1072 <= min(delta2, gamma_tilde) and gamma_tilde <= _NORMAL[1]:
            assert rate is not None  # Delta^2 and gamma_tilde neither round to 0 nor overflow
            assert abs(rate.t_D - t_d) <= _RATE_REL * t_d  # a subnormal Delta^2 or gamma_tilde too
        if rate is None:
            return
        # the partition threshold at gamma0 is the same number
        assert collective_rate_rule(m, omega, L0, hbar)((gamma0,)) == rate.gamma_tilde
        if _is_normal(t_d):
            want = 2 * mpmath.mpf(hbar) ** 3 / (mpmath.mpf(m) * omega * gamma0)  # hbar^3 overflows
            assert abs(mpmath.mpf(rate.t_D) * mpmath.mpf(L0) ** 2 - want) <= 1e-12 * want


def _formula_fock_table(alpha, N):
    """Reference: every Fock-table field by its own plain formula, sharing no code with the table."""
    if alpha == 0.0:
        log_weights = np.full(N + 1, -math.inf)
        log_weights[0] = 0.0
    else:
        log_weights = np.arange(N + 1) * math.log(alpha) - 0.5 * np.array([math.lgamma(k + 1.0) for k in range(N + 1)])
    top = float(np.max(2.0 * log_weights))
    log_norm = -0.5 * (top + math.log(float(np.sum(np.exp(2.0 * log_weights - top)))))
    q = np.exp(2.0 * (log_weights + log_norm))
    live = q[: np.flatnonzero(q)[-1] + 1]
    tails = np.cumsum(live[::-1])  # the head window: drop the trailing weights that sum below EPS of all
    head = live.size - int(np.count_nonzero(tails < EPS * tails[-1]))
    return log_weights, log_norm, live.astype(complex), np.arange(N + 1) + 0j, head


class TestFockTableBits:
    @settings(deadline=None, max_examples=100)
    @given(st.one_of(st.just(0.0), st.floats(0.0, 40.0)), st.integers(1, 2000))
    @example(0.0, 1)
    @example(30.0, 3000)  # Delta^2 = 900: q_0 = exp(-900) underflows, so the live weights have leading zeros
    def test_every_field_has_the_bits_of_its_formula(self, alpha, N):
        table = _fock_table(alpha, N)
        for name, got, want in zip(table._fields, table, _formula_fock_table(alpha, N), strict=True):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
            assert not isinstance(got, np.ndarray) or not got.flags.writeable, name

    @settings(deadline=None, max_examples=100)
    @given(st.one_of(st.just(0.0), st.floats(0.0, 400.0)), st.integers(1, 3000))
    @example(400.0, 250_000)  # ||v|| - 1 = 1.55e-12 here: more than 1e-12, and all of it rounding
    @example(30.0, 3000)
    def test_v_has_unit_norm_up_to_rounding(self, alpha, N):
        """v = exp(log weights + log norm) has unit norm by construction, whatever N truncates.

        Bound stated before measuring, u = 2^-53, the stored log weights taken as exact:
        each exp(2 lw_n - max) turns its argument's rounding into a factor e^(u|x|), at most
        u/e absolute on a term <= 1, plus one ulp of its own; their sum S >= 1 of N + 1 terms
        adds gamma_N; log S and max + log S add u log(N + 1) and 2u|log_norm|.  So log_norm
        is off by at most u |log_norm| + (0.7 (N + 1) + 2) u.  Each v_n adds u/e on its square
        and one ulp, and the fsum of squares and its sqrt 2u: | ||v|| - 1 | <= u (|log_norm| + 2(N + 1) + 8).
        """
        state = QuasiCoherentState(alpha, N)
        v = state.fock_vector()
        norm = math.sqrt(math.fsum((v * v).tolist()))
        assert abs(norm - 1.0) <= 2.0**-53 * (abs(state.log_norm) + 2.0 * (N + 1) + 8.0), norm - 1.0


@st.composite
def frame_windows(draw):
    """(cfg, z0, t): Delta in (0, 40], N up to 2000, omega' 0 or drawn, t up to 12 hbar / gamma0, often
    near 0, where |x| = e^(-gamma0 t / hbar) is nearest 1 and the dropped tail weighs the most."""
    delta, N = draw(st.floats(0.0, 40.0, exclude_min=True)), draw(st.integers(1, 2000))
    cfg = OmnesConfig(1.0, 2.0, 1.0, draw(st.floats(1e-3, 10.0)), delta, ROOT_HALF, ROOT_HALF, N)
    tau = draw(st.floats(0.0, 12.0) | st.floats(0.0, 1e-3))
    return cfg, cfg.z0(draw(st.just(0.0) | st.floats(-5.0, 5.0))), tau * cfg.hbar / cfg.gamma0


_TINY_SUB = 2.0**-1074  # the spacing of the subnormal floats


def _frame_window_case(delta, N, gamma0, omega_prime, tau):
    cfg = OmnesConfig(1.0, 2.0, 1.0, gamma0, delta, ROOT_HALF, ROOT_HALF, N)
    return cfg, cfg.z0(omega_prime), tau * cfg.hbar / gamma0


class TestFrameHeadWindow:
    """The truncated frame overlap w keeps the live sum's bound on its head window.

    Stated before measuring, u = 2^-53, gamma_k = k u / (1 - k u): ``_frame_overlaps``
    sums only the head window, the live weights q_0..q_hi less the trailing ones that sum below
    2^-60 sum q; |x| = e^(-gamma0 t / hbar) <= 1 there, so the dropped terms weigh below 2^-60 A,
    A = sum_(n<=hi) q_n |phase_n|, and the head sum's gamma_h A plus them stays within gamma_(hi+1) A.
    So |w - w_exact| <= gamma_(hi+1) A + (hi + 1) 2^-1074, the
    last term where products underflow, with w_exact the exact
    sum over the float weights and the float phases ``_ladder_phases`` forms for them, by mpmath at
    160 bits.  The window is the widest such cut: its dropped tail sums below 2^-60 sum q, and with
    one weight more it would not (each side up to the rounding of the table's float tail sums).
    """

    @settings(deadline=None, max_examples=60)
    @given(frame_windows())
    @example(_frame_window_case(6.0, 200, 0.2, 0.0, 0.0))  # t = 0: every |phase| is 1, the dropped tail weighs most
    @example(_frame_window_case(10.0, 300, 0.1, 0.7, 10.0))  # late t: q_0 < 2^-60 carries w
    @example(_frame_window_case(30.0, 2000, 0.05, 0.0, 3.0))  # q_0 underflows: leading zeros
    @example(_frame_window_case(1e-200, 40, 0.1, 0.0, 1.0))  # one live weight
    def test_within_the_live_sum_bound(self, case):
        cfg, z0, t = case
        table = _fock_table(cfg.alpha2, cfg.N)
        q = table.q_live.real.tolist()
        phases = omnes._ladder_phases(table.ladder[: len(q)], z0, t, cfg.hbar).tolist()
        _, w = omnes._frame_overlaps(cfg, z0, t, closed_form=False)
        with mpmath.workprec(160):
            terms = [mpmath.mpf(a) * mpmath.mpc(p) for a, p in zip(q, phases)]
            exact, area = mpmath.fsum(terms), mpmath.fsum(abs(v) for v in terms)
            assert abs(mpmath.mpc(w) - exact) <= _gamma(len(q)) * area + len(q) * _TINY_SUB, (cfg, z0, t)
        total, slack = math.fsum(q), 2.0 * float(_gamma(len(q)))
        assert math.fsum(q[table.head :]) < EPS * total * (1.0 + slack), table.head
        assert math.fsum(q[table.head - 1 :]) >= EPS * total * (1.0 - slack), table.head


_CEXP_K = 6  # numpy's complex exp, per part: exp and cos or sin within an ulp (2u) each, their product u


@st.composite
def ladders(draw):
    """(size, z0, t, hbar): the top phase's Re exponent down to about -800, t = +-0.0, or a small t < 0."""
    size = draw(st.integers(1, 1500))
    z0 = complex(draw(st.sampled_from((0.0, -0.0)) | st.floats(-5.0, 5.0)), draw(st.floats(-3.0, 0.0)))
    hbar = draw(st.floats(1e-3, 1e3))
    reach = 800.0 * hbar / (max(size - 1, 1) * max(-z0.imag, 2.0**-10))  # the top Re exponent is -800 at t = reach
    return size, z0, draw(st.floats(0.0, 1.0) | st.sampled_from((0.0, -0.0)) | st.floats(-0.01, 0.0)) * reach, hbar


_LADDER_EXAMPLES = [
    # the grid of ``test_bits_across_the_underflow_edge``: the top phase's |Re exponent| is 746 when at = 1
    (size, z0, at * 746.0 * hbar / (max(size - 1, 1) * max(-z0.imag, 0.03)), hbar)
    for size, hbar in [(1, 1.0), (201, 1.0), (1001, 0.9)]
    for z0 in (0.7 - 0.03j, 2.5 - 1.0j, -0.4 - 0.2j, 0.3 + 0.0j, -0.2j, complex(-0.0, -1.0))
    for at in (1.5, -0.5)
] + [
    # the dead-phase cut of ``test_bits_at_the_dead_phase_cut`` at exponent steps of 0.2, not 0.01: 4000
    # phases reach -800, one lands on -745, where exp reads 2^-1074, and the last time puts one on -746
    (4000, -1.0j, 0.2, 1.0), (4000, complex(-0.0, -0.37), 0.2 / 0.37, 1.0), (4000, -1.0j, 746.0 / 3999, 1.0),
    # signed zeros in Re z0 and t
    (4, complex(0.0, -0.7), 0.0, 1.0), (4, complex(-0.0, -0.7), -0.0, 1.0), (4, complex(-0.0, -0.7), -1.3, 1.0),
]


def _with_examples(cases):
    def wrap(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test

    return wrap


class TestLadderPhaseAccuracy:
    """``omnes._ladder_phases`` within its stated bound of exp of the exact exponent.

    Stated before measuring, u = 2^-53 and gamma_k = k u / (1 - k u): c = -i z0 t / hbar takes
    one rounding per part for t and one for hbar, and n c one more, so each part of the computed
    exponent is within gamma_3 of the exact x_n = -i n z0 t / hbar of the float inputs, and
    |x^_n - x_n| <= gamma_3 |x_n|.  numpy's complex exp is e^Re cos(Im) and e^Re sin(Im), each
    factor within an ulp (2u) and their product rounded once, so each part is within
    (1 + 2u)^2 (1 + u) - 1 < 6u of its exact value at x^_n.  Together each part of phase n is
    within |e^x| ((1 + 6u) e^(gamma_3 |x|) - 1) + 2^-1074 of exp(x_n), the last term for a
    result in the subnormal range.  The reference is mpmath's exp at 160 bits.
    """

    @settings(deadline=None, max_examples=40)
    @given(ladders())
    @_with_examples(_LADDER_EXAMPLES)
    def test_within_the_bound_of_exp(self, ladder):
        size, z0, t, hbar = ladder
        got = omnes._ladder_phases(_fock_table(0.0, size - 1).ladder, z0, t, hbar)
        assert got.shape == (size,)
        with mpmath.workprec(160):
            c = mpmath.mpc(z0.imag, -z0.real) * mpmath.mpf(t) / mpmath.mpf(hbar)  # -i z0 t / hbar
            rel, tiny = 1 + _CEXP_K * mpmath.mpf(2) ** -53, mpmath.mpf(2) ** -1074
            step, drift = mpmath.exp(_gamma(3) * abs(c)), mpmath.mpf(1)  # drift = e^(gamma_3 |x_n|)
            for n, g in enumerate(got.tolist()):
                e = mpmath.exp(n * c)
                bound = abs(e) * (rel * drift - 1) + tiny
                drift *= step
                assert abs(g.real - e.real) <= bound and abs(g.imag - e.imag) <= bound, (n, g, e)


def _units(x: float) -> int:
    """x as an exact integer count of 2^-1074, the spacing of the subnormal floats."""
    num, den = x.as_integer_ratio()
    return num * (2**1074 // den)


def _within_dot_bound(got: float, exact: int, size: int, m: int) -> bool:
    """|got - exact| <= gamma_(m+1) size + (m + 1) 2^-1074, in exact integers; ``exact`` and
    ``size`` count 2^-2148, gamma_k = k u / (1 - k u) with u = 2^-53."""
    slack = 2**53 - (m + 1)
    return abs((_units(got) << 1074) - exact) * slack <= (m + 1) * size + (m + 1) * 2**1074 * slack


_UNIT_PAIRS = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)).map(
    lambda p: (cmath.rect(math.sqrt(p[0]), p[1]), cmath.rect(math.sqrt(1.0 - p[0]), p[2]))
)


def _power_slack(size_c, m, size_re, size_im):
    """Frobenius bound on one power's rounding: the |f2|^2 entry's dot-product bound over m terms
    of total size ``size_c``, plus twice each cross part's (the (0, 1) and (1, 0) entries); the
    sizes count 2^-2148."""
    tiny = mpmath.mpf(2) ** -2148
    return (_gamma(m + 1) * size_c * tiny + (m + 1) * mpmath.mpf(2) ** -1074
            + 2 * (_gamma(2) * (size_re + size_im) * tiny + 4 * mpmath.mpf(2) ** -1074))


def _tau_slack(cm, hi):
    """tau's own rounding, as ``frame_catalogue_matrix`` states it: sums of at most 4 hi + 4 terms."""
    return _gamma(4 * hi + 4) * cm.truncation + (4 * hi + 4) * mpmath.mpf(2) ** -1074


def _frame_units(f1, f2):
    """Re f2, Im f2, Re f1 and Im f1 as exact integer counts of 2^-1074."""
    return [_units(v) for v in f2.real.tolist()], [_units(v) for v in f2.imag.tolist()], _units(f1.real), _units(f1.imag)


def _exact_power(x, y, ar, ai, k):
    """(c, size, m, re, im, size_re, size_im) of power k over the integer f2 parts: |f2|^2's exact sum,
    its real product sizes and term count, and the exact parts of f1 conj(f2_k); all in 2^-2148."""
    hi = len(x) - 1
    pairs = [(x[j] * x[k - j], y[j] * y[k - j]) for j in range(max(0, k - hi), min(k, hi) + 1)]
    re, im = ((ar * x[k], ai * y[k]), (ai * x[k], -ar * y[k])) if k <= hi else ((0, 0), (0, 0))
    return (sum(p + q for p, q in pairs), sum(abs(p) + abs(q) for p, q in pairs), len(pairs),
            sum(re), sum(im), sum(map(abs, re)), sum(map(abs, im)))


class TestFrameCatalogueRounding:
    """Every kept frame-catalogue amplitude is its exact sum over the stored window of f2, up to the
    dot-product bound, and the powers past the last kept mode sum within the truncation term.

    Stated before measuring (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    ch. 3): in the real or imaginary part of a sum of m complex products x_j conj(y_j), each term
    takes two roundings (its two real products, then their sum) and the m - 1 additions at most
    m - 1 more, so it lies within gamma_(m+1) times the sum of its real product sizes
    (|Re x_j Re y_j| + |Im x_j Im y_j| for the real part, at most |x_j| |y_j|) of the exact value,
    gamma_k = k u / (1 - k u), u = 2^-53, in any order of summation; products that underflow add
    (m + 1) 2^-1074.  A |f2|^2 power k is such a sum over the window's weights, a cross power one
    product.  The window f2[lo:hi] and the count of kept modes are ``frame_truncation``'s: the stated
    rule, restated in Python loops.  The powers past the last kept mode sum in Frobenius norm below
    eps ||rho(0)||_F, so within tau, each up to tau's stated rounding and each power's dot-product bound.
    The exact sums run on Python integers, in units of 2^-2148, so the reference rounds nowhere.
    """

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 100), st.floats(-3.0, 0.9).map(lambda e: 10.0**e), _UNIT_PAIRS, st.floats(0.01, 1.0))
    @example(40, 1e-200, (0.6 + 0j, 0.8j), 0.1)  # hi = 0: no power past 0 is live
    @example(100, 0.1, (math.sqrt(0.5) + 0j, math.sqrt(0.5) * 1j), 0.2)  # weights past hi = 91 underflow
    # a complex a with b = 1e-8: two modes stay, their (0, 1) parts near 1e-12 and 1e-16, none a -0.0
    # (a -0.0 part is TestCatalogueMatrixFromWidths::test_signed_zero_amplitude_keeps_its_bits's case)
    @example(61, 10**-1.8984375, (-0.41614683654714235 + 0.9092974268256816j, 1.0536712127723509e-08 + 0j), 1.0)
    # the tail past the last mode of norm >= eps ||rho(0)||_F still sums above it: mode 93 stays
    @example(88, 4.01, (math.sqrt(0.5) + 0j, math.sqrt(0.5) * 1j), 0.1)
    # the trailing weights' sum, not each weight, stays within the window's budget
    @example(88, 4.03, (math.sqrt(0.5) + 0j, math.sqrt(0.5) * 1j), 0.1)
    def test_amplitudes_within_the_dot_product_bound(self, N, L0, ab, gamma0):
        cfg = OmnesConfig(1.0, 2.0, 1.0, gamma0, L0, ab[0], ab[1], N)
        with mock.patch("decopoles.pole_models.hermitian_average", wraps=hermitian_average) as average:
            cm = frame_catalogue_matrix(cfg)
        (built,), _ = average.call_args  # the stack the builder hands to the catalogue's one checked average
        lo, hi, n_ref, tau = frame_truncation(cfg)
        f1, f2 = frame_f2(cfg)
        window = np.zeros_like(f2)  # the convolution's inputs
        window[lo:hi] = f2[lo:hi]
        x, y, ar, ai = _frame_units(f1, window)
        n = len(cm.gammas)
        assert n == n_ref and abs(cm.truncation - tau) <= 1e-12 * tau + 2.0**-1070
        assert cm.gammas == tuple((np.arange(1, n + 1) * gamma0).tolist())
        assert n == 0 or np.any(cm.amplitudes[-1])  # the tower ends at a live mode
        amps = np.concatenate([cm.equilibrium[None], cm.amplitudes])  # power k at row k
        assert not np.any(amps[1:, 0, 0]) and not np.any(amps[:, 1, 1].imag)
        assert np.array_equal(amps[:, 1, 0], amps[:, 0, 1].conj()) and not np.any(amps[max(hi, 1) :, 0, 1])
        assert not np.any(amps[:lo, 0, 1]) and not np.any(amps[: 2 * lo, 1, 1])
        assert built.tobytes() == cm.amplitudes.tobytes()  # built Hermitian to the bit: the average keeps its bits
        with mpmath.workprec(160):
            tail, slack = mpmath.mpf(0), _tau_slack(cm, f2.size - 1)
            for k in range(2 * f2.size - 1):
                c, size, m, re, im, size_re, size_im = _exact_power(x, y, ar, ai, k)
                if k > n:  # not kept: within tau
                    tail += mpmath.sqrt(mpmath.mpf(c) ** 2 + 2 * (mpmath.mpf(re) ** 2 + mpmath.mpf(im) ** 2))
                    slack += _power_slack(size, m, size_re, size_im)
                    continue
                assert _within_dot_bound(amps[k, 1, 1].real, c, size, m), ("c", k)
                got = complex(amps[k, 0, 1])
                assert _within_dot_bound(got.real, re, size_re, 1), ("top", k)
                assert _within_dot_bound(got.imag, im, size_im, 1), ("top", k)
            tail *= mpmath.mpf(2) ** -2148
            assert tail <= cm.truncation + slack
            assert tail <= EPS * rho0_norm(f1, f2) + slack  # the dropped tail is below eps ||rho(0)||_F


class TestFrameTruncation:
    """The truncated frame catalogue lies within its truncation term tau of the untruncated one.

    The untruncated catalogue is the tower of every live Fock weight, the catalogue as it was before
    the truncation, formed in exact integers as ``TestFrameCatalogueRounding`` forms it.  Stated
    before measuring, with ``_power_slack`` each power's dot-product bound in Frobenius norm and
    ``_tau_slack`` tau's own rounding:
    * each power k (EQ as power 0, a mode the catalogue lacks as 0) differs from its exact value by
      its rounding R_k, ||R_k||_F <= ``_power_slack``, plus its share W_k of the truncation, where
      sum_k ||W_k||_F <= tau + ``_tau_slack``.  So the excess sum_k max(0, ||A_k - A_k^exact||_F -
      ``_power_slack``) is at most tau + ``_tau_slack``: the large powers' rounding, far above tau,
      cannot hide the small powers the truncation drops;
    * every decay factor is <= 1 at t >= 0, so ||evaluate(t) - rho^exact(t)||_F is at most tau +
      ``_tau_slack`` + the sum of ``_power_slack`` plus ``evaluate``'s stated bound
      (``evaluate_slack``), rho^exact(t) summing every power with its exact factor;
    * tau < 2^-59 ||rho(0)||_F = 2^-59 (|f1|^2 + |f2(1)|^2), up to 2^-40 relative for its rounding;
    * the collective-rate partition has the untruncated catalogue's cut and t_D.
    Delta reaches 12.6, where the window drops leading weights as well as trailing ones.
    """

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 160), st.floats(-1.0, 1.1).map(lambda e: 10.0**e), _UNIT_PAIRS, st.floats(0.01, 1.0),
           st.floats(0.0, 20.0))
    @example(150, 11.0, (math.sqrt(0.5) + 0j, math.sqrt(0.5) + 0j), 0.1, 0.5)  # the window cuts 37 leading weights
    @example(40, 1e-200, (0.6 + 0j, 0.8j), 0.1, 1.0)  # hi = 0: nothing to cut
    @example(120, 12.0, (1.0 + 0j, 0j), 0.3, 0.0)  # b = 0 and f2_0 = a s below the cut: every weight dropped
    def test_within_tau_of_the_untruncated_catalogue(self, N, L0, ab, gamma0, t):
        cfg = OmnesConfig(1.0, 2.0, 1.0, gamma0, L0, ab[0], ab[1], N)
        cm = frame_catalogue_matrix(cfg)
        f1, f2 = frame_f2(cfg)
        x, y, ar, ai = _frame_units(f1, f2)
        n, hi, tiny = len(cm.gammas), f2.size - 1, mpmath.mpf(2) ** -2148
        assert cm.equilibrium[0, 0] == abs(f1) ** 2
        assert cm.truncation <= 2.0 * EPS * rho0_norm(f1, f2) * (1.0 + 2.0**-40)
        amps = np.concatenate([cm.equilibrium[None], cm.amplitudes])  # power k at row k
        widths = (np.arange(1, 2 * hi + 1) * gamma0).tolist()
        with mpmath.workprec(160):
            excess, slack = mpmath.mpf(0), mpmath.mpf(0)
            rho = [mpmath.mpf(cm.equilibrium[0, 0].real), mpmath.mpc(0), mpmath.mpf(0)]  # (0, 0), (0, 1), (1, 1)
            for k in range(2 * hi + 1):
                c, size, m, re, im, size_re, size_im = _exact_power(x, y, ar, ai, k)
                got_c, got_top = (amps[k, 1, 1].real, complex(amps[k, 0, 1])) if k <= n else (0.0, 0j)
                dc = (_units(got_c) << 1074) - c
                dre, dim = (_units(got_top.real) << 1074) - re, (_units(got_top.imag) << 1074) - im
                moved = mpmath.sqrt(mpmath.mpf(dc) ** 2 + 2 * (mpmath.mpf(dre) ** 2 + mpmath.mpf(dim) ** 2)) * tiny
                rounding = _power_slack(size, m, size_re, size_im)
                excess, slack = excess + max(moved - rounding, 0), slack + rounding
                e = mpmath.exp(-mpmath.mpf(widths[k - 1]) * t) if k else 1
                rho[1] += mpmath.mpc(re, im) * tiny * e
                rho[2] += c * tiny * e
            assert excess <= cm.truncation + _tau_slack(cm, hi)
            slack += _tau_slack(cm, hi)
            got = cm.evaluate(t)
            diff = mpmath.sqrt(abs(got[0, 0].real - rho[0]) ** 2 + abs(mpmath.mpc(got[0, 1]) - rho[1]) ** 2
                               + abs(mpmath.mpc(got[1, 0]) - mpmath.conj(rho[1])) ** 2 + abs(got[1, 1].real - rho[2]) ** 2)
            factors = [exact_factor(cm, t, k) for k in range(n)]
            assert diff <= cm.truncation + slack + evaluate_slack(cm, factors, n)
        nonzero = np.flatnonzero(frame_tower(f1, f2)[1].any(axis=(1, 2)))
        if not nonzero.size:  # the untruncated catalogue has no mode either
            assert n == 0
        if not nonzero.size or cfg.delta < 1.0:  # the collective rule needs t_D <= t_R
            return
        rule = collective_rate_rule(cfg.m, cfg.omega, cfg.L0, cfg.hbar)
        want = partition_report(widths[: nonzero[-1] + 1], cfg.hbar, rule=rule)
        got = partition_report(cm.gammas, cm.hbar, rule=rule)
        assert (got.cut, got.t_D) == (want.cut, want.t_D)


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
    return PoleCatalogue(cat.equilibrium, modes, None, cat.hbar), grid


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
        signal = signal_from_csv(signal_to_csv(synthesize(cat, grid)))
        fitted = matrix_pencil_fit(signal.times, signal.values - cat.equilibrium, len(cat.modes))
        assert all(z.real * float(grid[-1]) <= 1e-8 for z, _ in fitted)
        fitted.sort(key=lambda mode: -mode[0].real)
        for (z, amp), mode in zip(fitted, sorted(cat.modes, key=lambda m: m.pole.gamma)):
            gamma, omega = mode.pole.gamma, mode.pole.omega
            assert abs(-z.real * cat.hbar - gamma) <= 1e-6 * gamma
            assert abs(-z.imag * cat.hbar - omega) <= 1e-6 * abs(complex(omega, gamma))
            assert abs(amp - mode.amplitude) <= 1e-5 * abs(mode.amplitude)

    @staticmethod
    def roundtrip_tolerance(cat, t_max):
        """Stated before measuring: the largest |S_fit(t) - S(t)| that the bounds above allow on [0, t_max].

        A fitted mode a' exp(x') with |a' - a| <= 1e-5 |a| and x' = -(gamma' + i omega') t / hbar, its
        width within 1e-6 gamma and its frequency within 1e-6 |omega - i gamma|, differs from a exp(x)
        by |a| e^(Re x) |(a' / a) e^(x' - x) - 1| <= |a| ((1 + 1e-5) e^(d) - 1), with
        d = 1e-6 (gamma + |omega - i gamma|) t_max / hbar >= |x' - x|.  The equilibrium is given to
        extract, so it is exact; each signal rounds to about an ulp of its terms' total size,
        which 1e-13 of that total covers.
        """
        drift = 0.0
        for m in cat.modes:
            d = 1e-6 * (m.pole.gamma + abs(complex(m.pole.omega, m.pole.gamma))) * t_max / cat.hbar
            drift += abs(m.amplitude) * ((1.0 + 1e-5) * math.exp(d) - 1.0)
        return drift + 1e-13 * (abs(cat.equilibrium) + sum(abs(m.amplitude) for m in cat.modes))

    @staticmethod
    def extract(signal, **params):
        """``decopoles extract`` of ``signal``'s CSV: its exit code, stderr, and the catalogue it wrote or None."""
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, cfg_path, out = (os.path.join(tmp, name) for name in ("signal.csv", "extract.json", "out"))
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(signal_to_csv(signal))
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump({"scenario": "extract", "params": dict(params, input_csv=csv_path)}, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(["extract", "--config", cfg_path, "--out", out])
            if not os.path.exists(out):
                return code, err.getvalue(), None
            with open(os.path.join(out, "catalogue.json"), encoding="utf-8") as fh:
                return code, err.getvalue(), catalogue_from_json(fh.read())

    @settings(deadline=None, max_examples=100)
    @given(oscillating_catalogues())
    def test_extract_then_full_synthesis_gives_the_signal_back(self, setup):
        # a plain catalogue renders its stored frequencies: CSV -> decopoles extract -> JSON -> synthesize
        cat, grid = setup
        signal = synthesize(cat, grid)
        code, err, fitted = self.extract(signal, model_order=len(cat.modes), equilibrium=cat.equilibrium, hbar=cat.hbar)
        assert code == 0, err
        back = synthesize(fitted, grid)
        assert np.max(np.abs(back.values - signal.values)) <= self.roundtrip_tolerance(cat, float(grid[-1]))

    @settings(deadline=None, max_examples=60)
    @given(oscillating_catalogues() | separated_catalogues(), st.floats(0.1, 1.0), st.sampled_from((-1.0, 1.0)),
           st.booleans())
    def test_extract_absorbs_a_real_constant_and_refuses_an_imaginary_one(self, setup, size, sign, imaginary):
        """The catalogue's modes plus a constant c, extracted at K + 1 modes with no ``equilibrium`` given.

        A real c = +-[0.1, 1] is one more fitted mode, of rate zero: by the bounds above its amplitude is
        within 1e-5 |c|, and its rate, invisible over the window (|z| t_span <= sqrt(2) 1e-8), is dropped
        as it folds into the equilibrium, so the round trip stays within the tolerance above plus
        (1e-5 + 2e-8) |c|.  An imaginary part +-[0.1, 1] beside the catalogue's real equilibrium is
        far above 1e-8 of the samples' largest part (at most 11), so the run exits 3 with one
        ``numeric failure:`` line that names it, and writes nothing.
        """
        cat, grid = setup
        if imaginary:
            c = complex(cat.equilibrium, sign * size)
            signal = Signal(grid, synthesize(cat, grid).values + 1j * c.imag)
        else:
            c = sign * size
            cat = PoleCatalogue(c, cat.modes, None, cat.hbar)
            signal = synthesize(cat, grid)
        code, err, fitted = self.extract(signal, model_order=len(cat.modes) + 1, hbar=cat.hbar)
        if imaginary:
            assert (code, fitted) == (3, None), err
            line, = err.splitlines()
            head = "numeric failure: the equilibrium content has imaginary part "
            assert line.startswith(head), line
            assert float(line[len(head):].split(",")[0]) == pytest.approx(c.imag, rel=1e-3)
            return
        assert code == 0, err
        back = synthesize(fitted, grid)
        tolerance = self.roundtrip_tolerance(cat, float(grid[-1])) + (1e-5 + 2e-8) * abs(c)
        assert np.max(np.abs(back.values - signal.values)) <= tolerance

    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="item 5: a small constant's rate reads as growth: exit 3"
    )
    def test_extract_keeps_a_small_constant(self):
        """2e-9 + e^-t + 0.5 e^-3t, 101 samples on [0, 10], at ``model_order`` 3 with no ``equilibrium``.

        The constant's fitted rate carries an error of about rounding over its share of the samples
        (1.064e-09 here), which the 1e-8 / t_span visibility edge reads as growth.  A mend keeps the
        constant as equilibrium content, so the round trip lies within the tolerance above plus
        (1e-5 + 2e-8) |c|, as for a constant of 0.1 or more.
        """
        grid = np.linspace(0.0, 10.0, 101)
        cat = PoleCatalogue(2e-9, ((Pole(0.0, 1.0), 1.0), (Pole(0.0, 3.0), 0.5)))
        signal = synthesize(cat, grid)
        code, err, fitted = self.extract(signal, model_order=3)
        assert code == 0, err
        back = synthesize(fitted, grid)
        tolerance = self.roundtrip_tolerance(cat, float(grid[-1])) + (1e-5 + 2e-8) * abs(cat.equilibrium)
        assert np.max(np.abs(back.values - signal.values)) <= tolerance


def _normal_shifts(*values):
    """(lo, hi): for lo <= k <= hi, every nonzero real or imaginary part of ``values`` times 2^k is normal."""
    parts = np.abs(np.concatenate([np.asarray(v, dtype=complex).ravel() for v in values]).view(float))
    exponents = np.frexp(parts[parts > 0.0])[1]  # part = m 2^e, m in [1/2, 1): normal iff -1021 <= e + k <= 1024
    return -1021 - int(exponents.min()), 1024 - int(exponents.max())


def _bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


class TestPencilScaling:
    @settings(deadline=None, max_examples=50)
    @given(st.one_of(separated_catalogues(), oscillating_catalogues()), st.data())
    def test_power_of_two_scaling_is_exact(self, setup, data):
        """y 2^k fits to the same z bit for bit, with its amplitudes and residual 2^k times y's.

        k ranges over every shift that keeps each nonzero part of y, of the
        fitted amplitudes and of the residual normal: about +-1000 for most
        of these signals, past where |y|^2 overflows or underflows.
        """
        cat, grid = setup
        y = synthesize(cat, grid).values - cat.equilibrium
        fit = matrix_pencil_fit(grid, y, len(cat.modes))
        residual = fit_residual(grid, y, fit)
        lo, hi = _normal_shifts(y, [a for _, a in fit], residual)
        k = data.draw(st.integers(lo, hi), label="k")
        scaled = np.ldexp(y.view(float), k).view(complex)
        got = matrix_pencil_fit(grid, scaled, len(cat.modes))
        assert _bits([z for z, _ in got]) == _bits([z for z, _ in fit])
        assert _bits([a for _, a in got]) == _bits(np.ldexp(np.array([a for _, a in fit]).view(float), k).view(complex))
        assert fit_residual(grid, scaled, got) == math.ldexp(residual, k)


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
        got = nd_decay(cfg, z0, grid).tolist()
        want = [abs(nd_block(cfg, z0, t).rho12) for t in grid.tolist()]
        assert got == want


class TestFockDensityOracle:
    """build_density_matrix against the evolved state formed from its formula (test_omnes.oracle_state).

    The tolerance, FOCK_ORACLE_TOL per entry, is stated there; here |z0| / gamma0 reaches about 50.
    """

    @settings(deadline=None, max_examples=50)
    @given(coherence_setups())
    def test_rho_within_the_stated_tolerance_of_the_oracle(self, setup):
        cfg, z0, grid = setup
        for t in grid.tolist():
            got = build_density_matrix(cfg, z0, t).entries
            assert np.max(np.abs(got - oracle_density(cfg, z0, t))) <= FOCK_ORACLE_TOL, t


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


_TIE_P = (0.6, 0.7, 0.8, 0.9)  # diag(p, 1 - p): the larger value first, as eigh orders it
_TIE_Q = (0.05, 0.1, 0.2, 0.25, 0.4)  # [[1/2, q], [q, 1/2]]: LAPACK's vectors have entries of one modulus


def _tie_pool_matrix(kind: str, value: float) -> np.ndarray:
    if kind == "diagonal":
        return np.diag([value, 1.0 - value]).astype(complex)
    return np.array([[0.5, value], [value, 0.5]], dtype=complex)


_FAMILY_DIMS = {"random": (2, 5), "pure": (2, 6), "crossing": (2, 4), "repeated": (2, 2)}


@st.composite
def family_shapes(draw, count_min=1):
    """(kind, d, T) of a ``basis_family``, T = count_min..12."""
    kind = draw(st.sampled_from(tuple(_FAMILY_DIMS)))
    return kind, draw(st.integers(*_FAMILY_DIMS[kind])), draw(st.integers(count_min, 12))


@st.composite
def basis_family(draw, kind, d, count):
    """A (T, d, d) Hermitian family of one kind, as the moving basis meets them.

    * random: independent Hermitian matrices;
    * pure: rank-one u u^H / |u|^2, whose null space is a degenerate
      (d - 1)-fold cluster, as on the Fock workload;
    * crossing: diagonal matrices whose eigenvalues run on lines of
      lattice slopes, so some cross exactly on a grid point;
    * repeated: (d = 2) matrices drawn with repetition from diag(p, 1 - p)
      and [[1/2, q], [q, 1/2]]; the second's vectors have entries of one
      modulus and the first's are unit vectors, so every step between the
      two kinds is an exact four-way tie, while eigh's order stays the
      track order.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        mats = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
        return (mats + np.conj(np.swapaxes(mats, -1, -2))) / 2.0
    if kind == "pure":
        u = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
        mats = u[:, :, None] * u[:, None, :].conj()
        return mats / np.trace(mats, axis1=-2, axis2=-1).real[:, None, None]
    if kind == "crossing":
        start, slope = rng.integers(0, 8, d) / 8.0, rng.integers(-4, 5, d) / 16.0
        lines = start + slope * np.arange(count)[:, None]
        return np.array([np.diag(line) for line in lines], dtype=complex)
    pool = [_tie_pool_matrix("diagonal", p) for p in _TIE_P] + [_tie_pool_matrix("symmetric", q) for q in _TIE_Q]
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count)))


class TestMovingBasisAgainstLoop:
    """``moving_eigenbasis`` and ``convergence_profile`` against their per-point loop references.

    The precision contract: eigenvalues, tracks and degenerate times keep the
    loop's bits, and vectors lie within 1e-14 of its (one phase product
    where the loop takes two).  The profile meets ``assert_profile_as_loop``'s
    tolerances: every column keeps the loop's bits but the angle, within
    2 d delta, delta = 4 (d + 2) u, u = 2^-53, and the bound, within 8 d u relative.
    """

    @staticmethod
    def assert_basis_as_loop(mats, grid):
        want_vals, want_vecs, want_degenerate, want_tracks = loop_moving_eigenbasis(mats, grid)
        got = moving_eigenbasis(mats, grid)
        assert got.eigenvalues.tobytes() == want_vals.tobytes()
        assert got.degenerate_times == want_degenerate
        raw = eigh(mats).eigenvectors
        tracks = np.argmax(np.abs(np.swapaxes(raw.conj(), -1, -2) @ got.eigenvectors), axis=-2)
        assert tracks.tolist() == want_tracks.tolist()
        assert np.max(np.abs(got.eigenvectors - want_vecs)) <= 1e-14

    @settings(deadline=None, max_examples=60)
    @given(family_shapes().flatmap(lambda shape: basis_family(*shape)))
    def test_moving_basis(self, mats):
        self.assert_basis_as_loop(mats, np.linspace(0.0, 1.0, len(mats)))

    @settings(deadline=None, max_examples=40)
    @given(family_shapes(count_min=2).flatmap(lambda shape: st.tuples(basis_family(*shape), basis_family(*shape))))
    def test_profile(self, families):
        rho_r, rho_p = families
        grid = np.linspace(0.0, 1.0, len(rho_r))
        envelope = lambda t: 1e-3 / (1.0 + t)
        got = convergence_profile(rho_r, rho_p, grid, t_D=0.1, envelope=envelope)
        assert_profile_as_loop(got, loop_convergence_profile(rho_r, rho_p, grid, envelope), rho_r.shape[-1])

    def test_repeated_pool_ties_exactly(self):
        # the repeated family's premise: a step between the two kinds ties all four overlaps
        for p in _TIE_P:
            for q in _TIE_Q:
                vecs = eigh(np.array([_tie_pool_matrix("diagonal", p), _tie_pool_matrix("symmetric", q)]))
                step = np.abs(vecs.unphased_vectors[0].conj().T @ vecs.unphased_vectors[1])
                assert np.unique(step).size == 1, (p, q)


@st.composite
def profile_cases(draw):
    """(rho_R, rho_P, grid, t_D, envelope) of a generated matrix catalogue (d = 2 or 3) or frame config (d = 2).

    A catalogue's rho_R is ``evaluate`` over a grid to 3-8 t_D, each matrix over its trace as
    ``preferred_state`` forms rho_P, under a drawn rule and boundary; a frame config's rho_R is
    ``frame_projection(closed_form=False)`` over 6 t_R, under the collective-rate partition, as on the
    benchmark's rungs.  ``envelope`` is the dropped modes' ``dropped_envelope``.
    """
    if draw(st.booleans()):
        ab = draw(_UNIT_PAIRS)
        cfg = OmnesConfig(1.0, 2.0, 1.0, draw(st.floats(0.05, 1.0)), draw(st.floats(1.5, 10.0)), *ab,
                          draw(st.integers(20, 250)))
        cm = frame_catalogue_matrix(cfg)
        if not cm.gammas:
            reject()  # b = 0: a frame with no mode has nothing to partition
        rep = partition_report(cm.gammas, cm.hbar, rule=collective_rate_rule(cfg.m, cfg.omega, cfg.L0, cfg.hbar))
        grid = np.linspace(0.0, 6.0 * cfg.hbar / cfg.gamma0, 41)
        rho_r = np.stack([frame_projection(cfg, cfg.z0(), t, closed_form=False).entries for t in grid.tolist()])
    else:
        poles, eq, amps, hbar = draw(matrix_catalogues())
        cm = CatalogueMatrix(poles, eq, amps, hbar)
        rep = partition_report(cm.gammas, cm.hbar, rule=draw(_RULES), boundary=draw(_BOUNDARIES))
        grid = np.linspace(0.0, draw(st.floats(3.0, 8.0)) * rep.t_D, draw(st.integers(2, 40)))
        mats = cm.evaluate(grid)
        traces = np.trace(mats, axis1=-2, axis2=-1).real
        if np.min(np.abs(traces)) < 1e-3:
            reject()  # a state rho_P cannot form or that rounds to nothing
        rho_r = mats / traces[:, None, None]
    try:
        rho_p = preferred_state(cm, rep, grid)
    except ValidationError:
        reject()  # the kept modes' trace vanishes
    return rho_r, rho_p, grid, rep.t_D, lambda t: cm.dropped_envelope(t, rep.p_irrelevant)


class TestConvergenceMeasure:
    """The profile's angle is the exact d = 2 angle, and sin theta stays within the Davis-Kahan bound.

    Stated before measuring, with u = 2^-53, ||rho||_2 the larger of the two states' norms and g_R,
    g_P their eigenvalue gaps (|n_R|, |n_P| of ``bloch_angle``): at d = 2 the angle lies within
    8 d u ||rho||_2 (1 / g_P + 1 / g_R) of ``bloch_angle``, the bound's rounding term taken at each
    family's own gap (LAPACK's vectors are within about d u ||rho||_2 / g of exact, and the oracle's
    Bloch vectors within about u ||rho||_2 of theirs); sin theta <= bound at every reliable point at
    d = 2, and wherever bound < 2^-1/2 at d = 3, where the greedy pair is the theorem's index pair.

    Planted defects it catches: ``arccos`` of the matched overlap as the angle; the estimate
    envelope / gap as the bound; the bound without its rounding term; ``bloch_angle`` without its
    half angle.
    """

    @settings(deadline=None, max_examples=50)
    @given(profile_cases())
    def test_angle_is_the_bloch_angle_and_within_the_bound(self, case):
        rho_r, rho_p, grid, t_d, envelope = case
        profile = convergence_profile(rho_r, rho_p, grid, t_D=t_d, envelope=envelope)
        d = rho_r.shape[-1]
        sines = np.sin(profile.subspace_angle)
        if d == 3:
            tight = profile.reliable & (profile.bound < math.sqrt(0.5))
            assert np.all(sines[tight] <= profile.bound[tight])
            return
        assert np.all(sines[profile.reliable] <= profile.bound[profile.reliable])
        for k, (r, p) in enumerate(zip(rho_r, rho_p)):
            norm = max(np.max(np.abs(np.linalg.eigvalsh(m))) for m in (r, p.entries))
            g_r, g_p = (math.hypot(2.0 * abs(m[0, 1]), (m[0, 0] - m[1, 1]).real) for m in (r, p.entries))
            if g_r > 0.0 and g_p > 0.0:
                tol = 8.0 * d * 2.0**-53 * norm * (1.0 / g_p + 1.0 / g_r)
                assert abs(profile.subspace_angle[k] - bloch_angle(r, p.entries)) <= tol, (k, tol)


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


@st.composite
def nearly_hermitian(draw):
    """One (d, d) matrix or a (T, d, d) stack, d = 1..4, off Hermitian by up to 0.6 of the
    tolerance, at scales from subnormal to past 2^1021, where the average halves first."""
    d = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(((d, d), (draw(st.integers(1, 6)), d, d))))
    raw = draw(hnp.arrays(float, (2, 2) + shape, elements=st.floats(-1.0, 1.0)))
    h = raw[0, 0] + 1j * raw[0, 1]
    h = (h + np.conj(np.swapaxes(h, -1, -2))) / 2.0
    size = np.max(np.abs(h), axis=(-2, -1), keepdims=True)
    a = h + 0.2 * HERMITICITY_TOL * size * (raw[1, 0] + 1j * raw[1, 1])
    return a * draw(st.sampled_from((1e-310, 1e-3, 1.0, 1e6, 2.0**1022)))


class TestHermitianAverageAccuracy:
    @settings(deadline=None, max_examples=60)
    @given(nearly_hermitian())
    def test_each_part_within_half_an_ulp_of_the_exact_average(self, a):
        """(a_ij + conj(a_ji)) / 2 takes one rounded addition, and its halving is exact but
        for subnormals: each part lies within u |exact| + 2^-1074 of it, u = 2^-53."""
        got = hermitian_average(a)
        for idx in np.ndindex(a.shape):
            p, q = complex(a[idx]), complex(a[idx[:-2] + idx[:-3:-1]])  # a_ij and a_ji
            exact = ((Fraction(p.real) + Fraction(q.real)) / 2, (Fraction(p.imag) - Fraction(q.imag)) / 2)
            for part, want in zip((got[idx].real, got[idx].imag), exact):
                assert abs(Fraction(part) - want) <= abs(want) / 2**53 + Fraction(1, 2**1074), idx


class TestHermitianCheck:
    @settings(deadline=None, max_examples=300)
    @given(spoilt_stacks(), st.booleans())
    def test_same_decision_message_and_bits_as_the_loop_body(self, mats, one):
        a = mats[0] if one and len(mats) else mats  # one matrix takes the stack's path
        got, got_out = outcome(hermitian_average, a)
        want, want_out = outcome(reference_hermitian_average, a)
        assert got == want
        if want_out is not None:
            assert got_out.shape == want_out.shape
            assert got_out.tobytes() == want_out.tobytes()

    @settings(deadline=None, max_examples=300)
    @given(spoilt_stacks(unit_trace=True))
    def test_density_family_decides_as_one_density_matrix_each(self, mats):
        got, stack = outcome(DensityFamily, mats)
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
    """(m, unit_trace): one d x d complex matrix, d = 1..49 (2 half the time, as a frame state), of one of ``_KINDS``.

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
    d = draw(st.just(2) | st.integers(2 if kind == "at-tolerance" else 1, 49))
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


_U = Fraction(1, 2**53)
_ONE = 2**1074  # 1.0 in units of 2^-1074 (``_units``)


def _verdict(measure, bound, band):
    """True when ``measure`` <= ``bound`` - ``band``, False when >= ``bound`` + ``band``, None between."""
    return True if measure <= bound - band else False if measure >= bound + band else None


def documented_check(m, unit_trace):
    """(hermitian, trace): the README's rule for one matrix in exact arithmetic, each a ``_verdict``.

    Hermitian: max |A - A^H| <= 1e-12 max(max|A|, 1), compared in squares.  The check
    rounds each part of A - A^H once and takes abs as hypot, within one ulp (2u), so its
    deviation lies within 3u of the exact one; its threshold takes abs and one product,
    within 3u too.  So a verdict holds outside a band of 12u in squares, not 8u.
    Trace (``unit_trace``): |tr - 1| <= 1e-12, tr the sum of the diagonal's real parts.
    The check sums d rounded parts, within gamma_(d-1) sum |a_ii| of the exact sum, and
    each halved subnormal part may lose 2^-1075; 1 - tr is then exact (Sterbenz).  That
    bound, not a share of 1e-12, is the trace's band.  ``trace`` is None without ``unit_trace``.
    """
    d = m.shape[0]
    re = [[_units(x) for x in row] for row in m.real.tolist()]
    im = [[_units(x) for x in row] for row in m.imag.tolist()]
    scale2 = max(re[i][j] ** 2 + im[i][j] ** 2 for i in range(d) for j in range(d))
    dev2 = max((re[i][j] - re[j][i]) ** 2 + (im[i][j] + im[j][i]) ** 2 for i in range(d) for j in range(d))
    bound2 = Fraction(1e-12) ** 2 * max(scale2, _ONE**2)
    hermitian = _verdict(dev2, bound2, 12 * _U * bound2)
    if not unit_trace:
        return hermitian, None
    diag = [re[i][i] for i in range(d)]
    band = (d - 1) * _U / (1 - (d - 1) * _U) * sum(abs(x) for x in diag) + d  # gamma_(d-1) sum |a_ii| + d
    return hermitian, _verdict(abs(sum(diag) - _ONE), Fraction(1e-12) * _ONE, band)


def within_the_average_bound(got, m) -> bool:
    """Each part of ``got`` within u |exact| + 2^-1074 of the exact (m_ij + conj(m_ji)) / 2."""
    for (i, j), g in np.ndenumerate(got):
        p, q = complex(m[i, j]), complex(m[j, i])
        for part, twice in ((g.real, _units(p.real) + _units(q.real)), (g.imag, _units(p.imag) - _units(q.imag))):
            if 2**53 * abs(2 * _units(part) - twice) > abs(twice) + 2**54:  # |part - twice / 2| <= u |twice / 2| + 1
                return False
    return True


class TestSingleMatrixCheck:
    """One (d, d) matrix against the documented rule in exact arithmetic (``documented_check``)."""

    @settings(deadline=None, max_examples=400)
    @given(single_matrices())
    @example((np.array([[1.0, 1e-12], [0.0, 1.0]], dtype=complex), False))  # at the tolerance
    @example((np.diag([1.5e308, 1.0]).astype(complex), False))  # past 2^1021: halved
    @example((np.diag([1.0, 3e-12]).astype(complex), True))  # off-trace beside a pure state
    @example((np.array([[-0.0, 0.5], [0.5, -0.0]], dtype=complex), True))  # trace +0.0, not -0.0
    @example((np.array([[1e-300, 0.3e-12], [0.0, 1e-300]], dtype=complex), False))  # below scale 1
    def test_one_matrix_follows_the_documented_rule(self, drawn):
        m, unit_trace = drawn
        # failures of any class are caught, not only ValidationError as in outcome(), so a
        # numpy RuntimeWarning (an error under pytest) shows as a failure of its own class
        got, exc = raised(_checked_entries, m, unit_trace=unit_trace)
        if not np.isfinite(m).all():
            assert exc == (ValidationError, "matrix contains NaN or Inf entries")
            return
        hermitian, trace = documented_check(m, unit_trace)
        if exc is None:
            assert hermitian is not False and trace is not False
            assert within_the_average_bound(got, m)
        elif exc[0] is ValidationError and exc[1].startswith("matrix is not Hermitian"):
            assert hermitian is not True
        else:
            assert exc[0] is ValidationError and exc[1].startswith("trace is "), exc
            assert hermitian is not False and trace is not True


@st.composite
def formed_state_setups(draw):
    """(config, z0, t): N <= 60, omega' in [0, 1], t in [0, 20 t_R], Delta in [0.1, 12], complex a and b."""
    hbar, m, omega, gamma0 = (draw(st.floats(0.1, 10.0)) for _ in range(4))
    L0 = draw(st.floats(0.1, 12.0)) * hbar / math.sqrt(m * omega / 2.0)
    cfg = OmnesConfig(m, omega, hbar, gamma0, L0, *draw(_UNIT_PAIRS), draw(st.integers(1, 60)))
    return cfg, cfg.z0(draw(st.floats(0.0, 1.0))), draw(st.floats(0.0, 20.0)) * hbar / gamma0


# ``numerics._formed_density`` uses u as it is when its largest part lies in [_LOW, _HIGH / sqrt(2d))
_LOW, _HIGH = 2.0**-480, 2.0**510


def public_density(u, empty):
    """Reference for ``numerics._formed_density`` by its documented steps: ``DensityMatrix(u u^H / tr)``,
    tr the diagonal's correctly rounded sum; a u whose parts are all finite and whose largest part lies
    outside [2^-480, 2^510 / sqrt(2d)) is first scaled by a power of two to a largest part in [1/2, 1);
    a zero trace raises ``ValidationError(empty)``.  It is compared only at d >= 2 (frame and Fock states):
    at d = 1, numpy 2's ``np.outer`` can round the one product differently from ``_formed_density``'s
    broadcast multiply."""
    parts = u.view(float)
    top = np.max(np.abs(parts))
    if np.isfinite(parts).all() and not _LOW <= top < _HIGH / math.sqrt(parts.size):
        u = np.ldexp(parts, -np.frexp(top)[1]).view(complex)
    with np.errstate(over="ignore", invalid="ignore"):
        mat = np.outer(u, u.conj())
        try:
            tr = math.fsum(np.diagonal(mat).real.tolist())
        except OverflowError:  # huge finite parts beside a NaN or Inf one
            tr = math.inf
        if tr == 0.0:
            raise ValidationError(empty)
        return DensityMatrix(mat / tr)


class TestFormedStates:
    """frame_projection and build_density_matrix return what the public ``DensityMatrix(u u^H / tr)`` would."""

    @settings(deadline=None, max_examples=200)
    @given(formed_state_setups())
    @example((OmnesConfig(1.0, 2.0, 1.0, 1.0, 2300.0, 0.0, 1.0, 60), complex(0.0, -1.0), 20.0))  # frame rescued
    def test_each_builder_equals_the_public_check(self, setup):
        cfg, z0, t = setup
        builds = (
            lambda: frame_projection(cfg, z0, t),
            lambda: frame_projection(cfg, z0, t, closed_form=False),
            lambda: build_density_matrix(cfg, z0, t),
        )
        for build in builds:
            got, got_exc = raised(build)
            with mock.patch.object(omnes, "_formed_density", public_density):
                want, want_exc = raised(build)
            assert got_exc == want_exc
            if want_exc is None:
                assert type(got) is DensityMatrix and got.entries.tobytes() == want.entries.tobytes()


# out of the domain: a finite time before t = 0, or +inf
_OUT_OF_DOMAIN = st.floats(max_value=-(2.0**-1074), allow_infinity=False) | st.just(math.inf)


@st.composite
def forward_setups(draw):
    """(evaluators, grid, back): ``test_numerics.time_rule_evaluators`` over a generated scalar catalogue and
    tail, a 2x2 matrix catalogue of traceless modes over a unit-trace equilibrium (so no truncated trace
    vanishes) and a frame config with N <= 60; a uniform grid of 2-8 times from 0.0 to a time in [3, 20]
    (past 3 t_D = 0.3); and the grid with one or more drawn entries moved out of the domain, each before
    t = 0 or to +inf."""
    cat, tail = draw(scalar_catalogues()), draw(_TAILS)
    widths = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4, unique=True))
    parts = draw(hnp.arrays(float, (len(widths), 3), elements=st.floats(-1.0, 1.0)))
    amps = [[[x, complex(re, im)], [complex(re, -im), -x]] for x, re, im in parts.tolist()]
    p = draw(st.floats(0.0, 1.0))
    cm = CatalogueMatrix([Pole(0.0, g) for g in widths], np.diag([p, 1.0 - p]), amps, draw(st.floats(0.1, 10.0)))
    hbar = draw(st.floats(0.1, 10.0))
    cfg = OmnesConfig(1.0, 2.0, hbar, draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 12.0)) * hbar,
                      *draw(_UNIT_PAIRS), draw(st.integers(1, 60)))
    grid = np.linspace(0.0, draw(st.floats(3.0, 20.0)), draw(st.integers(2, 8)))
    rho = preferred_state(cm, partition_report(cm.gammas, cm.hbar), grid)
    evaluators = time_rule_evaluators(cat, tail, cm, cfg, cfg.z0(draw(st.floats(0.0, 1.0))), rho)
    back = grid.copy()
    for k in draw(st.sets(st.integers(0, grid.size - 1), min_size=1)):
        back[k] = draw(_OUT_OF_DOMAIN)
    return evaluators, grid, back


def _result_bits(value) -> bytes:
    """An evaluator's result as bytes, field by field for a record, signed zeros included."""
    if dataclasses.is_dataclass(value):
        return b"".join(_result_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return np.asarray(value).tobytes()


class TestForwardTimeRule:
    """Every catalogue evaluator runs forward from t = 0 over one domain, each time a finite number >= 0.

    Over generated catalogues and frame configs: a grid with entries before t = 0 or at +inf is refused at
    its first such index k, as ``grid[k]: must be >= 0, got x`` or ``grid[k]: must be finite, got inf``,
    and one such time as ``t: …``; an evaluator that returns one state refuses the forward grid as no
    number.  The forward grid and t = 0 are served, and -0.0 in place of each 0.0 gives +0.0's result bit
    for bit, since the rule reads -0.0 as +0.0 before any product can carry its sign."""

    @settings(deadline=None, max_examples=40)
    @given(forward_setups())
    def test_refuses_out_of_the_domain_and_reads_minus_zero_as_zero(self, setup):
        evaluators, grid, back = setup
        k = int(np.argmax((back < 0.0) | (back == math.inf)))
        x = float(back[k])
        refusal = "must be finite" if x == math.inf else "must be >= 0"
        signed = np.where(grid == 0.0, -0.0, grid)
        for name, (call, takes) in evaluators.items():
            cases = []
            if takes != "one":
                cases.append((grid, signed, back, f"grid[{k}]: {refusal}, got {x!r}"))
            if takes != "grid":
                cases.append((0.0, -0.0, x, f"t: {refusal}, got {x!r}"))
            if takes == "one":
                assert raised(call, grid)[1] == (ValidationError, f"t: expected a number, got {grid!r}"), name
            for forward, minus_zero, before, message in cases:
                assert raised(call, before)[1] == (ValidationError, message), name
                want, exc = raised(call, forward)
                assert exc is None, (name, exc)
                assert _result_bits(call(minus_zero)) == _result_bits(want), name


@st.composite
def formed_vectors(draw):
    """A complex vector of 1 to 12 parts, its largest part in [1/2, 1), scaled by 2^k; now and then one
    part is NaN or +-Inf.

    The trace lies between 2^(2k - 2) and 2^(2k + 4).  k near 0 gives ordinary states; k from -1100
    to -470 tiny ones, down to traces in the subnormal range and to vectors that underflow to zero;
    k from -483 to -477 puts the largest part on either side of the lower threshold 2^-480.  k from 470
    to 1023 gives huge ones, up to parts near the largest float, whose products overflow; k from 505 to
    515 puts the largest part on either side of the upper threshold 2^510 / sqrt(2d) (2^507.7 to
    2^509.5 for d from 12 down to 1), and the trace on either side of 2^1022 and of the float range.
    """
    d = draw(st.integers(1, 12))
    parts = draw(hnp.arrays(float, 2 * d, elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    top = float(np.max(np.abs(parts)))
    if top == 0.0:
        reject()
    k = draw(st.integers(-2, 2) | st.integers(-1100, -470) | st.integers(-483, -477)
             | st.integers(470, 1023) | st.integers(505, 515))
    parts = np.ldexp(parts, k - math.frexp(top)[1])
    bad = draw(st.sampled_from((None,) * 5 + (math.nan, math.inf, -math.inf)))
    if bad is not None:
        parts[draw(st.integers(0, 2 * d - 1))] = bad
    return parts.view(complex)


def within_the_formed_bound(rho, u):
    """Each part of rho within gamma_8 |u_i| |u_j| / |u|^2 + (d + 2) 2^-113 of the exact
    u_i conj(u_j) / |u|^2 (``numerics._formed_density``'s bound), by mpmath at 160 bits."""
    with mpmath.workprec(160):
        v = [mpmath.mpc(x) for x in u.tolist()]
        norm2 = mpmath.fsum(abs(x) ** 2 for x in v)
        floor = (len(v) + 2) * mpmath.mpf(2) ** -113
        for i, vi in enumerate(v):
            for j, vj in enumerate(v):
                exact = vi * mpmath.conj(vj) / norm2
                bound = _gamma(8) * abs(vi) * abs(vj) / norm2 + floor
                got = complex(rho[i, j])
                if not (abs(got.real - exact.real) <= bound and abs(got.imag - exact.imag) <= bound):
                    return False
    return True


class TestFormedDensityPrecision:
    """``numerics._formed_density`` within its stated bound of the exact u u^H / |u|^2.

    Stated before measuring, in its docstring: each part of rho_ij within gamma_8 |u_i| |u_j| / |u|^2
    + (d + 2) 2^-113, gamma_k = k u / (1 - k u), u = 2^-53, on both sides of each threshold on u's
    largest part, 2^-480 and 2^510 / sqrt(2d).  Without the rescue below, a tiny u reads zero weight,
    or a trace in the subnormal range leaves products with a few bits, far outside the bound.  Without
    the rescue above, a huge u reads NaN or raises fsum's OverflowError.  A u with a NaN or Inf part
    raises "matrix contains NaN or Inf entries"; a window test that lets a NaN largest part through
    returns a NaN matrix, and a rescue that scales a non-finite u returns one too.

    The unit trace, which nothing in ``_formed_density`` checks, is held to its docstring's bound: the
    fsum of rho's real diagonal within gamma_4 + d 2^-1074 of 1.  A normalization off by 1e-13, which a
    1e-12 trace check would pass, fails it.
    """

    @settings(deadline=None, max_examples=300)
    @given(formed_vectors())
    @example(np.array([3.0 * 2.0**-530, 2.0**-529 + 0j]))  # a subnormal trace, about 2^-1056
    @example(np.array([2.0**-500, 0.7 * 2.0**-540 + 0j]))  # a normal trace, 2^-1000, over a subnormal product
    @example(np.array([0.6 * 2.0**-525, 0.8j * 2.0**-525, 0.3 * 2.0**-560]))  # a subnormal trace, 3 parts
    @example(np.array([2.0**-481, 0.0, -(2.0**-482) * 1j]))  # a trace just below 2^-960: scaled
    @example(np.array([2.0**-479, 0.0, -(2.0**-482) * 1j]))  # just above: used as it is
    @example(np.array([math.nextafter(_LOW, 0.0), 0.3j * 2.0**-500]))  # a largest part just below 2^-480
    @example(np.array([_LOW, 0.3j * 2.0**-500]))  # exactly 2^-480: the smallest used as it is
    @example(np.array([2.0**-1074 + 0j, 0.0]))  # the smallest nonzero vector
    @example(np.array([1e154, 1e154j]))  # finite parts whose squares' sum overflows fsum
    @example(np.array([2.0**511, 2.0**510 * 1j]))  # tr = 2^1022 + 2^1020: 1 / tr is subnormal
    @example(np.array([2.0**510, 0.0, 2.0**509 * 1j]))  # tr below 2^1022, the largest part past 2^510 / sqrt(6)
    @example(np.array([math.nextafter(_HIGH / 2.0, 0.0), 2.0**508 * 1j]))  # d = 2: the largest part used as it is
    @example(np.array([_HIGH / 2.0, 2.0**508 * 1j]))  # exactly 2^510 / sqrt(4): scaled
    @example(np.full(3, (1 + 1j) * math.nextafter(_HIGH / math.sqrt(6), 0.0)))  # each part just inside: tr near 2^1020
    @example(np.full(3, (1 + 1j) * (_HIGH / math.sqrt(6))))  # one step up: scaled
    @example(np.array([1.7e308 + 0j, 2.0**-1000]))  # a part near the largest float, another tiny
    @example(np.array([complex(math.nan, 0.0), 1.0]))  # a NaN trace
    @example(np.array([1.0, complex(0.0, math.nan)]))  # a NaN past the first part: still the argmax
    @example(np.array([math.nextafter(2.0**511, 0.0) + 0j, 0.0]))  # tr below 2^1022, a part past 2^509
    @example(np.array([complex(1e300, 0.0), complex(0.0, math.inf)]))  # an infinite part past a huge one
    def test_within_the_bound_of_the_exact_state(self, u):
        got, exc = raised(numerics._formed_density, u, "zero vector")
        if not np.isfinite(u).all():
            assert exc == (ValidationError, "matrix contains NaN or Inf entries")
            return
        if not np.any(u):
            assert exc == (ValidationError, "zero vector")
            return
        assert exc is None, exc
        assert type(got) is DensityMatrix and not got.entries.flags.writeable
        assert within_the_formed_bound(got.entries, u)
        trace = Fraction(math.fsum(got.entries.real.diagonal().tolist()))
        assert abs(trace - 1) <= 4 * _U / (1 - 4 * _U) + u.size * Fraction(1, 2**1074)

    @settings(deadline=None, max_examples=40)
    @given(st.floats(1e-250, 1e-140), st.floats(0.0, 2 * math.pi), st.floats(0.0, 1.0), st.floats(0.0, 20.0),
           st.integers(1, 40))
    @example(1e-200, 0.0, 0.0, 1.0, 20)  # the state is |1> to within 1e-200; every square underflows
    def test_cancelling_branches_give_the_exact_state(self, L0, phase, omega_prime, t, N):
        # a = -b cancels |0> to within |b| Delta^2 / 2: the state is about |1>, of norm about Delta
        b = cmath.rect(math.sqrt(0.5), phase)
        cfg = OmnesConfig(1.0, 2.0, 1.0, 1.0, L0, -b, b, N)
        z0 = cfg.z0(omega_prime)
        rho = build_density_matrix(cfg, z0, t).entries
        with mpmath.workprec(160):
            u = exact_fock_state(cfg, z0, t)
            scale = max(abs(un) for un in u)
            exact = np.array([complex(un / scale) for un in u])  # the exact state, rounded once
        # the amplitudes' own rounding moves rho only by their ratios to u_1, which are about Delta
        assert within_the_formed_bound(rho, exact)
        assert abs(rho[1, 1] - 1.0) <= 2.0**-50


class TestLindbladReference:
    """``collective_rate``'s t_D against an independent model of the same decay: zero-temperature
    amplitude damping of a|0> + b|Delta> (``test_omnes.amplitude_damped``, the exact Kraus sum).

    With kappa = 2 gamma0 / hbar a branch amplitude decays as e^(-n gamma0 t / hbar), as the code's
    do.  The Kraus map is linear, so the damped state's branch-cross part is a conj(b) times the
    damped |0><Delta|, whose norm is the coherence factor c(t) = exp(-Delta^2 (1 - e^(-kappa t)) / 2);
    its initial log-slope Delta^2 kappa / 2 = Delta^2 gamma0 / hbar is 1 / t_D.

    Tolerances, stated before measuring, for Delta in [0.5, 4] at N = 80, whose Poisson tail past
    n = 80 is below 1e-30:
    - c(t) equals the closed form within 1e-12 for t in [0, 3 t_D]: sums of at most 81 terms of
      size <= 1 round to about 1e-14;
    - at t = 1e-6 t_D, -log c(t) / t equals 1 / t_D within 1e-5 relative: (1 - e^-x) / x = 1 - x / 2
      + ..., with x = kappa t = 2e-6 / Delta^2 <= 8e-6, so the formula itself deviates by at most
      4e-6, and the rounding of c near 1 - 1e-6 adds about 1e-9.
    """

    @settings(deadline=None, max_examples=30)
    @given(st.floats(0.5, 4.0), st.floats(1e-3, 1e3), st.floats(1e-2, 1e2), st.floats(0.0, 3.0))
    @example(4.0, 1.0, 1.0, 1.0)  # the roadmap's probe: Delta = 4, gamma0 = hbar = 1, at t_D
    def test_initial_log_slope_is_the_collective_rate(self, delta, gamma0, hbar, at):
        cfg = OmnesConfig(1.0, 2.0, hbar, gamma0, delta * hbar, 0.6, 0.8, 80)  # Delta = L0 / hbar
        t_d = collective_rate(cfg).t_D
        kappa = 2.0 * gamma0 / hbar
        cross = np.outer(np.eye(cfg.N + 1)[0], coherent_branch(cfg.delta, cfg.N)).astype(complex)

        def coherence(t):
            return float(np.linalg.norm(amplitude_damped(cross, kappa * t)))

        t = at * t_d
        assert abs(coherence(t) - math.exp(-0.5 * cfg.delta**2 * -math.expm1(-kappa * t))) <= 1e-12
        early = 1e-6 * t_d
        assert abs(-math.log(coherence(early)) / early * t_d - 1.0) <= 1e-5


# --- the two scalar rules --------------------------------------------------------

_PENCIL_T = np.linspace(0.0, 5.0, 41)
_PENCIL_Y = np.exp(-_PENCIL_T) + 0.5 * np.exp(-3.0 * _PENCIL_T)
_FAMILY = [np.diag([0.8, 0.2])] * 3


def _pencil_refit(order):
    """``PencilFactorisation.fit``: the order-2 factorisation of the pencil signal, refitted at ``order``."""
    return PencilFactorisation(_PENCIL_T, _PENCIL_Y, 2).fit(order)


# every scalar argument of a public constructor or function that numerics._number or numerics._integer
# checks: (callable, valid keyword arguments, {argument: rule}), a number's rule "", "> 0" or ">= 0",
# an integer's its minimum
SCALAR_ARGUMENTS = [
    (Pole, dict(omega=0.5, gamma=1.0), {"omega": "", "gamma": "> 0"}),
    (KhalfinTail, dict(amplitude=0.2, tau=1.0, p=3.0), {"amplitude": "", "tau": "> 0", "p": "> 0"}),
    (PoleCatalogue, dict(equilibrium=0.1, modes=((Pole(0.0, 1.0), 1.0),), hbar=1.0),
     {"equilibrium": "", "hbar": "> 0"}),
    (TimescaleReport, dict(t_R=10.0, t_D=1.0, cut=1, n_modes=2, rule=RULE_SECOND_SMALLEST), {"cut": 0, "n_modes": 0}),
    (model1_times, dict(gamma0=0.5, hbar=1.0), {"gamma0": "> 0", "hbar": "> 0"}),
    (model2_times, dict(gamma0=0.5, gamma1=2.0, hbar=1.0), {"gamma0": "> 0", "gamma1": "> 0", "hbar": "> 0"}),
    (collective_rate_rule, dict(m=1.0, omega=2.0, L0=6.0, hbar=1.0),
     {"m": "> 0", "omega": "> 0", "L0": "> 0", "hbar": "> 0"}),
    (partition_report, dict(gammas=(0.1, 1.0), hbar=1.0), {"hbar": "> 0"}),
    (CatalogueMatrix, dict(poles=[Pole(0.0, 1.0)], equilibrium=np.eye(2) / 2, amplitudes=[[[0, 0.1], [0.1, 0]]],
                           hbar=1.0), {"hbar": "> 0"}),
    (QuasiCoherentState, dict(alpha=2.0, N=5), {"alpha": ">= 0", "N": 1}),
    (OmnesConfig, dict(m=1.0, omega=2.0, hbar=1.0, gamma0=0.1, L0=6.0, a=ROOT_HALF, b=ROOT_HALF, N=50),
     {"m": "> 0", "omega": "> 0", "hbar": "> 0", "gamma0": "> 0", "L0": "> 0", "N": 1}),
    (overlap_error_bound, dict(delta=2.0, N=5), {"delta": ">= 0", "N": 0}),
    (SpectralDensity, dict(omega0=0.5, fn=lambda w: 1.0, lo=0.0, hi=1.0), {"omega0": "", "lo": "", "hi": ""}),
    (SpectralDensity.lorentzian, dict(omega0=1.0, center=1.0, width=0.5, weight=1.0),
     {"center": "", "width": "> 0", "weight": "> 0"}),
    (SpectralDensity.ohmic, dict(omega0=1.0, cutoff=2.0, weight=1.0), {"cutoff": "> 0", "weight": "> 0"}),
    (PerturbativePole, dict(omega0=2.0, delta_omega=0.5, gamma0=0.3),
     {"omega0": "", "delta_omega": "", "gamma0": ">= 0"}),
    (adaptive_simpson, dict(f=math.cos, a=0.0, b=1.0, tol=1e-9, max_depth=48),
     {"a": "", "b": "", "tol": ">= 0", "max_depth": 0}),
    (principal_value_integral, dict(f=math.cos, omega0=0.5, lo=0.0, hi=1.0), {"omega0": "", "lo": "", "hi": ""}),
    (convergence_profile, dict(rho_R=_FAMILY, rho_P=_FAMILY, grid=[0.0, 1.0, 2.0], t_D=0.5), {"t_D": "> 0"}),
    (matrix_pencil_fit, dict(times=_PENCIL_T, values=_PENCIL_Y, order=2), {"order": 1}),
    (PencilFactorisation, dict(times=_PENCIL_T, values=_PENCIL_Y, order=2), {"order": 1}),
    (_pencil_refit, dict(order=2), {"order": 1}),
]
ROUTED = [
    pytest.param(call, kwargs, name, rule, id=f"{call.__qualname__}-{name}")
    for call, kwargs, rules in SCALAR_ARGUMENTS
    for name, rule in rules.items()
]
_NON_NUMBERS = st.one_of(st.booleans(), st.sampled_from([np.True_, np.False_, None]), st.text(max_size=4),
                         st.complex_numbers(max_magnitude=1.0))


def refused_values(rule):
    """Values the rule refuses: for a number, non-numbers, non-finite values (ints past the float range
    among them) and values below its bound; for an integer, anything but an integer and integers below
    its minimum."""
    if isinstance(rule, int):
        below = st.integers(max_value=rule - 1)
        return _NON_NUMBERS | st.floats() | below | st.integers(-(2**63), rule - 1).map(np.int64)
    values = _NON_NUMBERS | st.sampled_from([math.nan, math.inf, -math.inf]) | st.integers(min_value=2**1024)
    values |= st.integers(max_value=-(2**1024))
    if rule == "> 0":
        values |= st.floats(max_value=0.0, allow_nan=False, allow_infinity=False) | st.integers(max_value=0)
    elif rule == ">= 0":
        values |= st.floats(max_value=-5e-324, allow_nan=False, allow_infinity=False) | st.integers(max_value=-1)
    return values


def assert_refused(call, kwargs, name, rule, value):
    with pytest.raises(ValidationError) as err:
        call(**dict(kwargs, **{name: value}))
    if isinstance(rule, int):
        forms = "expected an integer|must be >= -?\\d+"
    else:
        forms = "expected a number|must be finite|must be >=? 0"
    assert re.match(f"{re.escape(name)}: ({forms}), got ", str(err.value)), (value, str(err.value))


class TestScalarRules:
    """Each routed scalar argument refuses what its rule refuses, with a ``ValidationError`` whose message
    starts ``<argument>:`` in one of the rule's forms, and takes a numpy scalar of a valid value.

    Planted defects it catches: the bool refusal dropped from ``numerics._number`` (True reads as 1.0),
    ``SpectralDensity.lorentzian``'s ``width`` left out of the rule (a NaN width is named as ``lo``), and
    ``numerics._check_order`` without ``numerics._integer`` (2.0 leaks a TypeError).
    """

    @pytest.mark.parametrize("call, kwargs, name, rule", ROUTED)
    def test_listed_values_are_refused_naming_the_argument(self, call, kwargs, name, rule):
        if isinstance(rule, int):
            listed = [2.0, True, "1", rule - 1]
        else:
            listed = [math.nan, math.inf, -math.inf, True, "1", 10**400]
            listed += {"": [], "> 0": [0.0, -1.0], ">= 0": [-1.0]}[rule]
        for value in listed:
            assert_refused(call, kwargs, name, rule, value)

    @pytest.mark.parametrize("call, kwargs, name, rule", ROUTED)
    @settings(max_examples=20)
    @given(data=st.data())
    def test_drawn_values_are_refused_naming_the_argument(self, call, kwargs, name, rule, data):
        assert_refused(call, kwargs, name, rule, data.draw(refused_values(rule)))

    @pytest.mark.parametrize("call, kwargs, name, rule", ROUTED)
    def test_numpy_scalars_of_valid_values_are_accepted(self, call, kwargs, name, rule):
        call(**dict(kwargs, **{name: (np.int64 if isinstance(rule, int) else np.float32)(kwargs[name])}))


# --- bools among numbers ---------------------------------------------------------

_ONE_MODE = PoleCatalogue(0.0, ((Pole(0.0, 1.0), 1.0),))
_TWO_POLE = two_pole_matrix_catalogue()
_ONE_MATRIX_MODE = CatalogueMatrix([Pole(0.0, 1.0)], np.eye(2) / 2, [[[0, 0.1], [0.1, 0]]])

# every public reader of a sequence of numbers: (its name in a refusal, a valid sequence, the call on it)
SEQUENCE_ARGUMENTS = [
    pytest.param("gammas", [0.5, 1.0, 2.0], partition_report, id="partition_report"),
    pytest.param("grid", [0.0, 1.0, 2.0], lambda t: synthesize(_ONE_MODE, t), id="synthesize"),
    pytest.param("grid", [0.0, 1.0, 2.0], lambda t: preferred_signal(_ONE_MODE, decoherence_time(_ONE_MODE), t),
                 id="preferred_signal"),
    pytest.param("grid", [0.0, 1.0, 2.0],
                 lambda t: preferred_state(_ONE_MATRIX_MODE, partition_report(_ONE_MATRIX_MODE.gammas), t),
                 id="preferred_state"),
    pytest.param("grid", [0.0, 1.0, 2.0], lambda t: moving_eigenbasis(_FAMILY, t), id="moving_eigenbasis"),
    pytest.param("grid", [0.0, 1.0, 2.0], lambda t: convergence_profile(_FAMILY, _FAMILY, t, 0.5),
                 id="convergence_profile"),
    pytest.param("envelope(t)", [0.1, 0.2, 0.3],
                 lambda env: convergence_profile(_FAMILY, _FAMILY, [0.0, 1.0, 2.0], 0.5, envelope=lambda t: env),
                 id="envelope"),
]
_BOOLS = st.sampled_from([True, False, np.True_, np.False_])


class TestBoolEntries:
    """A bool is no number inside a sequence either: a list or tuple holding one, or a bool ndarray, is refused
    in the number rule's form, naming the first bool's index, where numpy would read it as 0.0 or 1.0.

    Planted defects it catches: ``numerics._time_grid`` without its bool check (``[False, True]`` samples
    t = 0 and 1), and ``convergence_profile`` without the envelope's (``envelope=lambda t: True`` fills the
    estimate column as if the envelope were 1.0).
    """

    @pytest.mark.parametrize("name, valid, call", SEQUENCE_ARGUMENTS)
    @settings(max_examples=20)
    @given(data=st.data())
    def test_a_bool_entry_is_refused_naming_it(self, name, valid, call, data):
        call(valid)
        k = data.draw(st.integers(0, len(valid) - 1), label="k")
        entry = data.draw(_BOOLS, label="entry")
        values = data.draw(st.sampled_from([list, tuple]))(valid[:k] + [entry] + valid[k + 1:])
        with pytest.raises(ValidationError) as err:
            call(values)
        assert str(err.value) == f"{name}[{k}]: expected a number, got {entry!r}"

    @pytest.mark.parametrize("name, valid, call", SEQUENCE_ARGUMENTS)
    def test_a_bool_array_is_refused_by_its_dtype(self, name, valid, call):
        values = np.ones(len(valid), dtype=bool)
        with pytest.raises(ValidationError) as err:
            call(values)
        assert str(err.value) == f"{name}[0]: expected a number, got {values[0]!r}"

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    def test_a_bool_rate_or_selector_is_refused(self, value):
        with pytest.raises(ValidationError) as err:
            partition_report((0.5, 1.0), rule=lambda gammas: value)
        assert str(err.value) == f"rule(gammas): expected a number, got {value!r}"
        with pytest.raises(ValidationError) as err:
            BiFriedrichModel(_ONE_MODE, _ONE_MODE).part(value)
        assert str(err.value) == f"which: expected a number, got {value!r}"
        # an envelope's bool would fill the estimate column as if it were 1.0 at every point
        cm = _TWO_POLE
        rep = partition_report(cm.gammas, cm.hbar, boundary=BOUNDARY_IRRELEVANT)
        grid = np.linspace(0.0, 0.5, 11)
        rho_r, rho_p = cm.evaluate(grid), preferred_state(cm, rep, grid)
        with pytest.raises(ValidationError) as err:
            convergence_profile(rho_r, rho_p, grid, rep.t_D, envelope=lambda t: value)
        assert str(err.value) == f"envelope(t): expected a number, got {value!r}"
