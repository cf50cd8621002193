"""Moving eigenbases, preferred states, and their convergence.

The decohered ("preferred") state rho_P(t) keeps only the persistent
poles of a matrix-valued catalogue; its moving eigenbasis is the basis
the full state's eigenbasis approaches once the dropped modes have died.
This module tracks a family's eigenvectors along a grid, measures the
separation of the two bases as the largest principal angle over matched
pairs, and bounds it by the Davis-Kahan bound 2 ||rho_R - rho_P||_2 / gap(rho_P),
read from the two states alone; a caller's dropped-mode envelope gives, beside
it, the first-order estimate envelope / gap.

Each works on a whole time grid at once: one ``CatalogueMatrix.evaluate``
over the grid, one ``eigh`` per family, which checks each stack at most once
(rho_P is a ``DensityFamily``, checked when formed), one batched product for
the overlaps of its unphased vectors, one greedy match over that stack, one
``eigvalsh`` of the stacked differences, and one envelope call.  Per-time
results are record arrays of those (T,) columns.

The bi-partite scenario at the end runs two commuting subsystems whose
observables each see only their own pole content, so one part can look
classical while the other is still relaxing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError
from .numerics import DensityFamily, _number, _phase_fix, _refuse_bools, _time_grid, eigh
from .pole_models import (
    _EXP_NORMAL_EDGE,
    CatalogueMatrix,
    PoleCatalogue,
    Signal,
    TimescaleReport,
    check_report_matches,
    synthesize,
)

_GAP_TOL = 1e-10
_ROUNDING = 8.0 * 2.0**-53  # c u of the bound's rounding term c d u ||rho||_2, u = 2^-53


def _family_eigh(family, t: np.ndarray):
    """``eigh`` of a family, which must hold one matrix per grid point."""
    dec = eigh(family)
    if dec.eigenvalues.shape[:-1] != t.shape:
        count = f"{len(dec.eigenvalues)} matrices" if dec.eigenvalues.ndim == 2 else "one matrix, not a stack, was"
        raise ValidationError(f"{count} supplied for a grid of {t.size} points")
    return dec


def _greedy_match(overlaps: np.ndarray) -> np.ndarray:
    """perm[..., i] = column assigned to row i, taking largest overlaps first.

    The rule, per (d, d) matrix: take the first largest open entry in
    row-major order, strike its row and column, repeat.  Each round takes,
    in every matrix at once, all locally dominant pairs (Preis, STACS 1999):
    (i, j) with j the first argmax of open row i and i that of open column j.
    Under the strict order "larger, then earlier in row-major order" these
    are the pairs largest in their row and column, and the rule takes them
    all: such a pair stays open until the rule takes an entry of its row or
    column, which as the open maximum can only be the pair itself, and
    striking it leaves the rule's other choices and the other dominant pairs
    as they were.  The open maximum is always dominant, so rounds end.
    """
    *lead, d, _ = np.shape(overlaps)
    flat = np.array(overlaps, dtype=float).reshape(math.prod(lead), d, d)
    perm = np.full(flat.shape[:-1], -1, dtype=np.intp)
    mats = np.arange(len(flat))[:, None]
    while True:
        open_rows = perm < 0
        if not open_rows.any():
            return perm.reshape(*lead, d)
        best_col = np.argmax(flat, axis=2)  # per row; struck entries hold -1 < every overlap
        best_row = np.argmax(flat, axis=1)  # per column
        dominant = open_rows & (best_row[mats, best_col] == np.arange(d))
        k, i = np.nonzero(dominant)
        j = best_col[k, i]
        perm[k, i] = j
        flat[k, i, :] = -1.0
        flat[k, :, j] = -1.0


@dataclass(frozen=True, eq=False)  # identity equality, as on numerics.HermitianMatrix
class MovingBasis:
    """Continuity-matched eigendecompositions along a time grid.

    ``eigenvalues[k]`` / ``eigenvectors[k]`` (columns) are ordered by
    track: descending at the first grid point, then following each
    eigenvector by maximal overlap with its predecessor.  Times where the
    spectrum is nearly degenerate (adjacent gap below the tolerance) are
    listed in ``degenerate_times``; tracks through those points are kept
    but should not be trusted individually.
    """

    times: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degenerate_times: tuple

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[1]


def moving_eigenbasis(rho_of_t, grid) -> MovingBasis:
    """Diagonalize a time-indexed family with eigenvector continuity.

    ``grid`` holds the family's times, each a finite number >= 0 (``numerics._time_grid``), the domain of
    every catalogue evaluator.  ``rho_of_t``, one matrix per point of ``grid`` in a form ``eigh`` stacks (a
    ``DensityFamily``, a list or tuple of members, or one (T, d, d) array), goes to one ``eigh`` as it
    is, and each step is matched by ``_greedy_match``; an exact tie between rows goes to the earlier
    column in the previous ``eigh`` order, not in track order.  The first point's vectors get ``eigh``'s phase
    convention; each later one is LAPACK's times one phase, from the step overlaps, so its overlap
    with the previous time step is real and nonnegative, keeping the angle between consecutive
    matched vectors below pi/2; a track whose overlap with its predecessor vanishes keeps its phase.
    """
    t = _time_grid(grid)
    dec = _family_eigh(rho_of_t, t)
    vals, vecs = dec.eigenvalues, dec.unphased_vectors.copy()
    vecs[0] = _phase_fix(vecs[0])
    steps = np.swapaxes(vecs[:-1].conj(), -1, -2) @ vecs[1:]  # <v_i(t_k-1)|v_j(t_k)>
    match = _greedy_match(np.abs(steps))

    # track[k, i]: the column of the decomposition at t_k that track i follows
    track = np.empty(vals.shape, dtype=np.intp)
    track[0] = np.arange(vals.shape[1])
    for k in range(t.size - 1):
        track[k + 1] = match[k][track[k]]

    # each step turns a track by conj(overlap) / |overlap|, rounded as one
    # Python complex divided by its abs(): a real overlap turns it by exactly +-1
    points = np.arange(t.size)[:, None]
    inner = steps[points[:-1], track[:-1], track[1:]]
    size = np.hypot(inner.real, inner.imag)
    moved = size > 0.0
    turn = np.where(moved, inner.conj(), 1.0)
    np.divide(turn.real, size, out=turn.real, where=moved)
    np.divide(turn.imag, size, out=turn.imag, where=moved)
    tracked = np.swapaxes(vecs, 1, 2)[points, track]  # [k, i]: track i's vector at t_k, contiguous
    tracked[1:] *= np.cumprod(turn, axis=0)[:, :, None]
    gaps = vals[:, :-1] - vals[:, 1:]  # eigh's values descend
    degenerate = t[np.min(gaps, axis=1, initial=math.inf) < _GAP_TOL]
    return MovingBasis(
        times=t,
        eigenvalues=vals[points, track],
        eigenvectors=np.swapaxes(tracked, 1, 2),
        degenerate_times=tuple(degenerate.tolist()),
    )


def preferred_state(
    source: CatalogueMatrix, report: TimescaleReport, grid
) -> DensityFamily:
    """Evaluate the catalogue with p-irrelevant poles dropped, per time point.

    The whole grid is one ``CatalogueMatrix.evaluate`` call.  Each
    truncated matrix is renormalized to unit trace and the stack is checked
    once, as a ``DensityFamily`` whose k-th member holds the entries ``DensityMatrix(m / tr)``
    would store.  A vanishing trace means the surviving modes cannot represent a
    state.  ``grid`` is read by ``numerics._time_grid``, each time a finite number >= 0 (t = inf is
    refused, as NaN is); one time is a grid of one point.

    A trace vanishes where it is not finite, or where it lies within the rounding bound of the
    terms it sums: |tr| <= (K + d + 2 + 2 * 708.4) u sqrt(d) S(t), u = 2^-53, for K kept modes of
    a d x d catalogue, with S(t) = ||EQ|| + sum_k ||A_k|| exp(-gamma_k t / hbar) over the kept
    modes in Frobenius norm (``dropped_envelope`` of the kept range, which adds ``truncation``
    when every mode is kept).  To first order in u this is ``evaluate``'s bound on each diagonal
    entry, (K + 1) u times its terms' moduli plus each decay factor's error, summed over the d
    diagonal entries, whose moduli total at most sqrt(d) times the Frobenius norm, plus (d - 1) u
    for the trace's own sum.  A factor exp(x) is kept only for |x| < -log 2^-1022 = 708.4, so
    its error is at most (2 + 2 * 708.4) u exp(x).  The subnormal terms of ``evaluate``'s bound,
    below 2^-1022 per unit of amplitude, are not counted.
    """
    check_report_matches(source, report)
    t = _time_grid(grid)
    mats = source.evaluate(t, keep=report.p_relevant)
    traces = np.trace(mats, axis1=-2, axis2=-1).real
    # ||EQ|| by hypot, which does not overflow; |x| < -_EXP_NORMAL_EDGE = -log 2^-1022 for a kept decay factor
    # exp(x), the edge below which CatalogueMatrix._decay stores 0
    size = math.hypot(*np.abs(source.equilibrium).flat) + source.dropped_envelope(t, report.p_relevant)
    rounding = (report.cut + source.dim + 2 - 2 * _EXP_NORMAL_EDGE) * 2.0**-53 * math.sqrt(source.dim) * size
    vanishing = ~np.isfinite(traces) | (np.abs(traces) <= rounding)
    if np.any(vanishing):
        raise ValidationError(f"truncated state has vanishing trace at t={t[np.argmax(vanishing)]}")
    return DensityFamily(mats / traces[:, None, None])


def convergence_profile(
    rho_R,
    rho_P,
    grid,
    t_D: float,
    envelope: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.recarray:
    """Per-time angle between the eigenbases of the full and preferred states, and its bound.

    Returns a (T,) record array with fields ``t``, ``subspace_angle`` (the
    largest principal angle over matched pairs, in [0, pi/2]),
    ``eigenvalue_gap`` (of rho_P), ``bound``, ``max_eigenvalue_discrepancy``,
    ``reliable`` (gap >= 1e-10) and ``estimate``: ``profile.subspace_angle`` is a column,
    ``profile[k]`` the row at the k-th grid point.  Each family takes the forms and the one
    ``eigh`` of ``moving_eigenbasis`` (a ``DensityFamily`` is not checked again); its decompositions
    are paired at each time by ``_greedy_match``, untracked: relabeling columns permutes the overlap
    matrix (same pairs, up to exact ties), phases drop out of the moduli, so none is fixed,
    and the gap is taken between eigh's descending eigenvalues.  ``t_D`` is a finite
    number > 0; the grid must reach at least 3 t_D so the
    post-decoherence regime is actually sampled.

    A matched pair's angle is atan2(sin, cos) (Knyazev & Argentati, SIAM J. Sci. Comput. 23, 2002):
    cos is its overlap, sin the root of the sum of the other squared overlaps in its rho_R vector's
    column of |V_P^H V_R|, so an angle far below the square root of rounding still reads above 0.
    ``bound`` is the Davis-Kahan bound (Davis & Kahan, SIAM J. Numer. Anal. 7, 1970, in the one-gap
    form of Yu, Wang & Samworth, Biometrika 102, 2015) with a rounding term,
    (2 ||rho_R - rho_P||_2 + 8 d u ||rho||_2) / gap, inf where the gap is 0: ``||.||_2`` is the
    largest |eigenvalue| of the stacked differences (one ``eigvalsh``), ``||rho||_2`` the larger of
    the two states' (from their ``eigh``), u = 2^-53, and the term covers LAPACK's eigenvector error,
    about d u ||rho||_2 / gap for each family, and the overlap product's.  It reads nothing but the
    two families; it compares them as given, so ``CatalogueMatrix.truncation`` does not enter.

    * Pairing.  The theorem bounds sin theta between the eigenvectors of rho_R and rho_P of one
      eigenvalue index.  Where the bound is below 2^-1/2, each such overlap exceeds 2^-1/2 and
      so every other entry of its row and column, every index pair is locally dominant, and the
      greedy pair is the index pair: sin theta of the angle is within ``bound``.  At d = 2 it is
      within ``bound`` at every point, since the greedy angle is min(phi, pi/2 - phi) for the
      index pair's angle phi.
    * Cluster form.  For a cluster lambda_r..lambda_s of rho_P's eigenvalues, separated from the
      rest by delta = min(lambda_{r-1} - lambda_r, lambda_s - lambda_{s+1}), the invariant
      subspaces of rho_R and rho_P of indices r..s meet at principal angles Theta with
      ||sin Theta||_2 <= 2 ||rho_R - rho_P||_2 / delta; one eigenvalue is the cluster r = s.

    ``estimate`` is the first-order estimate envelope / gap (inf where the gap vanishes; NaN
    without an envelope), which is no bound: the frame catalogue N = 5048, L0 = 10.04,
    gamma0 = 0.937, |a|^2 = 0.13, arg b = 2 has an angle 5.4 times it at 7.56 t_D.  Called once
    with the whole grid, ``envelope`` returns the dropped modes' weight per point, (T,) or one
    number, and not a bool, which would read as 1.0 (``envelope(t): expected a number, got True``).
    """
    t, t_D = _time_grid(grid), _number(t_D, "t_D", "> 0")
    if t.max() < 3.0 * t_D:
        raise ValidationError(f"grid [{t.min()}, {t.max()}] must span at least 3 t_D = {3.0 * t_D}")
    dec_r = _family_eigh(rho_R, t)
    dec_p = _family_eigh(rho_P, t)
    if dec_r.eigenvalues.shape[1] != dec_p.eigenvalues.shape[1]:
        raise ValidationError("the two families have different dimensions")

    overlaps = np.abs(np.swapaxes(dec_p.unphased_vectors.conj(), -1, -2) @ dec_r.unphased_vectors)
    perm = _greedy_match(overlaps)
    points, rows = np.arange(t.size)[:, None], np.arange(perm.shape[1])
    others = overlaps**2
    others[points, rows, perm] = 0.0  # each rho_R vector's squared overlaps with its unmatched rho_P vectors
    sines = np.sqrt(np.sum(others, axis=1))[points, perm]
    angles = np.max(np.arctan2(sines, overlaps[points, rows, perm]), axis=1)
    val_err = np.max(np.abs(dec_p.eigenvalues - dec_r.eigenvalues[points, perm]), axis=1)
    gaps = np.min(dec_p.eigenvalues[:, :-1] - dec_p.eigenvalues[:, 1:], axis=1, initial=math.inf)
    spread = 2.0 * np.max(np.abs(np.linalg.eigvalsh(dec_r.entries - dec_p.entries)), axis=1)  # 2 ||rho_R - rho_P||_2
    spread += _ROUNDING * rows.size * np.max(np.abs([dec_r.eigenvalues, dec_p.eigenvalues]), axis=(0, 2))
    bounds = np.divide(spread, gaps, out=np.full(t.shape, math.inf), where=gaps > 0.0)

    estimates = np.full(t.shape, math.nan)
    if envelope is not None:
        env = np.asarray(_refuse_bools(envelope(t), "envelope(t)"), dtype=float)
        if env.shape not in ((), t.shape):
            raise ValidationError(
                f"envelope must return one value or one per grid point, got shape {env.shape}"
            )
        estimates = np.divide(env, gaps, out=np.full(t.shape, math.inf), where=gaps > 0.0)
    return np.rec.fromarrays(
        [t, angles, gaps, bounds, val_err, gaps >= _GAP_TOL, estimates],
        names="t,subspace_angle,eigenvalue_gap,bound,max_eigenvalue_discrepancy,reliable,estimate",
    )


# --- two commuting parts -----------------------------------------------------


@dataclass(frozen=True)
class BiFriedrichModel:
    """Two independent pole catalogues observed through separate observables.

    The parts commute, so the observable of part 1 sees only part-1 poles
    and vice versa; ``part`` selects a part by observable name ("O1",
    "O2") or index (0, 1), not a bool.  Each part's signal turns every mode
    at its stored omega, as ``synthesize`` does.  A part with no poles
    (tail-only catalogue) has already relaxed at t = 0.
    """

    part1: PoleCatalogue
    part2: PoleCatalogue

    def part(self, which) -> PoleCatalogue:
        _refuse_bools(which, "which")  # True == 1 would select part 2
        if which == "O1" or which == 0:
            return self.part1
        if which == "O2" or which == 1:
            return self.part2
        raise ValidationError(f"unknown observable selector {which!r}")

    def relaxation_time(self, which) -> float:
        cat = self.part(which)
        if not cat.gammas:
            return 0.0
        return cat.hbar / cat.gammas[0]


def observable_signal(model: BiFriedrichModel, which, grid) -> Signal:
    """Trajectory seen by one observable: synthesized from its part alone."""
    return synthesize(model.part(which), grid)


@dataclass(frozen=True, eq=False)  # identity equality, as on numerics.HermitianMatrix
class BiFriedrichResult:
    """Both signals, both t_R, and ``verdicts``: a (T,) record array with fields
    ``t``, ``part1_state`` and ``part2_state``, each 'classical' or 'quantum'."""

    signal1: Signal
    signal2: Signal
    t_R1: float
    t_R2: float
    verdicts: np.recarray


def bifriedrich_run(model: BiFriedrichModel, grid) -> BiFriedrichResult:
    """Run both observables and classify each part per time sample.

    Part i is 'classical' once t exceeds its relaxation time t_Ri (its
    signal is then within the dropped envelope of equilibrium) and
    'quantum' before.  With separated t_R1 << t_R2 the verdicts differ on
    the whole window (t_R1, t_R2]: one part has relaxed while the other
    still carries coherent pole content.
    """
    s1 = observable_signal(model, 0, grid)
    s2 = observable_signal(model, 1, grid)
    t_r1 = model.relaxation_time(0)
    t_r2 = model.relaxation_time(1)
    t = s1.times
    states = [np.where(t > t_r, "classical", "quantum") for t_r in (t_r1, t_r2)]
    verdicts = np.rec.fromarrays([t, *states], names="t,part1_state,part2_state")
    return BiFriedrichResult(s1, s2, t_r1, t_r2, verdicts)
