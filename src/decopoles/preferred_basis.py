"""Moving eigenbases, preferred states, and their convergence.

The decohered ("preferred") state rho_P(t) keeps only the persistent
poles of a matrix-valued catalogue; its moving eigenbasis is the basis
the full state's eigenbasis approaches once the dropped modes have died.
This module extracts both bases with continuity-matched eigenvector
tracks, measures their separation as the largest principal angle over
matched pairs, and bounds that angle by first-order perturbation theory:
angle <= (dropped-mode envelope) / (eigenvalue gap of rho_P).

Each works on a whole time grid at once: one ``CatalogueMatrix.evaluate``
over the grid, one stacked ``eigh`` per family, one batched product for
the overlaps of consecutive steps, and the row-wise argmax as the match
wherever it is a permutation (the greedy match then picks the same).

The bi-partite scenario at the end runs two commuting subsystems whose
observables each see only their own pole content, so one part can look
classical while the other is still relaxing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import ValidationError
from .numerics import DensityMatrix, HermitianMatrix, _density_stack, eigh
from .pole_models import (
    CatalogueMatrix,
    PoleCatalogue,
    Signal,
    TimescaleReport,
    check_report_matches,
    synthesize,
)

_GAP_TOL = 1e-10


def _as_matrix(entry) -> np.ndarray:
    if isinstance(entry, HermitianMatrix):  # a DensityMatrix too
        return entry.entries
    return np.asarray(entry, dtype=complex)


def _materialize(rho_of_t, grid: np.ndarray) -> np.ndarray:
    """The family on the grid as one (T, d, d) stack."""
    if callable(rho_of_t):
        mats = [_as_matrix(rho_of_t(float(t))) for t in grid]
    else:
        mats = [_as_matrix(m) for m in rho_of_t]
        if len(mats) != grid.size:
            raise ValidationError(
                f"{len(mats)} matrices supplied for a grid of {grid.size} points"
            )
    try:
        stack = np.stack(mats)
    except ValueError as exc:
        raise ValidationError(f"matrices must share one shape: {exc}") from exc
    if stack.ndim != 3:
        raise ValidationError(f"expected square matrices, got a stack of shape {stack.shape}")
    return stack


def _greedy_match(overlaps: np.ndarray) -> np.ndarray:
    """perm[i] = column assigned to row i, taking largest overlaps first."""
    d = overlaps.shape[0]
    perm = np.full(d, -1, dtype=int)
    scores = np.array(overlaps, dtype=float)
    for _ in range(d):
        i, j = np.unravel_index(np.argmax(scores), scores.shape)
        perm[i] = j
        scores[i, :] = -1.0
        scores[:, j] = -1.0
    return perm


def _argmax_match(overlaps: np.ndarray):
    """Row-wise argmax of each overlap matrix, and whether it is a permutation.

    Where the row argmaxes of a matrix are distinct they are exactly what
    ``_greedy_match`` returns: the first largest entry is its row's first
    argmax, and striking that row and column leaves every other row's
    first argmax in place.
    """
    best = np.argmax(overlaps, axis=-1)
    ordered = np.sort(best, axis=-1)
    return best, np.all(ordered[..., 1:] != ordered[..., :-1], axis=-1)


@dataclass(frozen=True)
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


def moving_eigenbasis(rho_of_t, grid, gap_tol: float = _GAP_TOL) -> MovingBasis:
    """Diagonalize a time-indexed family with eigenvector continuity.

    ``rho_of_t`` is a callable t -> matrix (DensityMatrix, HermitianMatrix
    or plain Hermitian array) or a sequence aligned with ``grid``.  The
    whole family is diagonalized in one stacked ``eigh`` call.  After
    matching, each eigenvector's phase is fixed so its overlap with the
    previous time step is real and nonnegative, keeping the angle between
    consecutive matched vectors below pi/2; a vector whose overlap with
    its predecessor vanishes keeps the phase it had.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValidationError("grid must be a nonempty 1-D array")
    dec = eigh(_materialize(rho_of_t, t))
    vals, vecs = dec.eigenvalues, dec.eigenvectors
    steps = np.swapaxes(vecs[:-1].conj(), -1, -2) @ vecs[1:]  # <v_i(t_k-1)|v_j(t_k)>
    overlaps = np.abs(steps)
    best, distinct = _argmax_match(overlaps)

    # track[k, i]: the column of the decomposition at t_k that track i follows
    track = np.empty(vals.shape, dtype=np.intp)
    track[0] = np.arange(vals.shape[1])
    for k in range(t.size - 1):
        prev = track[k]
        track[k + 1] = best[k][prev] if distinct[k] else _greedy_match(overlaps[k][prev])

    # each step turns a track by conj(overlap) / |overlap|, rounded as one
    # Python complex divided by its abs(): a real overlap turns it by exactly +-1
    inner = steps[np.arange(t.size - 1)[:, None], track[:-1], track[1:]]
    size = np.hypot(inner.real, inner.imag)
    moved = size > 0.0
    turn = np.where(moved, inner.conj(), 1.0)
    np.divide(turn.real, size, out=turn.real, where=moved)
    np.divide(turn.imag, size, out=turn.imag, where=moved)
    phase = np.cumprod(np.concatenate([np.ones((1, vals.shape[1])), turn]), axis=0)
    gaps = np.diff(np.sort(vals, axis=1), axis=1)
    degenerate = t[np.min(gaps, axis=1, initial=math.inf) < gap_tol]
    return MovingBasis(
        times=t,
        eigenvalues=np.take_along_axis(vals, track, axis=1),
        eigenvectors=np.take_along_axis(vecs, track[:, None, :], axis=2) * phase[:, None, :],
        degenerate_times=tuple(degenerate.tolist()),
    )


def preferred_state(
    source: CatalogueMatrix, report: TimescaleReport, grid
) -> List[DensityMatrix]:
    """Evaluate the catalogue with p-irrelevant poles dropped, per time point.

    The whole grid is one ``CatalogueMatrix.evaluate`` call.  Each
    truncated matrix is renormalized to unit trace and the stack is checked
    once, giving the entries ``DensityMatrix(m / tr)`` would store.  A
    vanishing trace means the surviving modes cannot represent a state.
    """
    check_report_matches(source, report)
    t = np.asarray(grid, dtype=float)
    if t.size == 0:
        raise ValidationError("empty time grid")
    mats = source.evaluate(t, keep=report.p_relevant)
    traces = np.trace(mats, axis1=-2, axis2=-1).real
    vanishing = ~np.isfinite(traces) | (np.abs(traces) < 1e-200)
    if np.any(vanishing):
        raise ValidationError(
            f"truncated state has vanishing trace at t={t[np.argmax(vanishing)]}"
        )
    return _density_stack(mats / traces[:, None, None])


@dataclass(frozen=True)
class BasisDistance:
    """Separation of two eigenbases at one time.

    ``subspace_angle`` is the largest principal angle over matched
    eigenvector pairs, in [0, pi/2].  ``bound`` is the first-order ceiling
    envelope/gap when an envelope was supplied (None otherwise);
    ``reliable`` is False where the gap is too small for eigenvectors to
    be well conditioned.
    """

    t: float
    subspace_angle: float
    eigenvalue_gap: float
    bound: Optional[float]
    max_eigenvalue_discrepancy: float
    reliable: bool

    def __post_init__(self):
        if not (0.0 <= self.subspace_angle <= 0.5 * math.pi + 1e-12):
            raise ValidationError(f"angle {self.subspace_angle} outside [0, pi/2]")


def convergence_profile(
    rho_R,
    rho_P,
    grid,
    t_D: float,
    envelope: Optional[Callable[[float], float]] = None,
    gap_tol: float = _GAP_TOL,
) -> List[BasisDistance]:
    """Per-time angle between the eigenbases of the full and preferred states.

    Both sources are diagonalized with continuity matching, then paired
    greedily at each time.  The grid must reach at least 3 t_D so the
    post-decoherence regime is actually sampled.  ``envelope`` (t -> total
    weight of the dropped modes) turns on the perturbative bound column.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValidationError("grid must be a nonempty 1-D array")
    if t_D <= 0.0:
        raise ValidationError("t_D must be positive")
    if t[0] < 0.0 or t[-1] < 3.0 * t_D:
        raise ValidationError(
            f"grid [{t[0]}, {t[-1]}] must lie in t >= 0 and span at least 3 t_D = {3.0 * t_D}"
        )
    basis_r = moving_eigenbasis(rho_R, t, gap_tol)
    basis_p = moving_eigenbasis(rho_P, t, gap_tol)
    if basis_r.dim != basis_p.dim:
        raise ValidationError("the two families have different dimensions")

    vr, vp = basis_r.eigenvectors, basis_p.eigenvectors
    overlaps = np.abs(np.swapaxes(vp.conj(), -1, -2) @ vr)
    perm, distinct = _argmax_match(overlaps)
    for k in np.flatnonzero(~distinct):
        perm[k] = _greedy_match(overlaps[k])
    matched = np.minimum(1.0, np.take_along_axis(overlaps, perm[..., None], axis=-1)[..., 0])
    angles = np.max(np.arccos(matched), axis=1)
    val_err = np.max(
        np.abs(basis_p.eigenvalues - np.take_along_axis(basis_r.eigenvalues, perm, axis=1)),
        axis=1,
    )
    gaps = np.min(np.diff(np.sort(basis_p.eigenvalues, axis=1), axis=1), axis=1, initial=math.inf)

    out = []
    for tk, angle, gap, err in zip(t.tolist(), angles.tolist(), gaps.tolist(), val_err.tolist()):
        bound = None
        if envelope is not None:
            bound = float(envelope(tk)) / gap if gap > 0.0 else math.inf
        out.append(
            BasisDistance(
                t=tk,
                subspace_angle=angle,
                eigenvalue_gap=gap,
                bound=bound,
                max_eigenvalue_discrepancy=err,
                reliable=gap >= gap_tol,
            )
        )
    return out


# --- two commuting parts -----------------------------------------------------


@dataclass(frozen=True)
class BiFriedrichModel:
    """Two independent pole catalogues observed through separate observables.

    The parts commute, so the observable of part 1 sees only part-1 poles
    and vice versa; ``observables`` names the two selectors.  A part with
    no poles (tail-only catalogue) has already relaxed at t = 0.
    """

    part1: PoleCatalogue
    part2: PoleCatalogue
    observables: tuple = ("O1", "O2")

    def __post_init__(self):
        if len(self.observables) != 2 or len(set(self.observables)) != 2:
            raise ValidationError("observables must be two distinct selector names")

    def part(self, which) -> PoleCatalogue:
        if which == self.observables[0] or which == 0:
            return self.part1
        if which == self.observables[1] or which == 1:
            return self.part2
        raise ValidationError(f"unknown observable selector {which!r}")

    def relaxation_time(self, which) -> float:
        cat = self.part(which)
        if not cat.modes:
            return 0.0
        return cat.hbar / cat.gammas[0]


def observable_signal(model: BiFriedrichModel, which, grid) -> Signal:
    """Trajectory seen by one observable: synthesized from its part alone."""
    return synthesize(model.part(which), grid)


@dataclass(frozen=True)
class BiFriedrichResult:
    signal1: Signal
    signal2: Signal
    t_R1: float
    t_R2: float
    verdicts: tuple  # (t, state1, state2) with states 'classical' | 'quantum'


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
    verdicts = tuple(
        (
            float(t),
            "classical" if t > t_r1 else "quantum",
            "classical" if t > t_r2 else "quantum",
        )
        for t in s1.times
    )
    return BiFriedrichResult(s1, s2, t_r1, t_r2, verdicts)
