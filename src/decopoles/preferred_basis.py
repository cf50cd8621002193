"""Moving eigenbases, preferred states, and their convergence.

The decohered ("preferred") state rho_P(t) keeps only the persistent
poles of a matrix-valued catalogue; its moving eigenbasis is the basis
the full state's eigenbasis approaches once the dropped modes have died.
This module extracts both bases with continuity-matched eigenvector
tracks, measures their separation as the largest principal angle over
matched pairs, and bounds that angle by first-order perturbation theory:
angle <= (dropped-mode envelope) / (eigenvalue gap of rho_P).

The bi-partite scenario at the end runs two commuting subsystems whose
observables each see only their own pole content, so one part can look
classical while the other is still relaxing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .numerics import DensityMatrix, HermitianMatrix, eigh
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
    if isinstance(entry, DensityMatrix):
        return entry.entries
    if isinstance(entry, HermitianMatrix):
        return entry.entries
    return np.asarray(entry, dtype=complex)


def _materialize(rho_of_t, grid: np.ndarray) -> List[np.ndarray]:
    if callable(rho_of_t):
        return [_as_matrix(rho_of_t(float(t))) for t in grid]
    mats = [_as_matrix(m) for m in rho_of_t]
    if len(mats) != grid.size:
        raise ValidationError(
            f"{len(mats)} matrices supplied for a grid of {grid.size} points"
        )
    return mats


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
    or plain Hermitian array) or a sequence aligned with ``grid``.  After
    matching, each eigenvector's phase is fixed so its overlap with the
    previous time step is real and nonnegative, keeping the angle between
    consecutive matched vectors below pi/2.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValidationError("grid must be a nonempty 1-D array")
    mats = _materialize(rho_of_t, t)

    vals_out = []
    vecs_out = []
    degenerate = []
    prev_vecs: Optional[np.ndarray] = None
    for tk, mat in zip(t, mats):
        dec = eigh(mat)
        vals = np.array(dec.eigenvalues)
        vecs = np.array(dec.eigenvectors)
        if prev_vecs is not None:
            overlaps = np.abs(prev_vecs.conj().T @ vecs)
            perm = _greedy_match(overlaps)
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
        prev_vecs = vecs
    return MovingBasis(
        times=t,
        eigenvalues=np.array(vals_out),
        eigenvectors=np.array(vecs_out),
        degenerate_times=tuple(degenerate),
    )


def preferred_state(
    source: CatalogueMatrix, report: TimescaleReport, grid
) -> List[DensityMatrix]:
    """Evaluate the catalogue with p-irrelevant poles dropped, per time point.

    The truncated matrix is renormalized to unit trace (``DensityMatrix``
    stores its exactly-Hermitian average).  A vanishing trace means the
    surviving modes cannot represent a state and is an error.
    """
    check_report_matches(source, report)
    t = np.asarray(grid, dtype=float)
    if t.size == 0:
        raise ValidationError("empty time grid")
    out = []
    for tk in t:
        mat = source.evaluate(float(tk), keep=report.p_relevant)
        trace = float(np.trace(mat).real)
        if not math.isfinite(trace) or abs(trace) < 1e-200:
            raise ValidationError(f"truncated state has vanishing trace at t={tk}")
        out.append(DensityMatrix(mat / trace))
    return out


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

    out = []
    for k, tk in enumerate(t):
        vr = basis_r.eigenvectors[k]
        vp = basis_p.eigenvectors[k]
        overlaps = np.abs(vp.conj().T @ vr)
        perm = _greedy_match(overlaps)
        angle = 0.0
        val_err = 0.0
        for i in range(basis_p.dim):
            c = min(1.0, float(overlaps[i, perm[i]]))
            angle = max(angle, math.acos(c))
            val_err = max(
                val_err,
                abs(float(basis_p.eigenvalues[k][i] - basis_r.eigenvalues[k][perm[i]])),
            )
        pvals = np.sort(basis_p.eigenvalues[k])
        gap = float(np.min(np.diff(pvals))) if pvals.size > 1 else math.inf
        bound = None
        if envelope is not None:
            bound = float(envelope(float(tk))) / gap if gap > 0.0 else math.inf
        out.append(
            BasisDistance(
                t=float(tk),
                subspace_angle=angle,
                eigenvalue_gap=gap,
                bound=bound,
                max_eigenvalue_discrepancy=val_err,
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
