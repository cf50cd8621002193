"""The library call chains of the two library workloads.

Functions are looked up through their modules at call time
(``omnes.frame_catalogue_matrix`` rather than a name imported once), so
the traced run's wrappers see every call.  Each chain returns the data its
checker needs; checking happens outside the timed region.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from decopoles import omnes, pole_models, preferred_basis


def _config(p: dict) -> "omnes.OmnesConfig":
    a = math.sqrt(p["a_abs_sq"])
    b = cmath.rect(math.sqrt(1.0 - p["a_abs_sq"]), p.get("b_phase", 0.0))
    return omnes.OmnesConfig(p["m"], p["omega"], p["hbar"], p["gamma0"], p["L0"], a, b, p["N"])


def frame_convergence(p: dict) -> dict:
    """Frame catalogue -> collective-rate partition -> preferred state -> profile.

    Mirrors the moving-preferred-basis convergence test: the full state is
    the exact truncated frame projection, the bound uses the dropped-mode
    envelope with the test's factor 5 for normalization.
    """
    cfg = _config(p)
    cm = omnes.frame_catalogue_matrix(cfg)
    rule = pole_models.collective_rate_rule(cfg.m, cfg.omega, cfg.L0, cfg.hbar)
    report = pole_models.partition_report(cm.gammas, cm.hbar, rule=rule)
    t_r = cfg.hbar / cfg.gamma0
    grid = np.linspace(0.0, 6.0 * t_r, p["n_grid"])
    rho_p = preferred_basis.preferred_state(cm, report, grid)
    rho_r = [omnes.frame_projection(cfg, cfg.z0(), float(t), closed_form=False) for t in grid]

    def envelope(t):
        return 5.0 * cm.dropped_envelope(t, report.p_irrelevant)

    profile = preferred_basis.convergence_profile(
        rho_r, rho_p, grid, t_D=report.t_D, envelope=envelope
    )
    return {"t_R": t_r, "t_D": report.t_D, "profile": profile,
            "rho_r": [r.entries for r in rho_r], "rho_p": [r.entries for r in rho_p]}


def fock_eigenbasis(p: dict) -> dict:
    """Fock-space density matrices -> moving eigenbasis -> eigenvalue audit."""
    cfg = _config(p)
    z0 = cfg.z0(p["omega_prime"])
    grid = np.linspace(0.0, p["t_span"] * cfg.hbar / cfg.gamma0, p["n_grid"])
    rhos = [omnes.build_density_matrix(cfg, z0, float(t)) for t in grid]
    basis = preferred_basis.moving_eigenbasis(rhos, grid)
    min_eigs = [r.min_eigenvalue() for r in rhos]
    return {"grid": grid, "rho": [r.entries for r in rhos], "basis": basis, "min_eigs": min_eigs}


CHAINS = {"frame_convergence": frame_convergence, "fock_eigenbasis": fock_eigenbasis}
