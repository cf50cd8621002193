"""Acceptance gate: the ten headline guarantees, one test per criterion.

Each test computes a pass flag, prints a single "[criterion N] PASS/FAIL"
line (visible with -s or -rA), then asserts.  Criteria 4 and 5 construct
no density matrices, so the hygiene audit of criterion 10 sweeps the
matrices accumulated while criteria 3 and 8 ran; run the module as a
whole, in order.  One more test checks that criterion 5's 220-digit sums
leave mpmath's precision as they found it.
"""

import math

import mpmath
import numpy as np

from decopoles.numerics import DensityMatrix, matrix_pencil_fit
from decopoles.omnes import (
    OmnesConfig,
    QuasiCoherentState,
    collective_rate,
    fock_overlap,
    frame_projection,
    nd_decay,
    overlap_error_bound,
    overlap_truncated,
)
from decopoles.friedrich import SpectralDensity, perturbative_pole
from decopoles.pole_models import (
    BOUNDARY_IRRELEVANT,
    CatalogueMatrix,
    Mode,
    Pole,
    PoleCatalogue,
    KhalfinTail,
    coincidence_check,
    decoherence_time,
    model1_times,
    model2_times,
    partition_report,
    preferred_signal,
    signal_to_csv,
    synthesize,
)
from decopoles.preferred_basis import (
    BiFriedrichModel,
    bifriedrich_run,
    convergence_profile,
    observable_signal,
    preferred_state,
)

_HYGIENE = []  # (tag, DensityMatrix) pairs audited by criterion 10


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_timescale_formulas():
    rng = np.random.default_rng(20260814)
    ok = True
    for _ in range(100):
        g0 = float(rng.uniform(0.01, 10.0))
        hbar = float(rng.uniform(0.1, 5.0))
        got1 = model1_times(g0, hbar)
        ok &= got1 == (hbar / g0, 2.0 * hbar / g0, 2.0 * hbar / g0, math.inf)
        g1 = g0 * float(rng.uniform(2.0, 200.0))
        got2 = model2_times(g0, g1, hbar)
        ok &= got2.t_R == hbar / g0
        ok &= got2.t_D == hbar / g1
        ok &= got2.intermediate == hbar / (g1 + g0)
    assert report(1, ok, "model-1 and model-2 times exact over 100 random draws")


def test_criterion_02_coincidence_bound():
    cat = PoleCatalogue(
        0.0, (Mode(Pole(0.0, 0.1), 3.0), Mode(Pole(0.0, 1.0), 2.0), Mode(Pole(0.0, 5.0), 1.0))
    )
    rep = decoherence_time(cat)
    grid = np.linspace(0.0, 6.0, 241)  # contains t_D = 1 exactly
    full = synthesize(cat, grid)
    pref = preferred_signal(cat, rep, grid)
    result = coincidence_check(full, pref, cat, rep)
    ok = rep.t_D == 1.0
    ok &= result.passed
    ok &= result.max_deviation <= result.bound * (1.0 + 1e-12)
    assert report(
        2,
        ok,
        f"max|S - S_P| = {result.max_deviation:.3e} within bound {result.bound:.3e} past t_D",
    )


def _omnes_config(L0, gamma0):
    # m omega / 2 = hbar = 1, so Delta = L0; N sized to keep the pair macroscopic
    return OmnesConfig(
        m=1.0,
        omega=2.0,
        hbar=1.0,
        gamma0=gamma0,
        L0=L0,
        a=complex(math.sqrt(0.5)),
        b=complex(math.sqrt(0.5)),
        N=max(6000, int(50.0 * L0 * L0) + 100),
    )


def test_criterion_03_collective_decay_rate():
    ok = True
    details = []
    for L0, gamma0 in ((10.0, 0.1), (20.0, 0.05), (40.0, 0.2)):
        cfg = _omnes_config(L0, gamma0)
        z0 = cfg.z0()
        gamma_tilde = (cfg.m * cfg.omega / (2.0 * cfg.hbar**2)) * L0 * L0 * gamma0
        window = 0.05 * cfg.hbar / gamma_tilde
        ts = np.linspace(0.0, window, 60)
        logs = [math.log(x) for x in nd_decay(cfg, z0, ts).tolist()]  # |rho12|, nd_block's bits at each time
        # quadratic fit removes the curvature of the short-time expansion
        slope = float(np.polyfit(ts, logs, 2)[1])
        rel = abs(slope - (-gamma_tilde / cfg.hbar)) / (gamma_tilde / cfg.hbar)
        ok &= rel <= 1e-3
        details.append(f"{rel:.1e}")
        for t in (0.0, 0.5 * window, window, cfg.hbar / gamma_tilde):
            _HYGIENE.append((f"frame L0={L0} t={t:.3g}", frame_projection(cfg, z0, float(t))))
    assert report(3, ok, f"log-slope of |rho12| matches -gamma_tilde (rel errs {details})")


def test_criterion_04_decoherence_time_scaling():
    products = []
    for L0 in (10.0, 20.0, 40.0):
        cfg = _omnes_config(L0, 0.1)
        products.append(collective_rate(cfg).t_D * L0 * L0)
    spread = max(products) - min(products)
    ok = spread <= 1e-12 * products[0]
    assert report(4, ok, f"t_D * L0^2 constant to {spread / products[0]:.1e} relative spread")


def test_criterion_05_overlap_bound_and_oracle():
    deltas = [0.5 * k for k in range(1, 11)]
    orders = (5, 10, 20, 50)
    ok_bound = True
    ok_tie = True
    ok_oracle = True
    with mpmath.workdps(220):
        for delta in deltas:
            for N in orders:
                x = mpmath.mpf(delta) ** 2 / 2
                partial = mpmath.fsum((-x) ** k / mpmath.factorial(k) for k in range(N + 1))
                bound_mp = x ** (N + 1) / mpmath.factorial(N + 1)
                ok_bound &= abs(partial - mpmath.exp(-x)) <= bound_mp
                s1 = QuasiCoherentState(0.0, N)
                s2 = QuasiCoherentState(delta, N)
                got = overlap_truncated(s1, s2)
                # double-precision partial sum sits on the exact one up to
                # cancellation noise, and obeys the bound with the same slack
                ok_tie &= abs(got - float(partial)) <= 5e-11
                limit = math.exp(-0.5 * delta * delta)
                ok_bound &= abs(got - limit) <= overlap_error_bound(delta, N) + 5e-11
                brute = _brute_normalized_overlap(0.0, delta, N)
                ok_oracle &= abs(fock_overlap(s1, s2) - brute) <= 1e-12 * abs(brute)
    ok = ok_bound and ok_tie and ok_oracle
    assert report(
        5,
        ok,
        "truncated overlap within remainder bound on the full grid; "
        "normalized overlap matches the double-sum oracle to 1e-12",
    )


def test_criterion_05_restores_the_mpmath_precision():
    # criterion 5 sums at 220 digits; later mpmath references must still run at their own precision
    before = mpmath.mp.prec
    test_criterion_05_overlap_bound_and_oracle()
    assert mpmath.mp.prec == before


def _brute_normalized_overlap(a1, a2, N):
    v1 = [a1**n / math.sqrt(math.factorial(n)) for n in range(N + 1)]
    v2 = [a2**n / math.sqrt(math.factorial(n)) for n in range(N + 1)]
    n1 = math.sqrt(sum(x * x for x in v1))
    n2 = math.sqrt(sum(x * x for x in v2))
    return sum(x * y for x, y in zip(v1, v2)) / (n1 * n2)


def test_criterion_06_friedrich_pole():
    sd = SpectralDensity.lorentzian(1.3, center=0.6, width=0.7)
    pole = perturbative_pole(sd)
    shift_err = abs(pole.delta_omega - 5.0 / 7.0)  # infinite-band Hilbert transform
    ok = shift_err <= 1e-7
    ok &= pole.gamma0 == math.pi * sd(1.3)
    silent = perturbative_pole(SpectralDensity(0.3, lambda w: 0.0, -1.0, 1.0))
    ok &= silent.z0 == complex(0.3, 0.0)
    assert report(
        6, ok, f"level shift within {shift_err:.1e} of analytic; gamma0 = pi g(omega0) exact"
    )


def test_criterion_07_pole_extraction_roundtrip():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        g0 = float(rng.uniform(0.05, 0.5))
        g1 = g0 * float(rng.uniform(3.0, 6.0))
        g2 = g1 * float(rng.uniform(3.0, 6.0))
        amps = rng.uniform(0.5, 3.0, size=3)
        cat = PoleCatalogue(
            0.0,
            tuple(Mode(Pole(0.0, g), float(a)) for g, a in zip((g0, g1, g2), amps)),
        )
        sig = synthesize(cat, np.linspace(0.0, 5.0 / g0, 401))
        fit = matrix_pencil_fit(sig.times, sig.values, 3)
        got = sorted(-z.real for z, _ in fit)
        for fitted, true in zip(got, (g0, g1, g2)):
            worst = max(worst, abs(fitted - true) / true)
    ok = worst < 1e-6
    assert report(7, ok, f"all widths recovered, worst relative error {worst:.1e}")


def _two_pole_matrix_catalogue():
    eq = np.diag([0.75, 0.25])
    slow = np.array([[-0.25, 0.1], [0.1, 0.25]])
    fast = np.array([[0.0, 0.3], [0.3, 0.0]])
    return CatalogueMatrix((Pole(0.0, 1.0), Pole(0.0, 10.0)), eq, (slow, fast))


def _two_pole_angle(t):
    # explicit 2x2 eigenvector mismatch between the full and truncated states
    d = 0.5 - 0.5 * math.exp(-t)
    c_full = 0.1 * math.exp(-t) + 0.3 * math.exp(-10.0 * t)
    c_pref = 0.1 * math.exp(-t)
    return abs(0.5 * math.atan2(2 * c_full, d) - 0.5 * math.atan2(2 * c_pref, d))


def test_criterion_08_moving_basis_convergence():
    mat = _two_pole_matrix_catalogue()
    rep = partition_report(mat.gammas, mat.hbar, boundary=BOUNDARY_IRRELEVANT)
    grid = np.linspace(0.0, 0.5, 51)  # grid[20] = 2 t_D
    pref = preferred_state(mat, rep, grid)
    profile = convergence_profile(
        [mat.evaluate(float(t)) for t in grid],
        pref,
        grid,
        rep.t_D,
        envelope=lambda t: mat.dropped_envelope(t, rep.p_irrelevant),
    )
    at = profile[20]
    closed = _two_pole_angle(float(grid[20]))
    ok = rep.t_D == 0.1
    ok &= abs(at.subspace_angle - closed) <= 1e-9
    ok &= at.reliable and at.subspace_angle <= at.bound
    for k, t in enumerate(grid):
        _HYGIENE.append((f"two-pole full t={t:.2f}", DensityMatrix(mat.evaluate(float(t)))))
        _HYGIENE.append((f"two-pole preferred t={t:.2f}", pref[k]))
    assert report(
        8,
        ok,
        f"angle at 2 t_D = {at.subspace_angle:.6f} equals the 2x2 formula "
        f"and sits under the bound {at.bound:.3f}",
    )


def test_criterion_09_bifriedrich_independence():
    part1 = PoleCatalogue(0.5, (Mode(Pole(0.0, 1.0), 1.0),))
    part2 = PoleCatalogue(0.25, (Mode(Pole(0.0, 0.01), 1.0),))
    model = BiFriedrichModel(part1, part2)
    grid = np.linspace(0.25, 149.75, 300)  # half-integer steps avoid t = t_Ri
    run = bifriedrich_run(model, grid)
    ok = run.t_R1 == 1.0 and run.t_R2 == 100.0
    for t, v1, v2 in run.verdicts:
        ok &= ((v1, v2) == ("classical", "quantum")) == (1.0 < t < 100.0)
    base = signal_to_csv(run.signal1)
    mutations = (
        PoleCatalogue(0.25, (Mode(Pole(0.0, 0.02), 1.0),)),
        PoleCatalogue(0.9, (Mode(Pole(0.0, 0.01), 2.5),)),
        PoleCatalogue(0.25, (Mode(Pole(0.0, 0.01), 1.0), Mode(Pole(2.0, 3.0), 0.4))),
        PoleCatalogue(0.25, (Mode(Pole(0.0, 0.01), 1.0),), KhalfinTail(0.3, 2.0, 3.0)),
    )
    for other in mutations:
        mutated = observable_signal(BiFriedrichModel(part1, other), 0, grid)
        ok &= np.array_equal(mutated.values, run.signal1.values)
        ok &= signal_to_csv(mutated) == base
    assert report(
        9, ok, "S1 byte-identical under part-2 mutations; verdicts split exactly on (t_R1, t_R2)"
    )


def test_criterion_10_density_matrix_hygiene():
    assert len(_HYGIENE) >= 100, "hygiene pool missing; run the module in order"
    worst_h = worst_t = 0.0
    worst_eig = math.inf
    ok = True
    for tag, dm in _HYGIENE:
        a = dm.entries
        herm = float(np.max(np.abs(a - a.conj().T)))
        tr = abs(complex(np.trace(a)) - 1.0)
        low = float(np.linalg.eigvalsh(a)[0])
        worst_h = max(worst_h, herm)
        worst_t = max(worst_t, tr)
        worst_eig = min(worst_eig, low)
        ok &= herm <= 1e-12 and tr <= 1e-12 and low >= -1e-10
    assert report(
        10,
        ok,
        f"{len(_HYGIENE)} states audited: hermiticity {worst_h:.1e}, "
        f"trace {worst_t:.1e}, min eigenvalue {worst_eig:.1e}",
    )
