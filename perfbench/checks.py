"""Correctness checks, built on closed forms independent of decopoles.

Every checker returns a list of problems; an empty list means the op's
output is correct.  References come from the generating parameters
(``Op.truth`` / ``Op.params``) and are evaluated here with numpy, math and
mpmath, never with the package under test.

Tolerances:

* CLI signals match equilibrium + sum a exp(-gamma t / hbar) + tail to
  1e-12 (scaled by the sum of term magnitudes when that exceeds 1);
  every float field is the canonical 17-significant-digit form of itself.
* ``t_D * L0^2`` is constant over the omnes sweep to 1e-12 relative.
* ``extract`` recovers each width to 1e-6 relative (acceptance criterion 7).
* frame convergence: angle < 1e-6 past 5 t_R, angle <= bound where the
  bound is reliable and >= 1e-7, and the angle agrees with numpy's eigh.
* Fock eigenbasis: V diag(lambda) V^H reproduces rho to 1e-10 and every
  eigenvalue lies in [-1e-10, 1 + 1e-10].
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

SIGNAL_TOL = 1e-12
EXACT_REL = 1e-14
GRID_REL = 4e-15  # a few ulps of t_max
TD_L0SQ_REL = 1e-12
WIDTH_REL = 1e-6
EIG_TOL = 1e-10
# the CLI resolves a density's level shift by adaptive quadrature to 1e-9;
# nd_decay rows driven by a density may differ by the shift error's effect
SHIFT_TOL = 1e-8


class CheckError(Exception):
    """An output failed a check; the message says which and where."""


# --- CSV parsing ------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def read_float_csv(path: str, header: str) -> np.ndarray:
    """Parse a numeric CSV, insisting every field is canonical 17g text."""
    text = _read(path)
    name = os.path.basename(path)
    if not text.endswith("\n"):
        raise CheckError(f"{name}: missing final newline")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        raise CheckError(f"{name}: header {lines[0]!r}, expected {header!r}")
    ncols = header.count(",") + 1
    rows = lines[1:]
    fields = ",".join(rows).split(",") if rows else []
    if len(fields) != ncols * len(rows):
        raise CheckError(f"{name}: rows do not all have {ncols} fields")
    try:
        values = np.array(fields, dtype=float).reshape(len(rows), ncols)
    except ValueError as exc:
        raise CheckError(f"{name}: unparsable field: {exc}") from None
    fmt = ",".join(["%.17g"] * ncols)
    rendered = [fmt % tuple(r) for r in values.tolist()]
    if rendered != rows:
        i = next(i for i, (a, b) in enumerate(zip(rendered, rows)) if a != b)
        raise CheckError(f"{name}: row {i + 1} {rows[i]!r} is not the 17-digit form of its values")
    return values


def _check_grid(problems, name, t, t_max, n):
    if t.size != n:
        problems.append(f"{name}: {t.size} rows, expected {n}")
        return False
    ref = np.arange(n) * (t_max / (n - 1))
    err = float(np.max(np.abs(t - ref)))
    if err > GRID_REL * t_max:
        problems.append(f"{name}: time column deviates from the uniform grid by {err:.3e}")
        return False
    return True


# --- signals ----------------------------------------------------------------


def catalogue_values(cat: dict, t: np.ndarray, keep=None):
    """equilibrium + sum over kept modes of a exp(-gamma t / hbar) + tail.

    Modes are indexed in ascending-gamma order.  Returns the values and
    the sum of term magnitudes (the tolerance scale).
    """
    values = np.full(t.shape, complex(cat["equilibrium"]), dtype=complex)
    scale = abs(cat["equilibrium"])
    for i, (g, ar, ai) in enumerate(sorted(cat["modes"])):
        if keep is not None and i not in keep:
            continue
        amp = complex(ar, ai)
        values += amp * np.exp(-g * t / cat["hbar"])
        scale += abs(amp)
    if cat["khalfin"] is not None:
        amp, tau, p = cat["khalfin"]
        values += amp * (1.0 + t / tau) ** (-p)
        scale += abs(amp)
    return values, scale


def _check_signal_csv(problems, path, cat, t_max, n, keep=None):
    name = os.path.basename(path)
    data = read_float_csv(path, "t,re,im")
    t = data[:, 0]
    if not _check_grid(problems, name, t, t_max, n):
        return
    ref, scale = catalogue_values(cat, t, keep)
    err = float(np.max(np.abs(data[:, 1] + 1j * data[:, 2] - ref)))
    if err > SIGNAL_TOL * max(1.0, scale):
        row = int(np.argmax(np.abs(data[:, 1] + 1j * data[:, 2] - ref)))
        problems.append(f"{name}: row {row + 1} deviates from the closed form by {err:.3e}")


def partition(gammas_sorted, rule: str, boundary: str):
    """Relevant indices and t_D-defining threshold of a named rule."""
    if rule == "background-only":
        return (), gammas_sorted[0]
    if rule == "second-smallest-gamma":
        threshold = gammas_sorted[1] if len(gammas_sorted) > 1 else gammas_sorted[0]
    elif rule == "slowest-only":
        threshold = gammas_sorted[0]
    else:
        raise CheckError(f"no reference for rule {rule!r}")
    if boundary == "relevant":
        keep = tuple(i for i, g in enumerate(gammas_sorted) if g <= threshold)
    else:
        keep = tuple(i for i, g in enumerate(gammas_sorted) if g < threshold)
    return keep, threshold


def _close(a: float, b: float, rel: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _read_name_value(path: str) -> dict:
    text = _read(path)
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "name,value":
        raise CheckError(f"{os.path.basename(path)}: bad header {lines[0]!r}")
    out = {}
    for ln in lines[1:]:
        key, _, value = ln.partition(",")
        out[key] = value
    return out


def _check_timescales(problems, path, cat, rule, boundary, extra):
    rows = _read_name_value(path)
    gammas = sorted(g for g, _, _ in cat["modes"])
    keep, threshold = partition(gammas, rule, boundary)
    hbar = cat["hbar"]
    expected = {
        "t_R": hbar / gammas[0],
        "t_D": hbar / threshold,
        "rule": rule,
        "boundary": boundary,
        "p_relevant": ";".join(str(i) for i in keep),
        "p_irrelevant": ";".join(str(i) for i in range(len(gammas)) if i not in keep),
    }
    expected.update(dict(extra))
    if list(rows) != list(expected):
        problems.append(f"timescales.csv: rows {list(rows)}, expected {list(expected)}")
        return keep
    for key, want in expected.items():
        got = rows[key]
        if isinstance(want, float):
            if f"{float(got):.17g}" != got or not _close(float(got), want, EXACT_REL):
                problems.append(f"timescales.csv: {key} = {got}, expected {want!r}")
        elif got != want:
            problems.append(f"timescales.csv: {key} = {got!r}, expected {want!r}")
    return keep


def _check_simulate(problems, op):
    tr = op.truth
    out = op.outdir
    if tr["scenario"] == "bifriedrich":
        _check_bifriedrich(problems, op)
        return
    cat = tr["catalogue"]
    _check_signal_csv(problems, os.path.join(out, "signal.csv"), cat, tr["t_max"], tr["n"])
    keep = _check_timescales(
        problems, os.path.join(out, "timescales.csv"), cat, tr["rule"], tr["boundary"], tr["extra"]
    )
    _check_signal_csv(
        problems, os.path.join(out, "preferred.csv"), cat, tr["t_max"], tr["n"], keep=set(keep)
    )


def _check_bifriedrich(problems, op):
    tr = op.truth
    out = op.outdir
    for i, part in enumerate(("part1", "part2")):
        _check_signal_csv(
            problems, os.path.join(out, f"signal{i + 1}.csv"), tr[part], tr["t_max"], tr["n"]
        )
    t_r = [tr[p]["hbar"] / min(g for g, _, _ in tr[p]["modes"]) for p in ("part1", "part2")]
    text = _read(os.path.join(out, "verdicts.csv"))
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "t,part1_state,part2_state" or len(lines) != tr["n"] + 1:
        problems.append("verdicts.csv: bad header or row count")
        return
    ref_t = np.arange(tr["n"]) * (tr["t_max"] / (tr["n"] - 1))
    for i, ln in enumerate(lines[1:]):
        ts, s1, s2 = ln.split(",")
        t = float(ts)
        want = ("classical" if t > t_r[0] else "quantum", "classical" if t > t_r[1] else "quantum")
        if (s1, s2) != want or f"{t:.17g}" != ts or abs(t - ref_t[i]) > GRID_REL * tr["t_max"]:
            problems.append(f"verdicts.csv: row {i + 1} {ln!r}, expected verdicts {want}")
            return


# --- omnes ------------------------------------------------------------------


def _ohmic_shift(omega0, cutoff, weight, hi):
    import mpmath

    mpmath.mp.dps = 30
    c = mpmath.mpf(cutoff)
    w0 = mpmath.mpf(omega0)
    h = mpmath.mpf(hi)
    pv = mpmath.exp(-w0 / c) * (mpmath.ei(w0 / c) - mpmath.ei(-(h - w0) / c))
    return float(weight * (-c * (1 - mpmath.exp(-h / c)) + w0 * pv))


def _lorentzian_shift(omega0, center, width, weight, lo, hi):
    d = omega0 - center
    u1 = lo - center
    u2 = hi - center
    bracket = (
        math.log(abs((d - u1) / (d - u2)))
        + 0.5 * math.log((u2 * u2 + width * width) / (u1 * u1 + width * width))
        + (d / width) * (math.atan(u2 / width) - math.atan(u1 / width))
    )
    return weight * (width / math.pi) / (d * d + width * width) * bracket


def _piecewise_linear_shift(omega0, omegas, values):
    total = 0.0
    for a, b, ga, gb in zip(omegas[:-1], omegas[1:], values[:-1], values[1:]):
        slope = (gb - ga) / (b - a)
        at_pole = ga + slope * (omega0 - a)
        total += -slope * (b - a) + at_pole * math.log(abs((omega0 - a) / (omega0 - b)))
    return total


def resolve_pole(density: dict):
    """(gamma0, omega') of a spectral density from closed forms.

    gamma0 = pi g(omega0); omega' = omega0 + PV int g(w) / (omega0 - w) dw
    over the density's support, evaluated analytically.
    """
    w0 = density["omega0"]
    kind = density["kind"]
    if kind == "lorentzian":
        c, eta, a = density["center"], density["width"], density["weight"]
        g0 = a * (eta / math.pi) / ((w0 - c) ** 2 + eta**2)
        shift = _lorentzian_shift(w0, c, eta, a, c - 3000.0 * eta, c + 3000.0 * eta)
    elif kind == "ohmic":
        wc, a = density["cutoff"], density["weight"]
        g0 = a * w0 * math.exp(-w0 / wc)
        shift = _ohmic_shift(w0, wc, a, 40.0 * wc)
    else:
        g0 = float(np.interp(w0, density["omegas"], density["values"]))
        shift = _piecewise_linear_shift(w0, density["omegas"], density["values"])
    return math.pi * g0, w0 + shift


def _check_omnes(problems, op):
    tr = op.truth
    out = op.outdir
    m, omega, hbar, L0, N = tr["m"], tr["omega"], tr["hbar"], tr["L0"], tr["N"]
    if tr["density"] is None:
        gamma0 = op.params["params"]["gamma0"]
        omega_p = op.params["params"]["omega_prime"]
        shift_tol = 0.0
    else:
        gamma0, omega_p = resolve_pole(tr["density"])
        shift_tol = SHIFT_TOL

    delta = L0 * math.sqrt(m * omega / 2.0) / hbar
    lower = delta / 10.0
    upper = 0.1 * math.sqrt(2.0 * (N + 1)) / delta
    status = "PASS" if (lower >= 1.0 and upper >= 1.0) else "FAIL"
    text = _read(os.path.join(out, "macroscopicity.txt"))
    fields = dict(ln.split(": ", 1) for ln in text.rstrip("\n").split("\n"))
    want = {"status": status, "delta": delta, "lower_margin": lower, "upper_margin": upper,
            "min_delta": 10.0, "truncation_factor": 0.1}
    if list(fields) != list(want):
        problems.append(f"macroscopicity.txt: keys {list(fields)}")
    else:
        for key, value in want.items():
            got = fields[key]
            ok = got == value if isinstance(value, str) else _close(float(got), value, EXACT_REL)
            if not ok:
                problems.append(f"macroscopicity.txt: {key} = {got}, expected {value!r}")

    data = read_float_csv(os.path.join(out, "nd_decay.csv"), "t,abs_rho12")
    t = data[:, 0]
    if _check_grid(problems, "nd_decay.csv", t, tr["t_max"], tr["n"]):
        d2 = delta * delta
        damp = np.exp(-gamma0 * t / hbar)
        exponent = d2 * (1.0 - damp * np.cos(omega_p * t / hbar))
        ab = abs(complex(*tr["a"])) * abs(complex(*tr["b"]))
        ref = ab * np.exp(-exponent)
        # relative error: rounding of the exponent, plus the level-shift error
        tol = 1e-12 * (1.0 + d2) + d2 * damp * np.abs(np.sin(omega_p * t / hbar)) * (t / hbar) * shift_tol
        rel = np.abs(data[:, 1] - ref) / ref
        bad = np.nonzero(rel > tol)[0]
        if bad.size:
            i = int(bad[0])
            problems.append(f"nd_decay.csv: row {i + 1} |rho12| = {data[i, 1]!r}, "
                            f"closed form {ref[i]!r} (relative error {rel[i]:.3e})")

    sweep = read_float_csv(os.path.join(out, "td_vs_L0.csv"), "L0,t_D,gamma_tilde")
    if sweep.shape[0] != len(tr["L0_sweep"]) or not np.array_equal(sweep[:, 0], tr["L0_sweep"]):
        problems.append("td_vs_L0.csv: L0 column differs from the configured sweep")
        return
    product = sweep[:, 1] * sweep[:, 0] ** 2
    exact = 2.0 * hbar**3 / (m * omega * gamma0)
    if np.max(np.abs(product - product[0])) > TD_L0SQ_REL * product[0]:
        problems.append(f"td_vs_L0.csv: t_D L0^2 varies over the sweep: {product.tolist()}")
    if abs(product[0] - exact) > TD_L0SQ_REL * exact:
        problems.append(f"td_vs_L0.csv: t_D L0^2 = {product[0]!r}, expected 2 hbar^3/(m omega gamma0) = {exact!r}")
    gt = (m * omega / (2.0 * hbar * hbar)) * sweep[:, 0] ** 2 * gamma0
    if np.max(np.abs(sweep[:, 2] - gt) / gt) > 1e-12:
        problems.append("td_vs_L0.csv: gamma_tilde differs from (m omega / 2 hbar^2) L0^2 gamma0")


# --- extract ----------------------------------------------------------------


def _check_extract(problems, op, stdout: str):
    tr = op.truth
    try:
        doc = json.loads(_read(os.path.join(op.outdir, "catalogue.json")))
    except (OSError, ValueError) as exc:
        problems.append(f"catalogue.json: unreadable: {exc}")
        return
    gammas = sorted(m["gamma"] for m in doc["modes"])
    if len(gammas) != len(tr["gammas"]):
        problems.append(f"catalogue.json: {len(gammas)} modes, expected {len(tr['gammas'])}")
        return
    for got, want in zip(gammas, sorted(tr["gammas"])):
        if abs(got - want) > WIDTH_REL * want:
            problems.append(f"catalogue.json: width {got!r}, expected {want!r} within {WIDTH_REL} relative")
    if abs(doc["equilibrium"] - tr["equilibrium"]) > WIDTH_REL:
        problems.append(f"catalogue.json: equilibrium {doc['equilibrium']!r}, expected {tr['equilibrium']!r}")
    if doc["hbar"] != tr["hbar"]:
        problems.append(f"catalogue.json: hbar {doc['hbar']!r}, expected {tr['hbar']!r}")
    lines = [ln for ln in stdout.splitlines() if ln.startswith("residual: ")]
    if len(lines) != 1 or not math.isfinite(float(lines[0].split(": ", 1)[1])):
        problems.append("stdout: expected one finite 'residual:' line")


def check_cli(op, stdout: str) -> list:
    """Check a CLI op's output files (and stdout) against its ground truth."""
    problems: list = []
    try:
        if op.kind.startswith("extract"):
            _check_extract(problems, op, stdout)
        elif op.kind.startswith("omnes"):
            _check_omnes(problems, op)
        else:
            _check_simulate(problems, op)
    except (CheckError, OSError, ValueError, KeyError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems


def output_digest(outdir: str) -> dict:
    """File name -> sha256 of every output file, for the repeat check."""
    import hashlib

    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def output_bytes(outdir: str) -> int:
    return sum(os.path.getsize(os.path.join(outdir, n)) for n in os.listdir(outdir))


# --- library workloads ------------------------------------------------------


def _greedy_angle(vp: np.ndarray, vr: np.ndarray) -> float:
    """Largest principal angle over greedily matched eigenvector pairs."""
    scores = np.abs(vp.conj().T @ vr)
    angle = 0.0
    for _ in range(scores.shape[0]):
        i, j = np.unravel_index(np.argmax(scores), scores.shape)
        angle = max(angle, math.acos(min(1.0, float(scores[i, j]))))
        scores[i, :] = -1.0
        scores[:, j] = -1.0
    return angle


def check_frame(params: dict, result: dict) -> list:
    problems: list = []
    t_r = result["t_R"]
    for k, d in enumerate(result["profile"]):
        if d.t >= 5.0 * t_r and not d.subspace_angle < 1e-6:
            problems.append(f"t={d.t!r}: angle {d.subspace_angle:.3e} >= 1e-6 past 5 t_R")
        if d.reliable and d.t >= result["t_D"] and d.bound is not None and d.bound >= 1e-7:
            if d.subspace_angle > d.bound:
                problems.append(f"t={d.t!r}: angle {d.subspace_angle:.3e} above bound {d.bound:.3e}")
        if d.reliable:
            _, vr = np.linalg.eigh(result["rho_r"][k])
            _, vp = np.linalg.eigh(result["rho_p"][k])
            ref = _greedy_angle(vp, vr)
            if abs(ref - d.subspace_angle) > 1e-7 + 1e-14 / d.eigenvalue_gap:
                problems.append(f"t={d.t!r}: angle {d.subspace_angle!r}, numpy eigh gives {ref!r}")
        if len(problems) > 5:
            break
    return problems


def fock_density(params: dict, t: float) -> np.ndarray:
    """rho = |psi><psi| / <psi|psi>, psi = a|0> + b sum c_n e^{-i n z0 t/hbar} |n>."""
    N = params["N"]
    hbar = params["hbar"]
    delta = params["L0"] * math.sqrt(params["m"] * params["omega"] / 2.0) / hbar
    n = np.arange(N + 1)
    log_c = n * math.log(delta) - 0.5 * np.array([math.lgamma(k + 1.0) for k in range(N + 1)])
    c = np.exp(log_c - log_c.max())
    c /= np.linalg.norm(c)
    z0 = complex(params["omega_prime"], -params["gamma0"])
    a = math.sqrt(params["a_abs_sq"])
    b = math.sqrt(1.0 - params["a_abs_sq"]) * complex(math.cos(params["b_phase"]), math.sin(params["b_phase"]))
    psi = b * c * np.exp(-1j * n * z0 * t / hbar)
    psi[0] += a
    return np.outer(psi, psi.conj()) / float(np.vdot(psi, psi).real)


def check_fock(params: dict, result: dict) -> list:
    problems: list = []
    basis = result["basis"]
    for k, t in enumerate(result["grid"]):
        rho = result["rho"][k]
        err = float(np.max(np.abs(rho - fock_density(params, float(t)))))
        if err > 1e-12:
            problems.append(f"t={t!r}: density matrix deviates from the closed form by {err:.3e}")
        lam = basis.eigenvalues[k]
        vecs = basis.eigenvectors[k]
        rec = float(np.max(np.abs((vecs * lam) @ vecs.conj().T - rho)))
        if rec > EIG_TOL:
            problems.append(f"t={t!r}: V diag(lambda) V^H misses rho by {rec:.3e}")
        if lam.min() < -EIG_TOL or lam.max() > 1.0 + EIG_TOL:
            problems.append(f"t={t!r}: eigenvalues outside [-1e-10, 1+1e-10]: [{lam.min()!r}, {lam.max()!r}]")
        if lam.max() < 1.0 - EIG_TOL:
            problems.append(f"t={t!r}: pure state has top eigenvalue {lam.max()!r}, expected 1")
        m = result["min_eigs"][k]
        if m < -EIG_TOL or abs(m - lam.min()) > EIG_TOL:
            problems.append(f"t={t!r}: min_eigenvalue {m!r} disagrees with the spectrum minimum {lam.min()!r}")
    return problems


LIBRARY_CHECKS = {"frame_convergence": check_frame, "fock_eigenbasis": check_fock}
