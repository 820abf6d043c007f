"""Independent checks of each workload's outputs.

None of these reuse a usdguard solution path.  Discrimination feasibility
is tested as S - diag(P_S, P_S, P_D) >= 0 on the Gram matrix S (the
reciprocal-basis operator A0 = I - L^-1 Gamma L^-H is PSD exactly when
that holds, with S = L L^H), channel tables are written out by hand, and
CLI exit codes are derived from the inputs.  Each check returns a list of
problems; an empty list means the operation passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from bench.inputs import CHANNEL

NUM_TOL = 1e-10
GRID_STEP = 1e-2
TABLE_TOL = 1e-12
DELTA_TOL = 1e-8
R_STAR_TOL = 1e-6
SIGMAS = 6.0


def honest_table(g: float, e: float, d0: float, d1: float) -> np.ndarray:
    c = 1.0 - g - e
    return np.array([[c, e, g], [e, c, g], [d0, d1, 1.0 - d0 - d1]])


def attacked_table(channel: dict, eve: dict) -> np.ndarray:
    """Rows 0/1/decoy when a fraction p_e is discriminated, blocked when inconclusive, and resent."""
    honest = honest_table(**channel)
    pe, ps, pd = eve["p_e"], eve["p_s"], eve["p_d"]
    g_e, e_e, d0_e, d1_e = eve["g_e"], eve["e_e"], eve["d0_e"], eve["d1_e"]
    c_e = 1.0 - g_e - e_e
    resent = np.array(
        [
            [ps * c_e, ps * e_e, ps * g_e + 1.0 - ps],
            [ps * e_e, ps * c_e, ps * g_e + 1.0 - ps],
            [pd * d0_e, pd * d1_e, pd * (1.0 - d0_e - d1_e) + 1.0 - pd],
        ]
    )
    return (1.0 - pe) * honest + pe * resent


def psd_grid_best(s: np.ndarray, nu: float, step: float = GRID_STEP) -> float:
    """Best (1-nu) P_S + nu P_D over grid points with S - diag(P_S, P_S, P_D) PSD."""
    n = round(1.0 / step)
    p = np.linspace(0.0, 1.0, n + 1)
    p_s, p_d = (a.ravel() for a in np.meshgrid(p, p, indexing="ij"))
    if np.max(np.abs(s.imag)) < 1e-12:  # phase-aligned states: imaginary parts are rounding noise
        s = s.real
    stack = np.repeat(s[None, :, :], p_s.size, axis=0)
    stack[:, 0, 0] -= p_s
    stack[:, 1, 1] -= p_s
    stack[:, 2, 2] -= p_d
    feasible = np.linalg.eigvalsh(stack)[:, 0] >= 0.0
    if not feasible.any():
        return -math.inf
    return float(np.max(((1.0 - nu) * p_s + nu * p_d)[feasible]))


def a0_min_eig(s: np.ndarray, p_s: float, p_d: float) -> float:
    """Smallest eigenvalue of I - L^-1 diag(P_S, P_S, P_D) L^-H with S = L L^H."""
    l_inv = np.linalg.inv(np.linalg.cholesky(s))
    a0 = np.eye(3) - l_inv @ np.diag([p_s, p_s, p_d]) @ l_inv.conj().T
    return float(np.linalg.eigvalsh(a0)[0])


def attack_map(case: dict, out) -> list[str]:
    gram, sol, eve, masked = out
    s = gram.matrix()
    nu = case["nu"]
    problems = []
    if case["kind"] == "cat" and not (sol.degenerate and sol.p_s == 0.0 and sol.p_d == 0.0):
        problems.append(f"cat decoy not degenerate: p_s={sol.p_s!r}, p_d={sol.p_d!r}")
    objective = (1.0 - nu) * sol.p_s + nu * sol.p_d
    grid = psd_grid_best(s, nu)
    if objective < grid - 1e-9:
        problems.append(f"objective below the PSD-grid best: {objective!r} < {grid!r}")
    if not sol.degenerate:
        try:
            lam = a0_min_eig(s, sol.p_s, sol.p_d)
        except np.linalg.LinAlgError:
            lam = -math.inf
        if lam < -NUM_TOL:
            problems.append(f"A0 not PSD: min eig {lam!r} < -{NUM_TOL}")
    if eve.feasible:
        diff = float(np.max(np.abs(masked.matrix - honest_table(**CHANNEL))))
        if not diff <= TABLE_TOL:
            problems.append(f"masked table differs from the honest one: {diff!r}")
    return problems


def delta_closed(alpha: float, r: float) -> float:
    """Delta = 1 + e^{-2 a^2} - (2 / cosh r) e^{-a^2 (1 - tanh r)} for a squeezed-vacuum decoy."""
    return 1.0 + math.exp(-2.0 * alpha**2) - 2.0 / math.cosh(r) * math.exp(-(alpha**2) * (1.0 - math.tanh(r)))


def decoy_screen(case: dict, out) -> list[str]:
    cat, r_star, squeezed = out
    alpha = case["alpha"]
    problems = []
    if not cat.usd_disabled:
        problems.append(f"design_cat does not disable USD: alpha={alpha!r}, m={cat.m_value!r}")
    closed = delta_closed(alpha, r_star)
    if not abs(squeezed.delta - closed) <= DELTA_TOL:
        problems.append(f"Gram delta differs from the closed form: {squeezed.delta!r} vs {closed!r}")
    r_exact = 0.5 * math.asinh(2.0 * alpha**2)
    if not abs(r_star - r_exact) <= R_STAR_TOL:
        problems.append(f"r* differs from asinh(2 alpha^2)/2: {r_star!r} vs {r_exact!r}")
    return problems


def session(case: dict, config: dict, out) -> list[str]:
    """Counts against the scenario's table; the threshold verdict against its bounds."""
    verdict, counts = out
    counts = np.asarray(counts)
    n = case["n_pulses"]
    nu = config["nu"]
    eve = config["eve"]
    # a masked interceptor restores every honest rate, so its table is the honest one
    if eve is None or eve.get("solve"):
        table = honest_table(**config["channel"])
    else:
        table = attacked_table(config["channel"], eve)
    problems = []
    if int(counts.sum()) != n:
        problems.append(f"counts do not sum to n: {int(counts.sum())} vs {n}")
    inputs = np.array([(1.0 - nu) / 2.0, (1.0 - nu) / 2.0, nu])
    rows = counts.sum(axis=1)
    for i in range(3):
        expected = n * inputs[i]
        if abs(rows[i] - expected) > SIGMAS * math.sqrt(expected * (1.0 - inputs[i])):
            problems.append(f"input count beyond 6 sigma: row {i}, {rows[i]} vs {expected:.1f}")
        for j in range(3):
            p = table[i, j]
            mean = rows[i] * p
            if abs(counts[i, j] - mean) > SIGMAS * math.sqrt(rows[i] * p * (1.0 - p)) + 1e-9:
                problems.append(f"count beyond 6 sigma of its table row: [{i}][{j}] {counts[i, j]} vs {mean:.1f}")
    if case["scenario"] == "cat_attack":
        n_d = int(rows[2])
        d = config["channel"]["d0"] + config["channel"]["d1"]
        d_tilde = (1.0 - eve["p_e"]) * d + eve["p_e"] * eve["p_d"] * (eve["d0_e"] + eve["d1_e"])
        z = case["z"]
        lower = n_d * d_tilde + z * math.sqrt(n_d * d_tilde * (1.0 - d_tilde))
        upper = n_d * d - z * math.sqrt(n_d * d * (1.0 - d))
        if lower < upper and not verdict.attack_detected:
            problems.append("cat attack not flagged although the bounds separate")
    elif verdict.attack_detected:
        problems.append(f"session without a visible attack flagged: {case['scenario']}")
    return problems


def cli(case: dict, rc: int, stdout: str, stderr: str, validator) -> list[str]:
    problems = []
    if rc != case["expect"]:
        problems.append(f"unexpected exit code: {rc}, expected {case['expect']}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    if rc in (0, 3):
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            problems.append(f"stdout is not JSON: {exc}")
        else:
            errors = [e.message for e in validator.iter_errors(report)]
            if errors:
                problems.append("report fails the schema: " + errors[0])
    return problems
