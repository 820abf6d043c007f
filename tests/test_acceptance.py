"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; the oracles are independent of
the code paths they check (brute-force grids, explicit arithmetic,
batched eigenvalue feasibility).
"""

import math

import numpy as np

from _oracles import grid_oracle, random_symmetric_gram, random_unit_vectors_gram
from usdguard.channel import ChannelModel, EveStrategy, ab_table, aeb_table, max_loss, solve_eve
from usdguard.decoy import delta_squeezed, design_cat, minimize_delta, optimal_alpha
from usdguard.montecarlo import SimConfig, run_experiment, simulate
from usdguard.states import (
    GramData,
    coherent_prep,
    fock_coherent,
    fock_squeezed_vacuum,
    gram_from_preps,
    inner_product,
    squeezed_prep,
)
from usdguard.usd import build_a0, build_geometry, det_a0_closed, f1, optimize_usd


def _report(number: int, name: str):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_overlap_correctness():
    """Analytic overlaps match Fock sums at n_cut=128 to 1e-8."""
    rng = np.random.default_rng(2026)
    for _ in range(20):
        alpha = float(rng.uniform(0.0, 2.0))
        r = float(rng.uniform(0.0, 1.5))
        plus = fock_coherent(alpha, 0.0, 128)
        minus = fock_coherent(alpha, math.pi, 128)
        sq = fock_squeezed_vacuum(r, 128)
        s12 = inner_product(plus, minus)
        assert abs(s12 - math.exp(-2.0 * alpha**2)) < 1e-8
        s13 = inner_product(plus, sq)
        s13_sq_analytic = math.exp(-alpha**2 * (1.0 - math.tanh(r))) / math.cosh(r)
        assert abs(abs(s13) ** 2 - s13_sq_analytic) < 1e-8
    _report(1, "overlap correctness")


def test_criterion_2_reciprocal_basis():
    """max |<v_i|u_j> - delta_ij| < 1e-9 over 100 random non-degenerate triples."""
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(100):
        geom = build_geometry(random_unit_vectors_gram(rng, m_min=0.05))
        us = (geom.u1, geom.u2, geom.u3)
        vs = (geom.v1, geom.v2, geom.v3)
        for i in range(3):
            for j in range(3):
                target = 1.0 if i == j else 0.0
                worst = max(worst, abs(np.vdot(vs[i], us[j]) - target))
    assert worst < 1e-9
    _report(2, f"reciprocal basis, worst |<v|u> - delta| = {worst:.2e}")


def test_criterion_3_determinant_identity():
    """Closed-form det matches numeric det to 1e-10 on 1000 instances;
    det vanishes along the P_D = f1(P_S) curve to 1e-10."""
    rng = np.random.default_rng(2028)
    worst = 0.0
    for _ in range(1000):
        g = random_symmetric_gram(rng)
        p_s, p_d = (float(x) for x in rng.uniform(0.0, 1.0, 2))
        numeric = float(np.linalg.det(build_a0(build_geometry(g), p_s, p_d)).real)
        worst = max(worst, abs(det_a0_closed(g, p_s, p_d) - numeric))
    assert worst < 1e-10
    worst_curve = 0.0
    for _ in range(100):
        g = random_symmetric_gram(rng)
        for p in np.linspace(0.0, 1.0, 11):
            worst_curve = max(worst_curve, abs(det_a0_closed(g, float(p), f1(g, float(p)))))
    assert worst_curve < 1e-10
    _report(3, f"determinant identity, worst diff = {worst:.2e}, on-curve = {worst_curve:.2e}")


def test_criterion_4_cat_kill_switch():
    """Cat decoys: M < 1e-8, Delta = 0 to 1e-10, solution (0, 0, 1)."""
    for alpha in np.arange(0.1, 2.01, 0.1):
        design = design_cat(float(alpha))
        assert design.m_value < 1e-8, alpha
        assert abs(design.delta) < 1e-10, alpha
        sol = optimize_usd(design.gram, nu=0.01)
        assert (sol.p_s, sol.p_d, sol.p0) == (0.0, 0.0, 1.0)
        assert sol.degenerate
    _report(4, "cat-state kill switch across alpha = 0.1..2.0")


def test_criterion_5_optimizer_vs_brute_force():
    """Optimizer objective within 1e-3 of a 1e-3-step PSD grid search."""
    rng = np.random.default_rng(2029)
    instances = [(GramData(math.exp(-0.5), 0.0, 0.0), 0.1)]  # orthogonal-decoy limit
    alpha = optimal_alpha(0.5)
    instances.append(
        (
            gram_from_preps(
                coherent_prep(alpha, 0.0), coherent_prep(alpha, math.pi), squeezed_prep(0.5)
            ),
            0.1,
        )
    )
    while len(instances) < 10:
        instances.append((random_symmetric_gram(rng), float(rng.uniform(0.01, 0.4))))
    worst = math.inf
    for g, nu in instances:
        sol = optimize_usd(g, nu)
        obj = (1.0 - nu) * sol.p_s + nu * sol.p_d
        oracle_obj, _ = grid_oracle(g, nu, step=1e-3)
        assert obj >= oracle_obj - 1e-3
        assert sol.min_eig_a0 >= -1e-10
        worst = min(worst, obj - oracle_obj)
    sol = optimize_usd(instances[0][0], 0.1)
    assert abs(sol.p_s - (1.0 - math.exp(-0.5))) < 1e-6  # oracle optimum 1 - S12
    _report(5, f"optimizer vs brute force on 10 instances, min margin = {worst:+.2e}")


def test_criterion_6_stationarity_and_r_minimization():
    """Finite-difference d(Delta)/d(alpha) < 1e-6 at the matched amplitude;
    minimize_delta agrees with a 1e-3 r-grid to 1e-6 in Delta."""
    step = 1e-5
    for r in np.arange(0.1, 2.01, 0.1):
        a = optimal_alpha(float(r))
        slope = (delta_squeezed(a + step, float(r)) - delta_squeezed(a - step, float(r))) / (
            2.0 * step
        )
        assert abs(slope) < 1e-6, r
    grid = np.arange(0.0, 5.0001, 1e-3)
    for alpha in (0.4, optimal_alpha(0.5), 1.0, 1.6):
        _, delta = minimize_delta(float(alpha))
        grid_min = min(delta_squeezed(float(alpha), float(x)) for x in grid)
        assert delta <= grid_min + 1e-12
        assert abs(delta - grid_min) < 1e-6
    _report(6, "matched-amplitude stationarity and r-grid agreement")


def test_criterion_7_channel_algebra():
    """Stochastic rows, P_e linearity, exact masking, P_D < D infeasibility."""
    rng = np.random.default_rng(2030)
    for _ in range(200):
        g = float(rng.uniform(0.0, 0.95))
        e = float(rng.uniform(0.0, 1.0 - g))
        d0 = float(rng.uniform(0.001, 0.5))
        d1 = float(rng.uniform(0.001, 1.0 - d0))
        m = ChannelModel(g=g, e=e, d0=d0, d1=d1)
        g_e = float(rng.uniform(0.0, 0.9))
        eve = EveStrategy(
            p_e=float(rng.uniform(0.0, 1.0)),
            p_s=float(rng.uniform(0.0, 1.0)),
            p_d=float(rng.uniform(0.0, 1.0)),
            g_e=g_e,
            e_e=float(rng.uniform(0.0, 1.0 - g_e)),
            d0_e=float(rng.uniform(0.0, 0.5)),
            d1_e=float(rng.uniform(0.0, 0.5)),
        )
        honest = ab_table(m).matrix
        attacked = aeb_table(m, eve).matrix
        assert np.abs(honest.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(attacked.sum(axis=1) - 1.0).max() < 1e-12
        # linearity in p_e
        eve1 = EveStrategy(
            p_e=1.0, p_s=eve.p_s, p_d=eve.p_d, g_e=eve.g_e, e_e=eve.e_e,
            d0_e=eve.d0_e, d1_e=eve.d1_e,
        )
        blend = (1.0 - eve.p_e) * honest + eve.p_e * aeb_table(m, eve1).matrix
        assert np.abs(attacked - blend).max() < 1e-12
        # feasible solutions mask exactly; p_d < d never feasible
        p_s = float(rng.uniform(1.0 - m.g, 1.0))
        result = solve_eve(m, p_s, float(rng.uniform(m.d, 1.0)))
        if result.feasible:
            masked = aeb_table(m, result.strategy).matrix
            assert np.abs(masked - honest).max() < 1e-12
        below = solve_eve(m, p_s, float(rng.uniform(0.0, m.d * 0.999)))
        assert not below.feasible
    _report(7, "channel algebra: stochasticity, linearity, masking, detection bound")


def test_criterion_8_end_to_end_detection():
    """1e6-pulse sessions: cat-decoy attack flagged at z=5, honest run clean,
    both bit-reproducible from the seed."""
    honest_model = ChannelModel(g=0.9, e=0.01, d0=0.01, d1=0.01)
    solved = solve_eve(honest_model, p_s=0.3935, p_d=1.0).strategy
    attack = EveStrategy(
        p_e=1.0, p_s=solved.p_s, p_d=0.0, g_e=solved.g_e, e_e=solved.e_e,
        d0_e=0.0, d1_e=0.0,
    )
    honest_cfg = SimConfig(n_pulses=10**6, nu=0.01, channel=honest_model, seed=20260809)
    attack_cfg = SimConfig(
        n_pulses=10**6, nu=0.01, channel=honest_model, eve=attack, seed=20260809
    )
    verdict_a, stats_a = run_experiment(attack_cfg, z=5.0)
    assert verdict_a.bounds_separated and verdict_a.attack_detected
    verdict_h, stats_h = run_experiment(honest_cfg, z=5.0, d_tilde=0.0)
    assert not verdict_h.attack_detected
    assert stats_h.n_decoys_detected > verdict_h.lower_attack_bound
    # bit-reproducibility
    assert np.array_equal(stats_a.counts, simulate(attack_cfg).counts)
    assert np.array_equal(stats_h.counts, simulate(honest_cfg).counts)
    _report(8, f"end-to-end detection (honest n_d = {stats_h.n_decoys_detected}, attacked n_d = {stats_a.n_decoys_detected})")


def test_criterion_9_max_loss():
    """Loss budget value to 1e-6 and the exact infeasibility boundary."""
    value = max_loss(0.5, 0.5, 0.2, 0.01)
    assert abs(value - (-10.0 * math.log10(0.04))) < 1e-6
    assert max_loss(0.5, 0.5, 0.2, 0.05) is None  # mu eta_b eta_d == p_d
    assert max_loss(0.5, 0.5, 0.2, 0.05 - 1e-9) is not None
    rng = np.random.default_rng(2031)
    for _ in range(200):
        mu = float(rng.uniform(0.01, 2.0))
        eta_b = float(rng.uniform(0.0, 1.0))
        eta_d = float(rng.uniform(0.0, 1.0))
        p_d = float(rng.uniform(0.0, 1.0))
        feasible = max_loss(mu, eta_b, eta_d, p_d) is not None
        assert feasible == (mu * eta_b * eta_d > p_d)
    _report(9, f"loss budget = {value:.6f} dB with exact infeasibility boundary")
