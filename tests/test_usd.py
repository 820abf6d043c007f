"""Geometry, determinant and optimizer tests."""

import cmath
import math
import random

import numpy as np
import pytest

from _oracles import (
    explicit_a0_entries,
    grid_oracle,
    grid_oracle_full,
    random_symmetric_gram,
    random_unit_vectors_gram,
    sampled_golden_max_full,
)
from usdguard import golden, usd
from usdguard.decoy import optimal_alpha
from usdguard.states import (
    GramData,
    cat_prep,
    coherent_prep,
    gram_from_preps,
    orthogonal_decoy_prep,
    signal_preps,
    squeezed_prep,
)
from usdguard.tolerances import GRAM_DET_FLOOR, NUM_TOL
from usdguard.usd import (
    a0_spectrum,
    build_a0,
    build_geometry,
    det_a0_closed,
    f1,
    gram_delta,
    optimize_usd,
)

EXP_M05 = 0.6065306597126334
F1_EXAMPLE = 0.11434898671989217  # f1 at p_s = 0.5 for s12 = exp(-0.5), s13 = 0.7
F1_DELTA = 0.6265306597126334  # 1 + exp(-0.5) - 2 * 0.49
TWO_STATE_BOUND = 0.3934693402873666  # 1 - exp(-0.5)


def cat_gram(alpha: float) -> GramData:
    return gram_from_preps(
        coherent_prep(alpha, 0.0), coherent_prep(alpha, math.pi), cat_prep(alpha, 0.0)
    )


def test_geometry_orthogonal_triple():
    geom = build_geometry(GramData(0.0, 0.0, 0.0))
    eye = np.eye(3)
    for i, (u, v) in enumerate(zip((geom.u1, geom.u2, geom.u3), (geom.v1, geom.v2, geom.v3))):
        assert np.allclose(u, eye[i]) and np.allclose(v, eye[i])
    assert geom.l == 1.0 and geom.m == 1.0 and not geom.degenerate


def test_geometry_cat_is_degenerate():
    geom = build_geometry(cat_gram(0.5))
    assert geom.degenerate
    assert geom.m < 1e-8
    assert geom.v1 is None and geom.v2 is None and geom.v3 is None


def test_geometry_minor_floor_decides_coincident_signals():
    # L^2 = 1 - |S12|^2 below GRAM_DET_FLOOR (1e-13) is zero, like M^2
    geom = build_geometry(GramData(1.0 - 2e-14, 0.0, 0.0))
    assert geom.degenerate and geom.l == 0.0 and geom.u3 is None
    geom = build_geometry(GramData(1.0 - 2e-13, 0.0, 0.0))
    assert not geom.degenerate and geom.l > 0.0 and geom.m > 0.0


def test_geometry_reproduces_overlaps():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_unit_vectors_gram(rng)
        geom = build_geometry(g)
        us = (geom.u1, geom.u2, geom.u3)
        gram = g.matrix()
        for i in range(3):
            for j in range(3):
                assert abs(np.vdot(us[i], us[j]) - gram[i, j]) < 1e-10


def test_reciprocal_basis_property():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        g = random_unit_vectors_gram(rng)
        geom = build_geometry(g)
        us = (geom.u1, geom.u2, geom.u3)
        vs = (geom.v1, geom.v2, geom.v3)
        for i in range(3):
            for j in range(3):
                err = abs(np.vdot(vs[i], us[j]) - (1.0 if i == j else 0.0))
                worst = max(worst, err)
    assert worst < 1e-9


def test_geometry_rejects_non_psd():
    with pytest.raises(ValueError):
        build_geometry(GramData(0.9, 0.9, -0.9))


def test_a0_identity_at_zero_probs():
    geom = build_geometry(GramData(EXP_M05, 0.3, 0.3))
    assert np.allclose(build_a0(geom, 0.0, 0.0), np.eye(3))


def test_a0_orthogonal_decoy_diagonal():
    geom = build_geometry(GramData(EXP_M05, 0.0, 0.0))
    a0 = build_a0(geom, 0.3, 0.0)
    assert abs(a0[0, 0] - 0.7) < 1e-12


def test_a0_matches_explicit_entries():
    rng = np.random.default_rng(23)
    for _ in range(50):
        g = random_unit_vectors_gram(rng)
        p_s, p_d = rng.uniform(0.0, 1.0, 2)
        a0 = build_a0(build_geometry(g), float(p_s), float(p_d))
        expected = explicit_a0_entries(g, float(p_s), float(p_d))
        assert np.abs(a0 - expected).max() < 1e-10
        assert np.abs(a0 - a0.conj().T).max() < 1e-12  # Hermitian


def test_a0_rejects_degenerate_and_out_of_range():
    geom = build_geometry(cat_gram(0.5))
    with pytest.raises(ValueError):
        build_a0(geom, 0.1, 0.1)
    good = build_geometry(GramData(0.5, 0.2, 0.2))
    with pytest.raises(ValueError):
        build_a0(good, -0.2, 0.5)
    with pytest.raises(ValueError):
        build_a0(good, 0.5, 1.2)


def test_det_closed_identity_at_zero():
    g = GramData(0.4, 0.3, 0.3)
    assert abs(det_a0_closed(g, 0.0, 0.0) - 1.0) < 1e-12


def test_det_closed_matches_numeric():
    rng = np.random.default_rng(31)
    for _ in range(300):
        g = random_symmetric_gram(rng)
        p_s, p_d = (float(x) for x in rng.uniform(0.0, 1.0, 2))
        numeric = float(np.linalg.det(build_a0(build_geometry(g), p_s, p_d)).real)
        assert abs(det_a0_closed(g, p_s, p_d) - numeric) < 1e-10


def test_det_closed_example_instance():
    g = GramData(EXP_M05, 0.7, 0.7)
    numeric = float(np.linalg.det(build_a0(build_geometry(g), 0.2, 0.3)).real)
    assert abs(det_a0_closed(g, 0.2, 0.3) - numeric) < 1e-12


def test_det_closed_rejects_asymmetric():
    with pytest.raises(ValueError):
        det_a0_closed(GramData(0.5, 0.2, 0.4), 0.1, 0.1)
    with pytest.raises(ValueError):
        det_a0_closed(cat_gram(0.5), 0.1, 0.1)  # degenerate


def test_f1_zero_at_delta():
    g = GramData(0.4, 0.5, 0.5)
    delta = gram_delta(g)
    assert abs(f1(g, delta)) < 1e-12


def test_f1_cat_decoy_origin():
    g = cat_gram(0.8)
    assert abs(gram_delta(g)) < 1e-10
    assert abs(f1(g, 0.0)) < 1e-9


def test_f1_example_value():
    g = GramData(EXP_M05, 0.7, 0.7)
    assert abs(gram_delta(g) - F1_DELTA) < 1e-12
    value = f1(g, 0.5)
    assert abs(value - F1_EXAMPLE) < 1e-12
    assert abs(det_a0_closed(g, 0.5, value)) < 1e-10


def test_f1_curve_zeroes_determinant():
    rng = np.random.default_rng(37)
    for _ in range(50):
        g = random_symmetric_gram(rng)
        for p in np.linspace(0.0, 1.0, 21):
            assert abs(det_a0_closed(g, float(p), f1(g, float(p)))) < 1e-10


def _assert_spectrum_matches_numpy(g: GramData, points, det_verdict: bool = True) -> int:
    """a0_spectrum against eigvalsh and det of build_a0; returns the points checked."""
    geom = build_geometry(g)
    spectrum = a0_spectrum(geom, g.s12.real)
    for p_s, p_d in points:
        a0 = build_a0(geom, p_s, p_d)
        eigs = np.linalg.eigvalsh(a0)
        min_eig, det = spectrum(p_s, p_d)
        assert abs(min_eig - eigs[0]) <= 1e-12 * max(1.0, float(np.abs(eigs).max())), (g, p_s, p_d)
        if det_verdict:  # optimize_usd's on_det_zero
            assert (abs(det) <= 1e-8) == (abs(np.linalg.det(a0).real) <= 1e-8), (g, p_s, p_d, det)
    return len(points)


def _spectrum_probes(g: GramData, rng) -> list[tuple[float, float]]:
    """Random points, the odd edge P_S = 1 - S12, the P_S = 0 and P_D = 1
    edges and the det curve P_D = f1(P_S) on the part inside the box."""
    s12 = g.s12.real
    u = [float(x) for x in rng.uniform(0.0, 1.0, 12)]
    points = [(u[0], u[1]), (u[2], u[3]), (u[4], u[5])]
    points += [(min(1.0, 1.0 - s12), u[6]), (0.0, u[7]), (u[8], 1.0)]
    for p_s in (0.0, u[9] * gram_delta(g), u[10] * gram_delta(g), gram_delta(g), u[11]):
        p_s = min(p_s, 1.0)
        if 1.0 + s12 - p_s > 1e-9:  # f1's pole, reached only as S12 -> 0
            points.append((p_s, min(1.0, max(0.0, f1(g, p_s)))))
    return points


def test_a0_spectrum_matches_eigvalsh():
    # the two-block spectrum the optimizer uses, over the decoys it sees
    rng = np.random.default_rng(53)
    checked = 0
    for i in range(400):
        alpha = float(np.exp(rng.uniform(math.log(0.05), math.log(10.0))))
        decoy = squeezed_prep(float(rng.uniform(0.01, 2.5))) if i % 2 else orthogonal_decoy_prep(alpha)
        g = gram_from_preps(coherent_prep(alpha), coherent_prep(alpha, math.pi), decoy)
        if not build_geometry(g).degenerate:
            checked += _assert_spectrum_matches_numpy(g, _spectrum_probes(g, rng))
    assert checked > 3000


def test_a0_spectrum_near_gram_floor():
    # M^2 a few times GRAM_DET_FLOOR, so ||A0|| ~ 1/M^2 ~ 1e13: the smallest
    # eigenvalue (the feasibility test) still agrees to 1e-12 ||A0||, but a
    # determinant within 1e-8 of zero is below either solver's rounding
    rng = np.random.default_rng(59)
    for s12 in (0.02, 0.3, 0.6065, 0.95):
        for factor in (2.0, 5.0, 30.0):
            t = math.sqrt(0.5 * (1.0 + s12 - factor * GRAM_DET_FLOOR / (1.0 - s12)))
            t *= cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))
            g = GramData(s12, t, t)
            geom = build_geometry(g)
            assert not geom.degenerate and geom.m ** 2 < 40.0 * GRAM_DET_FLOOR
            _assert_spectrum_matches_numpy(g, _spectrum_probes(g, rng), det_verdict=False)


def test_optimize_cat_decoy_disables_attack():
    for alpha in (0.1, 1.0, 2.0):
        sol = optimize_usd(cat_gram(alpha), 0.01)
        assert sol.degenerate
        assert (sol.p_s, sol.p_d, sol.p0) == (0.0, 0.0, 1.0)


@pytest.mark.parametrize("s12", [EXP_M05, 0.3, 0.0, -0.3, -0.9], ids=["exp(-0.5)", "0.3", "0", "-0.3", "-0.9"])
def test_optimize_orthogonal_decoy_hits_two_state_bound(s12):
    sol = optimize_usd(GramData(s12, 0.0, 0.0), 0.1)
    assert sol.p_s == 1.0 - abs(s12) and sol.p_d == 1.0
    assert not sol.degenerate and sol.on_det_zero
    assert sol.min_eig_a0 >= -NUM_TOL
    assert abs(sol.p0 - (1.0 - 0.9 * sol.p_s - 0.1 * sol.p_d)) < 1e-12


def test_optimize_orthogonal_decoy_prep_matches_grid_oracle():
    # a decoy orthogonal to both signals at random alpha and nu: the exact
    # optimum is feasible and no feasible point of a 0.01 grid beats it
    rng = np.random.default_rng(61)
    for _ in range(12):
        alpha = float(rng.uniform(0.05, 10.0))
        nu = float(rng.uniform(1e-3, 0.99))
        g = gram_from_preps(*signal_preps(alpha), orthogonal_decoy_prep(alpha))
        assert g.s13 == 0.0 and g.s23 == 0.0
        sol = optimize_usd(g, nu)
        assert sol.p_s == 1.0 - abs(g.s12) and sol.p_d == 1.0
        assert sol.min_eig_a0 >= -NUM_TOL
        obj = (1.0 - nu) * sol.p_s + nu * sol.p_d
        oracle_obj, _ = grid_oracle(g, nu, step=0.01)
        assert oracle_obj - 1e-9 <= obj <= oracle_obj + 0.01


def test_optimize_decoupled_decoy_makes_no_search_probe(monkeypatch):
    def probe(*args):
        raise AssertionError("search probe")

    monkeypatch.setattr(usd, "sampled_golden_max", probe)
    monkeypatch.setattr(usd, "bisect_last_true", probe)
    sol = optimize_usd(GramData(EXP_M05, 0.0, 0.0), 0.1)
    assert (sol.p_s, sol.p_d) == (TWO_STATE_BOUND, 1.0)
    with pytest.raises(AssertionError, match="search probe"):
        optimize_usd(GramData(EXP_M05, 0.3, 0.3), 0.1)


def test_optimize_squeezed_matches_grid_oracle():
    alpha = optimal_alpha(0.5)
    g = gram_from_preps(
        coherent_prep(alpha, 0.0), coherent_prep(alpha, math.pi), squeezed_prep(0.5)
    )
    sol = optimize_usd(g, 0.1)
    oracle_obj, _ = grid_oracle(g, 0.1)
    assert 0.9 * sol.p_s + 0.1 * sol.p_d >= oracle_obj - 1e-3


def test_optimizer_dominates_grid_oracle_random():
    rng = np.random.default_rng(41)
    for _ in range(3):
        g = random_symmetric_gram(rng)
        nu = float(rng.uniform(0.01, 0.4))
        sol = optimize_usd(g, nu)
        obj = (1.0 - nu) * sol.p_s + nu * sol.p_d
        oracle_obj, _ = grid_oracle(g, nu)
        assert obj >= oracle_obj - 1e-3
        assert sol.min_eig_a0 >= -1e-10


def test_bisected_grid_oracle_matches_the_full_grid():
    rng = np.random.default_rng(11)
    for gen in (random_symmetric_gram, random_unit_vectors_gram):
        for _ in range(3):
            g, nu = gen(rng), float(rng.uniform(0.01, 0.5))
            assert grid_oracle(g, nu, step=4e-3) == grid_oracle_full(g, nu, step=4e-3)


def _random_squeezed_case(rng: random.Random, near_decoupled: bool) -> tuple[GramData, float]:
    """A squeezed-decoy Gram matrix and nu; near-decoupled ones have |S13| in [1e-10, 1e-8]."""
    while True:
        alpha = rng.uniform(5.7, 7.5) if near_decoupled else math.exp(rng.uniform(math.log(0.05), math.log(8.0)))
        phi = rng.choice([0.0, rng.uniform(-math.pi, math.pi), 1e17])
        g = gram_from_preps(*signal_preps(alpha, phi), squeezed_prep(rng.uniform(0.01, 2.5)))
        if not near_decoupled or 1e-10 <= abs(g.s13) <= 1e-8:
            return g, math.exp(rng.uniform(math.log(1e-3), math.log(0.99)))


def test_optimize_matches_a_full_grid_scan_bit_for_bit(monkeypatch):
    # the curve objective is feasible on a prefix of P_S, so stopping the
    # bracketing grid at its first infeasible sample changes no digit
    rng = random.Random(23)
    cases = [_random_squeezed_case(rng, k % 5 == 0) for k in range(500)]
    fast = [repr(optimize_usd(g, nu)) for g, nu in cases]
    monkeypatch.setattr(usd, "sampled_golden_max", sampled_golden_max_full)
    assert [repr(optimize_usd(g, nu)) for g, nu in cases] == fast


def test_optimize_grid_stops_at_the_feasibility_cliff(monkeypatch):
    # the curve's feasible stretch ends at P_S ~ 0.19 here
    g = gram_from_preps(*signal_preps(1.0), squeezed_prep(0.3))
    search, calls = usd.sampled_golden_max, []

    def counting_search(f, *args):
        def counted(x):
            calls.append(x)
            return f(x)

        return search(counted, *args)

    refine, grid_calls = golden.golden_max, []
    monkeypatch.setattr(usd, "sampled_golden_max", counting_search)
    monkeypatch.setattr(golden, "golden_max", lambda *args: grid_calls.append(len(calls)) or refine(*args))
    sol = optimize_usd(g, 0.1)
    assert 0.15 < sol.p_s < 0.25
    assert grid_calls and grid_calls[0] <= 0.25 * 1025 + 2


def test_optimal_ps_non_increasing_in_s12():
    # Holds where the two-state bound p_s <= 1 - s12 binds.  At very low
    # signal overlap the decoy constraint binds instead and relaxes as
    # s12 grows (brute-force grid confirms optimal p_s rising from 0.870
    # at s12 = 0.05 to 0.8727 at s12 = 0.127 for s13 = 0.3, nu = 0.1),
    # so the sweep starts past that corner.
    s13 = 0.3
    nu = 0.1
    prev = math.inf
    for s12 in np.linspace(0.2, 0.9, 12):
        sol = optimize_usd(GramData(float(s12), s13, s13), nu)
        assert sol.p_s <= prev + 1e-9
        assert sol.p_s <= 1.0 - float(s12) + 1e-9
        prev = sol.p_s


def test_optimize_rejects_bad_nu_and_asymmetric():
    g = GramData(0.5, 0.2, 0.2)
    with pytest.raises(ValueError):
        optimize_usd(g, 0.0)
    with pytest.raises(ValueError):
        optimize_usd(GramData(0.5, 0.2, 0.5), 0.1)


def test_solution_p0_identity():
    rng = np.random.default_rng(43)
    for _ in range(5):
        g = random_symmetric_gram(rng)
        nu = float(rng.uniform(0.01, 0.3))
        sol = optimize_usd(g, nu)
        assert abs(sol.p0 - (1.0 - (1.0 - nu) * sol.p_s - nu * sol.p_d)) < 1e-12
