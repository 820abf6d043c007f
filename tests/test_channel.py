"""Channel-table algebra, interception constraints, threshold and loss budget."""

import math

import numpy as np
import pytest

from usdguard.channel import (
    ChannelModel,
    EveStrategy,
    ab_table,
    aeb_table,
    max_loss,
    solve_eve,
    threshold_test,
)

G_E_ORACLE = 0.7458703939008895  # 1 - 0.1/0.3935
E_E_ORACLE = 0.012706480304955527  # 0.005/0.3935
LOWER_BOUND_ORACLE = 10497.49371855331  # 1e4 + 5 sqrt(1e6 * 0.01 * 0.99)
UPPER_BOUND_ORACLE = 19300.0  # 2e4 - 5 sqrt(1e6 * 0.02 * 0.98)
MAX_LOSS_ORACLE = 13.979400086720375  # -10 log10(0.04)


def random_channel(rng) -> ChannelModel:
    g = float(rng.uniform(0.0, 0.95))
    e = float(rng.uniform(0.0, 1.0 - g))
    d0 = float(rng.uniform(0.001, 0.5))
    d1 = float(rng.uniform(0.001, 1.0 - d0))
    return ChannelModel(g=g, e=e, d0=d0, d1=d1)


def random_eve(rng) -> EveStrategy:
    g_e = float(rng.uniform(0.0, 0.9))
    e_e = float(rng.uniform(0.0, 1.0 - g_e))
    d0_e = float(rng.uniform(0.0, 0.5))
    return EveStrategy(
        p_e=float(rng.uniform(0.0, 1.0)),
        p_s=float(rng.uniform(0.0, 1.0)),
        p_d=float(rng.uniform(0.0, 1.0)),
        g_e=g_e,
        e_e=e_e,
        d0_e=d0_e,
        d1_e=float(rng.uniform(0.0, 1.0 - d0_e)),
    )


def test_ab_table_fully_lossy():
    table = ab_table(ChannelModel(g=1.0, e=0.0, d0=0.0, d1=0.0))
    assert np.allclose(table.matrix[:, 2], 1.0)
    assert np.allclose(table.matrix[:, :2], 0.0)


def test_ab_table_rows():
    table = ab_table(ChannelModel(g=0.9, e=0.01, d0=0.02, d1=0.02))
    assert np.allclose(table.matrix[0], [0.09, 0.01, 0.90])
    assert np.allclose(table.matrix[2], [0.02, 0.02, 0.96])


def test_channel_model_invariants():
    with pytest.raises(ValueError):
        ChannelModel(g=0.9, e=0.2, d0=0.0, d1=0.0)
    with pytest.raises(ValueError):
        ChannelModel(g=0.5, e=0.1, d0=0.7, d1=0.5)
    with pytest.raises(ValueError):
        ChannelModel(g=-0.1, e=0.1, d0=0.0, d1=0.0)


def test_aeb_reduces_to_ab_at_zero_interception():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = random_channel(rng)
        eve = random_eve(rng)
        eve_off = EveStrategy(
            p_e=0.0, p_s=eve.p_s, p_d=eve.p_d, g_e=eve.g_e, e_e=eve.e_e,
            d0_e=eve.d0_e, d1_e=eve.d1_e,
        )
        assert np.abs(aeb_table(m, eve_off).matrix - ab_table(m).matrix).max() == 0.0


def test_aeb_perfect_usd_lossless_resend():
    m = ChannelModel(g=0.9, e=0.01, d0=0.01, d1=0.01)
    eve = EveStrategy(p_e=1.0, p_s=1.0, p_d=1.0, g_e=0.0, e_e=0.0, d0_e=0.5, d1_e=0.5)
    table = aeb_table(m, eve)
    assert np.allclose(table.matrix[0], [1.0, 0.0, 0.0])
    assert np.allclose(table.matrix[1], [0.0, 1.0, 0.0])


def test_rows_stochastic_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = random_channel(rng)
        table = aeb_table(m, random_eve(rng))
        assert np.abs(table.matrix.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(ab_table(m).matrix.sum(axis=1) - 1.0).max() < 1e-12


def test_interpolation_linearity_in_pe():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = random_channel(rng)
        eve = random_eve(rng)
        eve1 = EveStrategy(
            p_e=1.0, p_s=eve.p_s, p_d=eve.p_d, g_e=eve.g_e, e_e=eve.e_e,
            d0_e=eve.d0_e, d1_e=eve.d1_e,
        )
        full = aeb_table(m, eve1).matrix
        honest = ab_table(m).matrix
        for t in (0.0, 0.25, 0.5, 0.8, 1.0):
            eve_t = EveStrategy(
                p_e=t, p_s=eve.p_s, p_d=eve.p_d, g_e=eve.g_e, e_e=eve.e_e,
                d0_e=eve.d0_e, d1_e=eve.d1_e,
            )
            blended = (1.0 - t) * honest + t * full
            assert np.abs(aeb_table(m, eve_t).matrix - blended).max() < 1e-12


def test_solve_eve_feasible_example():
    m = ChannelModel(g=0.9, e=0.005, d0=0.01, d1=0.01)
    result = solve_eve(m, p_s=0.3935, p_d=1.0)
    assert result.feasible
    assert abs(result.g_e - G_E_ORACLE) < 1e-12
    assert abs(result.e_e - E_E_ORACLE) < 1e-12
    assert abs(result.d_e - 0.02) < 1e-15
    masked = aeb_table(m, result.strategy).matrix
    assert np.abs(masked - ab_table(m).matrix).max() < 1e-12


def test_solve_eve_attack_impossible():
    m = ChannelModel(g=0.9, e=0.01, d0=0.01, d1=0.01)
    result = solve_eve(m, p_s=0.0, p_d=0.0)
    assert not result.feasible
    assert result.attack_impossible
    assert "attack impossible" in result.violations[0]


def test_solve_eve_decoy_rate_violation():
    m = ChannelModel(g=0.9, e=0.01, d0=0.01, d1=0.01)
    result = solve_eve(m, p_s=0.3935, p_d=0.01)  # p_d = d/2
    assert not result.feasible
    assert result.d_e == pytest.approx(2.0)
    assert any("p_d < d" in v for v in result.violations)


def test_solve_eve_rate_maintenance_violation():
    m = ChannelModel(g=0.9, e=0.01, d0=0.01, d1=0.01)
    result = solve_eve(m, p_s=0.05, p_d=1.0)  # p_s < 1 - g
    assert not result.feasible
    assert any("p_s >= 1 - g" in v for v in result.violations)


def test_solve_eve_infeasible_whenever_pd_below_d():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = random_channel(rng)
        p_d = float(rng.uniform(0.0, m.d * 0.999))
        result = solve_eve(m, p_s=float(rng.uniform(0.0, 1.0)), p_d=p_d)
        assert not result.feasible


def test_solve_eve_masking_random():
    rng = np.random.default_rng(12)
    found = 0
    while found < 30:
        m = random_channel(rng)
        p_s = float(rng.uniform(1.0 - m.g, 1.0))
        p_d = float(rng.uniform(m.d, 1.0))
        result = solve_eve(m, p_s, p_d)
        if not result.feasible:
            continue
        found += 1
        masked = aeb_table(m, result.strategy).matrix
        assert np.abs(masked - ab_table(m).matrix).max() < 1e-12


def test_solve_eve_requires_positive_d():
    with pytest.raises(ValueError):
        solve_eve(ChannelModel(g=0.9, e=0.01, d0=0.0, d1=0.0), 0.5, 0.5)


def test_threshold_no_separation_when_rates_equal():
    v = threshold_test(10**6, 20000, 0.02, 0.02, 5.0)
    assert not v.bounds_separated and not v.attack_detected


def test_threshold_example_bounds():
    v = threshold_test(10**6, 10000, 0.02, 0.01, 5.0)
    assert abs(v.lower_attack_bound - LOWER_BOUND_ORACLE) < 1e-9
    assert abs(v.upper_honest_bound - UPPER_BOUND_ORACLE) < 1e-9
    assert v.bounds_separated
    assert v.attack_detected
    assert not threshold_test(10**6, 19000, 0.02, 0.01, 5.0).attack_detected
    assert abs(v.confidence - math.erf(5.0 / math.sqrt(2.0))) < 1e-15


def test_threshold_separation_monotone_in_n():
    # crossing point: n d (sqrt separation) solved numerically as the oracle
    d, d_tilde, z = 0.02, 0.01, 5.0

    def separated(n):
        lower = n * d_tilde + z * math.sqrt(n * d_tilde * (1 - d_tilde))
        upper = n * d - z * math.sqrt(n * d * (1 - d))
        return lower < upper

    n_cross = next(n for n in range(1, 10**6) if separated(n))
    assert not threshold_test(n_cross - 1, 0, d, d_tilde, z).bounds_separated
    state = False
    for n in range(max(1, n_cross - 5), n_cross + 100, 7):
        now = threshold_test(n, 0, d, d_tilde, z).bounds_separated
        assert now or not state  # once separated, stays separated
        state = state or now
    assert threshold_test(n_cross, 0, d, d_tilde, z).bounds_separated


def test_threshold_validates_inputs():
    with pytest.raises(ValueError):
        threshold_test(0, 0, 0.02, 0.01, 5.0)
    with pytest.raises(ValueError):
        threshold_test(100, 0, 0.01, 0.02, 5.0)
    with pytest.raises(ValueError):
        threshold_test(100, 0, 0.02, 0.01, 0.0)
    with pytest.raises(ValueError, match="overflows the count bounds"):
        threshold_test(10**4, 0, 0.02, 0.01, 1e308)


def test_max_loss_examples():
    assert abs(max_loss(0.5, 1.0, 0.2, 0.0) - 10.0) < 1e-12
    assert abs(max_loss(0.5, 0.5, 0.2, 0.01) - MAX_LOSS_ORACLE) < 1e-12
    assert max_loss(0.5, 0.5, 0.2, 0.05) is None
    assert max_loss(0.5, 0.5, 0.2, 0.0499999) is not None


def test_max_loss_validates_inputs():
    with pytest.raises(ValueError):
        max_loss(0.0, 0.5, 0.2, 0.01)
    with pytest.raises(ValueError):
        max_loss(0.5, 1.5, 0.2, 0.01)


def test_eve_strategy_invariants():
    with pytest.raises(ValueError):
        EveStrategy(p_e=1.0, p_s=0.5, p_d=0.5, g_e=0.7, e_e=0.4, d0_e=0.0, d1_e=0.0)
    with pytest.raises(ValueError):
        EveStrategy(p_e=1.2, p_s=0.5, p_d=0.5, g_e=0.1, e_e=0.1, d0_e=0.0, d1_e=0.0)
