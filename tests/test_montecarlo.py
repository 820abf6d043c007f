"""Simulation tests: reproducibility, convergence to the tables, detection."""

import math

import numpy as np
import pytest

from usdguard.channel import ChannelModel, CombinedChannel, EveStrategy, ab_table, aeb_table, solve_eve
from usdguard.montecarlo import SimConfig, SimStats, run_experiment, simulate

from _oracles import pulse_level_counts

HONEST = ChannelModel(g=0.9, e=0.01, d0=0.01, d1=0.01)


def cat_attack_eve() -> EveStrategy:
    solved = solve_eve(HONEST, p_s=0.3935, p_d=1.0).strategy
    return EveStrategy(
        p_e=1.0, p_s=solved.p_s, p_d=0.0, g_e=solved.g_e, e_e=solved.e_e,
        d0_e=0.0, d1_e=0.0,
    )


def test_reproducible_counts():
    cfg = SimConfig(n_pulses=50_000, nu=0.01, channel=HONEST, seed=99)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.counts, b.counts)
    assert int(a.counts.sum()) == 50_000


def _assert_moments_match(samples: np.ndarray, n: int, nu: float, table: np.ndarray):
    """Per-cell sample mean and variance within 5 sigma of the multinomial moments.

    A cell's count over n pulses is binomial(n, q) with q = p_in * table
    entry; the standard error of the sample variance uses the binomial
    fourth central moment.
    """
    k = len(samples)
    q = np.array([(1.0 - nu) / 2.0, (1.0 - nu) / 2.0, nu])[:, None] * table
    mean, var = n * q, n * q * (1.0 - q)
    mu4 = var * (1.0 + 3.0 * (n - 2) * q * (1.0 - q))
    se_mean = np.sqrt(var / k)
    se_var = np.sqrt(np.maximum(mu4 - var**2 * (k - 3) / (k - 1), 0.0) / k)
    got_mean, got_var = samples.mean(axis=0), samples.var(axis=0, ddof=1)
    for i in range(3):
        for j in range(3):
            if q[i, j] == 0.0:
                assert got_mean[i, j] == 0.0 and got_var[i, j] == 0.0, (i, j)
                continue
            assert abs(got_mean[i, j] - mean[i, j]) <= 5.0 * se_mean[i, j], (i, j, "mean")
            assert abs(got_var[i, j] - var[i, j]) <= 5.0 * se_var[i, j], (i, j, "variance")


@pytest.mark.parametrize("eve", [None, "masked", "cat"])
def test_count_sampler_matches_pulse_level_oracle(eve):
    strategy = {
        None: None,
        "masked": solve_eve(HONEST, p_s=0.3935, p_d=1.0).strategy,
        "cat": cat_attack_eve(),
    }[eve]
    n, nu, seeds = 2_000, 0.2, range(240)
    cfgs = [SimConfig(n_pulses=n, nu=nu, channel=HONEST, eve=strategy, seed=s) for s in seeds]
    table = cfgs[0].table().matrix
    counts = np.array([simulate(cfg).counts for cfg in cfgs])
    pulses = np.array([pulse_level_counts(np.random.default_rng(s), n, nu, table) for s in seeds])
    assert (counts.sum(axis=(1, 2)) == n).all() and (pulses.sum(axis=(1, 2)) == n).all()
    _assert_moments_match(counts, n, nu, table)
    _assert_moments_match(pulses, n, nu, table)


def test_realistic_block_size_sums_exactly():
    n = 10**12
    stats = simulate(SimConfig(n_pulses=n, nu=0.01, channel=HONEST, seed=8))
    assert int(stats.counts.sum()) == n
    assert stats.n_decoys_sent > 0


def test_rounding_negative_table_entries_are_clipped(monkeypatch):
    # the table validation admits -5e-11; multinomial alone would reject this row
    table = CombinedChannel(np.array([[0.9, 0.1 + 5e-11, -5e-11], [0.01, 0.9, 0.09], [0.5, 0.5, 0.0]]))
    monkeypatch.setattr(SimConfig, "table", lambda self: table)
    stats = simulate(SimConfig(n_pulses=10**9, nu=0.1, channel=HONEST, seed=1))
    assert stats.counts[0, 2] == 0
    assert int(stats.counts.sum()) == 10**9


def _assert_within_4_sigma(stats: SimStats, expected: np.ndarray):
    totals = stats.row_totals
    for i in range(3):
        n = totals[i]
        assert n > 0
        for j in range(3):
            p = expected[i, j]
            sigma = math.sqrt(p * (1.0 - p) / n)
            err = abs(stats.rates[i, j] - p)
            if sigma == 0.0:
                assert err == 0.0
            else:
                assert err <= 4.0 * sigma, (i, j, err, sigma)


def test_honest_rates_converge_to_table():
    cfg = SimConfig(n_pulses=100_000, nu=0.01, channel=HONEST, seed=12345)
    stats = simulate(cfg)
    _assert_within_4_sigma(stats, ab_table(HONEST).matrix)


def test_masked_eve_rates_match_honest_table():
    eve = solve_eve(HONEST, p_s=0.3935, p_d=1.0).strategy
    cfg = SimConfig(n_pulses=100_000, nu=0.01, channel=HONEST, eve=eve, seed=54321)
    stats = simulate(cfg)
    # Table with a statistics-preserving interceptor equals the honest one
    _assert_within_4_sigma(stats, ab_table(HONEST).matrix)


def test_attacked_rates_converge_to_attacked_table():
    eve = cat_attack_eve()
    cfg = SimConfig(n_pulses=100_000, nu=0.01, channel=HONEST, eve=eve, seed=777)
    stats = simulate(cfg)
    _assert_within_4_sigma(stats, aeb_table(HONEST, eve).matrix)


def test_blocked_decoys_land_inconclusive():
    cfg = SimConfig(n_pulses=200_000, nu=0.02, channel=HONEST, eve=cat_attack_eve(), seed=31)
    stats = simulate(cfg)
    assert stats.n_decoys_detected == 0
    assert stats.counts[2, 2] == stats.n_decoys_sent > 0


def test_run_experiment_honest_not_flagged():
    cfg = SimConfig(n_pulses=1_000_000, nu=0.01, channel=HONEST, seed=2024)
    verdict, stats = run_experiment(cfg, z=5.0, d_tilde=0.0)
    assert stats.n_decoys_detected > 0
    assert verdict.bounds_separated
    assert not verdict.attack_detected


def test_run_experiment_attack_flagged():
    cfg = SimConfig(n_pulses=1_000_000, nu=0.01, channel=HONEST, eve=cat_attack_eve(), seed=2024)
    verdict, stats = run_experiment(cfg, z=5.0)
    assert stats.n_decoys_detected == 0
    assert verdict.bounds_separated
    assert verdict.attack_detected


def test_run_experiment_below_separation_point():
    cfg = SimConfig(n_pulses=2_000, nu=0.01, channel=HONEST, eve=cat_attack_eve(), seed=9)
    verdict, _ = run_experiment(cfg, z=5.0)
    assert not verdict.bounds_separated
    assert not verdict.attack_detected


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_pulses=0, nu=0.01, channel=HONEST)
    with pytest.raises(ValueError):
        SimConfig(n_pulses=2**63, nu=0.01, channel=HONEST)
    with pytest.raises(ValueError):
        SimConfig(n_pulses=10, nu=0.0, channel=HONEST)


def test_stats_consistency():
    cfg = SimConfig(n_pulses=30_000, nu=0.05, channel=HONEST, seed=1)
    stats = simulate(cfg)
    assert int(stats.counts.sum()) == cfg.n_pulses
    assert np.allclose(stats.rates.sum(axis=1), 1.0)
    d = stats.to_dict()
    assert d["n_decoys_detected"] == stats.n_decoys_detected
    assert np.array(d["counts"]).sum() == cfg.n_pulses
