"""Simulation tests: reproducibility, convergence to the tables, detection."""

import math
import random

import numpy as np
import pytest

from usdguard.channel import ChannelModel, CombinedChannel, EveStrategy, ab_table, aeb_table, solve_eve
from usdguard.montecarlo import SimConfig, SimStats, _log_pmf_ratio, binomial, multinomial, run_experiment, simulate

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
            err = abs(stats.rates[i][j] - p)
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
    assert np.allclose([sum(row) for row in stats.rates], 1.0)
    d = stats.to_dict()
    assert d["n_decoys_detected"] == stats.n_decoys_detected
    assert np.array(d["counts"]).sum() == cfg.n_pulses


DOMAIN_P = [0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-16, 1.0]
DOMAIN_N = [1, 2, 10**6, 10**18, 2**63 - 1]


@pytest.mark.parametrize("n", DOMAIN_N)
def test_sampler_covers_its_whole_domain(n):
    # includes the geometric gap that overflows to inf (p = 5e-324) and the
    # weights whose remaining sum is 0
    rng = random.Random(n)
    for p in DOMAIN_P:
        x = binomial(rng, n, p)
        assert type(x) is int and 0 <= x <= n, (p, x)
        for weights in ((p, 1.0 - p, p), (1.0 - p, p, 0.0)):
            counts = multinomial(rng, n, weights)
            assert all(type(c) is int and 0 <= c <= n for c in counts) and sum(counts) == n, (p, weights, counts)


def _binomial_pmf(n: int, p: float, k: int) -> float:
    return math.exp(
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * math.log(p) + (n - k) * math.log1p(-p)
    )


@pytest.mark.parametrize(
    "n, p",
    [
        (40, 0.1),  # geometric, n p = 4
        (1000, 0.0099),  # geometric just below the switch, n p = 9.9
        (1000, 0.0101),  # BTRS just above it, n p = 10.1
        (200, 0.35),  # BTRS
        (60, 0.95),  # reflected geometric, n (1 - p) = 3
        (500, 0.8),  # reflected BTRS
    ],
)
def test_binomial_matches_its_pmf(n, p):
    """Chi-square of 50,000 draws against the lgamma pmf, outer bins pooled to >= 20 expected."""
    draws, rng = 50_000, random.Random(0)
    seen = [0] * (n + 1)
    for _ in range(draws):
        seen[binomial(rng, n, p)] += 1
    expected = [draws * _binomial_pmf(n, p, k) for k in range(n + 1)]
    # pool each tail into its neighbour until every bin expects at least 20 draws
    lo, hi = 0, n
    while expected[lo] < 20.0:
        expected[lo + 1] += expected[lo]
        seen[lo + 1] += seen[lo]
        lo += 1
    while expected[hi] < 20.0:
        expected[hi - 1] += expected[hi]
        seen[hi - 1] += seen[hi]
        hi -= 1
    chi2 = sum((seen[k] - expected[k]) ** 2 / expected[k] for k in range(lo, hi + 1))
    dof = hi - lo
    # Wilson-Hilferty: z is standard normal under the pmf; 5 sigma is a 3e-7 false alarm
    z = ((chi2 / dof) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * dof))) / math.sqrt(2.0 / (9.0 * dof))
    assert dof >= 5 and z < 5.0, (chi2, dof, z)


@pytest.mark.parametrize(
    "n, p",
    [
        (10**6, 0.3),
        (10**9, 0.5),
        (10**12, 0.01),
        (10**12, 3e-12),  # p near 0: geometric, n p = 3
        (10**12, 2e-11),  # p near 0: BTRS, n p = 20
        (10**12, 1.0 - 2e-11),  # p near 1: reflected BTRS
        (10**18, 0.5),
        (2**63 - 1, 0.25),
    ],
)
def test_binomial_mean_and_variance_within_4_sigma(n, p):
    draws, rng = 4_000, random.Random(1)
    xs = [binomial(rng, n, p) for _ in range(draws)]
    q = 1.0 - p  # exact for p >= 1/2, the reflected case
    mean, var = n * p, n * p * q
    got_mean = math.fsum(xs) / draws
    # the deviations are taken from the integer mean so that no float loses them
    centre = round(mean)
    got_var = math.fsum(float(x - centre) ** 2 for x in xs) / (draws - 1) - (got_mean - centre) ** 2 * draws / (draws - 1)
    mu4 = var * (1.0 + 3.0 * (n - 2) * p * q)
    se_var = math.sqrt((mu4 - var**2 * (draws - 3) / (draws - 1)) / draws)
    assert abs(got_mean - mean) <= 4.0 * math.sqrt(var / draws), (got_mean, mean)
    assert abs(got_var - var) <= 4.0 * se_var, (got_var, var)


@pytest.mark.parametrize("n, p", [(20, 0.5), (100, 0.3), (1000, 0.011), (10**5, 0.2)])
def test_acceptance_log_ratio_matches_lgamma_at_small_n(n, p):
    m = math.floor((n + 1) * p)
    for k in range(n + 1):
        direct = (
            math.lgamma(m + 1) + math.lgamma(n - m + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + (k - m) * math.log(p / (1.0 - p))
        )
        assert abs(_log_pmf_ratio(n, p, m, k) - direct) <= 1e-9 * max(1.0, abs(direct)), k


@pytest.mark.parametrize("n", [10**14, 10**16, 10**18, 2**63 - 2])
def test_acceptance_log_ratio_stays_accurate_at_large_n(n):
    # at p = 1/2 and k = m + d, the log ratio is -d^2 / (2 n p q) to within
    # about (d / n) + d^4 / n^3 (here < 1e-8); lgamma itself is off by ~1e-16 n log n
    sigma = math.sqrt(n / 4.0)
    m = (n + 1) // 2
    for z in (-4.0, -1.0, 0.5, 3.0):
        d = round(z * sigma)
        assert abs(_log_pmf_ratio(n, 0.5, m, m + d) + d * d / (n / 2.0)) <= 1e-6, z


def test_large_draws_keep_their_units_digit():
    # as a float, n p + 1/2 is a multiple of 2**10 here; the hat's centre is kept as an integer
    rng = random.Random(2)
    draws = [binomial(rng, 2**63 - 1, 0.5) for _ in range(200)]
    assert len({x % 2**10 for x in draws}) > 150
