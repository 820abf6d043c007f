"""Seeded simulation of honest and attacked sessions.

The simulator draws at the conditional-probability level (the channel
tables), not the optical-field level; the physics enters only through
the table parameters.  A session is drawn as its exact 3x3 count matrix
rather than pulse by pulse: one multinomial gives the input counts and
one multinomial per table row gives that input's outcome counts.  This
has the same distribution as n independent pulses, costs O(1) in n, and
equal seeds give equal counts.

Each 3-way multinomial is two binomials, the last category taking the
remainder, all drawn from one random.Random(seed) stream.  A binomial
with n min(p, 1 - p) < 10 is drawn by the geometric method (inversion
of the gap from one success to the next); a larger one by W. Hoermann's
BTRS transformed rejection ("The generation of binomial random
variates", J. Stat. Comput. Simul. 46, 1993), the algorithm CPython
3.12 ships as random.binomialvariate.  No numpy is needed; SimStats
.counts builds the numpy array on demand.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .channel import ChannelModel, CombinedChannel, EveStrategy, ThresholdVerdict, ab_table, aeb_table, threshold_test

if TYPE_CHECKING:
    import numpy as np

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SimConfig:
    n_pulses: int
    nu: float
    channel: ChannelModel
    eve: EveStrategy | None = None
    seed: int = 0

    def __post_init__(self):
        # the sampler itself takes any n; the bound stays because SimStats.counts is an
        # int64 array and so that n_pulses >= 2**63 keeps exiting 2 from the CLI
        if not 1 <= self.n_pulses < 2**63:
            raise ValueError("n_pulses must lie in [1, 2**63)")
        if not (0.0 < self.nu < 1.0):
            raise ValueError("nu must lie in (0, 1)")

    def table(self) -> CombinedChannel:
        if self.eve is None:
            return ab_table(self.channel)
        return aeb_table(self.channel, self.eve)


@dataclass(frozen=True)
class SimStats:
    """Outcome counts per input symbol with derived empirical rates.

    rows holds the counts as int tuples; counts builds them as an int64 array.
    """

    rows: tuple[tuple[int, int, int], ...]  # rows input 0/1/D, columns output 0/1/?
    n_pulses: int

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("counts must be 3x3")
        if sum(map(sum, rows)) != self.n_pulses:
            raise ValueError("counts must sum to n_pulses")
        object.__setattr__(self, "rows", rows)

    @property
    def counts(self) -> np.ndarray:
        import numpy as np  # here, so that simulate runs without numpy

        return np.array(self.rows, dtype=np.int64)

    @property
    def row_totals(self) -> tuple[int, ...]:
        return tuple(map(sum, self.rows))

    @property
    def rates(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(c / max(t, 1) for c in row) for row, t in zip(self.rows, self.row_totals))

    @property
    def rate_stderr(self) -> tuple[tuple[float, ...], ...]:
        """Binomial standard error per cell (zero for empty rows)."""
        return tuple(
            tuple(math.sqrt(p * (1.0 - p) / max(t, 1)) for p in row)
            for row, t in zip(self.rates, self.row_totals)
        )

    @property
    def n_decoys_sent(self) -> int:
        return self.row_totals[2]

    @property
    def n_decoys_detected(self) -> int:
        return self.rows[2][0] + self.rows[2][1]

    def to_dict(self) -> dict:
        return {
            "counts": [list(row) for row in self.rows],
            "n_pulses": self.n_pulses,
            "rates": [list(row) for row in self.rates],
            "rate_stderr": [list(row) for row in self.rate_stderr],
            "n_decoys_sent": self.n_decoys_sent,
            "n_decoys_detected": self.n_decoys_detected,
        }


def binomial(rng: random.Random, n: int, p: float) -> int:
    """One binomial(n, p) draw for any int n >= 0 and p in [0, 1], in expected time O(1) in n."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p > 0.5:
        return n - binomial(rng, n, 1.0 - p)
    if n * p < 10.0:  # BTRS's hat is fitted for n p >= 10
        return _geometric(rng, n, p)
    return _btrs(rng, n, p)


def _geometric(rng: random.Random, n: int, p: float) -> int:
    """Count successes by jumping from one to the next: about n p + 1 uniforms."""
    if p == 0.0:
        return 0
    log_q = math.log1p(-p)
    successes = trials = 0
    while True:
        # failures before the next success, floor(gap), is geometric; gap is inf
        # when the quotient overflows (p near 5e-324), which is past n as well
        gap = math.log(1.0 - rng.random()) / log_q
        if gap >= n - trials:
            return successes
        trials += math.floor(gap) + 1
        successes += 1


def _btrs(rng: random.Random, n: int, p: float) -> int:
    """Hoermann's transformed rejection with squeeze, for n p >= 10 and p <= 1/2."""
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    # the hat's centre n p + 1/2 and the mode m = floor((n + 1) p) in integers: as
    # floats they lose the units digit once n p passes 2**53
    num, den = p.as_integer_ratio()
    centre, rem = divmod(2 * n * num + den, 2 * den)
    centre_frac = rem / (2 * den)
    m = (n + 1) * num // den
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # random() gave 0.0; the hat is unbounded there
            continue
        k = centre + math.floor((2.0 * a / us + b) * u + centre_frac)
        if not 0 <= k <= n:
            continue
        v = 1.0 - rng.random()  # in (0, 1], so that its log exists
        if us >= 0.07 and v <= v_r:
            return k
        if math.log(v * alpha / (a / (us * us) + b)) <= _log_pmf_ratio(n, p, m, k):
            return k


def _stirling_tail(k: int) -> float:
    """lgamma(k + 1) less Stirling's (k + 1/2) log(k + 1) - (k + 1) + log(2 pi) / 2."""
    if k < 10:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k + 1.0) + (k + 1.0) - _HALF_LOG_2PI
    r2 = 1.0 / ((k + 1.0) * (k + 1.0))
    return (1.0 / 12.0 - (1.0 / 360.0 - r2 / 1260.0) * r2) / (k + 1.0)


def _log_pmf_ratio(n: int, p: float, m: int, k: int) -> float:
    """log(f(k) / f(m)) for the binomial(n, p) pmf f.

    Written as Stirling's form of each lgamma difference, so that the
    large terms cancel in log1p and in one log: lgamma(n) itself is
    rounded by about 1e-16 n log n, which beyond n ~ 1e14 swamps the
    ratio the acceptance test compares against.
    """
    d = k - m
    return (
        -(k + 0.5) * math.log1p(d / (m + 1))
        - (n - k + 0.5) * math.log1p(-d / (n - m + 1))
        + d * math.log(p * (n - m + 1) / ((1.0 - p) * (m + 1)))
        + _stirling_tail(m) - _stirling_tail(k) + _stirling_tail(n - m) - _stirling_tail(n - k)
    )


def multinomial(rng: random.Random, n: int, weights) -> tuple[int, ...]:
    """Counts of n draws over the categories, one binomial for each but the last.

    Each category's conditional probability is its weight over the math.fsum
    of the weights not yet drawn, so the weights need not sum to 1 and the
    counts sum to n exactly.
    """
    counts = []
    for i in range(len(weights) - 1):
        rest = math.fsum(weights[i:])
        drawn = binomial(rng, n, weights[i] / rest) if rest > 0.0 else 0
        counts.append(drawn)
        n -= drawn
    return (*counts, n)


def simulate(cfg: SimConfig) -> SimStats:
    """Draw the session's count matrix exactly, in time independent of n_pulses.

    Each pulse picks an input symbol (0 and 1 each with probability
    (1 - nu)/2, decoy with nu), then an outcome from that input's table
    row.  The input counts of n such pulses are multinomial, and given
    its input count each row's outcome counts are multinomial over the
    row, so both are drawn directly from one generator seeded with
    cfg.seed.
    """
    # validation admits entries down to -NUM_TOL; clip them, and multinomial renormalizes the row
    rows = [[max(x, 0.0) for x in row] for row in cfg.table().rows]
    rng = random.Random(cfg.seed)
    n_in = multinomial(rng, cfg.n_pulses, [(1.0 - cfg.nu) / 2.0, (1.0 - cfg.nu) / 2.0, cfg.nu])
    return SimStats(rows=tuple(multinomial(rng, n, row) for n, row in zip(n_in, rows)), n_pulses=cfg.n_pulses)


def run_experiment(
    cfg: SimConfig, z: float, d_tilde: float | None = None
) -> tuple[ThresholdVerdict, SimStats]:
    """Simulate a session and apply the decoy-count threshold test.

    d comes from the honest channel; d_tilde defaults to the attacked
    decoy-detection rate (1 - p_e) d + p_e p_d d_e when an interceptor
    is configured, and to d itself otherwise (no separation possible).
    """
    stats = simulate(cfg)
    d = cfg.channel.d
    if d_tilde is None:
        if cfg.eve is not None:
            eve = cfg.eve
            d_tilde = (1.0 - eve.p_e) * d + eve.p_e * eve.p_d * eve.d_e
        else:
            d_tilde = d
    if stats.n_decoys_sent == 0:
        raise ValueError("no decoys were sent; increase n_pulses or nu")
    verdict = threshold_test(stats.n_decoys_sent, stats.n_decoys_detected, d, d_tilde, z)
    return verdict, stats
