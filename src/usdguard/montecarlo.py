"""Seeded simulation of honest and attacked sessions.

The simulator draws at the conditional-probability level (the channel
tables), not the optical-field level; the physics enters only through
the table parameters.  A session is drawn as its exact 3x3 count matrix
rather than pulse by pulse: one multinomial gives the input counts and
one multinomial per table row gives that input's outcome counts.  This
has the same distribution as n independent pulses, costs O(1) in n, and
equal seeds give equal counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, CombinedChannel, EveStrategy, ThresholdVerdict, ab_table, aeb_table, threshold_test


@dataclass(frozen=True)
class SimConfig:
    n_pulses: int
    nu: float
    channel: ChannelModel
    eve: EveStrategy | None = None
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_pulses < 2**63:  # multinomial counts are int64
            raise ValueError("n_pulses must lie in [1, 2**63)")
        if not (0.0 < self.nu < 1.0):
            raise ValueError("nu must lie in (0, 1)")

    def table(self) -> CombinedChannel:
        if self.eve is None:
            return ab_table(self.channel)
        return aeb_table(self.channel, self.eve)


@dataclass(frozen=True)
class SimStats:
    """Outcome counts per input symbol with derived empirical rates."""

    counts: np.ndarray  # 3x3 int64, rows input 0/1/D, columns output 0/1/?
    n_pulses: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (3, 3):
            raise ValueError("counts must be 3x3")
        if int(counts.sum()) != self.n_pulses:
            raise ValueError("counts must sum to n_pulses")
        object.__setattr__(self, "counts", counts)

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def rates(self) -> np.ndarray:
        totals = np.maximum(self.row_totals, 1)
        return self.counts / totals[:, None]

    @property
    def rate_stderr(self) -> np.ndarray:
        """Binomial standard error per cell (zero for empty rows)."""
        totals = np.maximum(self.row_totals, 1)
        p = self.rates
        return np.sqrt(p * (1.0 - p) / totals[:, None])

    @property
    def n_decoys_sent(self) -> int:
        return int(self.row_totals[2])

    @property
    def n_decoys_detected(self) -> int:
        return int(self.counts[2, 0] + self.counts[2, 1])

    def to_dict(self) -> dict:
        return {
            "counts": self.counts.tolist(),
            "n_pulses": self.n_pulses,
            "rates": self.rates.tolist(),
            "rate_stderr": self.rate_stderr.tolist(),
            "n_decoys_sent": self.n_decoys_sent,
            "n_decoys_detected": self.n_decoys_detected,
        }


def simulate(cfg: SimConfig) -> SimStats:
    """Draw the session's count matrix exactly, in time independent of n_pulses.

    Each pulse picks an input symbol (0 and 1 each with probability
    (1 - nu)/2, decoy with nu), then an outcome from that input's table
    row.  The input counts of n such pulses are multinomial, and given
    its input count each row's outcome counts are multinomial over the
    row, so both are drawn directly from one generator seeded with
    cfg.seed.
    """
    # validation admits entries down to -NUM_TOL, which multinomial rejects; clip, then renormalize
    table = np.clip(cfg.table().matrix, 0.0, None)
    table /= table.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(cfg.seed)
    n_in = rng.multinomial(cfg.n_pulses, [(1.0 - cfg.nu) / 2.0, (1.0 - cfg.nu) / 2.0, cfg.nu])
    counts = np.array([rng.multinomial(n, row) for n, row in zip(n_in, table)])
    return SimStats(counts=counts, n_pulses=cfg.n_pulses)


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
