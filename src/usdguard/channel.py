"""Conditional-probability channel tables and the interceptor's constraints.

The sender transmits logical 0/1 signal pulses and a decoy D; the
receiver sees 0, 1 or an inconclusive result.  The honest channel is a
binary symmetric error-and-erasure channel with erasure G, bitflip E
(conclusive C = 1 - G - E) plus decoy readout rows D0/D1.  Splitting a
fraction P_e of pulses to an interceptor who discriminates with
probabilities P_S (signals) / P_D (decoy) and resends through her own
channel (parameters subscripted e) combines the two tables linearly in
P_e.

An interceptor is statistically invisible iff her parameters restore
every honest rate; requiring the resend rates to stay in [0, 1] yields
the feasibility conditions, the decisive one being P_D >= D.

Detector dark counts are not modeled separately; fold them into e and
the decoy readout rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .tolerances import NUM_TOL

if TYPE_CHECKING:
    import numpy as np

INPUT_LABELS = ("0", "1", "decoy")
OUTPUT_LABELS = ("0", "1", "inconclusive")


def _check_prob(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name}: must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class ChannelModel:
    """Honest-channel parameters: erasure g, bitflip e, decoy readouts d0/d1."""

    g: float
    e: float
    d0: float
    d1: float

    def __post_init__(self):
        for name in ("g", "e", "d0", "d1"):
            _check_prob(name, getattr(self, name))
        if self.g + self.e > 1.0:
            raise ValueError("g + e must not exceed 1")
        if self.d0 + self.d1 > 1.0:
            raise ValueError("d0 + d1 must not exceed 1")

    @property
    def c(self) -> float:
        return 1.0 - self.g - self.e

    @property
    def d(self) -> float:
        return self.d0 + self.d1


@dataclass(frozen=True)
class EveStrategy:
    """Interception parameters: routing fraction and resend-channel rates."""

    p_s: float
    p_d: float
    g_e: float
    e_e: float
    d0_e: float
    d1_e: float
    p_e: float = 1.0

    def __post_init__(self):
        for name in ("p_e", "p_s", "p_d", "g_e", "e_e", "d0_e", "d1_e"):
            _check_prob(name, getattr(self, name))
        if self.g_e + self.e_e > 1.0:
            raise ValueError("g_e + e_e must not exceed 1")
        if self.d0_e + self.d1_e > 1.0:
            raise ValueError("d0_e + d1_e must not exceed 1")

    @property
    def c_e(self) -> float:
        return 1.0 - self.g_e - self.e_e

    @property
    def d_e(self) -> float:
        return self.d0_e + self.d1_e


@dataclass(frozen=True)
class CombinedChannel:
    """Row-stochastic 3x3 table: rows are inputs 0/1/D, columns 0/1/inconclusive."""

    matrix: np.ndarray

    def __post_init__(self):
        import numpy as np  # here, so that max_loss and the models load without numpy

        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape != (3, 3):
            raise ValueError("channel table must be 3x3")
        if np.any(mat < -NUM_TOL) or np.any(mat > 1.0 + NUM_TOL):
            raise ValueError("channel table entries must lie in [0, 1]")
        if np.any(np.abs(mat.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("channel table rows must sum to 1")
        object.__setattr__(self, "matrix", mat)

    def as_dict(self) -> dict:
        return {
            inp: {out: float(self.matrix[i, j]) for j, out in enumerate(OUTPUT_LABELS)}
            for i, inp in enumerate(INPUT_LABELS)
        }


def ab_table(m: ChannelModel) -> CombinedChannel:
    """Honest sender-receiver table."""
    return CombinedChannel(
        [
            [m.c, m.e, m.g],
            [m.e, m.c, m.g],
            [m.d0, m.d1, 1.0 - m.d],
        ]
    )


def aeb_table(m: ChannelModel, eve: EveStrategy) -> CombinedChannel:
    """Table with a fraction p_e of pulses intercepted and resent.

    Inconclusive discrimination results are blocked (they feed the
    inconclusive column directly); at p_e = 0 this reduces to the honest
    table exactly.
    """
    pe, ps, pd = eve.p_e, eve.p_s, eve.p_d
    signal_inconcl = (1.0 - pe) * m.g + pe * (ps * eve.g_e + (1.0 - ps))
    row0 = [
        (1.0 - pe) * m.c + pe * ps * eve.c_e,
        (1.0 - pe) * m.e + pe * ps * eve.e_e,
        signal_inconcl,
    ]
    row1 = [row0[1], row0[0], signal_inconcl]
    row_d = [
        (1.0 - pe) * m.d0 + pe * pd * eve.d0_e,
        (1.0 - pe) * m.d1 + pe * pd * eve.d1_e,
        (1.0 - pe) * (1.0 - m.d) + pe * (pd * (1.0 - eve.d_e) + (1.0 - pd)),
    ]
    return CombinedChannel([row0, row1, row_d])


@dataclass(frozen=True)
class EveSolveResult:
    """Outcome of solving the statistics-preserving constraints.

    The raw resend rates are reported even when they fall outside [0, 1]
    (that is exactly what makes a strategy infeasible); strategy is set
    only when every constraint holds.
    """

    feasible: bool
    strategy: EveStrategy | None
    g_e: float | None
    e_e: float | None
    d_e: float | None
    violations: tuple[str, ...]

    @property
    def attack_impossible(self) -> bool:
        return self.g_e is None


def solve_eve(m: ChannelModel, p_s: float, p_d: float) -> EveSolveResult:
    """Resend parameters that keep every honest rate unchanged.

    Zeroing the rate differences gives g_e = 1 - (1-g)/p_s, e_e = e/p_s
    and d_e = d/p_d, the last split between the two decoy readouts in
    the honest d0:d1 proportion (any other split changes their rates).
    With all differences zero any routing fraction preserves statistics,
    so p_e = 1 is returned as the canonical choice.

    p_s = 0 or p_d = 0 means the discrimination measurement does not
    exist and the attack is impossible outright.
    """
    _check_prob("p_s", p_s)
    _check_prob("p_d", p_d)
    if m.d <= 0.0:
        raise ValueError("decoy detection rate d0 + d1 must be positive")
    if p_s == 0.0 or p_d == 0.0:
        return EveSolveResult(
            feasible=False,
            strategy=None,
            g_e=None,
            e_e=None,
            d_e=None,
            violations=("attack impossible: discrimination probability is zero",),
        )

    g_e = 1.0 - (1.0 - m.g) / p_s
    e_e = m.e / p_s
    d_e = m.d / p_d

    violations = []
    if g_e < 0.0:
        violations.append("signal rate maintenance requires p_s >= 1 - g")
    if e_e > 1.0 or g_e + e_e > 1.0:
        violations.append("error rate maintenance exceeds the unit budget (g_e + e_e > 1)")
    if d_e > 1.0:
        violations.append("decoy detection cannot be maintained: p_d < d")
    if violations:
        return EveSolveResult(False, None, g_e, e_e, d_e, tuple(violations))

    split0 = m.d0 / m.d
    strategy = EveStrategy(
        p_e=1.0,
        p_s=p_s,
        p_d=p_d,
        g_e=max(0.0, g_e),
        e_e=e_e,
        d0_e=d_e * split0,
        d1_e=d_e * (1.0 - split0),
    )
    return EveSolveResult(True, strategy, g_e, e_e, d_e, ())


@dataclass(frozen=True)
class ThresholdVerdict:
    """Two-sided decoy-count test separating attacked from honest sessions.

    lower_attack_bound = n d~ + z sqrt(n d~ (1 - d~)) caps the count an
    attacked session can plausibly reach; upper_honest_bound =
    n d - z sqrt(n d (1 - d)) floors an honest one.  The test is
    conclusive only when the first sits strictly below the second.
    """

    n: int
    n_d: int
    z: float
    lower_attack_bound: float
    upper_honest_bound: float
    bounds_separated: bool
    attack_detected: bool

    @property
    def confidence(self) -> float:
        return math.erf(self.z / math.sqrt(2.0))


def threshold_test(n: int, n_d: int, d: float, d_tilde: float, z: float) -> ThresholdVerdict:
    """Flag an attack when the detected-decoy count n_d falls at or below
    the attacked-session bound, provided the bounds separate."""
    if n <= 0:
        raise ValueError("n must be positive")
    if not (0.0 <= d_tilde <= d <= 1.0):
        raise ValueError("need 0 <= d_tilde <= d <= 1")
    if not z > 0.0:
        raise ValueError("z must be positive")
    lower = n * d_tilde + z * math.sqrt(n * d_tilde * (1.0 - d_tilde))
    upper = n * d - z * math.sqrt(n * d * (1.0 - d))
    separated = lower < upper
    return ThresholdVerdict(
        n=n,
        n_d=n_d,
        z=z,
        lower_attack_bound=lower,
        upper_honest_bound=upper,
        bounds_separated=separated,
        attack_detected=bool(separated and n_d <= lower),
    )


def max_loss(mu: float, eta_b: float, eta_d: float, p_d: float) -> float | None:
    """Maximum tolerable channel loss in dB: -10 log10(mu eta_b eta_d - p_d).

    Returns None (infeasible) when the interceptor's decoy
    discrimination reaches the best attainable decoy detection,
    mu eta_b eta_d <= p_d.
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    _check_prob("eta_b", eta_b)
    _check_prob("eta_d", eta_d)
    _check_prob("p_d", p_d)
    margin = mu * eta_b * eta_d - p_d
    if margin <= 0.0:
        return None
    return -10.0 * math.log10(margin)
