"""Decoy-state design against unambiguous discrimination.

An even-cat decoy lies exactly in the span of the two signal pulses, so
the discrimination geometry degenerates and the attack is impossible.
A squeezed vacuum only approximates that condition; its quality is
measured by

    Delta(alpha, r) = 1 + exp(-2 alpha^2)
                      - (2 / cosh r) exp(-alpha^2 (1 - tanh r)),

whose minimiser over r (fixed alpha) is r* = asinh(2 alpha^2) / 2; the
module also gives the stationary-alpha relation for fixed r.  Every
quantity here is a closed form: the overlaps, Delta, M and the decoys'
mean photon numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .states import GramData, StatePrep, cat_prep, gram_from_preps, signal_preps, squeezed_prep
from .usd import gram_delta, gram_det


@dataclass(frozen=True)
class DecoyDesign:
    """A decoy prep with its discrimination diagnostics.

    delta and m_value come from the same closed-form overlap data;
    usd_disabled is the degeneracy verdict (M clamped to zero by the
    Gram-determinant floor), and mu is the decoy's mean photon number.
    """

    prep: StatePrep
    gram: GramData
    delta: float
    m_value: float
    mu: float
    usd_disabled: bool


def _design(decoy_at: Callable[[float], StatePrep], alpha: float, phi: float, mu: float) -> DecoyDesign:
    """Design diagnostics of the decoy decoy_at(phi), phi being the signals' reduced phase."""
    if not alpha > 0.0:
        raise ValueError("alpha must be > 0: zero-amplitude signals make the protocol vacuous")
    u1, u2 = signal_preps(alpha, phi)
    decoy = decoy_at(u1.phi)
    gram = gram_from_preps(u1, u2, decoy)
    m_value = math.sqrt(gram_det(gram))
    return DecoyDesign(
        prep=decoy,
        gram=gram,
        delta=gram_delta(gram),
        m_value=m_value,
        mu=mu,
        usd_disabled=m_value == 0.0,
    )


def design_cat(alpha: float, phi: float = 0.0) -> DecoyDesign:
    """Even-cat decoy for signal amplitude alpha: disables discrimination exactly.

    Its mean photon number is alpha^2 tanh(alpha^2).
    """
    return _design(lambda phi: cat_prep(alpha, phi), alpha, phi, alpha * alpha * math.tanh(alpha * alpha))


def design_squeezed(alpha: float, r: float, phi: float = 0.0) -> DecoyDesign:
    """Squeezed-vacuum decoy |0, r> against signals of amplitude alpha.

    Its mean photon number is sinh^2(r).
    """
    return _design(lambda _: squeezed_prep(r), alpha, phi, math.sinh(r) ** 2)


def delta_squeezed(alpha: float, r: float) -> float:
    """Closed-form Delta for a squeezed-vacuum decoy."""
    return (
        1.0
        + math.exp(-2.0 * alpha * alpha)
        - 2.0 / math.cosh(r) * math.exp(-alpha * alpha * (1.0 - math.tanh(r)))
    )


def optimal_alpha(r: float) -> float:
    """Signal amplitude at which Delta is stationary in alpha for given r.

    alpha = sqrt(exp(-r) cosh(r) ln(exp(r) cosh(r)^2)); tends to 0 as
    r -> 0.
    """
    if r < 0.0:
        raise ValueError("r must be >= 0")
    arg = math.exp(r) * math.cosh(r) ** 2
    return math.sqrt(math.exp(-r) * math.cosh(r) * math.log(arg))


def minimize_delta(alpha: float) -> tuple[float, float]:
    """Squeezing parameter minimizing Delta at fixed alpha, with the minimum.

    Delta is unimodal in r with its stationary point at sinh(2r) = 2 alpha^2,
    so r* = asinh(2 alpha^2) / 2.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be > 0")
    r = 0.5 * math.asinh(2.0 * alpha * alpha)
    return r, delta_squeezed(alpha, r)
