"""Reciprocal-basis geometry and the unambiguous-discrimination optimum.

For three linearly independent states with overlap matrix entries
S12, S13, S23, the working basis is

    u1 = (1, 0, 0),  u2 = (S12, L, 0),  u3 = (S13, K/L, M/L)

with H = S12 S23 - S13, K = S23 - conj(S12) S13, L = sqrt(1 - |S12|^2)
and M^2 the Gram determinant.  The reciprocal vectors v_i (with
<v_i|u_j> = delta_ij) exist only when L and M are nonzero; a decoy
lying in the span of the two signals forces M = 0 and makes the
discrimination measurement impossible.  Both minors are zero below
GRAM_DET_FLOOR, which is the only degeneracy tolerance.

The inconclusive-outcome operator is

    A0 = I - P_S (|v1><v1| + |v2><v2|) - P_D |v3><v3|

and the eavesdropper's optimum maximizes (1-nu) P_S + nu P_D over the
set where A0 stays positive semidefinite.  In the symmetric case
(S13 = S23, real S12) u1 - u2 is orthogonal to the decoy, so A0 splits
into an odd 1-D block along u1 - u2 and an even 2x2 block; its spectrum
is closed-form (a0_spectrum) and the optimizer loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import TYPE_CHECKING, Callable

from .golden import bisect_last_true, sampled_golden_max
from .states import GramData
from .tolerances import GRAM_DET_FLOOR, NUM_TOL

if TYPE_CHECKING:
    import numpy as np

Vector = tuple[complex, complex, complex]


@dataclass(frozen=True)
class UsdGeometry:
    """Working vectors u_i, reciprocal vectors v_i and the scalars H, K, L, M.

    The vectors are complex 3-tuples.  v-vectors (and u3 when the signals
    themselves coincide) are None for degenerate geometries.
    """

    u1: Vector
    u2: Vector
    u3: Vector | None
    v1: Vector | None
    v2: Vector | None
    v3: Vector | None
    h: complex
    k: complex
    l: float
    m: float
    degenerate: bool


@dataclass(frozen=True)
class UsdSolution:
    """Optimal discrimination probabilities with feasibility diagnostics."""

    p_s: float
    p_d: float
    p0: float
    min_eig_a0: float
    on_det_zero: bool
    degenerate: bool
    nu: float


def _floored(minor: float) -> float:
    """A Gram minor below the cancellation floor is exactly zero."""
    return minor if minor >= GRAM_DET_FLOOR else 0.0


def gram_det(g: GramData) -> float:
    """Determinant of the 3x3 overlap matrix (equals M^2).

    Computed with exact summation and clamped to zero below the
    double-precision cancellation floor: the five O(1) terms cannot
    certify a smaller value as nonzero.
    """
    return _floored(g.det())


def _vector(x: complex, y: complex, z: complex) -> Vector:
    return complex(x), complex(y), complex(z)


def build_geometry(g: GramData) -> UsdGeometry:
    """Construct the u/v vectors from overlap data.

    Rejects non-PSD overlap matrices.  Degenerate means the reciprocal
    basis does not exist: M = 0 (decoy inside the signal span) or L = 0
    (coincident signals), each minor being zero below GRAM_DET_FLOOR.
    """
    g.validate()
    s12, s13, s23 = g.s12, g.s13, g.s23
    l = math.sqrt(_floored(1.0 - abs(s12) ** 2))
    h = s12 * s23 - s13
    k = s23 - s12.conjugate() * s13
    m = math.sqrt(gram_det(g))

    u1 = _vector(1.0, 0.0, 0.0)
    u2 = _vector(s12, l, 0.0)
    if l == 0.0:
        return UsdGeometry(u1, u2, None, None, None, None, h, k, l, m, True)
    # complex entries are scaled by reciprocals, as numpy's complex-by-real
    # division rounds, so reports match the array arithmetic bit for bit
    inv_l = 1.0 / l
    u3 = _vector(s13, k * inv_l, m / l)
    if m == 0.0:
        return UsdGeometry(u1, u2, u3, None, None, None, h, k, l, m, True)
    inv_lm = 1.0 / (l * m)
    v1 = _vector(1.0, -s12.conjugate() * inv_l, h.conjugate() * inv_lm)
    v2 = _vector(0.0, inv_l, -k.conjugate() * inv_lm)
    v3 = _vector(0.0, 0.0, l / m)
    return UsdGeometry(u1, u2, u3, v1, v2, v3, h, k, l, m, False)


def build_a0(geom: UsdGeometry, p_s: float, p_d: float) -> np.ndarray:
    """Inconclusive operator I - P_S (v1 v1^+ + v2 v2^+) - P_D v3 v3^+."""
    if geom.degenerate:
        raise ValueError("degenerate geometry: reciprocal basis does not exist")
    for name, p in (("p_s", p_s), ("p_d", p_d)):
        if not (-NUM_TOL <= p <= 1.0 + NUM_TOL):
            raise ValueError(f"{name} must lie in [0, 1]")
    import numpy as np

    def projector(v: Vector) -> np.ndarray:
        return np.outer(v, np.conj(v))

    return np.eye(3, dtype=complex) - p_s * (projector(geom.v1) + projector(geom.v2)) - p_d * projector(geom.v3)


def _require_symmetric(g: GramData) -> tuple[float, float]:
    if not g.is_symmetric():
        raise ValueError(
            "symmetric case required: equal decoy overlaps (s13 = s23) and real s12"
        )
    return float(g.s12.real), abs(g.s13) ** 2


def gram_delta(g: GramData) -> float:
    """Delta = 1 + S12 - 2 |S13|^2: zero iff the decoy disables discrimination."""
    s12, t_sq = _require_symmetric(g)
    return 1.0 + s12 - 2.0 * t_sq


def det_a0_closed(g: GramData, p_s: float, p_d: float) -> float:
    """Closed-form det(A0) for the symmetric case.

    det = (2 P_D P_S + P_S^2 - P_D L^2 - P_S (2 - |S13|^2 - |S23|^2)
           - P_D P_S^2 + M^2) / M^2
    """
    _require_symmetric(g)
    l_sq = 1.0 - abs(g.s12) ** 2
    m_sq = gram_det(g)
    if m_sq == 0.0:
        raise ValueError("closed-form determinant undefined for degenerate geometry")
    num = fsum(
        [
            2.0 * p_d * p_s,
            p_s * p_s,
            -p_d * l_sq,
            -p_s * (2.0 - abs(g.s13) ** 2 - abs(g.s23) ** 2),
            -p_d * p_s * p_s,
            m_sq,
        ]
    )
    return num / m_sq


def f1(g: GramData, p_s: float) -> float:
    """det(A0) = 0 boundary solved for P_D: (P_S - Delta)/(P_S - 1 - S12)."""
    s12, _ = _require_symmetric(g)
    den = p_s - 1.0 - s12
    if abs(den) < 1e-12:
        raise ValueError("f1 is singular at p_s = 1 + s12")
    return (p_s - gram_delta(g)) / den


def a0_spectrum(geom: UsdGeometry, s12: float) -> Callable[[float, float], tuple[float, float]]:
    """(smallest eigenvalue, determinant) of A0 as a function of (P_S, P_D).

    Symmetric, non-degenerate geometry only; s12 is the real S12.  The
    odd eigenvalue along u1 - u2 is 1 - P_S/(1 - S12).  On the even
    basis e_a = (L, 1 - S12, 0)/sqrt(2(1 - S12)), e_b = (0, 0, 1) the
    block is [[x, off], [conj(off), y]] with

        x = 1 - P_S/(1 + S12),  y = 1 - 2 P_S |K|^2/(L^2 M^2) - P_D L^2/M^2,
        |off|^2 = 2 P_S^2 (1 - S12) |K|^2/(L^4 M^2).

    Its eigenvalues are mean -+ rad; the one of larger magnitude is
    formed without cancellation and the smaller one, for mean > 0, as
    the block determinant over the larger.  The scalars are computed
    once per geometry.
    """
    l_sq, m_sq, k_sq = geom.l * geom.l, geom.m * geom.m, abs(geom.k) ** 2
    inv_odd, inv_even = 1.0 / (1.0 - s12), 1.0 / (1.0 + s12)
    y_s, y_d = 2.0 * k_sq / (l_sq * m_sq), l_sq / m_sq
    off_ss = 2.0 * (1.0 - s12) * k_sq / (l_sq * l_sq * m_sq)

    def spectrum(p_s: float, p_d: float) -> tuple[float, float]:
        odd = 1.0 - p_s * inv_odd
        x = 1.0 - p_s * inv_even
        y = 1.0 - p_s * y_s - p_d * y_d
        off_sq = p_s * p_s * off_ss
        det_even = x * y - off_sq
        mean = 0.5 * (x + y)
        rad = math.sqrt(0.25 * (x - y) ** 2 + off_sq)
        low = det_even / (mean + rad) if mean > 0.0 else mean - rad
        return min(odd, low), odd * det_even

    return spectrum


def optimize_usd(g: GramData, nu: float) -> UsdSolution:
    """Maximize (1-nu) P_S + nu P_D subject to A0 being PSD on [0,1]^2.

    The search follows the det(A0) = 0 curve P_D = f1(P_S), clipped to
    the unit box, plus the box edges where the clip is active.  A probe
    is feasible when A0's smallest eigenvalue from the two-block
    spectrum (a0_spectrum; a zero determinant alone does not certify
    positivity) is >= -NUM_TOL; the spectrum also gives the reported
    min_eig_a0 and the on_det_zero verdict.

    Three regimes, in this order:
    - degenerate geometry: discrimination is impossible, (P_S, P_D, P0)
      = (0, 0, 1);
    - a decoupled decoy (S13 = S23 = 0, exactly): A0 splits into the
      signal block, PSD iff P_S <= 1 - |S12| (the two-state
      Ivanovic-Dieks-Peres bound), and the decoy entry 1 - P_D, so the
      exact optimum (1 - |S12|, 1) is returned without a search;
    - anything else: the search above.
    """
    if not (0.0 < nu < 1.0):
        raise ValueError("nu must lie in (0, 1)")
    geom = build_geometry(g)
    if geom.degenerate:
        return UsdSolution(0.0, 0.0, 1.0, 1.0, False, True, nu)
    s12, _ = _require_symmetric(g)
    spectrum = a0_spectrum(geom, s12)
    if g.s13 == 0.0 and g.s23 == 0.0:
        return _solution(spectrum, nu, 1.0 - abs(g.s12), 1.0)
    delta = gram_delta(g)
    tol = 1e-10  # the width in P_S or P_D at which the refinement and bisections stop

    def feasible(p_s: float, p_d: float) -> bool:
        return spectrum(p_s, p_d)[0] >= -NUM_TOL

    def pd_on_curve(p_s: float) -> float:
        den = p_s - 1.0 - s12
        if abs(den) < 1e-12:
            # only reachable as s12 -> 0 at p_s -> 1, where the curve
            # flattens onto the P_D = 1 edge
            return 1.0 if abs(p_s - delta) < 1e-9 else 0.0
        return min(1.0, max(0.0, (p_s - delta) / den))

    def objective(p_s: float, p_d: float) -> float:
        return (1.0 - nu) * p_s + nu * p_d

    def curve_objective(p_s: float) -> float:
        p_d = pd_on_curve(p_s)
        return objective(p_s, p_d) if feasible(p_s, p_d) else -math.inf

    candidates: list[tuple[float, float]] = [(0.0, pd_on_curve(0.0))]

    # the curve objective is feasible on a prefix [0, cliff] of P_S, so the
    # bracketing grid stops at its first infeasible sample
    ps_star, _ = sampled_golden_max(curve_objective, 0.0, 1.0, 1024, tol)
    candidates.append((ps_star, pd_on_curve(ps_star)))

    # the cliff itself, when the feasible stretch is not empty
    if feasible(0.0, pd_on_curve(0.0)):
        ps_edge = bisect_last_true(lambda x: curve_objective(x) > -math.inf, 0.0, 1.0, tol)
        candidates.append((ps_edge, pd_on_curve(ps_edge)))

    # box edges where the clip may bind
    if feasible(0.0, 1.0):
        ps_e = bisect_last_true(lambda x: feasible(x, 1.0), 0.0, 1.0, tol)
        candidates.append((ps_e, 1.0))
    pd_e = bisect_last_true(lambda y: feasible(0.0, y), 0.0, 1.0, tol)
    candidates.append((0.0, pd_e))

    best = (0.0, 0.0)
    best_obj = -math.inf
    for p_s, p_d in candidates:
        if not feasible(p_s, p_d):
            continue
        val = objective(p_s, p_d)
        if val > best_obj + 1e-12 or (abs(val - best_obj) <= 1e-12 and p_s > best[0]):
            best, best_obj = (p_s, p_d), val

    return _solution(spectrum, nu, *best)


def _solution(
    spectrum: Callable[[float, float], tuple[float, float]], nu: float, p_s: float, p_d: float
) -> UsdSolution:
    """The optimum (p_s, p_d) with its A0 diagnostics and inconclusive rate."""
    min_eig, det = spectrum(p_s, p_d)
    p0 = min(1.0, max(0.0, 1.0 - (1.0 - nu) * p_s - nu * p_d))
    return UsdSolution(
        p_s=p_s,
        p_d=p_d,
        p0=p0,
        min_eig_a0=min_eig,
        on_det_zero=abs(det) <= 1e-8,
        degenerate=False,
        nu=nu,
    )
