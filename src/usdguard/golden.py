"""1-D search utilities: golden-section maximization and edge bisection.

The objectives here are smooth except for feasibility cliffs, where they
return -inf; golden-section comparisons against -inf shrink toward the
feasible side, so the cliff location is recovered to the same tolerance.
"""

from __future__ import annotations

import math
from typing import Callable

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Maximize f on [lo, hi]; returns the best (x, f(x)) ever evaluated.

    Ties between probe points are resolved toward larger x.
    """
    best_x, best_f = lo, f(lo)
    for x in (hi,):
        fx = f(x)
        if fx >= best_f:
            best_x, best_f = x, fx
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    it = 0
    while (b - a) > tol and it < max_iter:
        if f1 > f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
        it += 1
    for x, fx in ((x1, f1), (x2, f2)):
        if fx > best_f or (fx == best_f and x > best_x):
            best_x, best_f = x, fx
    return best_x, best_f


def sampled_golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    n_samples: int = 1024,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Bracket on a uniform grid, then refine with golden-section.

    Guards against missing a narrow mode; the grid winner's neighborhood
    is handed to golden_max.

    f must be -inf on a suffix of [lo, hi]: once a grid sample returns
    -inf, every larger one would too.  The scan stops there and counts
    the rest as -inf, so the winner, its bracket and the tie-break toward
    larger x are those of the full scan.
    """
    xs = [lo + (hi - lo) * i / n_samples for i in range(n_samples + 1)]
    fs = [-math.inf] * len(xs)
    for i, x in enumerate(xs):
        fs[i] = f(x)
        if fs[i] == -math.inf:
            break
    i_best = max(range(len(xs)), key=lambda i: (fs[i], xs[i]))
    a = xs[max(i_best - 1, 0)]
    b = xs[min(i_best + 1, n_samples)]
    x, fx = golden_max(f, a, b, tol)
    if fs[i_best] > fx:
        return xs[i_best], fs[i_best]
    return x, fx


def bisect_last_true(
    predicate: Callable[[float], bool],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Largest x in [lo, hi] with predicate(x) True.

    Assumes predicate is True at lo and monotone (True then False).
    Returns hi if it never turns False.
    """
    if predicate(hi):
        return hi
    a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        if predicate(mid):
            a = mid
        else:
            b = mid
    return a
