"""Independent oracles shared across test modules.

These deliberately avoid the library's own solution paths: the grid
oracle enumerates the feasible square with batched eigenvalue checks,
the Gram generators build overlap data from explicit random vectors
so positive semidefiniteness holds by construction, and the pulse-level
sampler draws every pulse of a session on its own.
"""

from __future__ import annotations

import math

import numpy as np

from usdguard.states import GramData
from usdguard.usd import build_geometry, gram_det


def random_unit_vectors_gram(rng: np.random.Generator, m_min: float = 0.05) -> GramData:
    """Random PSD overlap data from three random unit vectors in C^3."""
    while True:
        v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        g = GramData(
            s12=complex(np.vdot(v[0], v[1])),
            s13=complex(np.vdot(v[0], v[2])),
            s23=complex(np.vdot(v[1], v[2])),
        )
        if math.sqrt(gram_det(g)) >= m_min:
            return g


def random_symmetric_gram(rng: np.random.Generator, m_min: float = 0.05) -> GramData:
    """Random symmetric instance: real s12 in [0,1), equal complex decoy overlaps."""
    while True:
        s12 = rng.uniform(0.0, 0.95)
        mag = rng.uniform(0.0, math.sqrt((1.0 + s12) / 2.0) * 0.98)
        t = mag * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        g = GramData(s12=s12, s13=complex(t), s23=complex(t))
        if math.sqrt(gram_det(g)) >= m_min:
            return g


def grid_oracle(
    gram: GramData, nu: float, step: float = 1e-3, num_tol: float = 1e-10
) -> tuple[float, tuple[float, float]]:
    """Brute-force maximum of (1-nu) p_s + nu p_d over the PSD-feasible grid.

    Feasibility is a full eigenvalue check of the inconclusive operator
    at every grid point, batched row by row.
    """
    geom = build_geometry(gram)
    b_op = np.outer(geom.v1, np.conj(geom.v1)) + np.outer(geom.v2, np.conj(geom.v2))
    c_op = np.outer(geom.v3, np.conj(geom.v3))
    eye = np.eye(3, dtype=complex)
    n = round(1.0 / step)
    p_s = np.linspace(0.0, 1.0, n + 1)
    p_d = np.linspace(0.0, 1.0, n + 1)
    best = -np.inf
    arg = (0.0, 0.0)
    for p in p_s:
        stack = (eye - p * b_op)[None, :, :] - p_d[:, None, None] * c_op[None, :, :]
        min_eigs = np.linalg.eigvalsh(stack)[:, 0]
        objs = np.where(min_eigs >= -num_tol, (1.0 - nu) * p + nu * p_d, -np.inf)
        j = int(np.argmax(objs))
        if objs[j] > best:
            best = float(objs[j])
            arg = (float(p), float(p_d[j]))
    return best, arg


def explicit_a0_entries(gram: GramData, p_s: float, p_d: float) -> np.ndarray:
    """The inconclusive operator written out entry by entry.

    Independent of the outer-product construction in the library; used
    to pin the matrix elements.
    """
    s12 = gram.s12
    h = s12 * gram.s23 - gram.s13
    k = gram.s23 - np.conj(s12) * gram.s13
    l2 = 1.0 - abs(s12) ** 2
    l = math.sqrt(l2)
    m = math.sqrt(gram_det(gram))
    a = np.empty((3, 3), dtype=complex)
    a[0, 0] = 1.0 - p_s
    a[0, 1] = p_s * s12 / l
    a[0, 2] = -p_s * h / (l * m)
    a[1, 0] = p_s * np.conj(s12) / l
    a[1, 1] = 1.0 - p_s * (1.0 + abs(s12) ** 2) / l2
    a[1, 2] = p_s * (np.conj(s12) * h + k) / (m * l2)
    a[2, 0] = -p_s * np.conj(h) / (l * m)
    a[2, 1] = p_s * (s12 * np.conj(h) + np.conj(k)) / (m * l2)
    a[2, 2] = 1.0 - (p_s * (abs(h) ** 2 + abs(k) ** 2) + l2 ** 2 * p_d) / (m * l) ** 2
    return a


def pulse_level_counts(rng: np.random.Generator, n: int, nu: float, table: np.ndarray) -> np.ndarray:
    """3x3 counts of n pulses drawn one by one: an input symbol, then an outcome from its row."""
    input_cum = np.cumsum([(1.0 - nu) / 2.0, (1.0 - nu) / 2.0, nu])
    row_cum = np.cumsum(table, axis=1)
    idx_in = np.minimum(np.searchsorted(input_cum, rng.random(n), side="right"), 2)
    # outcome j iff u lands in the j-th cumulative slot of the input's row
    idx_out = np.minimum((rng.random(n)[:, None] >= row_cum[idx_in]).sum(axis=1), 2)
    return np.bincount(idx_in * 3 + idx_out, minlength=9).reshape(3, 3)
