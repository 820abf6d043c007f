"""The bracketing grid of sampled_golden_max stops at the first -inf sample."""

import math
import random

import pytest

from _oracles import sampled_golden_max_full
from usdguard import golden
from usdguard.golden import sampled_golden_max

N = 1024


def bumpy(seed: int, cliff: float, strict: bool = False):
    """A seeded sum of bumps that is -inf at x >= cliff (x > cliff if strict)."""
    rng = random.Random(seed)
    bumps = [(rng.uniform(0.0, 1.0), rng.uniform(0.01, 0.3), rng.uniform(-1.0, 1.0)) for _ in range(4)]

    def f(x: float) -> float:
        if x > cliff or (x == cliff and not strict):
            return -math.inf
        return sum(h * math.exp(-(((x - c) / w) ** 2)) for c, w, h in bumps)

    return f


def plateau(cliff: float):
    """Flat from 0.3 up to the cliff: a tie the grid resolves toward larger x."""
    return lambda x: -math.inf if x >= cliff else min(x, 0.3)


def counted(f):
    calls = []

    def g(x: float) -> float:
        calls.append(x)
        return f(x)

    return g, calls


# cliffs: none, past the first sample, before it (the whole grid is -inf),
# exactly on a grid point, and just beside one
CLIFFS = [2.0, 0.5 / N, 0.0, 0.25, 700 / N, math.nextafter(700 / N, 1.0), math.nextafter(700 / N, 0.0)]


@pytest.mark.parametrize("cliff", CLIFFS)
@pytest.mark.parametrize("seed", range(4))
def test_matches_the_full_scan(seed, cliff):
    for f in (bumpy(seed, cliff), bumpy(seed, cliff, strict=True)):
        assert sampled_golden_max(f, 0.0, 1.0, N) == sampled_golden_max_full(f, 0.0, 1.0, N)


@pytest.mark.parametrize("cliff", CLIFFS)
def test_ties_break_toward_larger_x_as_in_the_full_scan(cliff):
    f = plateau(cliff)
    assert sampled_golden_max(f, 0.0, 1.0, N) == sampled_golden_max_full(f, 0.0, 1.0, N)


@pytest.mark.parametrize("cliff, grid_calls", [(2.0, N + 1), (0.0, 1), (0.5 / N, 2), (0.25, N // 4 + 1)])
def test_grid_stops_at_the_first_infeasible_sample(monkeypatch, cliff, grid_calls):
    f, calls = counted(bumpy(3, cliff))
    refine, at_refine = golden.golden_max, []
    monkeypatch.setattr(golden, "golden_max", lambda *args: at_refine.append(len(calls)) or refine(*args))
    sampled_golden_max(f, 0.0, 1.0, N)
    assert at_refine == [grid_calls]
    assert calls[:grid_calls] == [i / N for i in range(grid_calls)]
