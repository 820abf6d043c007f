"""Decoy design tests: cat kill switch and squeezed-vacuum Delta minimization."""

import math

import numpy as np
import pytest

from usdguard.decoy import (
    delta_squeezed,
    design_cat,
    design_squeezed,
    minimize_delta,
    optimal_alpha,
)
from usdguard.states import coherent_prep, gram_from_preps, squeezed_prep
from usdguard.usd import gram_delta

DELTA_A05_R0 = 0.04892909356982367  # 1 + e^-0.5 - 2 e^-0.25
ALPHA_STAR_R05 = 0.7115279509250022
ALPHA_STAR_R10 = 1.0296379575643893
DELTA_AT_MATCHED_R05 = 0.012465701246468175
CAT_S13_A10 = 0.7534372181000262  # sqrt((1 + e^-2)/2)
R_MIN_AT_ALPHA_STAR = 0.44510790590574567  # asinh(2 alpha*^2)/2
DELTA_MIN_AT_ALPHA_STAR = 0.010085423397788285


# Amplitudes where Fock-sum noise in the Gram determinant can hide the
# cat's degeneracy, up to 60, about the largest amplitude a Fock cutoff of
# N_CUT_MAX = 4096 holds.
CAT_LARGE_ALPHAS = (18.0, 20.0, 25.0, 35.0, 40.0, 45.0, 60.0)


def test_design_cat_kill_switch():
    for alpha in [0.5, 1.0, 2.0, *np.linspace(0.05, 10.0, 4000).tolist(), *CAT_LARGE_ALPHAS]:
        design = design_cat(alpha)
        assert design.usd_disabled, alpha
        assert design.m_value == 0.0, alpha
        assert abs(design.delta) < 1e-10, alpha


def test_design_cat_overlap_value():
    design = design_cat(1.0)
    assert abs(abs(design.gram.s13) - CAT_S13_A10) < 1e-10


def test_design_cat_rejects_zero_alpha():
    with pytest.raises(ValueError):
        design_cat(0.0)


def test_design_cat_mean_photon_number():
    design = design_cat(0.9)
    assert abs(design.mu - 0.81 * math.tanh(0.81)) < 1e-10


def test_design_squeezed():
    design = design_squeezed(ALPHA_STAR_R05, 0.5)
    assert not design.usd_disabled
    assert abs(design.delta - DELTA_AT_MATCHED_R05) < 1e-8
    assert abs(design.mu - math.sinh(0.5) ** 2) < 1e-10


@pytest.mark.parametrize("phi", [1e15, 1e17, -1.7e308])
def test_design_at_large_phase_is_that_of_the_reduced_phase(phi):
    # phi + pi rounds to phi beyond ~1e15; the design reduces phi modulo 2 pi first
    assert design_cat(0.5, phi).usd_disabled
    reduced = math.fmod(phi, 2.0 * math.pi)
    assert design_squeezed(ALPHA_STAR_R05, 0.5, phi) == design_squeezed(ALPHA_STAR_R05, 0.5, reduced)


def test_design_squeezed_rejects_vacuum_corner():
    # alpha = 0 satisfies Delta = 0 vacuously (all three states are vacuum)
    with pytest.raises(ValueError):
        design_squeezed(0.0, 0.5)


def test_delta_squeezed_degenerate_corner():
    assert delta_squeezed(0.0, 0.0) == 0.0


def test_delta_squeezed_examples():
    assert abs(delta_squeezed(0.5, 0.0) - DELTA_A05_R0) < 1e-14
    assert abs(delta_squeezed(ALPHA_STAR_R05, 0.5) - DELTA_AT_MATCHED_R05) < 1e-14


def test_delta_two_path_agreement():
    # closed form against the overlap-matrix path on a 20x20 grid
    alphas = np.linspace(0.1, 2.0, 20)
    rs = np.linspace(0.0, 1.5, 20)
    for alpha in alphas:
        for r in rs:
            g = gram_from_preps(
                coherent_prep(float(alpha), 0.0),
                coherent_prep(float(alpha), math.pi),
                squeezed_prep(float(r)),
            )
            assert abs(gram_delta(g) - delta_squeezed(float(alpha), float(r))) < 1e-8


def test_optimal_alpha_small_r_limit():
    assert optimal_alpha(0.0) == 0.0
    assert optimal_alpha(1e-9) < 1e-4


def test_optimal_alpha_values():
    assert abs(optimal_alpha(0.5) - ALPHA_STAR_R05) < 1e-14
    assert abs(optimal_alpha(1.0) - ALPHA_STAR_R10) < 1e-14


def test_optimal_alpha_stationarity():
    step = 1e-5
    for r in np.arange(0.1, 2.01, 0.1):
        a = optimal_alpha(float(r))
        slope = (delta_squeezed(a + step, float(r)) - delta_squeezed(a - step, float(r))) / (
            2 * step
        )
        assert abs(slope) < 1e-6


def test_optimal_alpha_rejects_negative_r():
    with pytest.raises(ValueError):
        optimal_alpha(-0.1)


def test_minimize_delta_small_alpha_limit():
    r, delta = minimize_delta(1e-4)
    assert r < 0.01 and delta < 1e-8


def test_minimize_delta_at_matched_alpha():
    r, delta = minimize_delta(ALPHA_STAR_R05)
    # the r-stationarity condition is sinh(2r) = 2 alpha^2
    assert abs(r - R_MIN_AT_ALPHA_STAR) < 1e-7
    assert abs(delta - DELTA_MIN_AT_ALPHA_STAR) < 1e-12
    step = 1e-6
    slope = (delta_squeezed(ALPHA_STAR_R05, r + step) - delta_squeezed(ALPHA_STAR_R05, r - step)) / (
        2 * step
    )
    assert abs(slope) < 1e-6


def test_minimize_delta_at_large_alpha():
    # r* = asinh(2 alpha^2) / 2 is about 5.12 at alpha = 80
    alpha = 80.0
    r, delta = minimize_delta(alpha)
    assert r > 5.0
    assert abs(math.sinh(2.0 * r) - 2.0 * alpha**2) < 1e-9 * alpha**2
    assert delta == delta_squeezed(alpha, r)
    for step in (1e-3, -1e-3):
        assert delta <= delta_squeezed(alpha, r + step)


def test_minimize_delta_beats_grid():
    for alpha in (0.5, 1.0, 1.7):
        r, delta = minimize_delta(alpha)
        grid = np.arange(0.0, 5.0001, 1e-3)
        grid_min = min(delta_squeezed(alpha, float(x)) for x in grid)
        assert delta <= grid_min + 1e-12
        assert abs(delta - grid_min) < 1e-6


def test_minimize_delta_rejects_zero_alpha():
    with pytest.raises(ValueError):
        minimize_delta(0.0)


def test_cat_dominates_squeezed():
    for alpha in (0.3, 0.8, 1.5):
        cat_delta = design_cat(alpha).delta
        _, best_squeezed = minimize_delta(alpha)
        assert cat_delta <= best_squeezed + 1e-10
        assert abs(cat_delta) < 1e-10


def test_delta_positivity_at_matched_points():
    for r in np.arange(0.1, 2.01, 0.1):
        a = optimal_alpha(float(r))
        assert delta_squeezed(a, float(r)) >= 0.0
