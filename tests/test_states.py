"""Fock-space construction and overlap tests."""

import math

import numpy as np
import pytest

from _oracles import random_unit_vectors_gram
from usdguard.states import (
    GRAM_PAIRS,
    FockVector,
    GramData,
    TruncationError,
    cat_prep,
    closed_overlap,
    coherent_prep,
    fock_cat,
    fock_coherent,
    fock_squeezed_vacuum,
    gram_from_preps,
    inner_product,
    orthogonal_decoy_prep,
    raw_prep,
    realize,
    signal_preps,
    squeezed_prep,
)
from usdguard.tolerances import N_CUT_MAX, NUM_TOL, TAIL_TOL

EXP_M0125 = 0.8824969025845955  # exp(-0.125)
EXP_M05 = 0.6065306597126334  # exp(-0.5)
SECH_HALF_SQRT = 0.9417106158316757  # cosh(0.5)^(-1/2)
CAT_OVERLAP_SQ = 0.8032653298563167  # (1 + exp(-0.5)) / 2
CAT_S13 = 0.8962507070325338  # sqrt of the above
ALPHA_MATCHED_R05 = 0.7115279509250022  # stationary alpha for r = 0.5
COH_SQ_OVERLAP = 0.8218357088605402  # <alpha*|0, r=0.5>


def test_coherent_zero_alpha_is_vacuum():
    v = fock_coherent(0.0, 0.0, 8)
    expected = np.zeros(9)
    expected[0] = 1.0
    assert np.array_equal(v.amplitudes, expected)
    assert v.tail_mass == 0.0


def test_coherent_amplitude0():
    v = fock_coherent(0.5, 0.0)
    assert abs(v.amplitudes[0] - EXP_M0125) < 1e-12


def test_coherent_phase_pi_flips_odd_components():
    plus = fock_coherent(0.5, 0.0)
    minus = fock_coherent(0.5, math.pi)
    a1 = minus.amplitudes[1]
    assert a1.real < 0 and abs(a1.imag) < 1e-15
    assert abs(abs(a1) - abs(plus.amplitudes[1])) < 1e-15
    assert np.allclose(minus.amplitudes[::2], plus.amplitudes[::2], atol=1e-15)


def test_squeezed_zero_r_is_vacuum():
    v = fock_squeezed_vacuum(0.0, 8)
    assert v.amplitudes[0] == 1.0
    assert np.all(v.amplitudes[1:] == 0.0)


def test_squeezed_amplitude0_and_parity():
    v = fock_squeezed_vacuum(0.5, 64)
    assert abs(v.amplitudes[0] - SECH_HALF_SQRT) < 1e-12
    assert np.all(v.amplitudes[1::2] == 0.0)


def test_squeezed_matches_recurrence_oracle():
    # a_{2(n+1)} = a_{2n} tanh(r) sqrt((2n+1)(2n+2)) / (2(n+1))
    r = 0.8
    v = fock_squeezed_vacuum(r, 64)
    amp = math.cosh(r) ** -0.5
    for n in range(0, 30):
        assert abs(v.amplitudes[2 * n] - amp) < 1e-13
        amp *= math.tanh(r) * math.sqrt((2 * n + 1) * (2 * n + 2)) / (2 * (n + 1))


def test_squeezed_normalization_converges():
    rng = np.random.default_rng(1)
    for r in rng.uniform(-1.5, 1.5, 5):
        v = fock_squeezed_vacuum(float(r))
        assert abs(v.norm_sq() - 1.0) < 1e-11


def test_squeezed_r_guard():
    with pytest.raises(ValueError):
        fock_squeezed_vacuum(10.0, 64)
    with pytest.raises(ValueError):
        squeezed_prep(-10.0)


def test_cat_zero_alpha_is_vacuum():
    v = fock_cat(0.0, 0.0, 8)
    assert v.amplitudes[0] == 1.0
    assert np.all(v.amplitudes[1:] == 0.0)


def test_cat_overlap_with_coherent_branch():
    cat = fock_cat(0.5, 0.0, 64)
    plus = fock_coherent(0.5, 0.0, 64)
    minus = fock_coherent(0.5, math.pi, 64)
    ovl = inner_product(plus, cat)
    assert abs(abs(ovl) ** 2 - CAT_OVERLAP_SQ) < 1e-10
    # even-parity symmetry: both branches overlap equally
    assert abs(ovl - inner_product(minus, cat)) < 1e-12


def test_cat_odd_components_exactly_zero():
    for alpha in (0.3, 1.0, 2.0):
        v = fock_cat(alpha, 0.7)
        assert np.all(v.amplitudes[1::2] == 0.0)


def test_inner_product_self_is_one():
    for v in (fock_coherent(1.2, 0.3), fock_cat(0.8), fock_squeezed_vacuum(0.6)):
        assert abs(inner_product(v, v) - 1.0) < 1e-11


def test_inner_product_opposite_coherent():
    a = fock_coherent(0.5, 0.0, 64)
    b = fock_coherent(0.5, math.pi, 64)
    assert abs(inner_product(a, b) - EXP_M05) < 1e-10


def test_inner_product_coherent_squeezed():
    a = fock_coherent(ALPHA_MATCHED_R05, 0.0, 64)
    b = fock_squeezed_vacuum(0.5, 64)
    ovl = inner_product(a, b)
    assert abs(ovl - COH_SQ_OVERLAP) < 1e-10
    closed = closed_overlap(coherent_prep(ALPHA_MATCHED_R05), squeezed_prep(0.5))
    assert abs(ovl - closed) < 1e-10


def test_inner_product_pads_shorter_vector():
    a = fock_coherent(0.5, 0.0, 16)
    b = fock_coherent(0.5, 0.0, 64)
    assert abs(inner_product(a, b) - 1.0) < 1e-10


def test_gram_identical_preps():
    g = gram_from_preps(coherent_prep(0.7), coherent_prep(0.7), cat_prep(0.7))
    assert abs(g.s12 - 1.0) < 1e-12


def test_gram_signal_pair_and_cat():
    g = gram_from_preps(
        coherent_prep(0.5, 0.0), coherent_prep(0.5, math.pi), cat_prep(0.5, 0.0)
    )
    assert abs(g.s12 - EXP_M05) < 1e-10
    assert abs(abs(g.s13) - CAT_S13) < 1e-10
    assert abs(abs(g.s23) - CAT_S13) < 1e-10
    assert g.is_symmetric()


def test_gram_validate_rejects_bad_data():
    with pytest.raises(ValueError):
        GramData(1.2, 0.0, 0.0).validate()
    with pytest.raises(ValueError):
        GramData(0.9, 0.9, -0.9).validate()  # indefinite


def _shifted(g: GramData, c: float) -> GramData:
    """(1 + c) G - c I: the unit diagonal stays and every eigenvalue moves to (1 + c) lam - c."""
    return GramData(*((1.0 + c) * s for s in (g.s12, g.s13, g.s23)))


def test_psd_rule_matches_eigvalsh():
    # validate's Schur-complement rule against lambda_min(G) >= -NUM_TOL
    rng = np.random.default_rng(2029)
    grams = []
    for _ in range(1000):
        g = random_unit_vectors_gram(rng)
        lam = np.linalg.eigvalsh(g.matrix())[0]
        # also shifted to lambda_min = -NUM_TOL (1 -+ 1e-3)
        grams += [g] + [_shifted(g, (lam + NUM_TOL * (1.0 + d)) / (1.0 - lam)) for d in (-1e-3, 1e-3)]
    for _ in range(200):
        # rank-2 unit-diagonal G0: lambda_min((1 + c) G0 - c I) = -c
        v = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        v /= np.linalg.norm(v, axis=1)[:, None]
        g0 = GramData(*(complex(np.vdot(v[i], v[j])) for i, j in GRAM_PAIRS.values()))
        grams += [_shifted(g0, NUM_TOL * (1.0 + d)) for d in (-1e-3, 1e-3)]
    for alpha in np.logspace(-7, -2, 21).tolist():
        # near-vacuum decoys: with two small eigenvalues, det(G + NUM_TOL I)
        # is below the rounding of its O(1) terms
        signals = coherent_prep(alpha), coherent_prep(alpha, math.pi)
        for decoy in (cat_prep(alpha), squeezed_prep(alpha), squeezed_prep(alpha * alpha)):
            preps = (*signals, decoy)
            g = GramData(*(closed_overlap(preps[i], preps[j]) for i, j in GRAM_PAIRS.values()))
            lam = np.linalg.eigvalsh(g.matrix())[0]
            grams += [g] + [_shifted(g, (lam + NUM_TOL * (1.0 + d)) / (1.0 - lam)) for d in (-1e-3, 1e-3)]
    verdicts = []
    for g in grams:
        expected = bool(np.linalg.eigvalsh(g.matrix())[0] >= -NUM_TOL)
        try:
            g.validate()
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == expected, g
        verdicts.append(accepted)
    assert verdicts.count(False) == 1263 and verdicts.count(True) == 2326


def _random_raw_prep(rng, size: int):
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return raw_prep(amps / np.linalg.norm(amps))


def test_closed_vs_numeric_overlaps_random():
    # analytic overlaps against brute Fock sums at n_cut = 128
    rng = np.random.default_rng(7)
    for _ in range(20):
        alpha = float(rng.uniform(0.0, 2.0))
        r = float(rng.uniform(0.0, 1.5))
        coh_p = fock_coherent(alpha, 0.0, 128)
        coh_m = fock_coherent(alpha, math.pi, 128)
        sq = fock_squeezed_vacuum(r, 128)
        assert abs(inner_product(coh_p, coh_m) - math.exp(-2 * alpha**2)) < 1e-8
        closed = closed_overlap(coherent_prep(alpha), squeezed_prep(r))
        assert abs(inner_product(coh_p, sq) - closed) < 1e-8
    # every ordered pair of state kinds, unrelated parameters
    for _ in range(10):
        alphas, phis = rng.uniform(0.0, 2.0, 3), rng.uniform(0.0, 2 * math.pi, 3)
        preps = [
            coherent_prep(float(alphas[0]), float(phis[0])),
            cat_prep(float(alphas[1]), float(phis[1])),
            squeezed_prep(float(rng.uniform(-1.5, 1.5))),
            orthogonal_decoy_prep(float(alphas[2]), float(phis[2])),
            _random_raw_prep(rng, int(rng.integers(2, 9))),
        ]
        vecs = [realize(p) for p in preps]
        for a, va in zip(preps, vecs):
            for b, vb in zip(preps, vecs):
                assert abs(closed_overlap(a, b) - inner_product(va, vb)) < 1e-8, (a.kind, b.kind)


def test_gram_closed_forms_match_fock_sums():
    # the Gram matrix is built from exact entries; auto-grown Fock sums stay its check
    rng = np.random.default_rng(5)
    for alpha in np.linspace(0.05, 4.0, 9):
        signals = coherent_prep(float(alpha), 0.3), coherent_prep(float(alpha), 0.3 + math.pi)
        decoys = [cat_prep(float(alpha), 0.3), orthogonal_decoy_prep(float(alpha), 0.3)]
        decoys += [squeezed_prep(float(r)) for r in np.linspace(0.0, 2.5, 6)]
        decoys += [raw_prep([0, 0, 1]), _random_raw_prep(rng, 12)]
        for decoy in decoys:
            preps = (*signals, decoy)
            vecs = [realize(p) for p in preps]
            g = gram_from_preps(*preps)
            for key, (i, j) in GRAM_PAIRS.items():
                assert abs(getattr(g, key) - inner_product(vecs[i], vecs[j])) < 1e-8, (alpha, decoy, key)


def test_phase_covariance():
    rng = np.random.default_rng(3)
    for phi in rng.uniform(0.0, 2 * math.pi, 8):
        a = fock_coherent(0.9, float(phi))
        b = fock_coherent(0.9, float(phi) + math.pi)
        assert abs(inner_product(a, b) - math.exp(-2 * 0.81)) < 1e-10


def test_normalization_invariant():
    rng = np.random.default_rng(11)
    for _ in range(10):
        alpha = float(rng.uniform(0.0, 2.0))
        r = float(rng.uniform(-1.5, 1.5))
        for v in (fock_coherent(alpha), fock_cat(alpha), fock_squeezed_vacuum(r)):
            assert abs(v.norm_sq() - 1.0) < 10 * 1e-12


def test_auto_grow_and_truncation_failure():
    v = fock_coherent(8.0)
    assert v.n_cut > 64 and v.tail_mass < 1e-12
    with pytest.raises(TruncationError) as failure:
        fock_squeezed_vacuum(5.0)
    assert failure.value.vector.n_cut == N_CUT_MAX
    assert abs(failure.value.vector.tail_mass - 0.388) < 1e-3
    assert ">= 1.0e-12 at n_cut=4096" in str(failure.value)


def test_coarse_truncation_shows_in_the_fock_sum_only():
    # at n_cut = 2 the signals keep only |0>, |1>, |2>: <a|-a> sums to (1 - 1 + 1/2) e^{-1}
    preps = (*signal_preps(1.0), cat_prep(1.0))
    vecs = [realize(p, n_cut=2) for p in preps]
    assert [v.n_cut for v in vecs] == [2, 2, 2]
    assert all(0.0 < v.tail_mass < 0.1 for v in vecs)
    assert closed_overlap(preps[0], preps[1]).real == math.exp(-2.0)
    assert abs(inner_product(vecs[0], vecs[1]).real - 0.5 * math.exp(-1.0)) < 1e-15


@pytest.mark.parametrize(
    "prep, n_cuts",
    [
        (coherent_prep(8.0, 0.3), (1, 2, 64)),
        (cat_prep(8.0, 0.3), (1, 2, 64)),
        (squeezed_prep(-1.5), (1, 2, 64)),
        # the orthogonal decoy's tail at 64 is below TAIL_TOL at every alpha
        (orthogonal_decoy_prep(1.0, 0.3), (1, 2)),
    ],
    ids=["coherent", "cat", "squeezed", "orthogonal"],
)
def test_given_n_cut_never_grows(prep, n_cuts):
    for n_cut in n_cuts:
        v = realize(prep, n_cut)
        assert v.n_cut == n_cut and v.tail_mass >= TAIL_TOL
    grown = realize(prep)
    assert grown.n_cut > max(n_cuts) and grown.tail_mass < TAIL_TOL
    with pytest.raises(ValueError):
        realize(prep, 0)


@pytest.mark.parametrize("sizes", [(3, 7), (7, 3)])
def test_raw_overlap_counts_the_shorter_vector_as_zero_padded(sizes):
    rng = np.random.default_rng(23)
    a, b = (_random_raw_prep(rng, size) for size in sizes)
    a_pad, b_pad = (np.pad(p.raw.amplitudes, (0, max(sizes) - len(p.raw.values))) for p in (a, b))
    assert abs(closed_overlap(a, b) - np.vdot(a_pad, b_pad)) <= 1e-15


@pytest.mark.parametrize("phi", [1e15, 1e17, -1.7e308])
def test_signal_preps_stay_antipodal_at_any_phase(phi):
    u1, u2 = signal_preps(0.7, phi)
    assert u1.phi == math.fmod(phi, 2.0 * math.pi) and u2.phi == u1.phi + math.pi
    assert abs(closed_overlap(u1, u2) - math.exp(-2.0 * 0.49)) < 1e-15
    assert signal_preps(0.7, 1.25) == (coherent_prep(0.7, 1.25), coherent_prep(0.7, 1.25 + math.pi))


def test_mean_photon_number():
    assert abs(fock_coherent(0.8).mean_photon_number() - 0.64) < 1e-10
    assert abs(fock_squeezed_vacuum(0.5).mean_photon_number() - math.sinh(0.5) ** 2) < 1e-10
    mu_cat = fock_cat(0.9).mean_photon_number()
    assert abs(mu_cat - 0.81 * math.tanh(0.81)) < 1e-10


def test_squeezed_squeezed_closed_form():
    a = fock_squeezed_vacuum(0.3, 128)
    b = fock_squeezed_vacuum(0.9, 128)
    assert abs(inner_product(a, b) - math.cosh(0.6) ** -0.5) < 1e-10


def test_orthogonal_decoy_prep():
    for phi in (0.0, 0.3):
        for alpha in np.geomspace(1e-3, 100.0, 61).tolist():
            prep = orthogonal_decoy_prep(alpha, phi)
            g = gram_from_preps(coherent_prep(alpha, phi), coherent_prep(alpha, phi + math.pi), prep)
            assert g.s13 == g.s23 == 0.0, (alpha, phi)
            assert abs(closed_overlap(prep, prep) - 1.0) < 1e-15


def test_fock_vector_requires_min_length():
    with pytest.raises(ValueError):
        FockVector(np.array([1.0 + 0j]))


@pytest.mark.parametrize("values", [[[1, 0], [0, 1]], np.eye(2), ["1", "0"], 5, [1, None]])
def test_fock_vector_rejects_anything_but_a_flat_number_sequence(values):
    with pytest.raises(ValueError):
        FockVector(values)


def _fock_check_vectors():
    """Random raw vectors and builder outputs, up to N_CUT_MAX."""
    rng = np.random.default_rng(17)
    vecs = [_random_raw_prep(rng, int(size)).raw for size in (2, 3, 17, 200, N_CUT_MAX + 1)]
    vecs += [fock_coherent(0.7, 1.1), fock_cat(3.0, 0.4), fock_squeezed_vacuum(-1.3)]
    vecs += [fock_coherent(55.0, 2.0), realize(orthogonal_decoy_prep(55.0, 0.3))]
    with pytest.raises(TruncationError) as failure:
        fock_squeezed_vacuum(5.0)
    return vecs + [failure.value.vector]


def test_fock_sums_agree_with_numpy():
    vecs = _fock_check_vectors()
    assert max(v.n_cut for v in vecs) == N_CUT_MAX
    for a in vecs:
        probs = np.abs(a.amplitudes) ** 2
        assert abs(a.norm_sq() - math.fsum(probs)) <= 1e-15 * a.norm_sq()
        mean = math.fsum(np.arange(a.n_cut + 1) * probs)
        assert abs(a.mean_photon_number() - mean) <= 1e-15 * mean
        for b in vecs:
            n = max(a.n_cut, b.n_cut)
            expected = np.vdot(np.pad(a.amplitudes, (0, n - a.n_cut)), np.pad(b.amplitudes, (0, n - b.n_cut)))
            assert abs(inner_product(a, b) - expected) <= 1e-15 * math.sqrt(a.norm_sq() * b.norm_sq())
