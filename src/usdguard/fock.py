"""Truncated Fock vectors of the protocol states.

Amplitude vectors over photon numbers 0..n_cut for every state kind,
their inner product, and raw decoys given by their amplitudes.  The
vectors are the independent check on the exact overlaps of `states`
(the `overlaps` report's numeric column and the tests); a raw decoy's
overlaps are the finite sums over its support.

This is the state model's only numpy module.  `states` imports it only
for raw decoys and for the names it forwards, so the closed forms load
without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import fsum

import numpy as np

from .states import R_MAX, StateKind, StatePrep, cat_norm
from .tolerances import N_CUT_MAX, TAIL_TOL


class TruncationError(RuntimeError):
    """Raised when the tail mass is still tail_tol or more at N_CUT_MAX.

    vector is the truncation reached, with its tail mass.
    """

    def __init__(self, vector: FockVector, tail_tol: float):
        super().__init__(f"tail mass {vector.tail_mass:.3e} >= {tail_tol:.1e} at n_cut={vector.n_cut}")
        self.vector = vector


@dataclass(frozen=True)
class FockVector:
    """Probability amplitudes over photon numbers 0..n_cut.

    tail_mass is the amplitude-squared mass of the discarded n > n_cut
    part of the exact state.
    """

    amplitudes: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("amplitudes must be a 1-D vector with n_cut >= 1")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_cut(self) -> int:
        return self.amplitudes.size - 1

    def norm_sq(self) -> float:
        return fsum(np.abs(self.amplitudes) ** 2)

    def mean_photon_number(self) -> float:
        n = np.arange(self.amplitudes.size)
        return fsum(n * np.abs(self.amplitudes) ** 2)

    def padded(self, n_cut: int) -> "FockVector":
        """Zero-pad up to n_cut (no-op if already at least that long)."""
        if n_cut <= self.n_cut:
            return self
        amps = np.zeros(n_cut + 1, dtype=complex)
        amps[: self.amplitudes.size] = self.amplitudes
        return FockVector(amps, self.tail_mass)


def raw_prep(amplitudes: np.ndarray) -> StatePrep:
    return StatePrep(StateKind.RAW, raw=FockVector(amplitudes))


@lru_cache(maxsize=32)
def _log_factorials(n: int) -> np.ndarray:
    # per-term lgamma rather than a cumulative log sum: the cumsum error
    # grows with n and would spoil 1e-8 overlap cross-checks at n ~ 4096
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def _coherent_amplitudes(alpha: float, phi: float, n_cut: int) -> np.ndarray:
    if alpha == 0.0:
        amps = np.zeros(n_cut + 1, dtype=complex)
        amps[0] = 1.0
        return amps
    n = np.arange(n_cut + 1)
    log_mag = -0.5 * alpha * alpha + n * math.log(alpha) - 0.5 * _log_factorials(n_cut)
    # the phase is reduced first (exactly, for |phi| < 2 pi): phi * n overflows
    # to inf for phi near the float maximum, and exp(1j * inf) is nan
    return np.exp(log_mag) * np.exp(1j * math.fmod(phi, 2.0 * math.pi) * n)


def _cat_amplitudes(alpha: float, phi: float, n_cut: int) -> np.ndarray:
    # odd components cancel identically and are stored as exact zeros
    coh = _coherent_amplitudes(alpha, phi, n_cut)
    amps = np.zeros(n_cut + 1, dtype=complex)
    amps[::2] = 2.0 * coh[::2] / cat_norm(alpha)
    return amps


def _squeezed_amplitudes(r: float, n_cut: int) -> np.ndarray:
    amps = np.zeros(n_cut + 1, dtype=complex)
    if r == 0.0:
        amps[0] = 1.0
        return amps
    t = math.tanh(r)
    n_pairs = n_cut // 2
    n = np.arange(n_pairs + 1)
    logfact = _log_factorials(2 * n_pairs)
    # amplitude at 2n: (cosh r)^{-1/2} sqrt((2n)!)/(2^n n!) (tanh r)^n, via logs
    log_mag = (
        -0.5 * math.log(math.cosh(r))
        + 0.5 * logfact[2 * n]
        - n * math.log(2.0)
        - logfact[n]
        + n * math.log(abs(t))
    )
    sign = np.where((t < 0) & (n % 2 == 1), -1.0, 1.0)
    amps[2 * n] = sign * np.exp(log_mag)
    return amps


def _orthogonal_amplitudes(alpha: float, phi: float, n_cut: int) -> np.ndarray:
    cat = _cat_amplitudes(alpha, phi, max(n_cut, 2))
    c2 = cat[2].conjugate()  # <C|2>
    amps = -c2 * cat
    amps[2] += 1.0
    return amps[: n_cut + 1] / math.sqrt(1.0 - abs(c2) ** 2)


def _amplitudes(prep: StatePrep, n_cut: int) -> np.ndarray:
    """Amplitudes 0..n_cut of prep's exact state (a raw vector is cut or zero-padded)."""
    if prep.kind is StateKind.COHERENT:
        return _coherent_amplitudes(prep.alpha, prep.phi, n_cut)
    if prep.kind is StateKind.CAT:
        return _cat_amplitudes(prep.alpha, prep.phi, n_cut)
    if prep.kind is StateKind.SQUEEZED_VACUUM:
        return _squeezed_amplitudes(prep.r, n_cut)
    if prep.kind is StateKind.ORTHOGONAL:
        return _orthogonal_amplitudes(prep.alpha, prep.phi, n_cut)
    return prep.raw.padded(n_cut).amplitudes[: n_cut + 1]


def raw_overlap(a: StatePrep, raw: FockVector) -> complex:
    """<a|raw>, exact: the finite sum over the raw vector's support."""
    return complex(np.vdot(_amplitudes(a, raw.n_cut), raw.amplitudes))


def _build_with_auto_grow(build, n_cut, tail_tol, auto_grow) -> FockVector:
    if n_cut < 1:
        raise ValueError("n_cut must be >= 1")
    n = n_cut
    while True:
        amps = build(n)
        tail = max(0.0, 1.0 - fsum(np.abs(amps) ** 2))
        if tail < tail_tol or not auto_grow:
            return FockVector(amps, tail)
        if n >= N_CUT_MAX:
            raise TruncationError(FockVector(amps, tail), tail_tol)
        n = min(2 * n, N_CUT_MAX)


def fock_coherent(
    alpha: float,
    phi: float = 0.0,
    n_cut: int = 64,
    tail_tol: float = TAIL_TOL,
    auto_grow: bool = True,
) -> FockVector:
    """Coherent state |alpha e^{i phi}>: amplitude_n = e^{-a^2/2} (a e^{i phi})^n / sqrt(n!).

    The truncation grows in powers of two, up to N_CUT_MAX, until the
    discarded tail mass drops below tail_tol (unless auto_grow is disabled).
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return _build_with_auto_grow(lambda n: _coherent_amplitudes(alpha, phi, n), n_cut, tail_tol, auto_grow)


def fock_squeezed_vacuum(
    r: float,
    n_cut: int = 64,
    tail_tol: float = TAIL_TOL,
    auto_grow: bool = True,
) -> FockVector:
    """Squeezed vacuum |0, r>: only even photon numbers are populated.

    amplitude_{2n} = (cosh r)^{-1/2} sqrt((2n)!)/(2^n n!) (tanh r)^n.
    Real squeezing parameter only; |r| < R_MAX guards norm convergence
    of the truncated series.
    """
    if not abs(r) < R_MAX:
        raise ValueError(f"squeezing parameter must satisfy |r| < {R_MAX:g}")
    return _build_with_auto_grow(lambda n: _squeezed_amplitudes(r, n), n_cut, tail_tol, auto_grow)


def fock_cat(
    alpha: float,
    phi: float = 0.0,
    n_cut: int = 64,
    tail_tol: float = TAIL_TOL,
    auto_grow: bool = True,
) -> FockVector:
    """Even cat state (|alpha e^{i phi}> + |-alpha e^{i phi}>) / sqrt(2(1+e^{-2 a^2}))."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return _build_with_auto_grow(lambda n: _cat_amplitudes(alpha, phi, n), n_cut, tail_tol, auto_grow)


def inner_product(a: FockVector, b: FockVector) -> complex:
    """<a|b> = sum conj(a_n) b_n; the shorter vector is zero-padded."""
    n = max(a.n_cut, b.n_cut)
    return complex(np.vdot(a.padded(n).amplitudes, b.padded(n).amplitudes))


def realize(
    prep: StatePrep,
    n_cut: int = 64,
    tail_tol: float = TAIL_TOL,
    auto_grow: bool = True,
) -> FockVector:
    """Materialize a StatePrep as a truncated Fock vector."""
    if prep.kind is StateKind.COHERENT:
        return fock_coherent(prep.alpha, prep.phi, n_cut, tail_tol, auto_grow)
    if prep.kind is StateKind.CAT:
        return fock_cat(prep.alpha, prep.phi, n_cut, tail_tol, auto_grow)
    if prep.kind is StateKind.SQUEEZED_VACUUM:
        return fock_squeezed_vacuum(prep.r, n_cut, tail_tol, auto_grow)
    if prep.kind is StateKind.ORTHOGONAL:
        return _build_with_auto_grow(
            lambda n: _orthogonal_amplitudes(prep.alpha, prep.phi, n), n_cut, tail_tol, auto_grow
        )
    return prep.raw
