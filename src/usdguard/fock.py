"""Truncated Fock vectors of the protocol states.

Amplitude vectors over photon numbers 0..n_cut for every state kind,
their inner product, and raw decoys given by their amplitudes.  The
vectors are the independent check on the exact overlaps of `states`
(the `overlaps` report's numeric column and the tests); a raw decoy's
overlaps are the finite sums over its support.

One truncation rule: a given n_cut is exactly the cutoff; None starts at
64 and doubles, up to N_CUT_MAX, until the discarded tail mass is below
TAIL_TOL (TruncationError if it never is).  A raw decoy keeps its own
length; a built vector is at most N_CUT_MAX + 1 long when grown.

The vectors are tuples of Python complex numbers, with every sum taken
by math.fsum, so this module loads without numpy; FockVector.amplitudes
builds the array on demand.  `states` imports it only for raw decoys
and for the names it forwards.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from math import fsum
from numbers import Number
from typing import TYPE_CHECKING

from .states import R_MAX, StateKind, StatePrep, cat_norm
from .tolerances import N_CUT_MAX, TAIL_TOL

if TYPE_CHECKING:
    from collections.abc import Sequence

    import numpy as np


class TruncationError(RuntimeError):
    """Raised when the tail mass is still TAIL_TOL or more at N_CUT_MAX.

    vector is the truncation reached, with its tail mass.
    """

    def __init__(self, vector: FockVector):
        super().__init__(f"tail mass {vector.tail_mass:.3e} >= {TAIL_TOL:.1e} at n_cut={vector.n_cut}")
        self.vector = vector


def _norm_sq(values: Sequence[complex]) -> float:
    try:
        return fsum(z.real * z.real + z.imag * z.imag for z in values)
    except OverflowError:  # finite squares whose sum exceeds the float range
        return math.inf


def _vdot(a: Sequence[complex], b: Sequence[complex]) -> complex:
    """sum conj(a_n) b_n over the common length, each part summed exactly."""
    terms = [x.conjugate() * y for x, y in zip(a, b)]
    return complex(fsum(z.real for z in terms), fsum(z.imag for z in terms))


@dataclass(frozen=True)
class FockVector:
    """Probability amplitudes over photon numbers 0..n_cut.

    values holds them as complex numbers; amplitudes builds the array.
    tail_mass is the amplitude-squared mass of the discarded n > n_cut
    part of the exact state.
    """

    values: tuple[complex, ...]
    tail_mass: float = 0.0

    def __post_init__(self):
        try:
            values = tuple(self.values)
        except TypeError:
            values = ()
        if len(values) < 2 or not all(isinstance(v, Number) for v in values):
            raise ValueError("amplitudes must be a 1-D vector with n_cut >= 1")
        object.__setattr__(self, "values", tuple(map(complex, values)))

    @property
    def amplitudes(self) -> np.ndarray:
        import numpy as np  # here, so that the check column and raw decoys load without numpy

        return np.array(self.values, dtype=complex)

    @property
    def n_cut(self) -> int:
        return len(self.values) - 1

    def norm_sq(self) -> float:
        """sum |a_n|^2; inf when it exceeds the float range."""
        return _norm_sq(self.values)

    def mean_photon_number(self) -> float:
        return fsum(n * (z.real * z.real + z.imag * z.imag) for n, z in enumerate(self.values))


def raw_prep(amplitudes: Sequence[complex]) -> StatePrep:
    return StatePrep(StateKind.RAW, raw=FockVector(amplitudes))


@lru_cache(maxsize=32)
def _log_factorials(n: int) -> tuple[float, ...]:
    # per-term lgamma rather than a cumulative log sum: the cumsum error
    # grows with n and would spoil 1e-8 overlap cross-checks at n ~ 4096
    return tuple(math.lgamma(k + 1.0) for k in range(n + 1))


def _coherent_amplitudes(alpha: float, phi: float, n_cut: int) -> list[complex]:
    if alpha == 0.0:
        return [1.0 + 0j] + [0j] * n_cut
    log_alpha = math.log(alpha)
    logfact = _log_factorials(n_cut)
    # the phase is reduced first (exactly, for |phi| < 2 pi): phi * n overflows
    # to inf for phi near the float maximum, and exp(1j * inf) is nan
    phase = math.fmod(phi, 2.0 * math.pi)
    return [
        math.exp(-0.5 * alpha * alpha + n * log_alpha - 0.5 * logfact[n]) * cmath.exp(1j * phase * n)
        for n in range(n_cut + 1)
    ]


def _cat_amplitudes(alpha: float, phi: float, n_cut: int) -> list[complex]:
    # odd components cancel identically and are stored as exact zeros
    coh = _coherent_amplitudes(alpha, phi, n_cut)
    norm = cat_norm(alpha)
    return [2.0 * z / norm if n % 2 == 0 else 0j for n, z in enumerate(coh)]


def _squeezed_amplitudes(r: float, n_cut: int) -> list[complex]:
    amps = [0j] * (n_cut + 1)
    if r == 0.0:
        amps[0] = 1.0 + 0j
        return amps
    t = math.tanh(r)
    n_pairs = n_cut // 2
    logfact = _log_factorials(2 * n_pairs)
    log_cosh, log_2, log_t = math.log(math.cosh(r)), math.log(2.0), math.log(abs(t))
    for n in range(n_pairs + 1):
        # amplitude at 2n: (cosh r)^{-1/2} sqrt((2n)!)/(2^n n!) (tanh r)^n, via logs
        log_mag = -0.5 * log_cosh + 0.5 * logfact[2 * n] - n * log_2 - logfact[n] + n * log_t
        amps[2 * n] = complex(-math.exp(log_mag) if t < 0 and n % 2 == 1 else math.exp(log_mag))
    return amps


def _orthogonal_amplitudes(alpha: float, phi: float, n_cut: int) -> list[complex]:
    cat = _cat_amplitudes(alpha, phi, max(n_cut, 2))
    c2 = cat[2].conjugate()  # <C|2>
    amps = [-c2 * z for z in cat]
    amps[2] += 1.0
    nu = math.sqrt(1.0 - abs(c2) ** 2)
    return [z / nu for z in amps[: n_cut + 1]]


def raw_overlap(a: StatePrep, raw: FockVector) -> complex:
    """<a|raw>, exact: the finite sum over the raw vector's support."""
    return _vdot(realize(a, raw.n_cut).values, raw.values)


def _truncated(build, n_cut: int | None) -> FockVector:
    """build(n) as a FockVector, n by the module's truncation rule."""
    if n_cut is not None and n_cut < 1:
        raise ValueError("n_cut must be >= 1")
    n = n_cut or 64
    while True:
        amps = build(n)
        tail = max(0.0, 1.0 - _norm_sq(amps))
        if n_cut is not None or tail < TAIL_TOL:
            return FockVector(amps, tail)
        if n >= N_CUT_MAX:
            raise TruncationError(FockVector(amps, tail))
        n = min(2 * n, N_CUT_MAX)


def fock_coherent(alpha: float, phi: float = 0.0, n_cut: int | None = None) -> FockVector:
    """Coherent state |alpha e^{i phi}>: amplitude_n = e^{-a^2/2} (a e^{i phi})^n / sqrt(n!)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return _truncated(lambda n: _coherent_amplitudes(alpha, phi, n), n_cut)


def fock_squeezed_vacuum(r: float, n_cut: int | None = None) -> FockVector:
    """Squeezed vacuum |0, r>: only even photon numbers are populated.

    amplitude_{2n} = (cosh r)^{-1/2} sqrt((2n)!)/(2^n n!) (tanh r)^n.
    Real squeezing parameter only; |r| < R_MAX guards norm convergence
    of the truncated series.
    """
    if not abs(r) < R_MAX:
        raise ValueError(f"squeezing parameter must satisfy |r| < {R_MAX:g}")
    return _truncated(lambda n: _squeezed_amplitudes(r, n), n_cut)


def fock_cat(alpha: float, phi: float = 0.0, n_cut: int | None = None) -> FockVector:
    """Even cat state (|alpha e^{i phi}> + |-alpha e^{i phi}>) / sqrt(2(1+e^{-2 a^2}))."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return _truncated(lambda n: _cat_amplitudes(alpha, phi, n), n_cut)


def inner_product(a: FockVector, b: FockVector) -> complex:
    """<a|b> = sum conj(a_n) b_n; the shorter vector counts as zero-padded."""
    return _vdot(a.values, b.values)


def realize(prep: StatePrep, n_cut: int | None = None) -> FockVector:
    """Materialize a StatePrep as a truncated Fock vector; a raw one is returned as is."""
    if prep.kind is StateKind.COHERENT:
        return fock_coherent(prep.alpha, prep.phi, n_cut)
    if prep.kind is StateKind.CAT:
        return fock_cat(prep.alpha, prep.phi, n_cut)
    if prep.kind is StateKind.SQUEEZED_VACUUM:
        return fock_squeezed_vacuum(prep.r, n_cut)
    if prep.kind is StateKind.ORTHOGONAL:
        return _truncated(lambda n: _orthogonal_amplitudes(prep.alpha, prep.phi, n), n_cut)
    return prep.raw
