"""Protocol states, their exact overlaps and truncated Fock vectors.

The two signal states are weak coherent pulses |alpha e^{i phi}> and
|-alpha e^{i phi}>; the decoy is either an even (Schroedinger-cat)
superposition of the two, a squeezed vacuum |0, r>, the two-photon state
with the cat projected out (orthogonal to both signals), or a raw
amplitude vector.  Every Gram entry is exact: coherent, cat and squeezed
overlaps have closed forms, the orthogonal decoy's follow from them, and
a raw vector's overlap is a finite sum over its support.  Truncated Fock
vectors are realized only as the independent check that the `overlaps`
report and the tests make.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import fsum

import numpy as np

from .tolerances import N_CUT_MAX, NUM_TOL, SYMMETRY_TOL, TAIL_TOL

# Squeezing beyond this (~1.2e8 mean photons) is outside the model's
# domain; it also bounds the Fock series that a squeezed vacuum needs.
R_MAX = 10.0


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


class StateKind(str, Enum):
    COHERENT = "coherent"
    CAT = "cat"
    SQUEEZED_VACUUM = "squeezed_vacuum"
    ORTHOGONAL = "orthogonal"
    RAW = "raw"


@dataclass(frozen=True)
class StatePrep:
    """Symbolic description of a protocol state.

    alpha/phi are the coherent amplitude and phase (cat states use the
    same parameters for their two branches, the orthogonal decoy those of
    the signals it is orthogonal to); r is the squeezing parameter, used
    only by squeezed vacuum.  Raw states carry their amplitude vector
    directly.
    """

    kind: StateKind
    alpha: float = 0.0
    phi: float = 0.0
    r: float = 0.0
    raw: FockVector | None = None

    def __post_init__(self):
        if self.kind in (StateKind.COHERENT, StateKind.CAT, StateKind.ORTHOGONAL):
            # the closed-form overlaps take alpha^2 as a double
            if not (self.alpha >= 0.0 and math.isfinite(self.alpha * self.alpha)):
                raise ValueError(f"{self.kind.value} state requires alpha >= 0 with a finite alpha^2")
        elif self.kind is StateKind.SQUEEZED_VACUUM:
            if not abs(self.r) < R_MAX:
                raise ValueError(f"squeezed vacuum requires |r| < {R_MAX:g}")
        elif self.kind is StateKind.RAW:
            if self.raw is None:
                raise ValueError("raw state requires an amplitude vector")
            if abs(self.raw.norm_sq() - 1.0) > 1e-6:
                raise ValueError("raw amplitude vector must be normalized")


def coherent_prep(alpha: float, phi: float = 0.0) -> StatePrep:
    return StatePrep(StateKind.COHERENT, alpha=alpha, phi=phi)


def cat_prep(alpha: float, phi: float = 0.0) -> StatePrep:
    return StatePrep(StateKind.CAT, alpha=alpha, phi=phi)


def squeezed_prep(r: float) -> StatePrep:
    return StatePrep(StateKind.SQUEEZED_VACUUM, r=r)


def raw_prep(amplitudes: np.ndarray) -> StatePrep:
    return StatePrep(StateKind.RAW, raw=FockVector(np.asarray(amplitudes, complex)))


def orthogonal_decoy_prep(alpha: float, phi: float = 0.0) -> StatePrep:
    """Decoy (|2> - <C|2> |C>) / nu, orthogonal to both signal states (C: the even cat)."""
    return StatePrep(StateKind.ORTHOGONAL, alpha=alpha, phi=phi)


def cat_norm(alpha: float) -> float:
    """Normalization sqrt(2 (1 + exp(-2 alpha^2))) of the even superposition."""
    return math.sqrt(2.0 * (1.0 + math.exp(-2.0 * alpha * alpha)))


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
    return np.exp(log_mag) * np.exp(1j * phi * n)


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


def _overlap_coherent_coherent(b1: complex, b2: complex) -> complex:
    # <b1|b2> = exp(-|b1|^2/2 - |b2|^2/2 + conj(b1) b2)
    return cmath.exp(-0.5 * abs(b1) ** 2 - 0.5 * abs(b2) ** 2 + b1.conjugate() * b2)


def _overlap_coherent_squeezed(b: complex, r: float) -> complex:
    # <b|0,r> = (cosh r)^{-1/2} exp(-|b|^2/2 + conj(b)^2 tanh(r)/2)
    return math.cosh(r) ** -0.5 * cmath.exp(-0.5 * abs(b) ** 2 + 0.5 * b.conjugate() ** 2 * math.tanh(r))


def _two_photon_overlap(a: StatePrep) -> complex:
    """<a|2>."""
    return complex(_amplitudes(a, 2)[2]).conjugate()


def closed_overlap(a: StatePrep, b: StatePrep) -> complex:
    """Exact <a|b> for every pair of state kinds.

    A raw vector's overlap is the finite sum over its support.  The
    orthogonal decoy O = (|2> - <C|2> |C>)/nu gives <a|O> =
    (<a|2> - <C|2> <a|C>)/nu, exactly 0 for the signals (their even part
    is along C, their odd part has no |2>).  Cat states expand into their
    two coherent branches; squeezed-squeezed uses
    <0,r1|0,r2> = cosh(r1-r2)^{-1/2}.
    """
    if b.kind is StateKind.RAW:
        return complex(np.vdot(_amplitudes(a, b.raw.n_cut), b.raw.amplitudes))
    if a.kind is StateKind.RAW:
        return closed_overlap(b, a).conjugate()
    if b.kind is StateKind.ORTHOGONAL:
        if a.kind is StateKind.COHERENT and a.alpha == b.alpha and a.phi in (b.phi, b.phi + math.pi):
            return 0j
        cat = cat_prep(b.alpha, b.phi)
        c2 = _two_photon_overlap(cat)
        return (_two_photon_overlap(a) - c2 * closed_overlap(a, cat)) / math.sqrt(1.0 - abs(c2) ** 2)
    if a.kind is StateKind.ORTHOGONAL:
        return closed_overlap(b, a).conjugate()
    if a.kind is StateKind.CAT:
        ap, am = coherent_prep(a.alpha, a.phi), coherent_prep(a.alpha, a.phi + math.pi)
        return (closed_overlap(ap, b) + closed_overlap(am, b)) / cat_norm(a.alpha)
    if b.kind is StateKind.CAT:
        return closed_overlap(b, a).conjugate()
    if a.kind is StateKind.COHERENT and b.kind is StateKind.COHERENT:
        return _overlap_coherent_coherent(
            a.alpha * cmath.exp(1j * a.phi), b.alpha * cmath.exp(1j * b.phi)
        )
    if a.kind is StateKind.COHERENT and b.kind is StateKind.SQUEEZED_VACUUM:
        return _overlap_coherent_squeezed(a.alpha * cmath.exp(1j * a.phi), b.r)
    if a.kind is StateKind.SQUEEZED_VACUUM and b.kind is StateKind.COHERENT:
        return closed_overlap(b, a).conjugate()
    # squeezed-squeezed
    return math.cosh(a.r - b.r) ** -0.5


# Off-diagonal Gram entry -> indices of its two states.
GRAM_PAIRS = {"s12": (0, 1), "s13": (0, 2), "s23": (1, 2)}


@dataclass(frozen=True)
class GramData:
    """Off-diagonal entries of the 3x3 overlap matrix of (u1, u2, u3)."""

    s12: complex
    s13: complex
    s23: complex

    def matrix(self) -> np.ndarray:
        s12, s13, s23 = self.s12, self.s13, self.s23
        return np.array(
            [
                [1.0, s12, s13],
                [np.conj(s12), 1.0, s23],
                [np.conj(s13), np.conj(s23), 1.0],
            ],
            dtype=complex,
        )

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix())[0])

    def validate(self, num_tol: float = NUM_TOL) -> None:
        for name in ("s12", "s13", "s23"):
            if abs(getattr(self, name)) > 1.0 + num_tol:
                raise ValueError(f"{name}: |overlap| exceeds 1 (+{num_tol:g})")
        if self.min_eigenvalue() < -num_tol:
            raise ValueError("overlap matrix is not positive semidefinite")

    def is_symmetric(self) -> bool:
        """Equal decoy overlaps and real signal overlap."""
        return abs(self.s13 - self.s23) <= SYMMETRY_TOL and abs(self.s12.imag) <= SYMMETRY_TOL


def gram_from_preps(u1: StatePrep, u2: StatePrep, u3: StatePrep, num_tol: float = NUM_TOL) -> GramData:
    """Overlap matrix entries, each exact from closed_overlap, validated."""
    preps = (u1, u2, u3)
    gram = GramData(**{key: closed_overlap(preps[i], preps[j]) for key, (i, j) in GRAM_PAIRS.items()})
    gram.validate(num_tol)
    return gram
