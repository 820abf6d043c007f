"""Protocol states and their exact overlaps.

The two signal states are weak coherent pulses |alpha e^{i phi}> and
|-alpha e^{i phi}>; the decoy is either an even (Schroedinger-cat)
superposition of the two, a squeezed vacuum |0, r>, the two-photon state
with the cat projected out (orthogonal to both signals), or a raw
amplitude vector.  Every Gram entry is exact: coherent, cat and squeezed
overlaps have closed forms, the orthogonal decoy's follow from them, and
a raw vector's overlap is a finite sum over its support.

Truncated Fock vectors, raw decoys among them, live in `fock`, which
imports this module; this one imports `fock` only for a raw decoy's
overlaps and for the Fock names it forwards (FOCK_NAMES).  Neither loads
numpy at import: here only GramData.matrix does, there only
FockVector.amplitudes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from math import fsum
from typing import TYPE_CHECKING

from .tolerances import NUM_TOL, SYMMETRY_TOL

if TYPE_CHECKING:
    import numpy as np

    from .fock import FockVector

# Squeezing beyond this (~1.2e8 mean photons) is outside the model's
# domain; it also bounds the Fock series that a squeezed vacuum needs.
R_MAX = 10.0

# Public names of `fock` that states.<name> still reaches (bench/tracing.py
# looks realize and the fock_* builders up here); resolved on first use,
# because `fock` imports this module.
FOCK_NAMES = (
    "FockVector",
    "TruncationError",
    "fock_cat",
    "fock_coherent",
    "fock_squeezed_vacuum",
    "inner_product",
    "raw_prep",
    "realize",
)


def __getattr__(name: str):
    if name in FOCK_NAMES:
        from . import fock

        return getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def signal_preps(alpha: float, phi: float = 0.0) -> tuple[StatePrep, StatePrep]:
    """The signals |alpha e^{i phi}> and |-alpha e^{i phi}>, phi reduced modulo 2 pi.

    phi + pi rounds to phi for |phi| >~ 1e15; fmod keeps |phi| < 2 pi as is.
    """
    phi = math.fmod(phi, 2.0 * math.pi)
    return coherent_prep(alpha, phi), coherent_prep(alpha, phi + math.pi)


def cat_prep(alpha: float, phi: float = 0.0) -> StatePrep:
    return StatePrep(StateKind.CAT, alpha=alpha, phi=phi)


def squeezed_prep(r: float) -> StatePrep:
    return StatePrep(StateKind.SQUEEZED_VACUUM, r=r)


def orthogonal_decoy_prep(alpha: float, phi: float = 0.0) -> StatePrep:
    """Decoy (|2> - <C|2> |C>) / nu, orthogonal to both signal states (C: the even cat)."""
    return StatePrep(StateKind.ORTHOGONAL, alpha=alpha, phi=phi)


def cat_norm(alpha: float) -> float:
    """Normalization sqrt(2 (1 + exp(-2 alpha^2))) of the even superposition."""
    return math.sqrt(2.0 * (1.0 + math.exp(-2.0 * alpha * alpha)))


def _overlap_coherent_coherent(b1: complex, b2: complex) -> complex:
    # <b1|b2> = exp(-|b1 - b2|^2/2 + i Im(conj(b1) b2)); summing the three
    # O(|b|^2) terms of -|b1|^2/2 - |b2|^2/2 + conj(b1) b2 instead leaves an
    # error of ~|b|^2 eps, which puts a large-alpha cat decoy off the span
    return cmath.exp(complex(-0.5 * abs(b1 - b2) ** 2, (b1.conjugate() * b2).imag))


def _overlap_coherent_squeezed(b: complex, r: float) -> complex:
    # <b|0,r> = (cosh r)^{-1/2} exp(-|b|^2/2 + conj(b)^2 tanh(r)/2)
    return math.cosh(r) ** -0.5 * cmath.exp(-0.5 * abs(b) ** 2 + 0.5 * b.conjugate() ** 2 * math.tanh(r))


def _two_photon_overlap(a: StatePrep) -> complex:
    """<a|2> for every kind but raw.

    <b|2> = e^{-|b|^2/2} conj(b)^2 / sqrt(2) for a coherent |b>, twice
    that over cat_norm for the cat, tanh(r) / sqrt(2 cosh r) for |0, r>,
    and sqrt(1 - |<C|2>|^2) for the orthogonal decoy.
    """
    if a.kind is StateKind.SQUEEZED_VACUUM:
        return complex(math.tanh(a.r) / math.sqrt(2.0 * math.cosh(a.r)))
    a_sq = a.alpha * a.alpha
    coherent = math.exp(-0.5 * a_sq) * a_sq / math.sqrt(2.0) * cmath.exp(-2j * a.phi)
    if a.kind is StateKind.COHERENT:
        return coherent
    cat = 2.0 * coherent / cat_norm(a.alpha)
    if a.kind is StateKind.CAT:
        return cat
    return complex(math.sqrt(1.0 - abs(cat) ** 2))


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
        from .fock import raw_overlap

        return raw_overlap(a, b.raw)
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
        ap, am = signal_preps(a.alpha, a.phi)
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
        import numpy as np

        s12, s13, s23 = self.s12, self.s13, self.s23
        return np.array(
            [
                [1.0, s12, s13],
                [np.conj(s12), 1.0, s23],
                [np.conj(s13), np.conj(s23), 1.0],
            ],
            dtype=complex,
        )

    def det(self) -> float:
        """det(G) with its O(1) terms summed exactly."""
        cross = self.s12.conjugate() * self.s13 * self.s23.conjugate()
        return fsum([1.0, 2.0 * cross.real] + [-abs(s) ** 2 for s in (self.s12, self.s13, self.s23)])

    def validate(self) -> None:
        """Require lambda_min(G) >= -NUM_TOL, i.e. G + NUM_TOL I PSD.

        Eliminating the first row on the pivot d = 1 + NUM_TOL leaves the
        2x2 Schur complement S, and G + NUM_TOL I is PSD iff S is.  Its
        diagonal d - |S1j|^2 / d is >= 0 by the |overlap| checks, so
        det S >= 0 decides.  The rounding of S is that of a perturbation
        of G by a few ulps, as in an eigenvalue solver.  det(G + NUM_TOL I)
        itself would not do: with two small eigenvalues (a near-vacuum cat
        decoy) it falls below the rounding of its O(1) terms.
        """
        for name in ("s12", "s13", "s23"):
            if abs(getattr(self, name)) > 1.0 + NUM_TOL:
                raise ValueError(f"{name}: |overlap| exceeds 1 (+{NUM_TOL:g})")
        d = 1.0 + NUM_TOL
        s22 = d - abs(self.s12) ** 2 / d
        s33 = d - abs(self.s13) ** 2 / d
        s23 = self.s23 - self.s12.conjugate() * self.s13 / d
        if s22 * s33 < abs(s23) ** 2:
            raise ValueError("overlap matrix is not positive semidefinite")

    def is_symmetric(self) -> bool:
        """Equal decoy overlaps and real signal overlap."""
        return abs(self.s13 - self.s23) <= SYMMETRY_TOL and abs(self.s12.imag) <= SYMMETRY_TOL


def gram_from_preps(u1: StatePrep, u2: StatePrep, u3: StatePrep) -> GramData:
    """Overlap matrix entries, each exact from closed_overlap, validated."""
    preps = (u1, u2, u3)
    gram = GramData(**{key: closed_overlap(preps[i], preps[j]) for key, (i, j) in GRAM_PAIRS.items()})
    gram.validate()
    return gram
