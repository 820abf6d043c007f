"""Numerical tolerances and truncation limits.

They are constants, not settings: each absorbs double-precision rounding
or bounds the Fock check, and no value but these is supported.
"""

# Generic comparison tolerance for well-conditioned double-precision sums.
NUM_TOL = 1e-10

# Maximum Fock-amplitude mass allowed beyond the truncation cutoff.
TAIL_TOL = 1e-12

# Largest |S13 - S23| and |Im S12| of a Gram matrix that counts as symmetric.
SYMMETRY_TOL = 1e-9

# Hard ceiling for auto-grown Fock truncations.
N_CUT_MAX = 4096

# Floor for the Gram-minor cancellation: the determinant M^2 and the 2x2
# minor L^2 = 1 - |S12|^2 are O(1) sums that cancel, so double precision
# cannot certify values below ~1e-13 as nonzero.  Anything smaller is
# exactly zero, and a zero minor is the one degeneracy rule.
GRAM_DET_FLOOR = 1e-13
