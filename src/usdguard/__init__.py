"""Decoy-state design and attack analysis for two-state phase-coded QKD.

Submodules (import names from them; the package re-exports nothing):
  states      protocol states, exact overlaps and overlap matrices, Fock vectors
  usd         reciprocal-basis geometry and the discrimination optimum
  decoy       cat / squeezed-vacuum decoy design and Delta minimization
  channel     honest and intercepted conditional-probability tables
  montecarlo  seeded sessions drawn as exact outcome counts, threshold detection
  cli         command-line front end
"""

__version__ = "0.1.0"
