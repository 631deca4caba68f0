"""Numerical tolerances and sampling defaults, in one place.

Policy: structural identities (adjointness, row sums, constraint membership
by construction) are held to 1e-12; spectral and optimization comparisons to
1e-9 relative; sign checks on generators to 1e-10. The full table is
reproduced in the README.
"""

# Structural identities: duality, row sums, detailed balance, serialization.
STRUCTURAL_TOL = 1e-12

# Sign checks on generators (off-diagonals, row sums) in validation reports.
MARKOV_TOL = 1e-10

# Weak-solution and pairing identities checked against solver output.
WEAK_IDENTITY_TOL = 1e-10

# Relative tolerance for spectral / optimization value comparisons.
COMPARISON_RTOL = 1e-9

# Relative tolerance for sweep verdicts (monotone steps, k / -k evenness).
MONOTONE_TOL = 1e-10

# Sampled verification of the saddle inequalities.
SADDLE_CHECK_DIRECTIONS = 50
SADDLE_CHECK_TOL = 1e-8
SADDLE_CHECK_SEED = 20260808

# Exponential moments at shifts within this fraction of the Dirichlet
# eigenvalue (or of another spectral edge) below it are reported infinite
# instead of as meaningless huge numbers. Relative, so rescaling time keeps
# every verdict.
SPECTRAL_EDGE_MARGIN = 1e-9

# Iterative refinement of LU and Cholesky solves.
REFINE_TARGET = 1e-12
REFINE_MAX_SWEEPS = 4

# Reciprocal condition estimate below which a restriction counts as singular.
SINGULAR_RCOND = 1e-14
