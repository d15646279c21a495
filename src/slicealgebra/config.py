"""Shared numeric policy: the tolerance rule, the rank cutoff, the rounded-zero
cutoff, size guards.

The tolerance rule.  An identity that holds exactly (s*s + 1 = 0, a + s*b =
0, a trace that vanishes) is checked through its residual r, which passes at
tolerance tol when r <= tol * size, size being the summed size of the terms
that cancel in r: (1 + ||s||)^2 for s*s + 1 in RootOfMinusOne.holds, and
||a|| + ||s|| ||b|| for a + s*b in ZeroWitness.size, their one owners.  This
is a normwise backward error (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, ch. 7): a verdict does not change when the
inputs are scaled, and the rounding in forming the terms, a small multiple
of eps times their size, stays far below it.
"""

# The tol of every check that is not given one.
DEFAULT_TOL = 1e-9

# The one relative singular-value cutoff.  Rank decisions (kernels,
# eigenspaces, Newton steps, solvability of s*b = -a) and the zerodivisor
# test are exact-rank statements, so the threshold is relative to the
# largest singular value.
RANK_RELTOL = 1e-8

# A projective coordinate this far below the largest is a rounded zero, not
# a value to divide by (ProjectivePoint, delta1, rho1); no residual test.
ROUNDED_ZERO = 1e-12

# Dense structure-constant tensors only; everything stays small.
MAX_DIMENSION = 64
MAX_CLIFFORD_GENERATORS = 6


def default_tol() -> float:
    return DEFAULT_TOL


def resolve_tol(tol: float | None) -> float:
    return DEFAULT_TOL if tol is None else float(tol)


def within_tol(residual, size, tol: float | None = None):
    """The tolerance rule: residual <= tol * size (elementwise on arrays)."""
    return residual <= resolve_tol(tol) * size
