"""Shared numeric policy: tolerances and size guards."""

import os

# Comparison tolerance for algebraic identities.  Overridable per call and,
# globally, through the SLICE_ALGEBRA_TOL environment variable.
DEFAULT_TOL = 1e-9

# The one relative singular-value cutoff.  Rank decisions (kernels,
# eigenspaces, Newton steps) and the zerodivisor test are exact-rank
# statements, so the threshold is relative to the largest singular value.
RANK_RELTOL = 1e-8

# Backward error bound of the zero-variety verdict when s*b = -a has a
# unique solution s: w = (a, b) is a member when ||a + s*b|| <=
# WITNESS_RTOL * (1 + ||w||), i.e. w lies that close to (-s*b, b), and s is
# a root up to the rounding of s*s, ||s*s + 1|| <= tol * (1 + ||s||)^2.
WITNESS_RTOL = 1e-8

# Dense structure-constant tensors only; everything stays small.
MAX_DIMENSION = 64
MAX_CLIFFORD_GENERATORS = 6


def default_tol() -> float:
    """Return the comparison tolerance, honoring SLICE_ALGEBRA_TOL."""
    raw = os.environ.get("SLICE_ALGEBRA_TOL")
    if raw is None:
        return DEFAULT_TOL
    return float(raw)


def resolve_tol(tol: float | None) -> float:
    return default_tol() if tol is None else float(tol)
