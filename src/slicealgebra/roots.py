"""The locus S = {s : s*s = -1} inside a real associative algebra.

Membership, seed search, conjugation orbits, tangent spaces ker(F_s), the
integer component invariant tr(T_s), the complex structure h -> s*h on
tangent spaces, and the (-i)-eigenspace of L_s inside the complexification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra, Element, right_divide
from .config import within_tol
from .errors import NonIntegerTraceError, NotFoundError, NotTangentError
from .numerics import (affine_square_root, newton_schulz, null_space, projector_range,
                       vector_norm)


@dataclass(frozen=True)
class RootOfMinusOne:
    """A candidate s for s*s = -1 and its defect ||s*s + 1||, measured on first read."""

    element: Element

    @cached_property
    def residual(self) -> float:
        alg, v = self.algebra, self.element.coeffs
        return vector_norm(alg.multiply_vec(v, v) + alg.unit_vector)

    @classmethod
    def from_element(cls, element: Element, tol: float | None = None) -> "RootOfMinusOne":
        root = cls(element)
        if not root.holds(tol):
            raise ValueError(f"not a square root of -1, residual {root.residual:.3e}")
        return root

    @property
    def algebra(self) -> Algebra:
        return self.element.algebra

    def holds(self, tol: float | None = None) -> bool:
        """residual <= tol * (1 + ||s||)^2, the size of the terms s*s and 1."""
        return bool(within_tol(self.residual, (1.0 + self.element.norm()) ** 2, tol))


def sigma_involution(z: complex, s: RootOfMinusOne) -> tuple[complex, RootOfMinusOne]:
    """The slice-domain involution (z, s) -> (conj z, -s)."""
    return complex(z).conjugate(), RootOfMinusOne(-s.element)


# -- seed search -------------------------------------------------------------


def find_seed_root(algebra: Algebra,
                   rng: np.random.Generator | None = None,
                   tol: float | None = None) -> RootOfMinusOne:
    """Find some s in S, or raise NotFoundError.

    The first basis element e_i that is a root at tol (its cached
    basis_square_defects entry against (1 + ||e_i||)^2 = 4) is returned; in
    a Clifford algebra every product of basis elements is a signed basis
    element, so this covers every blade.  Up to 50 damped Newton searches
    on a*a + 1 = 0 from random starts are the fallback for general algebras.
    A central root (L_s = R_s by the tolerance rule), whose conjugation
    orbit is one point, is only kept as the answer of last resort.
    """
    n = algebra.dimension
    hits = np.flatnonzero(within_tol(algebra.basis_square_defects, 4.0, tol))
    if hits.size:
        cand = algebra.basis_element(int(hits[0]))
        return RootOfMinusOne(cand)
    if rng is None:
        rng = np.random.default_rng(0)
    central = None
    for _ in range(50):
        x, _ = affine_square_root(algebra, np.zeros(n), np.eye(n),
                                  rng.standard_normal(n))
        cand = RootOfMinusOne(Element(algebra, x))
        if cand.holds(tol):
            left, right = algebra.left_matrix_vec(x), algebra.right_matrix_vec(x)
            if not within_tol(np.linalg.norm(left - right),
                              np.linalg.norm(left) + np.linalg.norm(right), tol):
                return cand
            central = central or cand  # the first central root
    if central is None:
        raise NotFoundError("no square root of -1 found; the locus may be empty")
    return central


def conjugate_root(y: Element, s: RootOfMinusOne) -> RootOfMinusOne:
    """y*s*y^{-1} = right_divide(y*s, y), one LU solve on R_y and
    no SVD.  Raises ZeroDivisorError when LAPACK finds R_y singular."""
    return RootOfMinusOne(right_divide(y * s.element, y))


def sample_root(seed: RootOfMinusOne, rng: np.random.Generator,
                tol: float | None = None) -> RootOfMinusOne:
    """Conjugate the seed by random standard normal y, as conjugate_root
    does, on coefficient arrays: only the accepted root is wrapped.

    A draw is rejected when LU finds R_y singular (LAPACK's LinAlgError),
    when the conjugate is not finite or has norm above 32 (a cap, not a
    tolerance: on noncompact components the orbit is unbounded), or when
    the conjugate, polished by numerics.newton_schulz to the rounding
    floor, fails the membership test at the defect the polish measured.
    """
    algebra, s = seed.algebra, seed.element.coeffs
    for _ in range(200):
        y = rng.standard_normal(algebra.dimension)
        try:  # x*y = y*s
            out = np.linalg.solve(algebra.right_matrix_vec(y), algebra.multiply_vec(y, s))
        except np.linalg.LinAlgError:
            continue
        if not vector_norm(out) <= 32.0:  # NaN fails it too
            continue
        out, residual = newton_schulz(algebra, out)
        if within_tol(residual, (1.0 + vector_norm(out)) ** 2, tol):  # as holds
            return RootOfMinusOne(Element(algebra, out))
    raise NotFoundError("conjugation sampling failed repeatedly")


# -- tangent structure -------------------------------------------------------


def tangent_frame(s: RootOfMinusOne) -> np.ndarray:
    """Kernel of F_s = L_s + R_s by singular value decomposition: orthonormal (N, k)."""
    alg = s.algebra
    f = alg.left_matrix_vec(s.element.coeffs) + alg.right_matrix_vec(s.element.coeffs)
    return null_space(f)


def integer_trace(m: np.ndarray) -> int:
    """The trace of an involution m (m @ m = 1), snapped to an integer."""
    tr = float(np.trace(m))
    snapped = round(tr)
    # rounding moves the trace by about N * eps * ||s||^2, far below 0.01;
    # a non-integer trace means the operator is built from no root at all
    if abs(tr - snapped) > 0.01:
        raise NonIntegerTraceError(f"trace {tr} is not close to an integer")
    return int(snapped)


def component_invariant(s: RootOfMinusOne) -> int:
    """tr(T_s), an integer constant on connected components of S."""
    alg = s.algebra
    return integer_trace(alg.left_matrix_vec(s.element.coeffs)
                         @ alg.right_matrix_vec(s.element.coeffs))


def _require_tangent(s: RootOfMinusOne, left: np.ndarray, h: Element, tol: float | None) -> None:
    s.element._require_same(h)  # left is L_s: left @ h is s*h
    hc = h.coeffs
    defect = vector_norm(left @ hc + s.algebra.multiply_vec(hc, s.element.coeffs))
    if not within_tol(defect, 2.0 * s.element.norm() * h.norm(), tol):
        raise NotTangentError(f"anticommutator defect {defect:.3e}")


def j_structure(s: RootOfMinusOne, h: Element, tol: float | None = None) -> Element:
    """The complex structure h -> s*h on the tangent space at s."""
    left = s.algebra.left_matrix_vec(s.element.coeffs)
    _require_tangent(s, left, h, tol)
    return Element(s.algebra, left @ h.coeffs)  # s*h


def nijenhuis(s: RootOfMinusOne, x: Element, y: Element,
              tol: float | None = None) -> Element:
    """Integrability tensor s(yx) - s(xy) + (sx)y - (sy)x at tangent x, y.

    Bracket expansion of N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] for
    constant fields; associativity of the algebra forces it to vanish.
    L_s is gathered once, for both tangency checks and the tensor.
    """
    alg, xc, yc = s.algebra, x.coeffs, y.coeffs
    left, mul = alg.left_matrix_vec(s.element.coeffs), alg.multiply_vec
    _require_tangent(s, left, x, tol)
    _require_tangent(s, left, y, tol)
    # left @ v is s*v; the terms are summed left to right, as written above
    return Element(alg, left @ mul(yc, xc) - left @ mul(xc, yc)
                   + mul(left @ xc, yc) - mul(left @ yc, xc))


# -- complexified eigenspace -------------------------------------------------


def minus_i_eigenspace(s: RootOfMinusOne) -> np.ndarray:
    """The (-i)-eigenspace of L_s on the complexification.

    The range of the projector (1 + i L_s)/2, of rank N/2, spanned by the
    vectors v + i(s*v); each orthonormal column w returned satisfies
    L_s w = -i w, so its imaginary part is s times its real part.
    """
    alg = s.algebra
    proj = 0.5 * (np.eye(alg.dimension) + 1j * alg.left_matrix_vec(s.element.coeffs))
    return projector_range(proj, alg.dimension // 2)


# -- trace report ------------------------------------------------------------


@dataclass(frozen=True)
class TraceReport:
    """Identity checks, a row each with its verdict."""

    rows: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return all(row["pass"] for row in self.rows)


def _signature_trace_formula(signature: tuple[int, int], s0: float, s_top: float) -> float:
    """Expected tr(T_s) from the metric signature and the coefficients of s
    on the unit and on the pseudoscalar."""
    p, q = signature
    n = p + q
    scale = float(2 ** n)
    d = (p - q) % 4
    if d in (0, 2):
        return scale * s0 * s0
    if d == 1:
        return scale * (s0 * s0 + s_top * s_top)
    return scale * (s0 * s0 - s_top * s_top)


def verify_trace_identities(s: RootOfMinusOne, tol: float | None = None) -> TraceReport:
    """Check the vanishing traces of L_s, R_s, F_s and, for Clifford
    algebras, the unit-coefficient constraint and the signature formula
    for tr(T_s).  A trace of an N x N operator sums N terms of its size:
    ||s|| for L_s and R_s, ||s||^2 for T_s; s_0 = tr(L_s) / N has size ||s||.
    """
    alg = s.algebra
    n, ns = alg.dimension, s.element.norm()
    left = alg.left_matrix_vec(s.element.coeffs)
    right = alg.right_matrix_vec(s.element.coeffs)
    rows = []

    def add(name: str, residual: float, size: float) -> None:
        rows.append({"identity": name, "residual": float(residual),
                     "pass": bool(within_tol(residual, size, tol))})

    add("trace L_s = 0", abs(np.trace(left)), n * ns)
    add("trace R_s = 0", abs(np.trace(right)), n * ns)
    add("trace F_s = 0", abs(np.trace(left + right)), 2 * n * ns)
    if alg.signature is not None:
        s0 = float(s.element.coeffs[0])
        s_top = float(s.element.coeffs[-1])
        add("unit coefficient s_0 = 0", abs(s0), ns)
        expected = _signature_trace_formula(alg.signature, s0, s_top)
        add("trace T_s signature formula",
            abs(float(np.trace(left @ right)) - expected), n * ns ** 2 + abs(expected))
    return TraceReport(tuple(rows))
