"""The locus S = {s : s*s = -1} inside a real associative algebra.

Membership, seed search, conjugation orbits, tangent spaces ker(F_s), the
integer component invariant tr(T_s), the complex structure h -> s*h on
tangent spaces, and the (-i)-eigenspace of L_s inside the complexification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Element, kept_property, right_divide
from .config import within_tol
from .errors import NonIntegerTraceError, NotFoundError, NotTangentError
from .numerics import (_EPS, NEWTON_ITERATIONS, affine_square_root, null_space,
                       projector_range, vector_norm)


@dataclass(frozen=True)
class RootOfMinusOne:
    """A candidate s for s*s = -1 and its defect ||s*s + 1||; the defect and
    L_s and R_s are each formed on first read and kept, or kept from the polish."""

    element: Element

    @kept_property
    def left(self) -> np.ndarray:
        """L_s, the read-only matrix of x -> s*x."""
        m = self.algebra.left_matrix_vec(self.element.coeffs)
        m.setflags(write=False)
        return m

    @kept_property
    def right(self) -> np.ndarray:
        """R_s, the read-only matrix of x -> x*s."""
        m = self.algebra.right_matrix_vec(self.element.coeffs)
        m.setflags(write=False)
        return m

    @kept_property
    def residual(self) -> float:
        return vector_norm(self.left @ self.element.coeffs + self.algebra.unit_vector)

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
    element, so this covers every blade.  That root is kept, per index, in
    algebra.kept (gc frees the cycle), so its L_s, R_s, defect and norm are
    formed once.  Up to 50 damped Newton searches on a*a + 1 = 0
    from random starts, their root not kept, are the fallback.
    A central root (L_s = R_s by the tolerance rule), whose conjugation
    orbit is one point, is only kept as the answer of last resort.
    """
    n = algebra.dimension
    hits = np.flatnonzero(within_tol(algebra.basis_square_defects, 4.0, tol))
    if hits.size:
        kept, key = algebra.kept, ("seed root", int(hits[0]))
        return kept.get(key) or kept.setdefault(key, RootOfMinusOne(algebra.basis_element(key[1])))
    if rng is None:
        rng = np.random.default_rng(0)
    central = None
    for _ in range(50):
        x, _ = affine_square_root(algebra, np.zeros(n), np.eye(n),
                                  rng.standard_normal(n))
        cand = RootOfMinusOne(Element(algebra, x))
        if cand.holds(tol):
            left, right = cand.left, cand.right
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
    does, on coefficient arrays: only the polished root is wrapped.

    A draw is rejected when LU finds R_y singular (LAPACK's LinAlgError),
    when the conjugate is not finite or has norm above 32 (a cap, not a
    tolerance: on noncompact components the orbit is unbounded), or when
    the root newton_schulz polishes it to fails `holds` at the polish's defect.
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
        if (root := newton_schulz(algebra, out)).holds(tol):
            return root
    raise NotFoundError("conjugation sampling failed repeatedly")


def newton_schulz(algebra: Algebra, x: np.ndarray) -> RootOfMinusOne:
    """Newton-Schulz steps x <- x (x*x + 3)/2 toward x*x = -1 from x, L_x
    gathered once a step; returns the root at the x of least defect, which
    keeps that step's L_x and ||x*x + 1|| (nothing, if the first is NaN).

    On S the inverse is known, x^{-1} = -x, and putting it into the Newton
    step x - (x*x + 1)(2x)^{-1} gives the Newton-Schulz iteration for the
    matrix sign function (Higham, Functions of Matrices, 2008, ch. 5 and 8).
    The defect d = x*x + 1 commutes with x, so a step sends it to
    d^2 (3 + d) / 4: quadratic convergence without an inverse.  The steps
    stop one step past the rounding floor eps * N * (1 + ||x||)^2 of x*x,
    when the defect stops falling, or after NEWTON_ITERATIONS steps.
    """
    unit, floor, three = algebra.unit_vector, _EPS * algebra.dimension, 3.0 * algebra.unit_vector
    best, defect, kept, last = x, np.inf, None, False
    for _ in range(NEWTON_ITERATIONS):
        left = algebra.left_matrix_vec(x)
        square = left @ x
        rn = vector_norm(square + unit)
        if not rn < defect:  # stopped falling (NaN included)
            break
        best, defect, kept = x, rn, left
        if last:  # one step past the rounding floor
            break
        last = rn <= floor * (1.0 + vector_norm(x)) ** 2
        x = 0.5 * (left @ (square + three))
    root = RootOfMinusOne(Element(algebra, best))
    if kept is not None:  # kept where the cached properties keep theirs: the same bits
        kept.setflags(write=False)
        root.__dict__.update(left=kept, residual=defect)
    return root


# -- tangent structure -------------------------------------------------------


def tangent_frame(s: RootOfMinusOne) -> np.ndarray:
    """Kernel of F_s = L_s + R_s by singular value decomposition: orthonormal (N, k)."""
    return null_space(s.left + s.right)


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
    return integer_trace(s.left @ s.right)


def _require_tangent(s: RootOfMinusOne, h: Element, tol: float | None) -> None:
    s.element._require_same(h)
    hc = h.coeffs
    defect = vector_norm(s.left @ hc + s.right @ hc)  # s*h + h*s
    if not within_tol(defect, 2.0 * s.element.norm() * h.norm(), tol):
        raise NotTangentError(f"anticommutator defect {defect:.3e}")


def j_structure(s: RootOfMinusOne, h: Element, tol: float | None = None) -> Element:
    """The complex structure h -> s*h on the tangent space at s."""
    _require_tangent(s, h, tol)
    return Element(s.algebra, s.left @ h.coeffs)  # s*h


def nijenhuis(s: RootOfMinusOne, x: Element, y: Element,
              tol: float | None = None) -> Element:
    """Integrability tensor s(yx) - s(xy) + (sx)y - (sy)x at tangent x, y.

    Bracket expansion of N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] for
    constant fields; associativity of the algebra forces it to vanish.
    """
    alg, xc, yc = s.algebra, x.coeffs, y.coeffs
    left, mul = s.left, alg.multiply_vec
    _require_tangent(s, x, tol)
    _require_tangent(s, y, tol)
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
    n = s.algebra.dimension
    return projector_range(0.5 * (np.eye(n) + 1j * s.left), n // 2)


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
    alg, left, right = s.algebra, s.left, s.right
    n, ns = alg.dimension, s.element.norm()
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
