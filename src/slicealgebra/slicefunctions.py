"""Stem polynomials and the slice functions they induce.

A stem F(z) = sum z^k c_k with ComplexElement coefficients induces, when
intrinsic (F(conj z) = conj F(z)), a well-defined function on the algebra
through f(pi(z, s)) = pi(F(z), s).  Evaluation runs Horner on the complex
scalar first and applies the tensor structure once, so noncommutativity of
the algebra never enters the powers of z.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, Element
from .config import within_tol
from .errors import DimensionMismatchError, InvalidTwistError, NotIntrinsicError
from .numerics import vector_norm
from .roots import RootOfMinusOne


@dataclass(frozen=True)
class StemPolynomial:
    """F(z) = sum_k z^k c_k: a read-only (d+1, N) complex array, row_norms, intrinsic_defect."""

    algebra: Algebra
    coeff_matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mat = np.array(self.coeff_matrix, dtype=complex)
        if mat.ndim != 2 or not mat.shape[0] or mat.shape[1] != self.algebra.dimension:
            raise ValueError("coefficient matrix must be (degree+1, N)")
        if not np.all(np.isfinite(mat)):
            raise ValueError("stem coefficients must be finite")
        mat.setflags(write=False)
        norms = np.array([vector_norm(row) for row in mat.view(float)])
        norms.setflags(write=False)
        object.__setattr__(self, "coeff_matrix", mat)
        object.__setattr__(self, "row_norms", norms)
        object.__setattr__(self, "intrinsic_defect", 2.0 * vector_norm(mat.imag.ravel()))

    @property
    def degree(self) -> int:
        return self.coeff_matrix.shape[0] - 1

    def evaluate_vector(self, z: complex) -> np.ndarray:
        z = complex(z)
        acc = np.array(self.coeff_matrix[-1])
        for k in range(self.coeff_matrix.shape[0] - 2, -1, -1):
            acc = z * acc + self.coeff_matrix[k]
        return acc

    def term_size(self, z: complex) -> float:
        """sum_k |z|^k ||c_k||, the summed size of the terms of F(z), by Horner's
        rule in |z|: no power |z|^k is formed, so for |z| >= 1 none overflows."""
        size = 0.0
        for norm in reversed(self.row_norms.tolist()):
            size = size * abs(z) + norm
        return size

    def evaluate_many(self, zz: np.ndarray) -> np.ndarray:
        zz = np.asarray(zz, dtype=complex)
        acc = np.broadcast_to(self.coeff_matrix[-1], zz.shape + (self.algebra.dimension,)).copy()
        for k in range(self.coeff_matrix.shape[0] - 2, -1, -1):
            acc = zz[..., None] * acc + self.coeff_matrix[k]
        return acc

    def __repr__(self) -> str:
        return (f"StemPolynomial(degree={self.degree}, "
                f"algebra_dim={self.algebra.dimension})")


def stem_from_slice_poly(a_k: list[Element]) -> StemPolynomial:
    """Intrinsic stem of the one-sided polynomial sum x^k a_k."""
    if not a_k:
        raise ValueError("need at least one coefficient")
    mat = np.stack([a.coeffs.astype(complex) for a in a_k])
    return StemPolynomial(a_k[0].algebra, mat)


def intrinsic_defect(F: StemPolynomial) -> float:
    """Coefficient norm 2 ||Im C|| of F(conj z) - conj F(z), stored with F.

    That difference is the polynomial sum_k conj(z)^k 2i Im c_k, so F is
    intrinsic exactly when every coefficient is real.
    """
    return F.intrinsic_defect


def is_intrinsic(F: StemPolynomial, tol: float | None = None) -> bool:
    """The defect against 2 ||C||, the size of C and conj C (from F's row norms)."""
    return bool(within_tol(intrinsic_defect(F), 2.0 * vector_norm(F.row_norms), tol))


def require_intrinsic(F: StemPolynomial, tol: float | None = None) -> None:
    if not is_intrinsic(F, tol):
        raise NotIntrinsicError(
            f"stem is not intrinsic (defect {intrinsic_defect(F):.3e})")


def eval_slice(F: StemPolynomial, z: complex, s: RootOfMinusOne,
               tol: float | None = None) -> Element:
    """f(pi(z, s)) = pi(F(z), s) for the induced slice function.  A root
    from an algebra incompatible with F's raises DimensionMismatchError."""
    require_intrinsic(F, tol)
    if not F.algebra.compatible(s.algebra):
        raise DimensionMismatchError("root and stem from incompatible algebras")
    w = F.evaluate_vector(z)  # pi(F(z), s) on coefficients: a + s*b
    return Element(F.algebra, w.real + s.left @ w.imag.copy())


def alpha_beta(F: StemPolynomial, z: complex,
               tol: float | None = None) -> tuple[Element, Element]:
    """The decomposition f(x + sy) = alpha(z) + s beta(z)."""
    require_intrinsic(F, tol)
    w = F.evaluate_vector(z)
    return F.algebra.element(w.real), F.algebra.element(w.imag)


def cauchy_riemann_residual(F: StemPolynomial, z: complex, s: RootOfMinusOne,
                            h: float = 1e-5, *, tol: float | None = None) -> float:
    """Central-difference norm of (d/dx + L_s d/dy) f(x + sy), O(h^2) for
    the intrinsic stem it requires.  The default step h = 1e-5 balances that
    truncation error against the rounding eps / h of the differences."""
    require_intrinsic(F, tol)
    if not h > 0:
        raise ValueError("step must be positive")
    left = s.left
    w = np.array([F.evaluate_vector(complex(z) + d) for d in (h, -h, 1j * h, -1j * h)])
    f = w.real + w.imag @ left.T  # eval_slice's coefficients a + s*b, a row each
    fx, fy = (f[0] - f[1]) / (2.0 * h), (f[2] - f[3]) / (2.0 * h)
    return vector_norm(fx + left @ fy)


def eval_generalized(F: StemPolynomial, twist, z: complex,
                     s: RootOfMinusOne, tol: float | None = None) -> Element:
    """f(pi(z, s)) = pi(F(z), twist(z, s)) for a twist (z, s) -> Element,
    such as lambda z, s: s.element or, for the inner automorphism
    s -> y^{-1} s y, lambda z, s: left_divide(y, s.element * y).  An output
    that is no root of -1 at tol raises InvalidTwistError."""
    require_intrinsic(F, tol)
    root = RootOfMinusOne(twist(z, s))
    if not root.holds(tol):
        raise InvalidTwistError(f"twist output has residual {root.residual:.3e}")
    return eval_slice(F, z, root, tol)
