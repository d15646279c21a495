"""Twistor maps: the quaternionic projective pipeline and the generalized
stereographic bundle.

The CP^1 x CP^1 -> CP^3 model identifies the quaternions with gamma(z, w) =
z_I + w_I J; point evaluation of a slice function factors through Segre
embeddings and a linear projection delta1, sending complex spheres to
projective lines.  For a general algebra with a fixed root u, the fiber over
s collects the c with u*c = c*s; a section of that bundle turns a stem into
a map to P(E + E) whose chart quotient recovers the slice function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, Element, left_divide
from .config import ROUNDED_ZERO, within_tol
from .errors import (
    BadSectionError,
    BasePointAtInfinityError,
    DegenerateImageError,
    FrameNotFoundError,
)
from .numerics import numerical_rank, projector_range, vector_norm
from .roots import RootOfMinusOne, integer_trace
from .slicefunctions import StemPolynomial, require_intrinsic


@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous coordinates, scaled so the first nonzero entry is 1."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        vec = np.array(self.coords, dtype=complex).ravel()
        size = np.abs(vec)
        peak = size.max() if vec.size else 0.0
        if not np.isfinite(peak):  # the max is NaN if any coordinate is
            raise ValueError("projective point needs finite coordinates")
        if peak == 0.0:
            raise ValueError("projective point needs a nonzero coordinate")
        # scale by the first coordinate that is no rounded zero
        lead = np.flatnonzero(size > ROUNDED_ZERO * peak)[0]
        vec = vec / vec[lead]
        vec.setflags(write=False)
        object.__setattr__(self, "coords", vec)

    def chordal_distance(self, other: "ProjectivePoint") -> float:
        a = self.coords / np.linalg.norm(self.coords)
        b = other.coords / np.linalg.norm(other.coords)
        # align the global phase first: sqrt(2 - 2|<a,b>|) computed as a
        # difference norm stays exact near zero
        overlap = np.vdot(a, b)
        if abs(overlap) > 0:
            b = b * (np.conj(overlap) / abs(overlap))
        return float(np.linalg.norm(a - b))

    def __repr__(self) -> str:
        inside = ":".join(f"{c:.4g}" for c in self.coords)
        return f"[{inside}]"


@dataclass(frozen=True)
class QuaternionFrame:
    """A basis {1, I, J, K} with I^2 = J^2 = -1, IJ = K = -JI, in I's algebra."""

    i: Element
    j: Element
    algebra: Algebra = field(init=False, repr=False, compare=False)
    matrix: np.ndarray = field(init=False, repr=False, compare=False)  # columns 1, I, J, K

    def __post_init__(self) -> None:
        object.__setattr__(self, "algebra", self.i.algebra)
        if self.algebra.dimension != 4:
            raise FrameNotFoundError("frame requires a 4-dimensional algebra")
        anti = (self.i * self.j + self.j * self.i).norm()
        if not (RootOfMinusOne(self.i).holds() and RootOfMinusOne(self.j).holds()
                and within_tol(anti, 2.0 * self.i.norm() * self.j.norm())):
            raise FrameNotFoundError("candidate pair is not a quaternion frame")
        k = self.i * self.j
        mat = np.stack([self.algebra.unit().coeffs, self.i.coeffs, self.j.coeffs, k.coeffs], axis=1)
        if numerical_rank(np.linalg.svd(mat, compute_uv=False)) < 4:
            raise FrameNotFoundError("frame vectors are linearly dependent")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def detect(cls, algebra: Algebra) -> "QuaternionFrame":
        """The first pair of _trace_free_frames that the constructor accepts."""
        if algebra.dimension != 4:
            raise FrameNotFoundError(
                f"dimension {algebra.dimension} algebra has no quaternion frame")
        for a, b in _trace_free_frames(algebra):
            try:
                return cls(a, b)
            except FrameNotFoundError:
                continue
        raise FrameNotFoundError("no quaternion frame in this basis")

    @property
    def i_root(self) -> RootOfMinusOne:
        return RootOfMinusOne(self.i)


def _trace_free_frames(algebra: Algebra):
    """Candidate pairs (I, J) of a quaternion frame, in any basis.  With a0
    and b0 the trace-free parts a - tr(L_a)/N of non-unit basis elements, I
    is a0 and J is (b0 + I b0 I)/2, the part of b0 that anticommutes with I,
    each scaled so that the scalar part tr(L_{x^2})/N of its square is -1.
    The unit is a basis element, so on an algebra isomorphic to H the other
    three parts span Im H; on the standard basis the first pair is (e1, e2)."""
    def scalar_part(a: Element) -> float:
        return np.trace(algebra.left_matrix_vec(a.coeffs)) / algebra.dimension

    def scaled(a: Element) -> Element | None:
        lam = -scalar_part(a * a)
        return a / np.sqrt(lam) if lam > 0 else None

    basis = (algebra.basis_element(k) for k in range(algebra.dimension)
             if k != algebra.unit_index)
    pure = [e - algebra.scalar(scalar_part(e)) for e in basis]
    for i in (x for x in map(scaled, pure) if x is not None):
        for j in (scaled((b + i * b * i) / 2) for b in pure):
            if j is not None:
                yield i, j


def gamma(z: complex, w: complex, frame: QuaternionFrame) -> Element:
    """gamma(z, w) = (Re z) 1 + (Im z) I + (Re w) J + (Im w) K."""
    z, w = complex(z), complex(w)
    vec = frame.matrix @ np.array([z.real, z.imag, w.real, w.imag])
    return frame.algebra.element(vec)


def segre1(p: ProjectivePoint, q: ProjectivePoint) -> ProjectivePoint:
    """([x:y], [a:b]) -> [xa:xb:ya:yb], the Klein-quadric embedding."""
    if p.coords.shape != (2,) or q.coords.shape != (2,):
        raise ValueError("segre1 expects two CP^1 points")
    return ProjectivePoint(np.outer(p.coords, q.coords).ravel())


def segre2(p: ProjectivePoint, q: ProjectivePoint) -> ProjectivePoint:
    """CP^4 x CP^1 -> CP^9 in lexicographic coordinate order."""
    if p.coords.shape != (5,) or q.coords.shape != (2,):
        raise ValueError("segre2 expects a CP^4 and a CP^1 point")
    return ProjectivePoint(np.outer(p.coords, q.coords).ravel())


def delta1(p: ProjectivePoint) -> ProjectivePoint:
    """Linear projection CP^9 -> CP^3 factoring quaternionic evaluation.

    Pairing the Segre coordinates w_{2m+n} = v_m u_n with the right actions
    of 1, I, J, K puts the J and K contributions of v in the opposite CP^1
    slot: the third output takes -w_7 + i w_9 and the fourth +w_6 + i w_8.
    """
    if p.coords.shape != (10,):
        raise ValueError("delta1 expects a CP^9 point")
    w = p.coords
    out = np.array([w[0],
                    w[1],
                    w[2] + 1j * w[4] - w[7] + 1j * w[9],
                    w[3] - 1j * w[5] + w[6] + 1j * w[8]])
    peak = np.abs(w).max()
    if np.abs(out).max() <= ROUNDED_ZERO * peak:
        raise DegenerateImageError("delta1 image is the zero vector")
    return ProjectivePoint(out)


def rho1(p: ProjectivePoint, frame: QuaternionFrame) -> Element:
    """gamma(w0, w1)^{-1} gamma(w2, w3) on the affine chart of CP^3."""
    if p.coords.shape != (4,):
        raise ValueError("rho1 expects a CP^3 point")
    w = p.coords
    base_scale = np.abs(w[:2]).max()
    if base_scale <= ROUNDED_ZERO * np.abs(w).max():
        raise BasePointAtInfinityError("base point (w0, w1) = (0, 0)")
    return left_divide(gamma(w[0], w[1], frame), gamma(w[2], w[3], frame))


def rho(z: complex, u: ProjectivePoint, frame: QuaternionFrame) -> Element:
    """rho(z, [u0:u1]) = rho1(segre1([1:z], u)), a point of the slice C_s."""
    return rho1(segre1(ProjectivePoint(np.array([1.0, z])), u), frame)


def twistor_lift(F: StemPolynomial, z: complex, u: ProjectivePoint,
                 frame: QuaternionFrame,
                 tol: float | None = None) -> ProjectivePoint:
    """Lift of the induced slice function to CP^3: delta1 of the Segre image
    of [1 : F_0(z) : F_1(z) : F_2(z) : F_3(z)] with u."""
    require_intrinsic(F, tol)
    with np.errstate(over="ignore", invalid="ignore"):  # ProjectivePoint rejects inf and NaN
        comps = np.linalg.solve(frame.matrix, F.evaluate_vector(z))  # in {1, I, J, K}
    cp4 = ProjectivePoint(np.concatenate([[1.0 + 0j], comps]))
    return delta1(segre2(cp4, u))


# -- stereographic bundle ----------------------------------------------------


def fiber_embed(u: RootOfMinusOne, a: Element) -> np.ndarray:
    """C-linear chart of E = (A, L_u) into C^N: a -> a - i(u a)."""
    return a.coeffs - 1j * u.algebra.multiply_vec(u.element.coeffs, a.coeffs)


def stereographic_fiber(u: RootOfMinusOne, s: RootOfMinusOne) -> np.ndarray:
    """The fiber over s of the bundle carried by (A, L_u), embedded C-linearly.

    The real solution space B of u c = c s is L_u-closed, so its chart
    image B - i (L_u B) is a complex subspace of half the real dimension:
    the range of (1 - i L_u)/2 (the +i-eigenspace of L_u, which commutes
    with R_s L_u) times the fiber projector (1 - R_s L_u)/2, onto B, the
    (-1)-eigenspace of the involution R_s L_u, of rank (N - tr R_s L_u)/2;
    the range is found by one projector_range.
    """
    alg = u.algebra
    left = alg.left_matrix_vec(u.element.coeffs)
    op = alg.right_matrix_vec(s.element.coeffs) @ left
    proj, rank = 0.5 * (np.eye(alg.dimension) - op), (alg.dimension - integer_trace(op)) // 2
    chart = 0.5 * (proj - 1j * (left @ proj))  # (1 - i L_u)/2 times proj
    return projector_range(chart, rank // 2)


def standard_section(u: RootOfMinusOne):
    """Section s -> 1 - u s of the stereographic bundle, valid away from -u."""
    alg, uv = u.algebra, u.element.coeffs

    def section(s: RootOfMinusOne) -> Element:
        return Element(alg, alg.unit_vector - alg.multiply_vec(uv, s.element.coeffs))

    return section


def generalized_twistor(F: StemPolynomial, sigma, z: complex,
                        s: RootOfMinusOne, u: RootOfMinusOne,
                        tol: float | None = None) -> ProjectivePoint:
    """Point of P(E + E) inducing the slice function at (z, s) in the bundle
    over the root u (on H, frame.i_root).

    The first block is the chart image of c = sigma(s); the second is the
    image of T_{F(z)}(c) = c a + u (c b) for F(z) = a + i b.  Taking the
    ratio gamma(c)^{-1} gamma(T c) in the algebra recovers eval_slice; only
    that quotient, rho1_general, needs c invertible, and it decides.
    """
    require_intrinsic(F, tol)
    if not u.holds(tol):
        raise BadSectionError("bundle base point u is not a root of -1")
    alg, left_u = u.algebra, u.algebra.left_matrix_vec(u.element.coeffs)
    c = sigma(s)
    left_c = alg.left_matrix_vec(c.coeffs)  # for u c - c s and the image
    defect = vector_norm(left_u @ c.coeffs - left_c @ s.element.coeffs)
    if not within_tol(defect, c.norm() * (u.element.norm() + s.element.norm()), tol):
        raise BadSectionError(f"section value misses the fiber (defect {defect:.3e})")
    if c.norm() == 0.0:
        raise BadSectionError("section value is zero")
    w = F.evaluate_vector(z)
    image = left_c @ w.real.copy() + left_u @ (left_c @ w.imag.copy())
    return ProjectivePoint(np.concatenate([v - 1j * (left_u @ v) for v in (c.coeffs, image)]))


def rho1_general(p: ProjectivePoint, u: RootOfMinusOne) -> Element:
    """Chart quotient of a P(E + E) point: gamma(c)^{-1} gamma(d).

    Both blocks sit in the chart image of E, so their E-representatives are
    the real parts; the ratio is scale-invariant.
    """
    n = u.algebra.dimension
    if p.coords.shape != (2 * n,):
        raise ValueError("point does not match the algebra dimension")
    c = u.algebra.element(p.coords[:n].real)
    d = u.algebra.element(p.coords[n:].real)
    return left_divide(c, d)
