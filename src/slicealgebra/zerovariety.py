"""Complexified elements, the evaluation map pi, and the zero variety.

A complexified element w = 1(x)a + i(x)b is stored as the pair (a, b).  The
evaluation pi(w, s) = a + s*b ties w to each square root s of -1; the zero
variety collects the w annihilated by some s.  Witness search solves
s*b = -a and decides by one band rule, exact outside it, with an explicit
"inconclusive" verdict when the search is not a proof of absence.  Every
path accepts a root by one test, `ZeroWitness.holds`.

`discrete_zero_scan` finds the zeros of a slice function exactly, as
eigenvalues of the real matrix polynomial z -> R_{F(z)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb

import numpy as np

from .algebra import Algebra, Element, kept_property, right_divide
from .config import RANK_RELTOL, resolve_tol, within_tol
from .errors import (NotFoundError, PreconditionFailedError, SliceAlgebraError,
                     ZeroDivisorError)
from .numerics import affine_square_root, numerical_rank, svd_rank, vector_norm
from .roots import (
    RootOfMinusOne,
    find_seed_root,
    sample_root,  # noqa: F401 - unused; bench/tests checks the tracer rebinds it here
)
from .slicefunctions import StemPolynomial, require_intrinsic


@dataclass(frozen=True)
class ComplexElement:
    """w = 1(x)re + i(x)im with both parts in the same algebra."""

    re: Element
    im: Element

    def __post_init__(self) -> None:
        if not self.re.algebra.compatible(self.im.algebra):
            raise ValueError("components from incompatible algebras")

    @property
    def algebra(self) -> Algebra:
        return self.re.algebra

    @classmethod
    def from_vector(cls, algebra: Algebra, vec: np.ndarray) -> "ComplexElement":
        v = np.asarray(vec)
        return cls(algebra.element(v.real.astype(float)),
                   algebra.element(v.imag.astype(float)))

    def as_vector(self) -> np.ndarray:
        return self.re.coeffs + 1j * self.im.coeffs

    def conj(self) -> "ComplexElement":
        return ComplexElement(self.re, -self.im)

    def norm(self) -> float:
        return float(np.hypot(self.re.norm(), self.im.norm()))

    def __mul__(self, other: "ComplexElement") -> "ComplexElement":
        self.re._require_same(other.re)  # (ac - bd) + i(ad + bc), L_a and L_b gathered once
        alg, c, d = self.algebra, other.re.coeffs, other.im.coeffs
        la, lb = alg.left_matrix_vec(self.re.coeffs), alg.left_matrix_vec(self.im.coeffs)
        return ComplexElement(Element(alg, la @ c - lb @ d), Element(alg, la @ d + lb @ c))


def tau_involution(w: ComplexElement, s: RootOfMinusOne):
    """The codomain involution (w, s) -> (conj w, -s)."""
    return w.conj(), RootOfMinusOne(-s.element)


def pi_eval(z: complex, s: RootOfMinusOne) -> Element:
    """pi(x + iy, s) = x + y*s."""
    z = complex(z)
    return s.algebra.scalar(z.real) + z.imag * s.element


def pi_tensor_eval(w: ComplexElement, s: RootOfMinusOne) -> Element:
    """pi(1(x)a + i(x)b, s) = a + s*b, with s*b read off the root's kept L_s."""
    s.element._require_same(w.im)
    return w.re + Element(s.algebra, s.left @ w.im.coeffs)


# -- witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class ZeroWitness:
    """A pair (w, s) for pi(w, s) = 0, its residual ||a + s*b|| and size, measured on first read."""

    w: ComplexElement
    root: RootOfMinusOne

    @kept_property
    def residual(self) -> float:
        return pi_tensor_eval(self.w, self.root).norm()

    @kept_property
    def size(self) -> float:
        """||a|| + ||s|| ||b||, the size of the terms that cancel in a + s*b."""
        return self.w.re.norm() + self.root.element.norm() * self.w.im.norm()

    def holds(self, tol: float | None = None) -> bool:
        """Both identities pass the tolerance rule: s*s + 1 as the root
        holds, and a + s*b against the witness's size."""
        return self.root.holds(tol) and bool(within_tol(self.residual, self.size, tol))


@dataclass(frozen=True)
class WitnessSearch:
    """Outcome of a witness search: found, absent (only when the decision
    was exact, see zero_variety_witness) or inconclusive."""

    status: str
    witness: ZeroWitness | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def _excluded(witness: ZeroWitness, sigma_min: float, tol: float) -> bool:
    """No witness at tol lies near s: each s' = s + d has ||d|| <= r, where
    (sigma_min(R_b) - tol ||b||) r = ||a + s*b|| + tol size (ZeroWitness.size),
    and ||s'*s' + 1|| >= ||s*s + 1|| - ||L_s + R_s||_F r - mu r^2, as ||x*y|| <=
    mu ||x|| ||y|| for mu the Frobenius norm of the structure constants."""
    root, ns = witness.root, witness.root.element.norm()
    gap = sigma_min - tol * witness.w.im.norm()
    if gap <= 0.0:  # R_b bounds no distance
        return False
    mu = root.algebra.structure_norm
    r = (witness.residual + tol * witness.size) / gap
    lip = np.linalg.norm(root.left + root.right)
    return bool(root.residual - lip * r - mu * r * r > tol * (1.0 + ns + r) ** 2)


def _verdict(w: ComplexElement, candidates, tol: float | None, otherwise: str = "absent",
             sigma_min: float = 0.0) -> WitnessSearch:
    """A "found" search with the first candidate s whose witness holds at
    tol.  In the band (it holds at sqrt(tol) only): "absent" if _excluded(s)
    by `sigma_min` (of R_b for an invertible b; 0 excludes nothing), else a
    joint Newton from s on rows [R_b | a] weighted onto (1 + ||s||)^2.  No
    candidate in the band: `otherwise`.  Candidates: witnesses, maybe lazy."""
    alg, a, b, tol = w.algebra, w.re, w.im, resolve_tol(tol)
    status = otherwise
    for witness in candidates:
        s = witness.root.element
        if not witness.holds(tol) and witness.holds(np.sqrt(tol)):
            if _excluded(witness, sigma_min, tol):
                return WitnessSearch("absent")
            status = "inconclusive"
            rows = np.column_stack([alg.right_matrix_vec(b.coeffs), a.coeffs])
            rows *= (1.0 + s.norm()) ** 2 / witness.size
            joint, _ = affine_square_root(alg, s.coeffs, np.eye(alg.dimension),
                                          np.zeros(alg.dimension), rows)
            witness = ZeroWitness(w, RootOfMinusOne(alg.element(joint)))
        if witness.holds(tol):
            return WitnessSearch("found", witness)
    return WitnessSearch(status)


def zero_variety_witness(w: ComplexElement,
                         tol: float | None = None,
                         rng: np.random.Generator | None = None) -> WitnessSearch:
    """Search for s in S with pi(w, s) = 0.

    The first candidate is s = -a*b^{-1}, by LU on R_b (b = w.im): found if
    its witness holds at tol, else the unique one if R_b's singular values
    (numerical_rank, values only) call b invertible.  On an exact zero
    pivot, or a b the cutoff calls singular (maybe only ill-conditioned: LU's
    s stays first), Newton for s*s = -1 runs on the solutions of s*b = -a
    (_solution_witnesses, which z0_equivalence_check runs inside A0), from
    the particular one and up to 19 random points.  One band rule decides
    (_verdict).  "absent" is exact: the unique s is no root at sqrt(tol), a
    misses range(R_b), or in the band sigma_min(R_b) bars witnesses.
    """
    alg, a, b = w.algebra, w.re, w.im

    if b.norm() == 0.0 == a.norm():  # w = 0 meets every root; a != 0 misses range(R_0)
        try:
            return _verdict(w, [ZeroWitness(w, find_seed_root(alg, rng=rng, tol=tol))], tol)
        except NotFoundError:  # S is empty
            return WitnessSearch("absent")

    rb = alg.right_matrix_vec(b.coeffs)
    try:  # s = -a*b^{-1}, by LU on R_b: backward stable
        lu = [ZeroWitness(w, RootOfMinusOne(alg.element(np.linalg.solve(rb, -a.coeffs))))]
    except np.linalg.LinAlgError:  # an exact zero pivot: R_b is singular
        lu = []
    if lu and lu[0].holds(tol):  # a witness is its own proof
        return WitnessSearch("found", lu[0])
    if lu and numerical_rank(sv := np.linalg.svd(rb, compute_uv=False)) == alg.dimension:
        return _verdict(w, lu, tol, sigma_min=sv[-1])  # b is invertible: s is unique
    if (solutions := _solution_witnesses(w, rb, None, 20, rng)) is None:
        return WitnessSearch("absent")  # a lies outside the range of R_b
    witnesses, unique = solutions
    return _verdict(w, chain(lu, witnesses), tol, "absent" if unique else "inconclusive")


def _solution_witnesses(w: ComplexElement, m: np.ndarray, span: np.ndarray | None,
                        starts: int, rng: np.random.Generator | None):
    """Witnesses of the s = span @ t (span None: the identity) with s*b = -a,
    m = R_b @ span, from a thin SVD of m: None when a misses range(m) by
    sqrt(RANK_RELTOL) relative, else (witnesses, unique): the particular s if
    m has no kernel, else affine_square_root on it from 0 and starts - 1
    random points, lazily."""
    alg, a = w.algebra, w.re.coeffs
    u, sv, vt, rank = svd_rank(m)
    base = vt[:rank].T @ ((u[:, :rank].T @ -a) / sv[:rank])
    if vector_norm(m @ base + a) > np.sqrt(RANK_RELTOL) * (vector_norm(a) + sv[0] * vector_norm(base)):
        return None
    base, kernel = (base, vt[rank:].T) if span is None else (span @ base, span @ vt[rank:].T)
    if not kernel.shape[1]:
        return [ZeroWitness(w, RootOfMinusOne(alg.element(base)))], True
    rng = np.random.default_rng(0) if rng is None else rng
    xs = chain([np.zeros(kernel.shape[1])],
               (rng.standard_normal(kernel.shape[1]) for _ in range(starts - 1)))
    return (ZeroWitness(w, RootOfMinusOne(alg.element(affine_square_root(alg, base, kernel, x)[0])))
            for x in xs), False


def leaf_membership(w: ComplexElement, a: Element,
                    tol: float | None = None,
                    rng: np.random.Generator | None = None) -> WitnessSearch:
    """Does some slice function value at w equal a: witness for (w.re - a, w.im)."""
    shifted = ComplexElement(w.re - a, w.im)
    return zero_variety_witness(shifted, tol=tol, rng=rng)


# -- absorption --------------------------------------------------------------


def _require_witness(witness: ZeroWitness, tol: float | None) -> None:
    if not witness.holds(tol):
        raise PreconditionFailedError(
            f"witness residual {witness.residual:.3e}, root defect {witness.root.residual:.3e}")


def right_absorption(witness: ZeroWitness, wp: ComplexElement,
                     tol: float | None = None) -> ZeroWitness:
    """The product w*wp stays in the zero variety with the same witness root."""
    _require_witness(witness, tol)
    return ZeroWitness(witness.w * wp, witness.root)


def left_absorption(witness: ZeroWitness, wp: ComplexElement,
                    tol: float | None = None,
                    rng: np.random.Generator | None = None) -> WitnessSearch:
    """Witness for wp*w given a witness root for w.

    Writing wp = (s', t) and a for the witness root of w, the product is
    annihilated by b = (s'a + t)(s' - ta)^{-1}, a conjugate of a, whenever
    s' - ta is invertible; otherwise, or when that b does not hold at tol,
    a bounded witness search runs on the product and may come back
    inconclusive.
    """
    _require_witness(witness, tol)
    a = witness.root.element
    sp, t = wp.re, wp.im
    product = wp * witness.w
    try:
        closed_form = [ZeroWitness(product, RootOfMinusOne(right_divide(sp * a + t, sp - t * a)))]
    except ZeroDivisorError:  # s' - ta is singular: no closed form
        closed_form = []
    found = _verdict(product, closed_form, tol)
    return found if found.found else zero_variety_witness(product, tol=tol, rng=rng)


# -- zero scan ---------------------------------------------------------------

# Shifts mu for z = mu + 1/zeta (real: conjugate pairs stay exact); the first
# where R(mu) has its highest rank is used.  _PROBE: a generic off-axis point.
_SHIFTS = (0.0, 0.5772156649, -1.2020569032, 1.6180339887, -2.7182818285)
_PROBE = complex(0.5772156649, 1.4142135624)


@dataclass(frozen=True)
class ZeroScanHit:
    z: complex
    classification: str  # "real" | "sphere" | "isolated"
    unused: int  # placeholder: bench/tests builds hits positionally
    residual: float

    def to_json(self) -> dict:
        return {"z": [float(self.z.real), float(self.z.imag)],
                "class": self.classification,
                "residual": float(self.residual)}


def _eigenvalues(mats: np.ndarray, scale: float) -> tuple[np.ndarray, int, float]:
    """The finite z at which R(z) = sum_k z^k mats[k] drops below its generic
    rank r, r (`scale` as in svd_rank) and the shift mu.  With R(mu) = U S V^T
    of rank r, U_r^T R(z) V_r is regular and singular wherever rank R(z) < r
    (if R(z) is singular at every z beyond a constant kernel, elsewhere too:
    the caller's exact classification drops those).  Solved by the block
    companion matrix of zeta^d S_r^{-1} U_r^T R(mu + 1/zeta) V_r."""
    n, d = mats.shape[1], len(mats) - 1
    best = None
    for mu in _SHIFTS:
        taylor = [sum(comb(j, k) * mu ** (j - k) * mats[j] for j in range(k, d + 1))
                  for k in range(d + 1)]
        u, sv, vt, rank = svd_rank(taylor[0], scale)
        if best is None or rank > best[0]:
            best = (rank, mu, taylor, u, sv, vt)
        if rank == n:
            break
    rank, mu, taylor, u, sv, vt = best
    if d == 0 or rank == 0:
        return np.empty(0, dtype=complex), rank, mu
    companion = np.eye(rank * d, k=-rank)
    companion[:rank] = -np.concatenate(
        [u[:, :rank].T @ t @ vt[:rank].T for t in taylor[1:]], axis=1) / sv[:rank, None]
    zeta = np.linalg.eigvals(companion)
    return mu + 1.0 / zeta[zeta != 0], rank, mu


def _cluster_means(zs: np.ndarray, mats: np.ndarray, rank: int, rungs: np.ndarray,
                   mu: float) -> tuple[np.ndarray, np.ndarray]:
    """One mean per zero, and the largest distance from it to a member of
    its group: a group grows around each eigenvalue z through the radii
    rungs |z - mu| while the r-th singular value of R at its mean is at most
    the members' largest plus eps N sum_k |mean|^k ||R_k||, the rounding of
    forming R.  Near a zero that singular value grows with the distance to
    it, so one zero's mean passes and two zeros' does not.  Means within the
    first rung of the axis are put on it."""
    rounding = [m.shape[0] * np.finfo(float).eps * vector_norm(m.ravel()) for m in mats]
    means, spreads = [], []
    while zs.size:
        dist = np.abs(zs - zs[0])
        radii = rungs * abs(zs[0] - mu)
        group = dist <= radii[0]
        for near in (dist <= radius for radius in radii[1:]):
            if near.sum() > group.sum():
                points = np.append(zs[near], zs[near].mean())
                powers = points[:, None] ** np.arange(len(mats))
                gap = np.linalg.svd(np.tensordot(powers, mats, 1), compute_uv=False)[:, rank - 1]
                if gap[-1] > gap[:-1].max() + np.abs(powers[-1]) @ rounding:
                    break
                group = near
        mean = zs[group].mean()
        means.append(mean.real if abs(mean.imag) <= rungs[0] * abs(mean - mu) else mean)
        spreads.append(np.abs(zs[group] - mean).max())
        zs = zs[~group]
    return np.array(means, dtype=complex), np.array(spreads)


def discrete_zero_scan(stem: StemPolynomial, region, target: Element | None = None,
                       rng: np.random.Generator | None = None,
                       tol: float | None = None) -> list[ZeroScanHit]:
    """Solutions of pi(F(z), s) = target over a conjugation-symmetric rectangle.

    If a + s*b = 0 with s*s = -1, then (i + s)(a + i b) = 0 in A(x)C, so every
    solution lies over an eigenvalue of R(z) = sum_k z^k R_{c_k}, with c_0
    shifted by target.  The eigenvalues of each zero merge to their mean z,
    known to within the spread r of its group, and z is classified exactly:
    "real" (on the axis) or "sphere" (every root solves) when F(z) - target
    passes the tolerance rule against the size ||target|| +
    sum_k (|z| + r)^k ||c_k|| of its terms, else "isolated" when
    zero_variety_witness finds the root at tol, else dropped.
    Off-axis hits come at z and conj z.  F and target are first scaled by
    the power of two that puts their largest coefficient in [1, 2), exactly.
    Raises SliceAlgebraError when that size is not finite at a z, and "zero
    set is not discrete" when F equals target, or when R(z) is singular at
    every z and F(_PROBE) = target has a solution."""
    require_intrinsic(stem, tol)
    alg = stem.algebra
    x0, x1, y0, y1 = (float(v) for v in region)
    if not (x1 > x0) or np.isnan(y0) or np.isnan(y1):  # max() keeps or drops a NaN by place
        raise ValueError("empty region: need x1 > x0, and no bound may be NaN")
    ymax = max(abs(y0), abs(y1))
    find_seed_root(alg, rng=rng)  # an algebra without roots has no zeros to scan
    tgt = alg.zero().coeffs if target is None else target.coeffs
    # 2^k: the hits are F's, and no size overflows unless a term at z does
    largest = max(np.abs(stem.coeff_matrix.real).max(), np.abs(tgt).max())
    factor = np.ldexp(1.0, min(1 - int(np.frexp(largest)[1]), 1023))
    stem, tgt = StemPolynomial(alg, stem.coeff_matrix * factor), tgt * factor
    coeffs = stem.coeff_matrix.real.copy()
    coeffs[0] -= tgt

    def solution(z: complex, spread: float = 0.0):  # (class, residual of F) or None
        size = vector_norm(tgt) + stem.term_size(float(abs(z) + spread))  # floats: inf, no warning
        if not size < np.inf:
            raise SliceAlgebraError(f"F(z) - target is too large to represent at z = {z}")
        w = ComplexElement.from_vector(alg, stem.evaluate_vector(z) - tgt)
        if within_tol(w.norm(), size, tol):
            return ("real" if z.imag == 0.0 else "sphere"), w.norm() / factor
        if z.imag != 0.0 and (search := zero_variety_witness(w, tol, rng)).found:
            return "isolated", float(np.hypot(search.witness.residual / factor,
                                              search.witness.root.residual))
        return None

    mats = np.array([alg.right_matrix_vec(c) for c in coeffs])
    scale = vector_norm(tgt)
    if numerical_rank(np.linalg.svd(np.concatenate(mats), compute_uv=False), scale) == 0:
        raise SliceAlgebraError("zero set is not discrete: F(z) = target for every z")
    zs, rank, mu = _eigenvalues(mats, scale)
    if rank < alg.dimension and solution(_PROBE) is not None:
        raise SliceAlgebraError(f"zero set is not discrete: F(z) = target at z = {_PROBE}")
    # The companion gives zeta = 1/(z - mu) to relative accuracy, so a zero of
    # multiplicity k spreads its eigenvalues over about (N eps)^(1/k) |z - mu|.
    rungs = (alg.dimension * np.finfo(float).eps) ** (1 / np.arange(1, 2 * max(1, stem.degree) + 1))

    def in_region(zs: np.ndarray, rung: float) -> np.ndarray:  # widened by rung |z - mu|
        m = rung * np.abs(zs - mu)
        return (np.abs(zs.imag) <= ymax + m) & (zs.real >= x0 - m) & (zs.real <= x1 + m)

    zs, spreads = _cluster_means(zs[in_region(zs, rungs[-1])], mats, rank, rungs, mu)
    inside = (zs.imag >= 0) & in_region(zs, rungs[1])
    out = []
    for z, spread in zip(zs[inside], spreads[inside]):
        if (found := solution(complex(z), spread)) is not None:
            out.append(ZeroScanHit(complex(z), found[0], 0, found[1]))
            if z.imag != 0.0:
                out.append(ZeroScanHit(complex(z).conjugate(), found[0], 0, found[1]))
    out.sort(key=lambda h: (h.z.real, h.z.imag))
    return out
