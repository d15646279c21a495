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
from math import comb

import numpy as np

from .algebra import Algebra, Element, is_zerodivisor, right_divide
from .config import RANK_RELTOL, resolve_tol, within_tol
from .errors import (NotFoundError, PreconditionFailedError, SliceAlgebraError,
                     ZeroDivisorError)
from .numerics import affine_square_root, svd_rank
from .roots import (
    RootOfMinusOne,
    find_seed_root,
    negate_root,
    sample_root,  # noqa: F401 - unused; bench/tests checks the tracer rebinds it here
)


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
    def zero(cls, algebra: Algebra) -> "ComplexElement":
        return cls(algebra.zero(), algebra.zero())

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

    def __add__(self, other: "ComplexElement") -> "ComplexElement":
        return ComplexElement(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexElement") -> "ComplexElement":
        return ComplexElement(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexElement":
        return ComplexElement(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, ComplexElement):
            a, b, c, d = self.re, self.im, other.re, other.im
            return ComplexElement(a * c - b * d, a * d + b * c)
        z = complex(other)
        return ComplexElement(z.real * self.re - z.imag * self.im,
                              z.real * self.im + z.imag * self.re)

    def __rmul__(self, other) -> "ComplexElement":
        return self * complex(other)

    def __repr__(self) -> str:
        return f"ComplexElement(re={self.re!r}, im={self.im!r})"


def tau_involution(w: ComplexElement, s: RootOfMinusOne):
    """The codomain involution (w, s) -> (conj w, -s)."""
    return w.conj(), negate_root(s)


def pi_eval(z: complex, s: RootOfMinusOne) -> Element:
    """pi(x + iy, s) = x + y*s."""
    z = complex(z)
    return s.algebra.scalar(z.real) + z.imag * s.element


def pi_tensor_eval(w: ComplexElement, s: RootOfMinusOne) -> Element:
    """pi(1(x)a + i(x)b, s) = a + s*b."""
    return w.re + s.element * w.im


# -- witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class ZeroWitness:
    """A pair (w, s) with pi(w, s) = 0 up to the recorded residual."""

    w: ComplexElement
    root: RootOfMinusOne
    residual: float

    def holds(self, tol: float | None = None) -> bool:
        """Both identities pass the tolerance rule: s*s + 1 against
        (1 + ||s||)^2 and a + s*b against ||a|| + ||s|| ||b||."""
        size = self.w.re.norm() + self.root.element.norm() * self.w.im.norm()
        return self.root.holds(tol) and bool(within_tol(self.residual, size, tol))


@dataclass(frozen=True)
class WitnessSearch:
    """Outcome of a witness search: found, absent (only when the decision
    was exact, see zero_variety_witness) or inconclusive."""

    status: str
    witness: ZeroWitness | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def _witness(w: ComplexElement, s: Element) -> ZeroWitness:
    root = RootOfMinusOne.measured(s)
    return ZeroWitness(w, root, pi_tensor_eval(w, root).norm())


def _excluded(witness: ZeroWitness, rb: np.ndarray, tol: float) -> bool:
    """No witness at tol lies near s: each s' = s + d has ||d|| <= r, where
    (sigma_min(R_b) - tol ||b||) r = ||a + s*b|| + tol (||a|| + ||s|| ||b||),
    and ||s'*s' + 1|| >= ||s*s + 1|| - ||L_s + R_s|| r - mu r^2, as ||x*y|| <=
    mu ||x|| ||y|| for mu the Frobenius norm of the structure constants."""
    w, s, ns = witness.w, witness.root.element, witness.root.element.norm()
    mu = np.linalg.norm(s.algebra.structure_constants)
    gap = np.linalg.svd(rb, compute_uv=False)[-1] - tol * w.im.norm()
    if gap <= 0.0:  # R_b bounds no distance
        return False
    r = (witness.residual + tol * (w.re.norm() + ns * w.im.norm())) / gap
    lip = np.linalg.norm(s.algebra.left_matrix_vec(s.coeffs)
                         + s.algebra.right_matrix_vec(s.coeffs), 2)
    return bool(witness.root.residual - lip * r - mu * r * r > tol * (1.0 + ns + r) ** 2)


def _verdict(w: ComplexElement, candidates, tol: float | None, otherwise: str = "absent",
             rb: np.ndarray | None = None, invertible: bool = False) -> WitnessSearch:
    """A "found" search with the first candidate s whose witness holds at
    tol.  In the band (it holds at sqrt(tol) only): "absent" if b is
    `invertible` and _excluded(s), else a joint Newton from s on rows
    [R_b | a] weighted onto (1 + ||s||)^2 (rb: R_b, if the caller has it).
    No candidate in the band: `otherwise`.  Candidates may be lazy."""
    alg, a, b, tol = w.algebra, w.re, w.im, resolve_tol(tol)
    status = otherwise
    for s in candidates:
        witness = _witness(w, s)
        if not witness.holds(tol) and witness.holds(np.sqrt(tol)):
            rb = alg.right_matrix_vec(b.coeffs) if rb is None else rb
            if invertible and _excluded(witness, rb, tol):
                return WitnessSearch("absent")
            status, ns, size = "inconclusive", s.norm(), a.norm() + s.norm() * b.norm()
            rows = np.column_stack([rb, a.coeffs]) * ((1.0 + ns) ** 2 / size)
            joint, _ = affine_square_root(alg, s.coeffs, np.eye(alg.dimension),
                                          np.zeros(alg.dimension), rows)
            witness = _witness(w, alg.element(joint))
        if witness.holds(tol):
            return WitnessSearch("found", witness)
    return WitnessSearch(status)


def zero_variety_witness(w: ComplexElement,
                         tol: float | None = None,
                         rng: np.random.Generator | None = None) -> WitnessSearch:
    """Search for s in S with pi(w, s) = 0.

    The candidates: for an invertible b = w.im the unique s = -a*b^{-1}, by
    LU on R_b; else Newton for s*s = -1 on the solutions of s*b = -a, from
    the particular one and up to 19 random points.  One band rule decides
    (_verdict).  "absent" is exact: the unique solution is not a root even
    at sqrt(tol), a misses the range of R_b by more than sqrt(RANK_RELTOL)
    relative, or in the band sigma_min(R_b) keeps every witness from it.
    """
    alg, a, b = w.algebra, w.re, w.im

    if b.norm() == 0.0:  # pi(w, s) = a: w = 0 is a member through every root
        try:
            return _verdict(w, [find_seed_root(alg, rng=rng, tol=tol).element], tol)
        except NotFoundError:  # S is empty
            return WitnessSearch("absent")

    rb = alg.right_matrix_vec(b.coeffs)
    if not is_zerodivisor(b):  # s = -a*b^{-1}, by LU on R_b: backward stable
        return _verdict(w, [alg.element(np.linalg.solve(rb, -a.coeffs))], tol,
                        rb=rb, invertible=True)
    u, sv, vt, rank = svd_rank(rb)
    s_part = vt[:rank].T @ ((u[:, :rank].T @ -a.coeffs) / sv[:rank])
    if np.linalg.norm(rb @ s_part + a.coeffs) > np.sqrt(RANK_RELTOL) * (
            a.norm() + sv[0] * np.linalg.norm(s_part)):
        return WitnessSearch("absent")  # a lies outside the range of R_b
    kernel = vt[rank:].T  # (N, m)
    if not kernel.shape[1]:
        return _verdict(w, [alg.element(s_part)], tol, rb=rb)
    rng = np.random.default_rng(0) if rng is None else rng

    def newton(attempt: int) -> Element:
        t = np.zeros(kernel.shape[1]) if attempt == 0 \
            else rng.standard_normal(kernel.shape[1])
        return alg.element(affine_square_root(alg, s_part, kernel, t)[0])

    return _verdict(w, map(newton, range(20)), tol, "inconclusive", rb)


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
            f"claimed witness has residual {witness.residual:.3e}")


def right_absorption(witness: ZeroWitness, wp: ComplexElement,
                     tol: float | None = None) -> ZeroWitness:
    """The product w*wp stays in the zero variety with the same witness root."""
    _require_witness(witness, tol)
    return _witness(witness.w * wp, witness.root.element)


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
        closed_form = [right_divide(sp * a + t, sp - t * a)]
    except ZeroDivisorError:  # s' - ta is singular: no closed form
        closed_form = []
    found = _verdict(product, closed_form, tol)
    return found if found.found else zero_variety_witness(product, tol=tol, rng=rng)


# -- zero scan ---------------------------------------------------------------

# Shifts mu for z = mu + 1/zeta (real: conjugate pairs stay exact); the first
# where R(mu) has its highest rank is used.  _PROBE: a generic off-axis point.
_SHIFTS = (0.0, 0.5772156649, -1.2020569032, 1.6180339887, -2.7182818285)
_PROBE = complex(0.5772156649, 1.4142135624)
# A zero of multiplicity m spreads its eigenvalues over about eps^(1/m) times
# the size of z (1.2 eps^(1/m) for x^m on H), more when ill-conditioned;
# clusters are sought within this many times that, for m up to twice the degree.
_SPREAD_FACTOR = 10.0


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


def _eigenvalues(mats: np.ndarray, scale: float) -> tuple[np.ndarray, int]:
    """The finite z at which R(z) = sum_k z^k mats[k] drops below its generic
    rank r, and r (`scale` as in svd_rank).  With R(mu) = U S V^T of rank r,
    U_r^T R(z) V_r is regular and singular wherever rank R(z) < r (if R(z) is
    singular at every z beyond a constant kernel, elsewhere too: the caller's
    exact classification drops those).  Solved by the block companion matrix
    of zeta^d S_r^{-1} U_r^T R(mu + 1/zeta) V_r.
    """
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
        return np.empty(0, dtype=complex), rank
    companion = np.eye(rank * d, k=-rank)
    companion[:rank] = -np.concatenate(
        [u[:, :rank].T @ t @ vt[:rank].T for t in taylor[1:]], axis=1) / sv[:rank, None]
    zeta = np.linalg.eigvals(companion)
    return mu + 1.0 / zeta[zeta != 0], rank


def _cluster_means(zs: np.ndarray, mats: np.ndarray, rank: int,
                   radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One mean per zero, and the largest distance from it to a member of
    its group: a group grows around each eigenvalue through radii while R
    stays flat on it (the r-th singular value of R(z) at the mean and
    halfway to each member at most 10 times the members').  R is flat around
    a multiple zero, whose eigenvalues spread; between distinct zeros not."""
    def gap(points: np.ndarray) -> np.ndarray:
        r_at = np.tensordot(points[:, None] ** np.arange(len(mats)), mats, axes=1)
        return np.linalg.svd(r_at, compute_uv=False)[:, rank - 1]

    means, spreads = [], []
    while zs.size:
        dist = np.abs(zs - zs[0])
        group = dist <= radii[0]
        for near in (dist <= radius for radius in radii[1:]):
            if near.sum() > group.sum():
                members = zs[near]
                inner = np.append((members + members.mean()) / 2, members.mean())
                if gap(inner).max() > 10.0 * gap(members).max():
                    break
                group = near
        means.append(zs[group].mean())
        spreads.append(np.abs(zs[group] - means[-1]).max())
        zs = zs[~group]
    means = np.array([m.real if abs(m.imag) <= radii[0] else m for m in means], dtype=complex)
    return means, np.array(spreads)


def discrete_zero_scan(stem, region, target: Element | None = None,
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
    Off-axis hits come at z and conj z.  Raises SliceAlgebraError "zero set
    is not discrete" when F equals target, or when R(z) is singular at every
    z and F(_PROBE) = target has a solution."""
    from .slicefunctions import require_intrinsic

    require_intrinsic(stem, tol)
    alg = stem.algebra
    x0, x1, y0, y1 = (float(v) for v in region)
    if not (x1 > x0):
        raise ValueError("empty region: need x1 > x0")
    ymax = max(abs(y0), abs(y1))
    find_seed_root(alg, rng=rng)  # an algebra without roots has no zeros to scan
    tgt = alg.zero().coeffs if target is None else target.coeffs
    coeffs = stem.coeff_matrix.real.copy()
    coeffs[0] -= tgt

    def solution(z: complex, spread: float = 0.0):  # (class, residual) or None
        w = ComplexElement.from_vector(alg, stem.evaluate_vector(z) - tgt)
        if within_tol(w.norm(), np.linalg.norm(tgt) + stem.term_size(abs(z) + spread), tol):
            return ("real" if z.imag == 0.0 else "sphere"), w.norm()
        if z.imag != 0.0 and (search := zero_variety_witness(w, tol, rng)).found:
            return "isolated", float(np.hypot(search.witness.residual,
                                              search.witness.root.residual))
        return None

    mats = np.array([alg.right_matrix_vec(c) for c in coeffs])
    scale = float(np.linalg.norm(tgt))
    if svd_rank(np.concatenate(mats), scale)[3] == 0:
        raise SliceAlgebraError("zero set is not discrete: F(z) = target for every z")
    zs, rank = _eigenvalues(mats, scale)
    if rank < alg.dimension and solution(_PROBE) is not None:
        raise SliceAlgebraError(f"zero set is not discrete: F(z) = target at z = {_PROBE}")
    radii = (_SPREAD_FACTOR * max(1.0, abs(x0), abs(x1), ymax)
             * np.finfo(float).eps ** (1.0 / np.arange(1, 2 * max(1, len(mats) - 1) + 1)))
    zs = zs[(np.abs(zs.imag) <= ymax + radii[-1])
            & (zs.real >= x0 - radii[-1]) & (zs.real <= x1 + radii[-1])]
    zs, spreads = _cluster_means(zs, mats, rank, radii)
    inside = ((zs.imag >= 0) & (zs.imag <= ymax + radii[1])
              & (zs.real >= x0 - radii[1]) & (zs.real <= x1 + radii[1]))
    out = []
    for z, spread in zip(zs[inside], spreads[inside]):
        if (found := solution(complex(z), spread)) is not None:
            out.append(ZeroScanHit(complex(z), found[0], 0, found[1]))
            if z.imag != 0.0:
                out.append(ZeroScanHit(complex(z).conjugate(), found[0], 0, found[1]))
    out.sort(key=lambda h: (h.z.real, h.z.imag))
    return out
