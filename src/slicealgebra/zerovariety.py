"""Complexified elements, the evaluation map pi, and the zero variety.

A complexified element w = 1(x)a + i(x)b is stored as the pair (a, b).  The
evaluation pi(w, s) = a + s*b ties w to each square root s of -1; the zero
variety collects the w annihilated by some s.  Witness search is exact when
b is invertible (s = -a*b^{-1}, accepted on a backward error bound) and a
constrained Newton otherwise, with an explicit "inconclusive" verdict when
the search is not a proof of absence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Element, inverse, is_zerodivisor
from .config import WITNESS_RTOL, resolve_tol
from .errors import NotFoundError, PreconditionFailedError, ZeroDivisorError
from .numerics import affine_square_root, gauss_newton, svd_rank
from .roots import (
    RootOfMinusOne,
    find_seed_root,
    is_root,
    negate_root,
    polish_root,
    root_residual,
    sample_root,
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
        z = complex(other)
        return ComplexElement(z.real * self.re - z.imag * self.im,
                              z.real * self.im + z.imag * self.re)

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


@dataclass(frozen=True)
class WitnessSearch:
    """Outcome of a witness search: found, absent, or inconclusive.

    "absent" is only reported when the decision was exact (invertible b, or
    an unsatisfiable linear system); a failed bounded search on a solvable
    system is "inconclusive", never a claim of absence.
    """

    status: str
    witness: ZeroWitness | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def _witness(w: ComplexElement, s: Element) -> ZeroWitness:
    root = RootOfMinusOne(s, root_residual(s))
    return ZeroWitness(w, root, pi_tensor_eval(w, root).norm())


def _unique_solution_verdict(w: ComplexElement, cand: Element,
                             tol: float) -> WitnessSearch:
    """Verdict when s*b = -a has the single solution cand.

    s is a witness when its defect is at the rounding level of s*s,
    ||s*s + 1|| <= tol * (1 + ||s||)^2, and ||a + s*b|| <= WITNESS_RTOL *
    (1 + ||w||).  cand carries the rounding error of solving with b,
    amplified by the condition of R_b, so a cand that is not a root at tol
    but within WITNESS_RTOL of S relative to its size is polished toward S,
    and the polished value is judged before cand itself: for large s the
    exact step amplifies the rounding of s*s by about ||s||^2 and can move
    s away from the solution.  A w whose solution is O(1) away from S is
    "absent" without a polish.
    """
    defect = root_residual(cand)
    tries = [(cand, defect)]
    if tol < defect <= WITNESS_RTOL * (1.0 + cand.norm()) ** 2:
        try:
            polished = polish_root(cand)
            tries.insert(0, (polished, root_residual(polished)))
        except ZeroDivisorError:
            pass  # 2*cand is singular to working precision
    for s, defect in tries:
        root = RootOfMinusOne(s, defect)
        residual = pi_tensor_eval(w, root).norm()
        if (defect <= tol * (1.0 + s.norm()) ** 2
                and residual <= WITNESS_RTOL * (1.0 + w.norm())):
            return WitnessSearch("found", ZeroWitness(w, root, residual))
    return WitnessSearch("absent")


def zero_variety_witness(w: ComplexElement,
                         tol: float | None = None,
                         rng: np.random.Generator | None = None,
                         starts: int = 20) -> WitnessSearch:
    """Search for s in S with pi(w, s) = 0.

    With b = w.im invertible the answer s = -a*b^{-1} is unique, so the
    verdict is exact up to the backward error WITNESS_RTOL.  Otherwise the
    affine solution set of s*b = -a is parametrized through the kernel of
    R_b and a damped Newton for s*s = -1 runs inside it.
    """
    tol = resolve_tol(tol)
    alg = w.algebra
    a, b = w.re, w.im
    scale = 1.0 + w.norm()

    if b.norm() == 0.0:
        if a.norm() > tol * scale:
            return WitnessSearch("absent")
        # w = 0: every root is a witness; absence only if S itself is empty.
        try:
            seed = find_seed_root(alg, rng=rng, tol=tol)
        except NotFoundError:
            return WitnessSearch("absent")
        return WitnessSearch("found", _witness(w, seed.element))

    rb = alg.right_matrix_vec(b.coeffs)
    if not is_zerodivisor(b):
        # s = -a*b^{-1}, by LU on R_b: backward stable, unlike a*inverse(b)
        return _unique_solution_verdict(w, alg.element(np.linalg.solve(rb, -a.coeffs)), tol)

    # b is a zerodivisor: solve the linear part, then search the affine set.
    u, sv, vt, rank = svd_rank(rb)
    s_part = vt[:rank].T @ ((u[:, :rank].T @ -a.coeffs) / sv[:rank])
    if np.linalg.norm(rb @ s_part + a.coeffs) > 1e-8 * scale:
        return WitnessSearch("absent")
    kernel = vt[rank:].T  # (N, m)

    if kernel.shape[1] == 0:
        return _unique_solution_verdict(w, alg.element(s_part), tol)

    if rng is None:
        rng = np.random.default_rng(0)
    for attempt in range(starts):
        t = np.zeros(kernel.shape[1]) if attempt == 0 \
            else rng.standard_normal(kernel.shape[1])
        s_vec, _ = affine_square_root(alg, s_part, kernel, t, 60, 1e-12)
        cand = alg.element(s_vec)
        if is_root(cand, tol):
            return WitnessSearch("found", _witness(w, cand))
    return WitnessSearch("inconclusive")


def leaf_membership(w: ComplexElement, a: Element,
                    tol: float | None = None,
                    rng: np.random.Generator | None = None) -> WitnessSearch:
    """Does some slice function value at w equal a: witness for (w.re - a, w.im)."""
    shifted = ComplexElement(w.re - a, w.im)
    return zero_variety_witness(shifted, tol=tol, rng=rng)


# -- absorption --------------------------------------------------------------


def _require_witness(witness: ZeroWitness, tol: float | None) -> None:
    bound = resolve_tol(tol) * (1.0 + witness.w.norm())
    if witness.residual > 1e3 * bound or witness.root.residual > 1e3 * bound:
        raise PreconditionFailedError(
            f"claimed witness has residual {witness.residual:.3e}")


def right_absorption(witness: ZeroWitness, wp: ComplexElement,
                     tol: float | None = None) -> ZeroWitness:
    """The product w*wp stays in the zero variety with the same witness root."""
    _require_witness(witness, tol)
    product = witness.w * wp
    root = witness.root
    return ZeroWitness(product, root, pi_tensor_eval(product, root).norm())


def left_absorption(witness: ZeroWitness, wp: ComplexElement,
                    tol: float | None = None,
                    rng: np.random.Generator | None = None) -> WitnessSearch:
    """Witness for wp*w given a witness root for w.

    Writing wp = (s', t) and a for the witness root of w, the product is
    annihilated by b = (s'a + t)(s' - ta)^{-1}, a conjugate of a, whenever
    s' - ta is invertible; otherwise a bounded witness search runs on the
    product and may come back inconclusive.
    """
    _require_witness(witness, tol)
    a = witness.root.element
    sp, t = wp.re, wp.im
    product = wp * witness.w
    d = sp - t * a
    if not is_zerodivisor(d):
        b = (sp * a + t) * inverse(d)
        if is_root(b, tol):
            cand = _witness(product, b)
            if cand.residual <= resolve_tol(tol) * (1.0 + product.norm()) * 1e2:
                return WitnessSearch("found", cand)
    return zero_variety_witness(product, tol=tol, rng=rng)


# -- zero scan ---------------------------------------------------------------


@dataclass(frozen=True)
class ZeroScanHit:
    z: complex
    classification: str  # "real" | "sphere" | "isolated"
    witnesses: int
    residual: float

    def to_json(self) -> dict:
        return {"z": [float(self.z.real), float(self.z.imag)],
                "class": self.classification,
                "witnesses": int(self.witnesses),
                "residual": float(self.residual)}


def _polish_zero(stem, z0: complex, s0: np.ndarray, target: np.ndarray,
                 iterations: int = 30):
    """Gauss-Newton on (z, s) for pi(F(z), s) = target and s*s = -1."""
    alg = stem.algebra
    unit = alg.unit().coeffs
    deriv = stem.derivative()
    n = alg.dimension
    fz = None  # F(z) at the latest residual point, reused by the Jacobian

    def residual(v):
        nonlocal fz
        s = v[2:]
        fz = stem.evaluate_vector(complex(v[0], v[1]))
        val = fz.real + alg.left_matrix_vec(s) @ fz.imag - target
        return np.concatenate([val, alg.multiply_vec(s, s) + unit])

    def jacobian(v):
        s = v[2:]
        dfz = deriv.evaluate_vector(complex(v[0], v[1]))
        ls = alg.left_matrix_vec(s)
        ify = 1j * dfz
        dmat = np.zeros((2 * n, 2 + n))
        dmat[:n, 0] = dfz.real + ls @ dfz.imag
        dmat[:n, 1] = ify.real + ls @ ify.imag
        dmat[:n, 2:] = alg.right_matrix_vec(fz.imag)
        dmat[n:, 2:] = ls + alg.right_matrix_vec(s)
        return dmat

    v0 = np.concatenate([[z0.real, z0.imag], s0])
    v, rn = gauss_newton(residual, jacobian, v0, iterations, 1e-13)
    return complex(v[0], v[1]), v[2:], rn


def discrete_zero_scan(stem, region, target: Element | None = None,
                       rng: np.random.Generator | None = None,
                       grid: int = 101,
                       sample_count: int = 64,
                       dedup_radius: float = 1e-5,
                       real_axis_tol: float = 1e-6,
                       sphere_fraction: float = 0.9) -> list[ZeroScanHit]:
    """Locate solutions of pi(F(z), s) = target over a conjugation-symmetric
    rectangle.

    A residual field min_s ||pi(F(z), s) - target|| over sampled roots is
    tabulated on a grid; local minima seed a joint Gauss-Newton polish in
    (z, s).  Hits on the real axis are classified "real"; off-axis hits are
    probed against the sampled roots and classified "sphere" when at least
    the configured fraction are witnesses, else "isolated".
    """
    from .slicefunctions import require_intrinsic

    require_intrinsic(stem)
    alg = stem.algebra
    if rng is None:
        rng = np.random.default_rng(0)
    x0, x1, y0, y1 = (float(v) for v in region)
    if not (x1 > x0):
        raise ValueError("empty region")
    ymax = max(abs(y0), abs(y1))
    tgt = (target.coeffs if target is not None else alg.zero().coeffs)

    seed = find_seed_root(alg, rng=rng)
    roots = [sample_root(seed, rng) for _ in range(sample_count)]

    xs = np.linspace(x0, x1, grid)
    ys = np.linspace(-ymax, ymax, grid) if ymax > 0 else np.zeros(1)
    zz = (xs[None, :] + 1j * ys[:, None]).ravel()
    fz = stem.evaluate_many(zz)  # (M, N) complex
    best = np.full(zz.shape[0], np.inf)
    best_root = np.zeros(zz.shape[0], dtype=int)
    shifted = fz.real - tgt[None, :]
    for idx, root in enumerate(roots):
        ls = alg.left_matrix_vec(root.element.coeffs)
        vals = shifted + fz.imag @ ls.T
        norms = np.linalg.norm(vals, axis=1)
        improved = norms < best
        best[improved] = norms[improved]
        best_root[improved] = idx

    field = best.reshape(len(ys), len(xs))
    padded = np.pad(field, 1, constant_values=np.inf)
    neighborhood = np.stack([padded[1 + dr:padded.shape[0] - 1 + dr,
                                    1 + dc:padded.shape[1] - 1 + dc]
                             for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                             if (dr, dc) != (0, 0)])
    is_min = field <= neighborhood.min(axis=0)
    cand_rows, cand_cols = np.nonzero(is_min)
    order = np.argsort(field[cand_rows, cand_cols])
    cand_rows, cand_cols = cand_rows[order][:64], cand_cols[order][:64]

    accept = 1e-7 * (1.0 + np.linalg.norm(tgt))
    hits: list[tuple[complex, float]] = []
    for row, col in zip(cand_rows, cand_cols):
        z0 = complex(xs[col], ys[row])
        s0 = roots[best_root[row * len(xs) + col]].element.coeffs
        z, s, rn = _polish_zero(stem, z0, s0, tgt)
        if rn > accept:
            continue
        if not (x0 - 1e-6 <= z.real <= x1 + 1e-6 and abs(z.imag) <= ymax + 1e-6):
            continue
        if any(abs(z - zh) <= dedup_radius for zh, _ in hits):
            continue
        hits.append((z, rn))

    probe_tol = 1e-6 * (1.0 + np.linalg.norm(tgt))
    out = []
    for z, rn in hits:
        fzv = stem.evaluate_vector(z)
        count = 0
        for root in roots:
            val = (fzv.real - tgt
                   + alg.left_matrix_vec(root.element.coeffs) @ fzv.imag)
            if np.linalg.norm(val) <= probe_tol:
                count += 1
        if abs(z.imag) <= real_axis_tol:
            kind = "real"
            z = complex(z.real, 0.0)
        elif count >= sphere_fraction * len(roots):
            kind = "sphere"
        else:
            kind = "isolated"
        out.append(ZeroScanHit(z, kind, count, rn))
    out.sort(key=lambda h: (h.z.real, h.z.imag))
    return out
