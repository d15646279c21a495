"""Inner-product constructions: orthogonal roots, the quadratic cone, and
the quadratic equations cutting out the distinguished zero variety.

With an inner product G on the algebra, S0 collects the roots of -1 whose
left multiplication is an orthogonal complex structure.  Any two of
{s*s = -1, L_s orthogonal, L_s antisymmetric} force the third, so membership
is a two-of-three test.  Elements of the quadratic cone factor as
x = beta*1 + gamma*s with s in S0, and the variety of w = a + ib with
L_w^T L_w = 0 (bilinear, non-conjugating transpose) is probed by an explicit
residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Element
from .config import within_tol
from .errors import DimensionMismatchError, NotFoundError
from .numerics import newton_schulz, null_space
from .roots import RootOfMinusOne, TraceReport, is_root
from .zerovariety import ComplexElement, ZeroWitness, _solution_witnesses


@dataclass(frozen=True)
class InnerProduct:
    """<a, b> = a^T G b with G symmetric positive definite; inverse is G^{-1}."""

    gram: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("gram matrix must be square")
        if not np.all(np.isfinite(g)):
            raise ValueError("gram matrix must be finite")
        if not within_tol(np.linalg.norm(g - g.T), 2.0 * np.linalg.norm(g)):
            raise ValueError("gram matrix must be symmetric")
        eigs = np.linalg.eigvalsh(g)
        if eigs[0] <= 0:
            raise ValueError("gram matrix must be positive definite")
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "inverse", np.linalg.inv(g))
        object.__setattr__(self, "_a0", {})  # algebra -> A0's span, see antisymmetric_subspace

    @classmethod
    def standard(cls, algebra: Algebra) -> "InnerProduct":
        """Identity Gram matrix: the chosen basis is declared orthonormal."""
        return cls(np.eye(algebra.dimension))

    @property
    def dimension(self) -> int:
        return self.gram.shape[0]

    def pairing(self, a: Element, b: Element) -> float:
        return float(a.coeffs @ self.gram @ b.coeffs)

    def norm(self, a: Element) -> float:
        return float(np.sqrt(max(self.pairing(a, a), 0.0)))


def _gram_for(G: InnerProduct, alg: Algebra) -> np.ndarray:
    if G.dimension != alg.dimension:
        raise DimensionMismatchError(
            f"inner product on dimension {G.dimension}, algebra {alg.dimension}")
    return G.gram


def adjoint(L: np.ndarray, G: InnerProduct) -> np.ndarray:
    """G^{-1} L^T G, the adjoint of L for <a, b> = a^T G b."""
    if L.shape != G.gram.shape:
        raise DimensionMismatchError("operator and gram shapes differ")
    return G.inverse @ L.T @ G.gram


def _left_terms(alg: Algebra, v: np.ndarray, G: InnerProduct):
    """(L_v, G^{-1} L_v^T G) and their Frobenius norms; L_{a+ib} = L_a + i L_b."""
    left = alg.left_matrix_vec(v)
    adj = adjoint(left, G)
    return left, adj, np.linalg.norm(left), np.linalg.norm(adj)


def is_in_S0(s: Element, G: InnerProduct, tol: float | None = None) -> bool:
    """Two of {s*s = -1, L_s^t L_s = I, L_s + L_s^t = 0} hold (hence all),
    each by the tolerance rule, the matrix terms sized by Frobenius norms."""
    n = s.algebra.dimension
    left, adj, nl, na = _left_terms(s.algebra, s.coeffs, G)
    checks = (is_root(s, tol),
              within_tol(np.linalg.norm(adj @ left - np.eye(n)), na * nl + np.sqrt(n), tol),
              within_tol(np.linalg.norm(left + adj), nl + na, tol))
    return sum(checks) >= 2


def antisymmetric_subspace(algebra: Algebra, G: InnerProduct) -> list[Element]:
    """Basis of A0 = {a : L_a + L_a^t = 0}, built once per algebra and kept on
    G, as long as G lives, as a read-only (N, m) span: <a x, y> + <x, a y> = 0,
    so sum_i a_i B_i is antisymmetric for B_i = c[i] G, B_i[j, k] =
    <e_i e_j, e_k>.  One row B_i[j, k] + B_i[k, j] per k >= j, off-diagonal
    rows times sqrt(2) (the Gram matrix of the N^2 x N system
    vec(L_{e_i} + L_{e_i}^t) under the standard G), formed for 256 // N values
    of j at a time (N <= 16: one block) and folded into the N x N triangular
    factor, R <- qr([R; block]): the sequential TSQR of Demmel, Grigori,
    Hoemmen and Langou (SIAM J. Sci. Comput. 34, 2012), in O(N^2) memory.
    The kernel is null_space(R)."""
    span = G._a0.get(algebra)
    if span is None:
        gram = _gram_for(G, algebra)
        c, n = algebra.structure_constants, algebra.dimension
        iota = np.arange(n)
        weight = np.where(iota == iota[:, None], 1.0, np.sqrt(2.0))
        r = np.empty((0, n))
        width = max(1, 256 // n)
        for j0 in range(0, n, width):
            j, k = slice(j0, j0 + width), slice(j0, n)
            # sym[i, j, k] = B_i[j, k] + B_i[k, j], for k >= j0 only
            sym = c[:, j] @ gram[:, k] + (c[:, k] @ gram[:, j]).transpose(0, 2, 1)
            sym *= weight[j, k]
            r = np.linalg.qr(np.vstack([r, sym[:, iota[k] >= iota[j, None]].T]), mode="r")
        span = G._a0[algebra] = null_space(r)
        span.flags.writeable = False
    return [algebra.element(col) for col in span.T]


def sample_S0(algebra: Algebra, G: InnerProduct,
              rng: np.random.Generator | None = None,
              tol: float | None = None) -> RootOfMinusOne:
    """Draw a root of -1 in A0 (antisymmetric_subspace(algebra, G), built
    once per G) in up to 50 draws, as the polar factor of L_a for a random a
    in A0: numerics.newton_schulz from a / ||L_a||_F."""
    if rng is None:
        rng = np.random.default_rng(0)
    basis = antisymmetric_subspace(algebra, G)
    if not basis:
        raise NotFoundError("antisymmetric subspace is trivial")
    span = np.stack([b.coeffs for b in basis], axis=1)  # (N, m), orthonormal
    for _ in range(50):
        x = span @ rng.standard_normal(span.shape[1])
        x, defect = newton_schulz(algebra, x / np.linalg.norm(algebra.left_matrix_vec(x)))
        cand = RootOfMinusOne(Element(algebra, x), defect)
        if cand.holds(tol) and is_in_S0(cand.element, G, tol):
            return cand
    raise NotFoundError("no orthogonal root found in the antisymmetric subspace")


CharacterizationReport = TraceReport  # the same rows, verdict and JSON


def orthogonality_characterization(s: RootOfMinusOne, G: InnerProduct,
                                   rng: np.random.Generator | None = None,
                                   tol: float | None = None) -> CharacterizationReport:
    """<sa, sa> = <a, a> and <sa, a> = 0 on every basis vector and 32 random
    a; passes exactly when s is an orthogonal complex structure."""
    alg = s.algebra
    _gram_for(G, alg)
    if rng is None:
        rng = np.random.default_rng(0)
    probes = [alg.basis_element(k) for k in range(alg.dimension)]
    probes += [alg.random_element(rng) for _ in range(32)]
    rows = []
    for idx, a in enumerate(probes):
        sa = s.element * a
        iso = abs(G.pairing(sa, sa) - G.pairing(a, a))
        perp = abs(G.pairing(sa, a))
        size = G.norm(sa) ** 2 + G.norm(a) ** 2  # bounds <sa,a> too
        label = f"e_{idx}" if idx < alg.dimension else f"random_{idx - alg.dimension}"
        rows.append({"probe": label, "identity": "<sa,sa> = <a,a>",
                     "residual": float(iso), "pass": bool(within_tol(iso, size, tol))})
        rows.append({"probe": label, "identity": "<sa,a> = 0",
                     "residual": float(perp), "pass": bool(within_tol(perp, size, tol))})
    return CharacterizationReport(tuple(rows))


# -- quadratic cone ----------------------------------------------------------


@dataclass(frozen=True)
class ConeDecomposition:
    """x = beta*1 + gamma*s with gamma = sqrt(alpha^2 - beta^2); root is None
    for real x (gamma^2 within tolerance of 0)."""

    beta: float
    alpha: float
    root: RootOfMinusOne | None

    @property
    def gamma(self) -> float:
        return float(np.sqrt(max(self.alpha ** 2 - self.beta ** 2, 0.0)))


def cone_decompose(x: Element, G: InnerProduct,
                   tol: float | None = None) -> ConeDecomposition | None:
    """Split x = beta + gamma*s when L_x + L_x^t and L_x^t L_x are scalar.

    beta and alpha^2 come from traces; membership is the tolerance rule on
    the two scalar-matrix identities, their terms sized by Frobenius norms.
    gamma^2 = alpha^2 - beta^2 cancels alpha^2 against beta^2, so x is real
    when gamma^2 is within tolerance of 0 against alpha^2 + beta^2 (gamma is
    then below about sqrt(tol) |x|, which the traces cannot resolve).  None
    signals x outside the cone.
    """
    alg = x.algebra
    n = alg.dimension
    left, adj, nl, na = _left_terms(alg, x.coeffs, G)
    eye = np.eye(n)

    beta = float(np.trace(left + adj)) / (2.0 * n)
    if not within_tol(np.linalg.norm(left + adj - 2.0 * beta * eye),
                      nl + na + 2.0 * abs(beta) * np.sqrt(n), tol):
        return None
    alpha_sq = float(np.trace(adj @ left)) / n
    if not within_tol(np.linalg.norm(adj @ left - alpha_sq * eye),
                      na * nl + abs(alpha_sq) * np.sqrt(n), tol):
        return None
    gamma_sq = alpha_sq - beta ** 2
    alpha = float(np.sqrt(max(alpha_sq, 0.0)))
    if within_tol(abs(gamma_sq), abs(alpha_sq) + beta ** 2, tol):
        return ConeDecomposition(beta, alpha, None)
    if gamma_sq < 0.0:
        return None
    gamma = float(np.sqrt(gamma_sq))
    s = (x - beta * alg.unit()) / gamma
    return ConeDecomposition(beta, alpha, RootOfMinusOne.measured(s))


# -- the quadratic equations for the distinguished variety -------------------


def z0_residual(w: ComplexElement, G: InnerProduct) -> float:
    """Frobenius norm of G^{-1} L_w^T G L_w for L_w = L_a + i L_b.

    The transpose is the plain one (bilinear extension of the inner product),
    so the real and imaginary parts encode the two quadratic systems
    L_a^t L_a = L_b^t L_b and L_a^t L_b + L_b^t L_a = 0.
    """
    lw, adj, _, _ = _left_terms(w.algebra, w.as_vector(), G)
    return float(np.linalg.norm(adj @ lw))


@dataclass(frozen=True)
class Z0Verdict:
    """Agreement record between the quadratic equations and a witness in S0."""

    residual: float
    residual_member: bool
    witness_status: str  # found | absent | inconclusive
    witness: ZeroWitness | None = None

    @property
    def witness_member(self) -> bool | None:
        return {"found": True, "absent": False}.get(self.witness_status)

    @property
    def agree(self) -> bool | None:
        wm = self.witness_member
        return None if wm is None else wm == self.residual_member

    def to_json(self) -> dict:
        return {"residual": self.residual,
                "residual_member": self.residual_member,
                "witness_status": self.witness_status,
                "agree": self.agree}


def z0_equivalence_check(w: ComplexElement, G: InnerProduct,
                         tol: float | None = None,
                         rng: np.random.Generator | None = None) -> Z0Verdict:
    """Compare quadratic-equation membership (the tolerance rule on
    z0_residual against ||G^{-1} L_w^T G|| ||L_w||) with a witness in S0,
    searched inside A0 (antisymmetric_subspace, built once per G): s = span
    @ t, solving s*b = -a as zero_variety_witness does.  A found s is in S0
    (in A0, and a root).  "absent" is exact: A0 is {0}, a misses the range
    of R_b @ span, or the unique solution is no root; "inconclusive": no
    Newton start (0 and 7 random) on a kernel of solutions found a root."""
    lw, adj, nl, na = _left_terms(w.algebra, w.as_vector(), G)
    residual = float(np.linalg.norm(adj @ lw))
    residual_member = bool(within_tol(residual, na * nl, tol))
    basis = antisymmetric_subspace(w.algebra, G)
    if not basis:  # S0 is empty
        return Z0Verdict(residual, residual_member, "absent")
    span = np.stack([b.coeffs for b in basis], axis=1)
    witnesses, unique = _solution_witnesses(  # None: a misses the range
        w, w.algebra.right_matrix_vec(w.im.coeffs) @ span, span, 8, rng) or ([], True)
    found = next((witness for witness in witnesses if witness.holds(tol)), None)
    status = "found" if found else "absent" if unique else "inconclusive"
    return Z0Verdict(residual, residual_member, status, found)
