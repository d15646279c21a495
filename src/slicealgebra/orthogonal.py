"""Inner-product constructions: orthogonal roots, the quadratic cone, and
the quadratic equations cutting out the distinguished zero variety.

With an inner product G on the algebra, S0 collects the roots of -1 whose
left multiplication is an orthogonal complex structure.  Any two of
{s*s = -1, L_s orthogonal, L_s antisymmetric} force the third, so membership
is a two-of-three test.  Elements of the quadratic cone factor as
x = beta*1 + gamma*s with s in S0, and the variety of w = a + ib with
L_w^T G L_w = 0 (bilinear, non-conjugating transpose) is probed by an explicit
residual.  G-adjointness has one inverse-free form, on G_hat = 2^k G with its
largest entry in [1, 2) (exact; the identities are homogeneous in G): L is
G-antisymmetric if L^T G_hat + G_hat L = 0, G-orthogonal if L^T G_hat L = G_hat.
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
    """<a, b> = a^T G b with G symmetric positive definite; scaled is G_hat."""

    gram: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.gram):
            raise ValueError("gram matrix must be real")
        g = np.array(self.gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("gram matrix must be square")
        if g.size == 0:
            raise ValueError("gram matrix must not be empty")
        if not np.all(np.isfinite(g)):
            raise ValueError("gram matrix must be finite")
        scaled = np.ldexp(g, 1 - np.frexp(np.abs(g).max())[1])
        if not within_tol(np.linalg.norm(scaled - scaled.T), 2.0 * np.linalg.norm(scaled)):
            raise ValueError("gram matrix must be symmetric")
        if np.linalg.eigvalsh(scaled)[0] <= 0:
            raise ValueError("gram matrix must be positive definite")
        g.setflags(write=False)
        scaled.setflags(write=False)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "scaled", scaled)
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


def _scaled_for(G: InnerProduct, alg: Algebra) -> np.ndarray:
    if G.dimension != alg.dimension:
        raise DimensionMismatchError(
            f"inner product on dimension {G.dimension}, algebra {alg.dimension}")
    return G.scaled


def adjoint(L: np.ndarray, G: InnerProduct) -> np.ndarray:
    """G^{-1} L^T G, the adjoint of L for <a, b> = a^T G b, by one solve."""
    if L.shape != G.gram.shape:
        raise DimensionMismatchError("operator and gram shapes differ")
    return np.linalg.solve(G.scaled, L.T @ G.scaled)


def _left_terms(alg: Algebra, v: np.ndarray, G: InnerProduct):
    """(L_v, L_v^T G_hat, G_hat L_v, G_hat); L_{a+ib} = L_a + i L_b."""
    scaled = _scaled_for(G, alg)
    left = alg.left_matrix_vec(v)
    return left, left.T @ scaled, scaled @ left, scaled


def is_in_S0(s: Element, G: InnerProduct, tol: float | None = None) -> bool:
    """Two of {s*s = -1, L_s G-orthogonal, L_s G-antisymmetric} hold (hence
    all), each by the tolerance rule, the matrix terms sized by Frobenius norms."""
    left, lg, gl, scaled = _left_terms(s.algebra, s.coeffs, G)
    nl, nlg, ngl, ng = (np.linalg.norm(m) for m in (left, lg, gl, scaled))
    checks = (is_root(s, tol),
              within_tol(np.linalg.norm(lg @ left - scaled), nlg * nl + ng, tol),
              within_tol(np.linalg.norm(lg + gl), ngl + nlg, tol))
    return sum(checks) >= 2


def antisymmetric_subspace(algebra: Algebra, G: InnerProduct) -> np.ndarray:
    """Orthonormal basis of A0 = {a : L_a G-antisymmetric}: the read-only
    (N, m) array built once per algebra and kept on G as long as G lives.
    <a x, y> + <x, a y> = 0, so sum_i a_i B_i is antisymmetric for
    B_i = c[i] G_hat, B_i[j, k] = <e_i e_j, e_k> under G_hat.  One row
    B_i[j, k] + B_i[k, j] per k >= j, off-diagonal rows times sqrt(2) (under
    the standard G the Gram matrix of the N^2 x N system vec(L_{e_i} +
    L_{e_i}^t)), 256 // N values of j at a time (N <= 16: one block), folded
    into the N x N triangular factor, R <- qr([R; block]): the sequential TSQR
    of Demmel, Grigori, Hoemmen and Langou (SIAM J. Sci. Comput. 34, 2012),
    in O(N^2) memory.  The kernel is null_space(R)."""
    span = G._a0.get(algebra)
    if span is None:
        gram = _scaled_for(G, algebra)
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
    return span


def sample_S0(algebra: Algebra, G: InnerProduct,
              rng: np.random.Generator | None = None,
              tol: float | None = None) -> RootOfMinusOne:
    """Draw a root of -1 in A0 (antisymmetric_subspace(algebra, G), built
    once per G) in up to 50 draws, as the polar factor of L_a for a random a
    in A0: numerics.newton_schulz from a / ||L_a||_F."""
    rng = np.random.default_rng(0) if rng is None else rng
    span = antisymmetric_subspace(algebra, G)  # (N, m), orthonormal
    if not span.shape[1]:
        raise NotFoundError("antisymmetric subspace is trivial")
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
    """<sa, sa> = <a, a> and <sa, a> = 0 under G_hat on every basis vector and
    32 random a; passes exactly when s is an orthogonal complex structure."""
    alg = s.algebra
    scaled = _scaled_for(G, alg)
    rng = np.random.default_rng(0) if rng is None else rng
    probes = [alg.basis_element(k) for k in range(alg.dimension)]
    probes += [alg.random_element(rng) for _ in range(32)]
    rows = []
    for idx, a in enumerate(probes):
        sa, a = (s.element * a).coeffs, a.coeffs
        sa_sa, a_a = float(sa @ scaled @ sa), float(a @ scaled @ a)
        iso, perp = abs(sa_sa - a_a), abs(float(sa @ scaled @ a))
        size = sa_sa + a_a  # bounds <sa,a> too
        label = f"e_{idx}" if idx < alg.dimension else f"random_{idx - alg.dimension}"
        for identity, residual in (("<sa,sa> = <a,a>", iso), ("<sa,a> = 0", perp)):
            rows.append({"probe": label, "identity": identity, "residual": float(residual),
                         "pass": bool(within_tol(residual, size, tol))})
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
    """Split x = beta + gamma*s when L_x^T G_hat + G_hat L_x = 2 beta G_hat
    and L_x^T G_hat L_x = alpha^2 G_hat (beta and alpha^2 from traces over
    tr G_hat), each by the tolerance rule, terms sized by Frobenius norms.

    gamma^2 = alpha^2 - beta^2 cancels alpha^2 against beta^2, so x is real
    when gamma^2 is within tolerance of 0 against alpha^2 + beta^2 (gamma is
    then below about sqrt(tol) |x|, which the traces cannot resolve).  None
    signals x outside the cone.
    """
    left, lg, gl, scaled = _left_terms(x.algebra, x.coeffs, G)
    nl, nlg, ngl, ng = (np.linalg.norm(m) for m in (left, lg, gl, scaled))
    trace = float(np.trace(scaled))

    beta = float(np.trace(gl)) / trace
    if not within_tol(np.linalg.norm(lg + gl - 2.0 * beta * scaled),
                      ngl + nlg + 2.0 * abs(beta) * ng, tol):
        return None
    square = lg @ left
    alpha_sq = float(np.trace(square)) / trace
    if not within_tol(np.linalg.norm(square - alpha_sq * scaled),
                      nlg * nl + abs(alpha_sq) * ng, tol):
        return None
    gamma_sq = alpha_sq - beta ** 2
    alpha = float(np.sqrt(max(alpha_sq, 0.0)))
    if within_tol(abs(gamma_sq), abs(alpha_sq) + beta ** 2, tol):
        return ConeDecomposition(beta, alpha, None)
    if gamma_sq < 0.0:
        return None
    s = (x - beta * x.algebra.unit()) / float(np.sqrt(gamma_sq))
    return ConeDecomposition(beta, alpha, RootOfMinusOne.measured(s))


# -- the quadratic equations for the distinguished variety -------------------


def z0_residual(w: ComplexElement, G: InnerProduct) -> float:
    """Frobenius norm of L_w^T G_hat L_w for L_w = L_a + i L_b.

    The transpose is the plain one (bilinear extension of the inner product),
    so the real and imaginary parts encode the two quadratic systems
    L_a^T G L_a = L_b^T G L_b and L_a^T G L_b + L_b^T G L_a = 0.
    """
    lw, lg, _, _ = _left_terms(w.algebra, w.as_vector(), G)
    return float(np.linalg.norm(lg @ lw))


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
        return {"residual": self.residual, "residual_member": self.residual_member,
                "witness_status": self.witness_status, "agree": self.agree}


def z0_equivalence_check(w: ComplexElement, G: InnerProduct,
                         tol: float | None = None,
                         rng: np.random.Generator | None = None) -> Z0Verdict:
    """Compare quadratic-equation membership (the tolerance rule on
    z0_residual against ||L_w^T G_hat|| ||L_w||) with a witness in S0,
    searched inside A0 (antisymmetric_subspace, built once per G): s = span
    @ t, solving s*b = -a as zero_variety_witness does.  A found s is in S0
    (in A0, and a root).  "absent" is exact: A0 is {0}, a misses the range
    of R_b @ span, or the unique solution is no root; "inconclusive": no
    Newton start (0 and 7 random) on a kernel of solutions found a root."""
    lw, lg, _, _ = _left_terms(w.algebra, w.as_vector(), G)
    residual = float(np.linalg.norm(lg @ lw))
    residual_member = bool(within_tol(residual, np.linalg.norm(lg) * np.linalg.norm(lw), tol))
    span = antisymmetric_subspace(w.algebra, G)
    if not span.shape[1]:  # S0 is empty
        return Z0Verdict(residual, residual_member, "absent")
    witnesses, unique = _solution_witnesses(  # None: a misses the range
        w, w.algebra.right_matrix_vec(w.im.coeffs) @ span, span, 8, rng) or ([], True)
    found = next((witness for witness in witnesses if witness.holds(tol)), None)
    status = "found" if found else "absent" if unique else "inconclusive"
    return Z0Verdict(residual, residual_member, status, found)
