"""Inner-product constructions: orthogonal roots, the quadratic cone, and
the quadratic equations cutting out the distinguished zero variety.

With an inner product G on the algebra, one pair of G-identities,
L_x^T G L_x = alpha^2 G and L_x^T G + G L_x = 2 beta G, decides S0, the
quadratic cone and Z0.  S0, the roots of -1 whose L_s is an orthogonal
complex structure, is where both hold at (alpha^2, beta) = (1, 0); any two of
{s*s = -1, the first, the second} force the third (a two-of-three test).  The
cone's x = beta*1 + gamma*s, s in S0, satisfy both; Z0 is the first at
alpha^2 = 0 on w = a + ib (bilinear, non-conjugating transpose).  Each is read
with no inverse on G_hat = 2^k G, its largest entry in [1, 2) (exact: the
identities are homogeneous in G).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Element
from .config import within_tol
from .errors import DimensionMismatchError, NotFoundError
from .numerics import null_space
from .roots import RootOfMinusOne, TraceReport, newton_schulz
from .zerovariety import ComplexElement, WitnessSearch, _solution_witnesses, _verdict


@dataclass(frozen=True)
class InnerProduct:
    """<a, b> = a^T G b with G symmetric positive definite; G = 2^power G_hat (scaled)."""

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
        power = int(np.frexp(np.abs(g).max())[1]) - 1
        scaled = np.ldexp(g, -power)
        if not within_tol(np.linalg.norm(scaled - scaled.T), 2.0 * np.linalg.norm(scaled)):
            raise ValueError("gram matrix must be symmetric")
        if np.linalg.eigvalsh(scaled)[0] <= 0:
            raise ValueError("gram matrix must be positive definite")
        g.setflags(write=False)
        scaled.setflags(write=False)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "_sizes", (np.linalg.norm(scaled), float(np.trace(scaled))))
        object.__setattr__(self, "_a0", weakref.WeakKeyDictionary())  # algebra -> A0's span

    @classmethod
    def standard(cls, algebra: Algebra) -> "InnerProduct":
        """Identity Gram matrix, the chosen basis declared orthonormal: one G
        kept in algebra.kept, for every caller, so one A0."""
        kept = algebra.kept
        return kept.get("standard G") or kept.setdefault("standard G", cls(np.eye(algebra.dimension)))

    @property
    def dimension(self) -> int:
        return self.gram.shape[0]

    def pairing(self, a: Element, b: Element) -> float:
        (a_hat, ea), (b_hat, eb) = _binade(a.coeffs), _binade(b.coeffs)
        return float(np.ldexp(a_hat @ self.scaled @ b_hat, self.power + ea + eb))

    def norm(self, a: Element) -> float:
        a_hat, ea = _binade(a.coeffs)
        q = max(float(a_hat @ self.scaled @ a_hat), 0.0)  # a_hat^T G_hat a_hat
        # ||a||^2 = 2^(power % 2) q 4^(power // 2 + ea): the root first, then the scale
        return float(np.ldexp(np.sqrt(np.ldexp(q, self.power % 2)), self.power // 2 + ea))


def _binade(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v_hat, e) with v = 2^e v_hat, exact, and v_hat's largest entry in [1/2, 1)
    (frexp): a^T G_hat b formed on such vectors neither over- nor underflows."""
    e = int(np.frexp(np.abs(v).max())[1])
    return np.ldexp(v, -e), e


def _scaled_for(G: InnerProduct, dimension: int) -> np.ndarray:
    if G.dimension != dimension:
        raise DimensionMismatchError(
            f"inner product on dimension {G.dimension}, algebra {dimension}")
    return G.scaled


def _g_identities(left: np.ndarray, G: InnerProduct,
                  alpha_sq: float | None = None, beta: float | None = None,
                  tol: float | None = None):
    """Yield (alpha^2, residual, verdict) of the first G-identity on G_hat for
    left = L_v (L_a + i L_b for v = a + ib), then, if asked for, (beta, residual,
    verdict) of the second.  A coefficient left None is tr(L_v^T G_hat L_v) or
    tr(G_hat L_v) over tr G_hat; the tolerance rule, terms sized by Frobenius norms."""
    scaled = _scaled_for(G, left.shape[0])
    norm, trace = G._sizes  # ||G_hat||_F, tr G_hat
    lg = left.T @ scaled
    nlg = np.linalg.norm(lg)

    def check(term, size, coef):  # residual and verdict of term = coef G_hat
        residual = float(np.linalg.norm(term - coef * scaled if coef else term))
        return residual, bool(within_tol(residual, size + abs(coef) * norm, tol))

    square = lg @ left
    if alpha_sq is None:
        alpha_sq = float(np.trace(square)) / trace
    yield alpha_sq, *check(square, nlg * np.linalg.norm(left), alpha_sq)
    gl = scaled @ left
    if beta is None:
        beta = float(np.trace(gl)) / trace
    yield beta, *check(lg + gl, np.linalg.norm(gl) + nlg, 2.0 * beta)


def is_in_S0(s: Element, G: InnerProduct, tol: float | None = None) -> bool:
    """Two of {s*s = -1, the G-identities at (alpha^2, beta) = (1, 0)} hold."""
    root = RootOfMinusOne(s)  # its L_s serves the root test and both identities
    identities = _g_identities(root.left, G, 1.0, 0.0, tol)
    return root.holds(tol) + sum(ok for _, _, ok in identities) >= 2


def antisymmetric_subspace(algebra: Algebra, G: InnerProduct) -> np.ndarray:
    """Orthonormal basis of A0 = {a : L_a G-antisymmetric}: the read-only
    (N, m) array built once per algebra and kept on G while both live.
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
        gram = _scaled_for(G, algebra.dimension)
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
    once per G) in up to 50 draws, the polar factor of L_a for a random a in
    A0 (newton_schulz from a / ||L_a||_F) that holds and passes a G-identity."""
    rng = np.random.default_rng(0) if rng is None else rng
    span = antisymmetric_subspace(algebra, G)  # (N, m), orthonormal
    if not span.shape[1]:
        raise NotFoundError("antisymmetric subspace is trivial")
    for _ in range(50):
        x = span @ rng.standard_normal(span.shape[1])
        root = newton_schulz(algebra, x / np.linalg.norm(algebra.left_matrix_vec(x)))
        if root.holds(tol) and any(ok for *_, ok in _g_identities(root.left, G, 1.0, 0.0, tol)):
            return root
    raise NotFoundError("no orthogonal root found in the antisymmetric subspace")


def orthogonality_characterization(s: RootOfMinusOne, G: InnerProduct,
                                   tol: float | None = None) -> TraceReport:
    """<sa, sa> = <a, a> and <sa, a> = 0 under G_hat for every a: by
    polarization exactly L_s^T G_hat L_s = G_hat and L_s^T G_hat + G_hat L_s
    = 0, a row each; passes exactly when s is an orthogonal complex structure."""
    identities = _g_identities(s.left, G, 1.0, 0.0, tol)
    return TraceReport(tuple(
        {"identity": name, "residual": residual, "pass": ok}
        for name, (_, residual, ok) in zip(("<sa,sa> = <a,a>", "<sa,a> = 0"), identities)))


# -- quadratic cone ----------------------------------------------------------


@dataclass(frozen=True)
class ConeDecomposition:
    """x = beta*1 + gamma*s, alpha^2 = beta^2 + gamma^2 read off the traces;
    root is None for real x (x = beta*1 by the tolerance rule)."""

    beta: float
    alpha: float
    gamma: float
    root: RootOfMinusOne | None


def cone_decompose(x: Element, G: InnerProduct,
                   tol: float | None = None) -> ConeDecomposition | None:
    """Split x = beta + gamma*s when the pair of G-identities holds, beta and
    alpha^2 read off the traces (_g_identities).  None signals x outside the
    cone: exactly when a G-identity fails.  (With y = x - beta, alpha^2 -
    beta^2 = tr(L_y^T G_hat L_y) / tr G_hat >= 0, so no third test is needed.)

    x is real when x = beta*1 passes the tolerance rule, against ||x|| +
    |beta| ||1||.  gamma is sqrt(||(x - beta)^2||), as (gamma s)^2 = -gamma^2:
    sqrt(alpha^2 - beta^2) would cancel alpha^2 against beta^2, and leave a
    gamma far below |x| with a relative error of about eps |x|^2 / gamma^2."""
    identities = _g_identities(x.algebra.left_matrix_vec(x.coeffs), G, tol=tol)
    alpha_sq, _, ok = next(identities)
    if not ok:
        return None
    beta, _, ok = next(identities)
    if not ok:
        return None
    im = x - beta * x.algebra.unit()
    alpha = float(np.sqrt(max(alpha_sq, 0.0)))
    gamma = float(np.sqrt((im * im).norm()))  # (gamma s)^2 = -gamma^2, and ||1|| = 1
    if within_tol(im.norm(), x.norm() + abs(beta), tol):
        return ConeDecomposition(beta, alpha, gamma, None)
    return ConeDecomposition(beta, alpha, gamma, RootOfMinusOne(im / gamma))


# -- the quadratic equations for the distinguished variety -------------------


def z0_residual(w: ComplexElement, G: InnerProduct) -> float:
    """||L_w^T G_hat L_w||_F, L_w = L_a + i L_b, the plain transpose: its real and
    imaginary parts are L_a^T G L_a - L_b^T G L_b and L_a^T G L_b + L_b^T G L_a."""
    return next(_g_identities(w.algebra.left_matrix_vec(w.as_vector()), G, 0.0))[1]


@dataclass(frozen=True)
class Z0Verdict:
    """Agreement record between the quadratic equations and a witness search in S0."""

    residual: float
    residual_member: bool
    search: WitnessSearch

    @property
    def agree(self) -> bool | None:
        """Found or absent matches residual_member; None when inconclusive."""
        wm = {"found": True, "absent": False}.get(self.search.status)
        return None if wm is None else wm == self.residual_member


def z0_equivalence_check(w: ComplexElement, G: InnerProduct,
                         tol: float | None = None,
                         rng: np.random.Generator | None = None) -> Z0Verdict:
    """Compare quadratic-equation membership (the tolerance rule on
    z0_residual against ||L_w^T G_hat|| ||L_w||) with a witness in S0: the
    solutions s = span @ t of s*b = -a in A0 (antisymmetric_subspace, built
    once per G; _solution_witnesses), decided by Z's band rule (_verdict, its
    joint Newton inside A0, so a found s is in S0) at sigma_min of R_b @ span."""
    left = w.algebra.left_matrix_vec(w.as_vector())  # L_a + i L_b
    _, residual, residual_member = next(_g_identities(left, G, 0.0, tol=tol))
    span = antisymmetric_subspace(w.algebra, G)
    solutions = span.shape[1] and _solution_witnesses(
        w, w.algebra.right_matrix_vec(w.im.coeffs) @ span, span, rng)
    witnesses, sigma_min = solutions or ((), np.inf)  # S0 is empty, or a misses the range
    return Z0Verdict(residual, residual_member, _verdict(w, witnesses, sigma_min, tol, span))
