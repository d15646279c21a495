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

from .algebra import Algebra, Element, is_zerodivisor, right_divide
from .config import within_tol
from .errors import DimensionMismatchError, NotFoundError, ZeroDivisorError
from .numerics import newton_schulz, null_space
from .roots import RootOfMinusOne, TraceReport, is_root
from .zerovariety import ComplexElement, zero_variety_witness


@dataclass(frozen=True)
class InnerProduct:
    """<a, b> = a^T G b with G symmetric positive definite; inverse is G^{-1}."""

    gram: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("gram matrix must be square")
        if not within_tol(np.linalg.norm(g - g.T), 2.0 * np.linalg.norm(g)):
            raise ValueError("gram matrix must be symmetric")
        eigs = np.linalg.eigvalsh(g)
        if eigs[0] <= 0:
            raise ValueError("gram matrix must be positive definite")
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "inverse", np.linalg.inv(g))

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


def is_in_S0(s: Element, G: InnerProduct, tol: float | None = None) -> bool:
    """Two of {s*s = -1, L_s^t L_s = I, L_s + L_s^t = 0} hold (hence all),
    each by the tolerance rule, the matrix terms sized by Frobenius norms."""
    alg = s.algebra
    _gram_for(G, alg)
    left = alg.left_matrix_vec(s.coeffs)
    adj = adjoint(left, G)
    eye = np.eye(alg.dimension)
    nl, na = np.linalg.norm(left), np.linalg.norm(adj)
    checks = (is_root(s, tol),
              within_tol(np.linalg.norm(adj @ left - eye), na * nl + np.sqrt(alg.dimension), tol),
              within_tol(np.linalg.norm(left + adj), nl + na, tol))
    return sum(checks) >= 2


def antisymmetric_subspace(algebra: Algebra, G: InnerProduct) -> list[Element]:
    """Basis of A0 = {a : L_a + L_a^t = 0}, the ambient space of S0: the
    kernel of the N^2 x N system, taken from its N x N triangular factor R
    (same kernel), so that the SVD that decides the rank is N x N."""
    gram = _gram_for(G, algebra)
    c = algebra.structure_constants  # L_{e_j} = c[j]^T, so its adjoint is G^{-1} c[j] G
    cols = (c.transpose(0, 2, 1) + G.inverse @ c @ gram).reshape(len(c), -1).T
    return [algebra.element(col) for col in null_space(np.linalg.qr(cols, mode="r")).T]


def sample_S0(algebra: Algebra, G: InnerProduct,
              rng: np.random.Generator | None = None,
              tol: float | None = None,
              basis: list[Element] | None = None) -> RootOfMinusOne:
    """Draw a root of -1 in A0 (`basis`, antisymmetric_subspace(algebra, G)
    unless passed) in up to 50 draws, as the polar factor of L_a for a
    random a in A0: numerics.newton_schulz from a / ||L_a||_F."""
    if rng is None:
        rng = np.random.default_rng(0)
    if basis is None:
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
    _gram_for(G, alg)
    n = alg.dimension
    left = alg.left_matrix_vec(x.coeffs)
    adj = adjoint(left, G)
    eye = np.eye(n)
    nl, na = np.linalg.norm(left), np.linalg.norm(adj)

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


def _z0_terms(w: ComplexElement, G: InnerProduct) -> tuple[np.ndarray, np.ndarray]:
    """(G^{-1} L_w^T G, L_w) for L_w = L_a + i L_b."""
    alg = w.algebra
    _gram_for(G, alg)
    lw = (alg.left_matrix_vec(w.re.coeffs)
          + 1j * alg.left_matrix_vec(w.im.coeffs))
    return adjoint(lw, G), lw


def z0_residual(w: ComplexElement, G: InnerProduct) -> float:
    """Frobenius norm of G^{-1} L_w^T G L_w for L_w = L_a + i L_b.

    The transpose is the plain one (bilinear extension of the inner product),
    so the real and imaginary parts encode the two quadratic systems
    L_a^t L_a = L_b^t L_b and L_a^t L_b + L_b^t L_a = 0.
    """
    adj, lw = _z0_terms(w, G)
    return float(np.linalg.norm(adj @ lw))


@dataclass(frozen=True)
class Z0Verdict:
    """Agreement record between the quadratic equations and witness search."""

    residual: float
    residual_member: bool
    witness_status: str  # found | absent | inconclusive
    replay: dict | None

    @property
    def witness_member(self) -> bool | None:
        if self.witness_status == "found":
            return True
        if self.witness_status == "absent":
            return False
        return None

    @property
    def agree(self) -> bool | None:
        wm = self.witness_member
        return None if wm is None else wm == self.residual_member

    def to_json(self) -> dict:
        return {"residual": self.residual,
                "residual_member": self.residual_member,
                "witness_status": self.witness_status,
                "agree": self.agree,
                "replay": self.replay}


def z0_equivalence_check(w: ComplexElement, G: InnerProduct,
                         tol: float | None = None,
                         rng: np.random.Generator | None = None) -> Z0Verdict:
    """Compare quadratic-equation membership against a root witness in S0.

    For w with invertible parts the containment proof is replayed through
    u = b a^{-1}: orthogonality and antisymmetry of L_u plus the factoring
    L_b = L_u L_a.  Quadratic-equation membership is the tolerance rule on
    z0_residual against ||G^{-1} L_w^T G|| ||L_w||.  Disagreements are
    recorded, not resolved.
    """
    alg = w.algebra
    adj, lw = _z0_terms(w, G)
    residual = float(np.linalg.norm(adj @ lw))
    residual_member = bool(within_tol(residual, np.linalg.norm(adj) * np.linalg.norm(lw), tol))
    a, b = w.re, w.im
    b_singular = is_zerodivisor(b)
    search = zero_variety_witness(w, tol, rng)
    status = search.status
    if search.found and not is_in_S0(search.witness.root.element, G, tol):
        # a unique witness (invertible im part) outside S0 settles restriction
        status = "inconclusive" if b_singular else "absent"

    replay = None
    try:
        u = right_divide(b, a)
    except ZeroDivisorError:  # LAPACK finds a singular: no u to replay through
        u = None
    if u is not None and not b_singular:
        lu = alg.left_matrix_vec(u.coeffs)
        adj = adjoint(lu, G)
        la = alg.left_matrix_vec(a.coeffs)
        lb = alg.left_matrix_vec(b.coeffs)
        replay = {"u_orthogonal": float(np.linalg.norm(adj @ lu - np.eye(alg.dimension))),
                  "u_antisymmetric": float(np.linalg.norm(lu + adj)),
                  "factor": float(np.linalg.norm(lb - lu @ la))}
    return Z0Verdict(residual, residual_member, status, replay)
