"""The shared numerical steps: the norm of a coefficient vector (neither
over- nor underflowing), rank decisions by singular values, ranges of
projectors of known rank, the Newton-Schulz polish of a near-root of -1,
and the damped Newton for s*s = -1 on an affine set, with optional linear rows.

Every rank that is a verdict is decided by the cutoff of `numerical_rank`,
through `svd_rank` where singular vectors are read, else on a values-only
SVD; a subspace of integer-trace rank is a `projector_range`.  Every
Newton-Schulz step toward s*s = -1 is taken by `newton_schulz`, and every
Newton search for a root of -1 on an affine set runs through
`affine_square_root`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import RANK_RELTOL

# Step cap of every Newton search; the other stops usually come first.
NEWTON_ITERATIONS = 100
_TINY = np.finfo(float).tiny  # the smallest normal float


def vector_norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a real vector, bit for bit, without its dispatch:
    sqrt(v.dot(v)), a strided v copied first as there (it sums in another order).
    A square that over- or underflows (no normal float) is taken again at the
    scale max|v|, as in Blue's norm (ACM TOMS 4, 1978)."""
    v = np.ascontiguousarray(v)
    square = np.vdot(v, v)  # v.dot(v)'s BLAS dot, with no overflow warning
    if not _TINY <= square < math.inf and np.count_nonzero(v) and (big := np.abs(v).max()) < math.inf:
        return float(big * vector_norm(v / big))
    return math.sqrt(square)


def numerical_rank(sv: np.ndarray, scale: float = 0.0) -> int:
    """The number of singular values sv (descending) that count as nonzero.

    A singular value counts as zero at or below RANK_RELTOL times the
    largest, or times `scale` when that is larger, and below the smallest
    normal float, where the relative cutoff underflows and an inverse
    overflows.  A caller passes `scale` when every matrix that is nonzero
    in exact arithmetic has a singular value at least that large, so that
    one which is zero up to rounding gets rank 0 rather than full rank.
    """
    reference = max(sv[0] if sv.size else 0.0, scale)
    return int(np.sum(sv > max(RANK_RELTOL * reference, _TINY)))


def svd_rank(m: np.ndarray, scale: float = 0.0):
    """Thin SVD (u, sv, vt) of m and its numerical_rank (`scale` as there).
    Callers pass square or tall matrices, so vt is square and its trailing
    rows span the whole kernel."""
    u, sv, vt = np.linalg.svd(m, full_matrices=False)
    return u, sv, vt, numerical_rank(sv, scale)


def null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the kernel of a square or tall m."""
    _, _, vt, rank = svd_rank(m)
    return np.ascontiguousarray(vt[rank:].T)


@lru_cache(maxsize=None)
def _sketch(n: int, k: int) -> np.ndarray:
    """The fixed Gaussian test matrix of shape (n, k), seeded from the shape."""
    omega = np.random.default_rng((n, k)).standard_normal((n, k))
    omega.flags.writeable = False
    return omega


def projector_range(p: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal columns spanning the range of a real or complex projector
    p of known rank (Halko, Martinsson and Tropp, SIAM Review 53, 2011): QR
    of p @ Omega for a fixed Gaussian Omega, then once more of p @ Q, which
    pulls the rounding of the first QR back into the range."""
    q = np.linalg.qr(p @ _sketch(p.shape[0], rank))[0]
    return np.linalg.qr(p @ q)[0]


def newton_schulz(algebra, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Newton-Schulz steps x <- x (x*x + 3)/2 toward x*x = -1 from x, L_x
    gathered once a step; returns the x of least defect and ||x*x + 1||.

    On S the inverse is known, x^{-1} = -x, and putting it into the Newton
    step x - (x*x + 1)(2x)^{-1} gives the Newton-Schulz iteration for the
    matrix sign function (Higham, Functions of Matrices, 2008, ch. 5 and 8).
    The defect d = x*x + 1 commutes with x, so a step sends it to
    d^2 (3 + d) / 4: quadratic convergence without an inverse.  The steps
    stop one step past the rounding floor eps * N * (1 + ||x||)^2 of x*x,
    when the defect stops falling, or after NEWTON_ITERATIONS steps.
    """
    unit, floor = algebra.unit_vector, np.finfo(float).eps * algebra.dimension
    best, defect, last = x, np.inf, False
    for _ in range(NEWTON_ITERATIONS):
        left = algebra.left_matrix_vec(x)
        square = left @ x
        rn = vector_norm(square + unit)
        if not rn < defect:  # stopped falling (NaN included)
            break
        best, defect = x, rn
        if last:  # one step past the rounding floor
            break
        last = rn <= floor * (1.0 + vector_norm(x)) ** 2
        x = 0.5 * (left @ (square + 3.0 * unit))
    return best, defect


def affine_square_root(algebra, base: np.ndarray, span: np.ndarray,
                       t0: np.ndarray, rows: np.ndarray | None = None):
    """Damped Gauss-Newton for s*s + 1 = 0 over s = base + span @ t, from
    t0, and for M s + c = 0 with it when rows = [M | c] is given, weighted
    by the caller onto the scale (1 + ||s||)^2 of s*s + 1.

    A step solves J dt = -r for the stacked residual r, J = [L_s + R_s; M]
    @ span, by the pseudo-inverse of J truncated at svd_rank's cutoff: the
    tangent directions of S lie in the kernel of L_s + R_s at every root,
    and rounding-level singular values would make the step noise.  It is
    cut to length 1 + ||s||, then halved down to 1/1024 until ||r|| drops.
    The search stops at the first of: ||r|| at the rounding floor
    eps * N * (1 + ||s||)^2 of s*s, after one last whole step kept if it
    lowers ||r||; no tried step lowers ||r||; LAPACK fails;
    NEWTON_ITERATIONS steps.  Returns (s, ||r||), s in base + span.
    """
    unit = algebra.unit_vector
    floor = np.finfo(float).eps * algebra.dimension

    def residual(t):
        s = base + span @ t
        r = algebra.multiply_vec(s, s) + unit
        r = r if rows is None else np.concatenate([r, rows[:, :-1] @ s + rows[:, -1]])
        return s, r, vector_norm(r)

    t = np.array(t0, dtype=float)
    s, r, rn = residual(t)
    for _ in range(NEWTON_ITERATIONS):
        jac = algebra.left_matrix_vec(s) + algebra.right_matrix_vec(s)
        jac = (jac if rows is None else np.vstack([jac, rows[:, :-1]])) @ span
        try:
            u, sv, vt, rank = svd_rank(jac)
        except np.linalg.LinAlgError:  # the SVD did not converge
            break
        step = vt[:rank].T @ ((u[:, :rank].T @ -r) / sv[:rank])
        scale = 1.0 + vector_norm(s)
        # at the rounding floor halving is moot: one last whole step
        at_floor = rn <= floor * scale ** 2
        # near a singular J (s near 0) the step is ~1/||s|| long
        damp = scale / max(vector_norm(span @ step), scale)
        for _ in range(1 if at_floor else 11):
            s2, r2, rn2 = residual(t + damp * step)
            if rn2 < rn:
                break
            damp *= 0.5
        else:
            return s, rn  # stalled: no tried step lowers the residual
        t, s, r, rn = t + damp * step, s2, r2, rn2
        if at_floor:
            break
    return s, rn
