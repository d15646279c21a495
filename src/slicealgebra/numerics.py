"""The shared numerical steps: rank decisions by singular values and damped
Gauss-Newton, including its use for s*s = -1 on an affine set.

Every kernel, eigenspace and fiber in the package is decided by
`svd_rank`, and every Newton search runs through `gauss_newton`.
"""

from __future__ import annotations

import numpy as np

from .config import RANK_RELTOL


def svd_rank(m: np.ndarray, scale: float = 0.0):
    """Thin SVD (u, sv, vt) of m and its numerical rank.

    Singular values at or below RANK_RELTOL times the largest, or times
    `scale` when that is larger, count as zero.  A caller passes `scale`
    when every m that is nonzero in exact arithmetic has a singular value
    at least that large, so that an m which is zero up to rounding gets
    rank 0 rather than full rank.  Callers pass square or tall matrices, so
    vt is square and its trailing rows span the whole kernel.
    """
    u, sv, vt = np.linalg.svd(m, full_matrices=False)
    reference = max(sv[0] if sv.size else 0.0, scale)
    cutoff = RANK_RELTOL * (reference if reference > 0 else 1.0)
    return u, sv, vt, int(np.sum(sv > cutoff))


def null_space(m: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """Orthonormal columns spanning the kernel of a square or tall m
    (`scale` as in svd_rank)."""
    _, _, vt, rank = svd_rank(m, scale)
    return np.ascontiguousarray(vt[rank:].T)


def column_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the range of a square or tall m."""
    u, _, _, rank = svd_rank(m)
    return np.ascontiguousarray(u[:, :rank])


def gauss_newton(residual, jacobian, x0, iterations: int, target: float):
    """Damped Gauss-Newton for residual(x) = 0, starting at x0.

    Each step is the least-squares solution of jacobian(x) dx = -residual(x),
    halved until the residual norm drops, and taken anyway after ten
    halvings.  Stops once the norm is at most target, after `iterations`
    steps, or when LAPACK fails to compute a step, and returns (x, norm).
    jacobian is only ever called at the point of the latest residual call,
    so it may reuse values computed there.
    """
    x = np.array(x0, dtype=float)
    r = residual(x)
    rn = np.linalg.norm(r)
    for _ in range(iterations):
        if rn <= target:
            break
        try:
            step = np.linalg.lstsq(jacobian(x), -r, rcond=None)[0]
        except np.linalg.LinAlgError:  # its SVD did not converge
            break
        damp = 1.0
        while True:
            xn = x + damp * step
            r2 = residual(xn)
            rn2 = np.linalg.norm(r2)
            if rn2 < rn or damp <= 1.0 / 1024.0:
                break
            damp *= 0.5
        x, r, rn = xn, r2, rn2
    return x, rn


def affine_square_root(algebra, base: np.ndarray, span: np.ndarray,
                       t0: np.ndarray, iterations: int, target: float):
    """Gauss-Newton for s*s + 1 = 0 over s = base + span @ t, from t0.

    Returns (s, ||s*s + 1||); s lies in base + span whether or not the
    search converged.
    """
    unit = algebra.unit().coeffs

    def point(t):
        return base + span @ t

    def residual(t):
        s = point(t)
        return algebra.multiply_vec(s, s) + unit

    def jacobian(t):
        s = point(t)
        return (algebra.left_matrix_vec(s) + algebra.right_matrix_vec(s)) @ span

    t, rn = gauss_newton(residual, jacobian, t0, iterations, target)
    return point(t), rn
