"""The shared numerical steps: rank decisions by singular values and the
damped Newton for s*s = -1 on an affine set.

Every kernel, eigenspace and fiber in the package is decided by
`svd_rank`, and every Newton search for a root of -1 (seed, orthogonal
root, zero-variety witness) runs through `affine_square_root`.
"""

from __future__ import annotations

import numpy as np

from .config import RANK_RELTOL

# Step cap of every Newton search; the other stops usually come first.
NEWTON_ITERATIONS = 100


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


def affine_square_root(algebra, base: np.ndarray, span: np.ndarray,
                       t0: np.ndarray):
    """Damped Newton for s*s + 1 = 0 over s = base + span @ t, from t0.

    Each step solves J dt = -(s*s + 1), J = (L_s + R_s) @ span, through the
    pseudo-inverse of J truncated at svd_rank's cutoff: J is rank-deficient
    at every root, since the tangent directions of S lie in its kernel, and
    rounding-level singular values would turn the step into noise.  A step
    is first cut to length 1 + ||s||, then halved, down to 1/1024, until
    the residual drops.  The search stops at the first of: the residual is
    at the rounding floor eps * N * (1 + ||s||)^2 of s*s, a bound that the
    rounding error can lie well below, after one last whole step, kept if
    it lowers the residual; no tried step lowers the residual (that step
    is not taken); LAPACK fails; NEWTON_ITERATIONS steps.

    Returns (s, ||s*s + 1||); s lies in base + span whether or not the
    search converged.
    """
    unit = algebra.unit().coeffs
    floor = np.finfo(float).eps * algebra.dimension

    def residual(t):
        s = base + span @ t
        r = algebra.multiply_vec(s, s) + unit
        return s, r, np.linalg.norm(r)

    t = np.array(t0, dtype=float)
    s, r, rn = residual(t)
    for _ in range(NEWTON_ITERATIONS):
        jac = (algebra.left_matrix_vec(s) + algebra.right_matrix_vec(s)) @ span
        try:
            u, sv, vt, rank = svd_rank(jac)
        except np.linalg.LinAlgError:  # the SVD did not converge
            break
        step = vt[:rank].T @ ((u[:, :rank].T @ -r) / sv[:rank])
        scale = 1.0 + np.linalg.norm(s)
        # at the rounding floor halving is moot: one last whole step
        at_floor = rn <= floor * scale ** 2
        # near a singular J (s near 0) the step is ~1/||s|| long
        damp = scale / max(np.linalg.norm(span @ step), scale)
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
