"""The shared rank decisions and Gauss-Newton loop."""

import numpy as np
import pytest

import oracle_quaternion as oq
from slicealgebra.config import RANK_RELTOL
from slicealgebra.numerics import (
    affine_square_root,
    column_space,
    gauss_newton,
    null_space,
)


def _full_svd_kernel(m):
    _, sv, vt = np.linalg.svd(m)
    rank = int(np.sum(sv > RANK_RELTOL * sv[0]))
    return vt[rank:].T


def test_null_space_of_tall_matrix_matches_full_svd(cl03):
    # the N^2 x N system whose kernel is the antisymmetric subspace of Cl(0,3)
    n = cl03.dimension
    cols = np.empty((n * n, n))
    for j in range(n):
        left = cl03.left_matrix_vec(np.eye(n)[j])
        cols[:, j] = (left + left.T).ravel()
    kernel = null_space(cols)
    full = _full_svd_kernel(cols)
    assert kernel.shape == full.shape == (n, 6)  # the six blades of grade 1 and 2
    assert np.allclose(kernel @ kernel.T, full @ full.T, atol=1e-12)
    assert np.allclose(cols @ kernel, 0.0, atol=1e-12)


def test_rank_cutoff_is_relative(rng):
    basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    m = basis @ np.diag([5.0, 2.0, 1.0, 1e-3, 1e-9, 0.0]) @ basis.T
    assert null_space(m).shape == (6, 2)
    assert column_space(m).shape == (6, 4)
    assert null_space(np.zeros((3, 3))).shape == (3, 3)
    assert column_space(np.zeros((3, 3))).shape == (3, 0)


def test_gauss_newton_keeps_a_start_that_meets_the_target():
    def jacobian(x):
        raise AssertionError("no step should be taken")

    x0 = np.array([0.5, -2.0])
    x, rn = gauss_newton(lambda x: np.array([1e-14]), jacobian, x0, 50, 1e-12)
    assert np.array_equal(x, x0)
    assert rn == 1e-14


def test_gauss_newton_stops_when_lapack_fails(monkeypatch):
    """A least-squares step whose SVD does not converge ends the search at
    the current point; callers see an unconverged norm, not a crash."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", fail)
    x0 = np.array([3.0])
    x, rn = gauss_newton(lambda x: x ** 2 - 2.0, lambda x: np.array([[2.0 * x[0]]]),
                         x0, 50, 1e-12)
    assert np.array_equal(x, x0)
    assert rn == pytest.approx(7.0)


def test_gauss_newton_jacobian_sees_latest_residual_point():
    seen = []

    def residual(x):
        seen.append(x.copy())
        return np.array([x[0] ** 3 - 2.0, x[1] - 1.0])

    def jacobian(x):
        assert np.array_equal(x, seen[-1])
        return np.array([[3.0 * x[0] ** 2, 0.0], [0.0, 1.0]])

    x, rn = gauss_newton(residual, jacobian, np.array([5.0, 0.0]), 60, 1e-13)
    assert rn <= 1e-13
    assert np.allclose(x, [2.0 ** (1.0 / 3.0), 1.0])


@pytest.mark.parametrize("iterations", [2, 60])
def test_affine_square_root_stays_on_the_affine_set(cl03, rng, iterations):
    n = cl03.dimension
    base = rng.standard_normal(n)
    span = rng.standard_normal((n, 3))
    s, _ = affine_square_root(cl03, base, span, rng.standard_normal(3),
                              iterations, 1e-12)
    t = np.linalg.lstsq(span, s - base, rcond=None)[0]
    assert np.allclose(span @ t, s - base, atol=1e-12 * (1.0 + np.linalg.norm(s)))


@pytest.mark.parametrize("seed", range(5))
def test_affine_square_root_finds_quaternion_root(quaternions, seed):
    start = np.random.default_rng(seed).standard_normal(4)
    s, rn = affine_square_root(quaternions, np.zeros(4), np.eye(4), start,
                               100, 1e-12)
    assert rn <= 1e-12
    assert np.allclose(oq.qmul(s, s), -oq.ONE, atol=1e-12)
