"""The vector norm, the shared rank decisions, projector ranges and the
Newton for s*s = -1."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracle_quaternion as oq
from slicealgebra.config import RANK_RELTOL
from slicealgebra.numerics import (
    affine_square_root,
    null_space,
    projector_range,
    svd_rank,
    vector_norm,
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
    assert svd_rank(m)[3] == 4
    assert null_space(np.zeros((3, 3))).shape == (3, 3)
    assert svd_rank(np.zeros((3, 3)))[3] == 0


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 64), data=st.data(), complex_=st.booleans(),
       skew=st.floats(-2.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_projector_range_spans_the_range_of_an_oblique_projector(
        n, data, complex_, skew, seed):
    """P = X (Y^H X)^{-1} Y^H with Y = X + 10^skew W, W orthogonal to X, so
    that ||P|| grows with skew.  Q has orthonormal columns, P Q = Q up to the
    rounding of P (its own idempotency defect ||P P - P|| included), and Q
    spans the range found by an SVD of P."""
    k = data.draw(st.integers(0, n))
    rng = np.random.default_rng(seed)

    def draw():
        x = rng.standard_normal((n, k))
        return x + 1j * rng.standard_normal((n, k)) if complex_ else x

    x, w = draw(), draw()
    basis = np.linalg.qr(x)[0]
    y = x + 10.0 ** skew * (w - basis @ (basis.conj().T @ w))
    p = x @ np.linalg.solve(y.conj().T @ x, y.conj().T)
    norm = np.linalg.norm(p, 2)
    assume(norm <= 1e3)
    q = projector_range(p, k)
    rounding = n * np.finfo(float).eps * max(norm, 1.0)
    reference = np.linalg.svd(p)[0][:, :k]
    assert q.shape == (n, k)
    assert np.linalg.norm(q.conj().T @ q - np.eye(k)) <= 10.0 * n * np.finfo(float).eps
    assert np.linalg.norm(p @ q - q) <= 10.0 * (rounding + np.linalg.norm(p @ p - p))
    assert np.linalg.norm(q @ q.conj().T - reference @ reference.conj().T) <= 100.0 * rounding


def test_affine_square_root_keeps_a_start_that_is_a_root(quaternions):
    s, rn = affine_square_root(quaternions, np.zeros(4), np.eye(4), oq.I)
    assert np.array_equal(s, oq.I)
    assert rn == 0.0


def test_affine_square_root_stops_when_lapack_fails(quaternions, monkeypatch):
    """A step whose SVD does not converge ends the search at the current
    point; callers see an unconverged residual, not a crash."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    s, rn = affine_square_root(quaternions, np.zeros(4), np.eye(4), 3.0 * oq.ONE)
    assert np.array_equal(s, 3.0 * oq.ONE)
    assert rn == pytest.approx(10.0)


@pytest.mark.parametrize("seed", [2, 60])
def test_affine_square_root_stays_on_the_affine_set(cl03, seed):
    rng = np.random.default_rng(seed)
    n = cl03.dimension
    base = rng.standard_normal(n)
    span = rng.standard_normal((n, 3))
    s, _ = affine_square_root(cl03, base, span, rng.standard_normal(3))
    t = np.linalg.lstsq(span, s - base, rcond=None)[0]
    assert np.allclose(span @ t, s - base, atol=1e-12 * (1.0 + np.linalg.norm(s)))


@pytest.mark.parametrize("seed", range(5))
def test_affine_square_root_finds_quaternion_root(quaternions, seed):
    start = np.random.default_rng(seed).standard_normal(4)
    s, rn = affine_square_root(quaternions, np.zeros(4), np.eye(4), start)
    assert rn <= 1e-12
    assert np.allclose(oq.qmul(s, s), -oq.ONE, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_affine_square_root_with_linear_rows_solves_both(quaternions, seed):
    """Rows [R_b | a] with a = -j b add a + s*b = 0, whose only solution on
    H is j: the joint search reaches it from a start off both sets."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(4)
    a = -oq.qmul(oq.J, b)
    rb = np.column_stack([oq.qmul(e, b) for e in np.eye(4)])  # x -> x b
    start = oq.J + 0.3 * rng.standard_normal(4)
    s, rn = affine_square_root(quaternions, np.zeros(4), np.eye(4), start,
                               np.column_stack([rb, a]))
    assert rn <= 1e-12 * (1.0 + np.linalg.norm(a))
    assert np.allclose(s, oq.J, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(start=hnp.arrays(float, 4, elements=st.floats(-10.0, 10.0)))
def test_affine_square_root_on_quaternions_reaches_the_root_of_its_plane(
        quaternions, start):
    """On H the search from a + v stays in the complex plane span(1, v) and
    in its upper half, so it lands on the root v/|v|, up to a drift along
    S of about eps / RANK_RELTOL from steps taken while the real part, the
    singular value of J across the plane, nears the cutoff.  Starts within
    0.5 of 0, where J is nearly singular, and within 1e-3 radians of the
    real axis, where Newton for z^2 + 1 is chaotic, are left out: there the
    search can stall."""
    v = start[1:]
    assume(np.linalg.norm(start) >= 0.5 and np.linalg.norm(v) >= 1e-3 * np.linalg.norm(start))
    s, rn = affine_square_root(quaternions, np.zeros(4), np.eye(4), start)
    floor = np.finfo(float).eps * 4 * (1.0 + np.linalg.norm(s)) ** 2
    assert rn <= floor
    assert np.linalg.norm(oq.qmul(s, s) + oq.ONE) <= floor
    assert np.allclose(s, np.concatenate([[0.0], v / np.linalg.norm(v)]), atol=1e-7)


@pytest.mark.parametrize("n", [1, 4, 64])
@pytest.mark.parametrize("big", [1e200, -1e200, 1.7e308])
def test_vector_norm_of_a_huge_entry_is_finite(n, big):
    """A square that overflows is taken again at the scale max|v|: the norm
    of one huge entry is that entry's size, with no overflow warning."""
    v = np.zeros(n)
    v[n // 2] = big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert vector_norm(v) == abs(big)
        assert vector_norm(v[::-1].copy()) == abs(big)


@pytest.mark.parametrize("n", [1, 4, 64])
@pytest.mark.parametrize("tiny", [1e-200, -1e-300, 5e-324])
def test_vector_norm_of_a_tiny_entry_is_nonzero(n, tiny):
    """A square that underflows is taken again at the scale max|v|: the
    norm of one tiny entry is that entry's size, where np.linalg.norm says 0."""
    v = np.zeros(n)
    v[n // 2] = tiny
    assert np.linalg.norm(v) == 0.0
    assert vector_norm(v) == abs(tiny)
    assert vector_norm(v[::-1].copy()) == abs(tiny)


@settings(max_examples=200, deadline=None)
@given(v=st.integers(1, 64).flatmap(lambda n: hnp.arrays(float, n, elements=st.floats(-1e150, 1e150))))
@example(v=np.array([9.7711871e-188]))
def test_vector_norm_is_numpy_norm_bit_for_bit(v):
    """The bits of np.linalg.norm(v), except where the square v.v is no
    normal float (entries below 1e150 cannot overflow it, but it may
    underflow): there those of max|v| np.linalg.norm(v / max|v|)."""
    want, big = float(np.linalg.norm(v)), np.abs(v).max()
    if not v.dot(v) >= np.finfo(float).tiny and big > 0.0:
        want = float(big * np.linalg.norm(v / big))
    assert vector_norm(v).hex() == want.hex()
