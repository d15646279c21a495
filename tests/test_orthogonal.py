"""Orthogonal complex structures, the quadratic cone and the quadratic
equations for the distinguished zero variety."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import einsum_reference
import oracle_quaternion as oq
from slicealgebra import (
    ComplexElement,
    DimensionMismatchError,
    InnerProduct,
    NotFoundError,
    RootOfMinusOne,
    adjoint,
    antisymmetric_subspace,
    clifford_algebra,
    cone_decompose,
    find_seed_root,
    is_in_S0,
    make_algebra,
    operator_matrix,
    orthogonality_characterization,
    sample_S0,
    sample_root,
    tangent_frame,
    z0_equivalence_check,
    z0_residual,
)
from slicealgebra.config import within_tol
from slicealgebra.numerics import null_space


def _std(alg):
    return InnerProduct.standard(alg)


def _root(alg, vec):
    return RootOfMinusOne.from_element(alg.element(vec))


def test_inner_product_validation(quaternions):
    with pytest.raises(ValueError):
        InnerProduct(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        InnerProduct(np.diag([1.0, -1.0]))
    G = InnerProduct(np.diag([1.0, 2.0, 3.0, 4.0]))
    a = quaternions.element([1.0, 1.0, 0.0, 0.0])
    assert G.pairing(a, a) == 3.0
    assert abs(G.norm(a) - np.sqrt(3.0)) <= 1e-15
    with pytest.raises(DimensionMismatchError):
        adjoint(np.eye(4), InnerProduct(np.eye(2)))


def test_adjoint_is_transpose_for_identity_gram(quaternions, rng):
    G = _std(quaternions)
    for _ in range(10):
        a = quaternions.random_element(rng)
        L = operator_matrix(a, "L")
        assert np.allclose(adjoint(L, G), L.T, atol=1e-13)
    # weighted gram: G^{-1} L^T G, checked against the pairing identity
    W = InnerProduct(np.diag([1.0, 2.0, 3.0, 4.0]))
    a = quaternions.random_element(rng)
    L = operator_matrix(a, "L")
    adj = adjoint(L, W)
    for _ in range(10):
        u = quaternions.random_element(rng)
        v = quaternions.random_element(rng)
        lhs = float(u.coeffs @ W.gram @ (L @ v.coeffs))
        rhs = float((adj @ u.coeffs) @ W.gram @ v.coeffs)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_left_multiplication_by_imaginary_unit_is_antisymmetric(quaternions):
    G = _std(quaternions)
    for vec in (oq.I, oq.J, oq.K):
        L = operator_matrix(quaternions.element(vec), "L")
        assert np.allclose(adjoint(L, G), -L, atol=1e-14)


def test_is_in_S0_quaternions_and_complex(quaternions, complex_algebra, rng):
    G = _std(quaternions)
    seed = find_seed_root(quaternions)
    for _ in range(50):
        s = sample_root(seed, rng)
        assert is_in_S0(s.element, G)
    assert not is_in_S0(quaternions.element([0.0, 0.6, 0.8, 0.0]) * 2.0, G)
    assert is_in_S0(complex_algebra.basis_element(1), _std(complex_algebra))


def test_is_in_S0_split_signature_counterexample(cl11):
    """clifford(1,1): e2 is an orthogonal root, e1 + sqrt2 e2 is a root whose
    left multiplication is not orthogonal."""
    G = _std(cl11)
    e2 = cl11.basis_element(2)
    assert is_in_S0(e2, G)
    skew = cl11.element([0.0, 1.0, np.sqrt(2.0), 0.0])
    assert abs((skew * skew + cl11.unit()).norm()) <= 1e-12  # still a root
    assert not is_in_S0(skew, G)


def test_antisymmetric_subspace_dimensions(quaternions, complex_algebra, cl03,
                                           cl11):
    reals = clifford_algebra(0, 0)
    expect = [(quaternions, 3), (complex_algebra, 1), (cl03, 6), (cl11, 1),
              (reals, 0)]
    for alg, dim in expect:
        basis = antisymmetric_subspace(alg, _std(alg))
        assert len(basis) == dim
        for b in basis:
            left = alg.left_matrix_vec(b.coeffs)
            assert np.linalg.norm(left + left.T) <= 1e-10


def test_quaternion_antisymmetric_subspace_is_imaginary(quaternions):
    span = np.stack([b.coeffs for b in
                     antisymmetric_subspace(quaternions, _std(quaternions))])
    assert np.linalg.norm(span[:, 0]) <= 1e-12
    assert np.linalg.matrix_rank(span[:, 1:]) == 3


def _per_basis_subspace(alg, G):
    """A0 from one column vec(L_{e_j} + G^{-1} L_{e_j}^T G) per basis element."""
    n = alg.dimension
    ginv = np.linalg.inv(G.gram)
    cols = np.empty((n * n, n))
    for j in range(n):
        left = alg.left_matrix_vec(np.eye(n)[j])
        cols[:, j] = (left + ginv @ left.T @ G.gram).ravel()
    return null_space(cols)


def _dense_cl12():
    c = clifford_algebra(1, 2).structure_constants
    return make_algebra(einsum_reference.rotated(
        c, einsum_reference.rotation(c.shape[0], np.random.default_rng(2))))


@pytest.mark.parametrize("make", [lambda: clifford_algebra(2, 2), lambda: clifford_algebra(0, 6),
                                  _dense_cl12], ids=["Cl(2,2)", "Cl(0,6)", "dense Cl(1,2)"])
def test_antisymmetric_subspace_is_the_per_basis_build(make):
    """A0 from the structure tensor in one batched product: the per-basis
    basis bit for bit under the standard G, and the same subspace under
    G = R_b^T R_b, for which L_a (commuting with R_b) has the same A0."""
    alg = make()
    G = _std(alg)
    got = np.stack([b.coeffs for b in antisymmetric_subspace(alg, G)], axis=1)
    assert np.array_equal(got, _per_basis_subspace(alg, G))
    right = alg.right_matrix_vec(alg.random_element(np.random.default_rng(4)).coeffs)
    G = InnerProduct(right.T @ right)
    moved = np.stack([b.coeffs for b in antisymmetric_subspace(alg, G)], axis=1)
    for basis in (moved, _per_basis_subspace(alg, G)):
        assert basis.shape == got.shape
        assert np.linalg.norm(basis @ basis.T - got @ got.T) <= 1e-9


@pytest.mark.parametrize("p, q", [(0, 2), (2, 2), (0, 6)])
def test_sample_S0_needs_no_factorization(monkeypatch, p, q):
    """A draw is the Newton-Schulz polar factor: with the SVD, lstsq and
    solve made to raise, sample_S0 still returns roots in S0."""
    alg = clifford_algebra(p, q)
    G = _std(alg)
    basis = antisymmetric_subspace(alg, G)

    def refuse(*args, **kwargs):
        raise AssertionError("sample_S0 factored a matrix")

    for name in ("svd", "lstsq", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(1)
    for _ in range(10):
        s = sample_S0(alg, G, rng, basis=basis)
        assert s.holds() and is_in_S0(s.element, G)


_SMALL_SIGNATURES = [(p, n - p) for n in range(2, 6) for p in range(n + 1)] + [(0, 1)]
_S0_BASES = {}


@settings(max_examples=60, deadline=None)
@given(pq=st.sampled_from(_SMALL_SIGNATURES), seed=st.integers(0, 2**32 - 1))
def test_S0_roots_are_orthogonal_and_antisymmetric(pq, seed):
    """Every sample_S0 root on Cl(p,q), p + q <= 5, has L_s^T L_s = 1 and
    L_s^T = -L_s, with L_s formed from the structure constants by einsum."""
    if pq not in _S0_BASES:
        alg = clifford_algebra(*pq)
        _S0_BASES[pq] = alg, antisymmetric_subspace(alg, _std(alg))
    alg, basis = _S0_BASES[pq]
    s = sample_S0(alg, _std(alg), np.random.default_rng(seed), basis=basis)
    left = einsum_reference.left_matrix(alg.structure_constants, s.element.coeffs)
    size = np.linalg.norm(left)
    assert within_tol(np.linalg.norm(left.T @ left - np.eye(alg.dimension)),
                      size ** 2 + np.sqrt(alg.dimension))
    assert within_tol(np.linalg.norm(left.T + left), 2.0 * size)


def test_sample_S0(quaternions, cl03, rng):
    for alg in (quaternions, cl03):
        G = _std(alg)
        for _ in range(10):
            s = sample_S0(alg, G, rng)
            assert s.residual <= 1e-9
            assert is_in_S0(s.element, G)
            assert abs(G.norm(s.element) - 1.0) <= 1e-9
            assert abs(G.pairing(s.element, alg.unit())) <= 1e-9
    reals = clifford_algebra(0, 0)
    with pytest.raises(NotFoundError):
        sample_S0(reals, _std(reals), rng)


@pytest.mark.parametrize("p, q", [(0, 6), (3, 3)])
def test_sample_S0_reaches_the_rounding_floor(p, q, rng):
    """Orthogonal roots at N = 64 come back with ||s*s + 1|| within 4 times
    the rounding floor eps * N * (1 + ||s||)^2 of s*s."""
    alg = clifford_algebra(p, q)
    G = _std(alg)
    basis = antisymmetric_subspace(alg, G)
    for _ in range(10):
        s = sample_S0(alg, G, rng, basis=basis)
        floor = np.finfo(float).eps * alg.dimension * (1.0 + s.element.norm()) ** 2
        assert s.residual <= 4.0 * floor
        assert is_in_S0(s.element, G)


def test_characterization_report(quaternions, rng):
    G = _std(quaternions)
    s = sample_S0(quaternions, G, rng)
    report = orthogonality_characterization(s, G, rng)
    assert report.passed
    assert len(report.rows) == 2 * (4 + 32)
    assert {"probe", "identity", "residual", "pass"} <= set(report.rows[0])

    # a claimed root that is not one: the isometry rows must fail
    bad = RootOfMinusOne(quaternions.element([0.0, 0.9, 1.2, 0.0]), 0.0)
    bad_report = orthogonality_characterization(bad, G, rng)
    assert not bad_report.passed


def test_characterization_split_counterexample(cl11, rng):
    G = _std(cl11)
    skew = _root(cl11, [0.0, 1.0, np.sqrt(2.0), 0.0])
    assert not orthogonality_characterization(skew, G, rng).passed
    good = _root(cl11, [0.0, 0.0, 1.0, 0.0])
    assert orthogonality_characterization(good, G, rng).passed


def test_tangent_intersection_is_j_invariant(quaternions, rng):
    """Inside A0 the tangent spaces of S0 are stable under h -> s h."""
    G = _std(quaternions)
    for _ in range(20):
        s = sample_S0(quaternions, G, rng)
        h = tangent_frame(s).random_tangent(rng)
        sh = s.element * h
        left = quaternions.left_matrix_vec(sh.coeffs)
        assert np.linalg.norm(left + adjoint(left, G)) <= 1e-10 * (1 + h.norm())


def test_cone_decompose_quaternions(quaternions, rng):
    G = _std(quaternions)
    five = cone_decompose(quaternions.scalar(5.0), G)
    assert five is not None
    assert five.root is None
    assert abs(five.beta - 5.0) <= 1e-12 and abs(five.alpha - 5.0) <= 1e-12

    for _ in range(100):
        x = quaternions.random_element(rng)
        dec = cone_decompose(x, G)
        assert dec is not None
        assert abs(dec.beta - x.coeffs[0]) <= 1e-8 * (1 + x.norm())
        assert abs(dec.alpha - np.linalg.norm(x.coeffs)) <= 1e-8 * (1 + x.norm())
        if dec.root is not None:
            recon = dec.beta * quaternions.unit() + dec.gamma * dec.root.element
            assert (recon - x).norm() <= 1e-7 * (1 + x.norm())
            assert dec.root.residual <= 1e-7


def test_cone_cl03_constructed_and_generic(cl03, rng):
    G = _std(cl03)
    hits = 0
    for _ in range(50):
        s = sample_S0(cl03, G, rng)
        beta = float(rng.standard_normal())
        gamma = float(abs(rng.standard_normal()) + 0.1)
        x = beta * cl03.unit() + gamma * s.element
        dec = cone_decompose(x, G)
        assert dec is not None
        assert abs(dec.beta - beta) <= 1e-7 * (1 + abs(beta) + gamma)
        assert abs(dec.gamma - gamma) <= 1e-7 * (1 + abs(beta) + gamma)
        assert dec.root is not None
        assert (dec.root.element - s.element).norm() <= 1e-6

    outside = 0
    for _ in range(100):
        x = cl03.random_element(rng)
        if cone_decompose(x, G) is None:
            outside += 1
    assert outside >= 95


def test_z0_residual_values(quaternions, rng):
    G = _std(quaternions)
    w = ComplexElement(quaternions.unit(), quaternions.element(oq.I))
    assert z0_residual(w, G) <= 1e-10
    one = ComplexElement(quaternions.unit(), quaternions.zero())
    assert abs(z0_residual(one, G) - 2.0) <= 1e-12  # ||I||_F = sqrt(N)

    for _ in range(100):
        s = sample_S0(quaternions, G, rng)
        a = quaternions.random_element(rng)
        member = ComplexElement(a, s.element * a)
        assert z0_residual(member, G) <= 1e-9 * (1 + a.norm()) ** 2


def test_z0_members_cl03(cl03, rng):
    G = _std(cl03)
    for _ in range(100):
        s = sample_S0(cl03, G, rng)
        a = cl03.random_element(rng)
        member = ComplexElement(a, s.element * a)
        assert z0_residual(member, G) <= 1e-9 * (1 + a.norm()) ** 2


def test_z0_right_multiplication_stability(quaternions, cl03, rng):
    for alg in (quaternions, cl03):
        G = _std(alg)
        for _ in range(25):
            s = sample_S0(alg, G, rng)
            a = alg.random_element(rng)
            w = ComplexElement(a, s.element * a)
            wp = ComplexElement(alg.random_element(rng), alg.random_element(rng))
            prod = w * wp
            scale = (1 + a.norm()) ** 2 * (1 + wp.norm()) ** 2
            assert z0_residual(prod, G) <= 1e-9 * scale


def test_z0_equivalence_members(quaternions, rng):
    G = _std(quaternions)
    agree = 0
    for _ in range(100):
        s = sample_S0(quaternions, G, rng)
        a = quaternions.random_element(rng)
        w = ComplexElement(a, s.element * a)
        verdict = z0_equivalence_check(w, G, rng=rng)
        assert verdict.residual_member
        assert verdict.witness_status == "found"
        if verdict.agree:
            agree += 1
        if verdict.replay is not None:
            assert verdict.replay["u_orthogonal"] <= 1e-8
            assert verdict.replay["u_antisymmetric"] <= 1e-8
            assert verdict.replay["factor"] <= 1e-8 * (1 + a.norm())
    assert agree == 100


def test_z0_equivalence_non_members(quaternions, rng):
    G = _std(quaternions)
    zero = z0_equivalence_check(ComplexElement.zero(quaternions), G, rng=rng)
    assert zero.residual_member and zero.witness_member and zero.agree

    one = z0_equivalence_check(
        ComplexElement(quaternions.unit(), quaternions.zero()), G, rng=rng)
    assert not one.residual_member
    assert one.witness_status == "absent"
    assert one.agree

    for _ in range(50):
        w = ComplexElement(quaternions.random_element(rng),
                           quaternions.random_element(rng))
        verdict = z0_equivalence_check(w, G, rng=rng)
        assert verdict.agree is None or verdict.agree
    js = z0_equivalence_check(
        ComplexElement.zero(quaternions), G, rng=rng).to_json()
    assert set(js) == {"residual", "residual_member", "witness_status",
                       "agree", "replay"}
