"""Stem polynomials, slice evaluation, Cauchy-Riemann checks and twists."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracle_quaternion as oq
from conftest import elements_close, root_from
from slicealgebra import (
    DimensionMismatchError,
    InvalidTwistError,
    NotIntrinsicError,
    ProjectivePoint,
    QuaternionFrame,
    RootOfMinusOne,
    StemPolynomial,
    alpha_beta,
    cauchy_riemann_residual,
    clifford_algebra,
    eval_generalized,
    eval_slice,
    find_seed_root,
    generalized_twistor,
    intrinsic_defect,
    is_intrinsic,
    left_divide,
    pi_eval,
    sample_root,
    standard_section,
    stem_from_slice_poly,
    twistor_lift,
)


def _poly(alg, scalars):
    return stem_from_slice_poly([alg.scalar(c) for c in scalars])


def _seam_stem(alg):
    # constant stem with value (0, 1): not intrinsic
    mat = np.zeros((1, alg.dimension), dtype=complex)
    mat[0, 0] = 1j
    return StemPolynomial(alg, mat)


def test_stem_from_slice_poly_is_intrinsic(quaternions, rng):
    coeffs = [quaternions.element(oq.K), quaternions.element(oq.J),
              quaternions.element(oq.I)]
    stem = stem_from_slice_poly(coeffs)
    assert stem.degree == 2
    assert is_intrinsic(stem)
    assert intrinsic_defect(stem) <= 1e-14
    for _ in range(10):
        rand = stem_from_slice_poly(
            [quaternions.random_element(rng) for _ in range(4)])
        assert is_intrinsic(rand)


def test_seam_stem_is_not_intrinsic(quaternions):
    bad = _seam_stem(quaternions)
    assert not is_intrinsic(bad)
    assert intrinsic_defect(bad) > 1.0
    i = root_from(quaternions, oq.I)
    with pytest.raises(NotIntrinsicError):
        eval_slice(bad, 0.3 + 0.4j, i)
    with pytest.raises(NotIntrinsicError):
        alpha_beta(bad, 0.3 + 0.4j)
    with pytest.raises(NotIntrinsicError):
        eval_generalized(bad, lambda z, s: s.element, 0.3 + 0.4j, i)
    frame = QuaternionFrame.detect(quaternions)
    with pytest.raises(NotIntrinsicError):
        twistor_lift(bad, 0.3 + 0.4j, ProjectivePoint(np.array([1.0, 0.5j])), frame)
    with pytest.raises(NotIntrinsicError):
        generalized_twistor(bad, standard_section(i), 0.3 + 0.4j, i, i)


def test_high_degree_seam_is_not_intrinsic(quaternions):
    """A degree-32 stem whose seam vanishes on any 32 sample points.

    c_k = 1 + i P_k e1 with P(w) = (w^16 + 0.7^16)(w^16 + 1.3^16), the real
    polynomial whose roots are the conjugates of the 16 points at each of
    the radii 0.7 and 1.3 where a sampled test would look.
    """
    p = np.zeros(33)
    p[0], p[16], p[32] = 0.7 ** 16 * 1.3 ** 16, 0.7 ** 16 + 1.3 ** 16, 1.0
    mat = np.zeros((33, 4), dtype=complex)
    mat[:, 0] = 1.0
    mat[:, 1] = 1j * p
    stem = StemPolynomial(quaternions, mat)
    z = 0.4 + 0.9j
    gap = np.linalg.norm(stem.evaluate_vector(np.conj(z))
                         - np.conj(stem.evaluate_vector(z)))
    assert gap > 100.0
    assert not is_intrinsic(stem)
    assert intrinsic_defect(stem) == pytest.approx(2.0 * np.linalg.norm(p))
    with pytest.raises(NotIntrinsicError):
        eval_slice(stem, z, root_from(quaternions, oq.I))


_nonzero_part = st.one_of(st.just(0.0), st.floats(0.5, 10.0), st.floats(-10.0, -0.5))


@settings(max_examples=60, deadline=None)
@given(real=st.integers(0, 40).flatmap(
           lambda d: hnp.arrays(float, (d + 1, 4), elements=st.floats(-10.0, 10.0))),
       data=st.data())
def test_is_intrinsic_iff_real_coefficients(quaternions, real, data):
    imag = data.draw(hnp.arrays(float, real.shape, elements=_nonzero_part))
    stem = StemPolynomial(quaternions, real + 1j * imag)
    assert is_intrinsic(stem) == (not np.any(imag))


@settings(max_examples=60, deadline=None)
@given(coeffs=st.integers(0, 40).flatmap(
           lambda d: hnp.arrays(float, (d + 1, 4), elements=st.floats(-1.0, 1.0))),
       x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_eval_slice_matches_oracle_to_degree_40(quaternions, coeffs, x, y, seed):
    stem = StemPolynomial(quaternions, coeffs.astype(complex))
    assert is_intrinsic(stem)
    s = oq.random_root(np.random.default_rng(seed))
    q = x * oq.ONE + y * s
    want = oq.slice_poly_eval(list(coeffs), q)
    got = eval_slice(stem, complex(x, y), root_from(quaternions, s))
    scale = sum(np.hypot(x, y) ** k for k in range(len(coeffs)))
    assert np.allclose(got.coeffs, want, atol=1e-12 * (1.0 + scale))


def test_evaluate_horner(quaternions, rng):
    coeffs = [quaternions.random_element(rng) for _ in range(5)]
    stem = stem_from_slice_poly(coeffs)
    for z in (0.3 - 1.2j, 2.0, 1j):
        direct = sum((z ** k) * c.coeffs.astype(complex)
                     for k, c in enumerate(coeffs))
        assert np.allclose(stem.evaluate_vector(z), direct, atol=1e-12)
    zz = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    many = stem.evaluate_many(zz)
    assert many.shape == (7, 4)
    for idx, z in enumerate(zz):
        assert np.allclose(many[idx], stem.evaluate_vector(z), atol=1e-12)


def test_eval_slice_pinned_values(quaternions, rng):
    i = root_from(quaternions, oq.I)
    square_plus_one = _poly(quaternions, [1.0, 0.0, 1.0])
    for _ in range(5):
        s = sample_root(find_seed_root(quaternions), rng)
        assert eval_slice(square_plus_one, 1j, s).norm() <= 1e-12

    identity = _poly(quaternions, [0.0, 1.0])
    s = sample_root(find_seed_root(quaternions), rng)
    z = 0.7 - 0.2j
    expect = pi_eval(z, s)
    assert elements_close(eval_slice(identity, z, s), expect)

    # p(x) = x j evaluated on the i-slice at z = i gives i j = k
    right_j = stem_from_slice_poly([quaternions.zero(),
                                    quaternions.element(oq.J)])
    assert np.allclose(eval_slice(right_j, 1j, i).coeffs, oq.K, atol=1e-12)


def test_eval_slice_matches_pointwise_oracle(quaternions, rng):
    coeffs = [quaternions.random_element(rng) for _ in range(4)]
    stem = stem_from_slice_poly(coeffs)
    raw = [c.coeffs for c in coeffs]
    seed = find_seed_root(quaternions)
    for _ in range(50):
        s = sample_root(seed, rng)
        z = complex(rng.standard_normal(), rng.standard_normal())
        q = oq.pi_pair(z.real * oq.ONE, z.imag * oq.ONE, s.element.coeffs)
        want = oq.slice_poly_eval(raw, q)
        got = eval_slice(stem, z, s)
        assert np.allclose(got.coeffs, want, atol=1e-10 * (1 + abs(z) ** 4))


def test_alpha_beta_decomposition(quaternions, rng):
    square = _poly(quaternions, [0.0, 0.0, 1.0])
    z = 1.2 - 0.7j
    al, be = alpha_beta(square, z)
    assert elements_close(al, quaternions.scalar(z.real ** 2 - z.imag ** 2))
    assert elements_close(be, quaternions.scalar(2 * z.real * z.imag))

    affine = stem_from_slice_poly([quaternions.unit(),
                                   quaternions.element(oq.I)])
    al, be = alpha_beta(affine, z)
    assert np.allclose(al.coeffs, oq.ONE + z.real * oq.I, atol=1e-12)
    assert np.allclose(be.coeffs, z.imag * oq.I, atol=1e-12)

    # even and odd parts: alpha even, beta odd under z -> conj z
    stem = stem_from_slice_poly([quaternions.random_element(rng)
                                 for _ in range(4)])
    a1, b1 = alpha_beta(stem, z)
    a2, b2 = alpha_beta(stem, np.conj(z))
    assert (a1 - a2).norm() <= 1e-12
    assert (b1 + b2).norm() <= 1e-12


def test_sigma_equivariance(quaternions, cl03, rng):
    for alg in (quaternions, cl03):
        stem = stem_from_slice_poly([alg.random_element(rng)
                                     for _ in range(5)])
        seed = find_seed_root(alg)
        for _ in range(50):
            s = sample_root(seed, rng)
            z = complex(rng.standard_normal(), rng.standard_normal())
            lhs = eval_slice(stem, z, s)
            rhs = eval_slice(stem, np.conj(z),
                             RootOfMinusOne.from_element(-s.element))
            assert (lhs - rhs).norm() <= 1e-10 * (1 + lhs.norm())


def test_slice_values_separate_roots(quaternions, rng):
    """Off the real axis the value x + s y pins down s."""
    identity = _poly(quaternions, [0.0, 1.0])
    seed = find_seed_root(quaternions)
    z = 0.4 + 1.1j
    for _ in range(20):
        s1 = sample_root(seed, rng)
        s2 = sample_root(seed, rng)
        gap = (s1.element - s2.element).norm()
        vals = (eval_slice(identity, z, s1) - eval_slice(identity, z, s2)).norm()
        assert abs(vals - abs(z.imag) * gap) <= 1e-10


def test_cauchy_riemann_intrinsic_orders(quaternions, rng):
    i = root_from(quaternions, oq.I)
    const = _poly(quaternions, [2.5])
    assert cauchy_riemann_residual(const, 0.3 + 0.1j, i) == 0.0

    cubic = _poly(quaternions, [0.0, 0.0, 0.0, 1.0])
    z = 0.9 + 0.4j
    s = sample_root(find_seed_root(quaternions), rng)
    r3 = cauchy_riemann_residual(cubic, z, s, h=1e-3)
    r4 = cauchy_riemann_residual(cubic, z, s, h=5e-4)
    assert r3 <= 1e-5
    assert 3.5 <= r3 / r4 <= 4.5
    assert cauchy_riemann_residual(cubic, z, s, h=1e-4) <= 1e-6


def test_cauchy_riemann_flags_seam(quaternions):
    """A non-intrinsic stem induces no function on the quotient by
    (z, s) ~ (conj z, -s), so the residual refuses it."""
    bad = _seam_stem(quaternions)
    i = root_from(quaternions, oq.I)
    with pytest.raises(NotIntrinsicError):
        cauchy_riemann_residual(bad, 0.5, i)


@pytest.mark.parametrize("p, q", [(0, 2), (0, 3), (2, 2)], ids=["H", "Cl(0,3)", "Cl(2,2)"])
def test_twist_identity_matches_plain(p, q, rng):
    """The identity twist gives eval_slice's bits, and alpha_beta gives the
    real and imaginary parts of F(z), bit for bit."""
    alg = clifford_algebra(p, q)
    stem = stem_from_slice_poly([alg.random_element(rng) for _ in range(4)])
    seed = find_seed_root(alg)
    def twist(z, s):
        return s.element

    for _ in range(100):
        s = sample_root(seed, rng)
        z = complex(rng.standard_normal(), rng.standard_normal())
        a = eval_generalized(stem, twist, z, s)
        b = eval_slice(stem, z, s)
        assert np.array_equal(a.coeffs, b.coeffs)
        w = stem.evaluate_vector(z)
        al, be = alpha_beta(stem, z)
        assert np.array_equal(al.coeffs, w.real) and np.array_equal(be.coeffs, w.imag)


def test_twist_conjugation_pinned(quaternions):
    y = quaternions.element((oq.ONE + oq.K) / np.sqrt(2.0))
    def twist(z, s):
        return left_divide(y, s.element * y)

    i = root_from(quaternions, oq.I)

    # oracle: y^{-1} i y = -j
    conj_i = oq.qmul(oq.qinv(y.coeffs), oq.qmul(oq.I, y.coeffs))
    assert np.allclose(conj_i, -oq.J, atol=1e-12)
    assert np.allclose(twist(0.0, i).coeffs, -oq.J, atol=1e-12)

    identity = _poly(quaternions, [0.0, 1.0])
    got = eval_generalized(identity, twist, 2.0 + 3.0j, i)
    assert np.allclose(got.coeffs, 2.0 * oq.ONE - 3.0 * oq.J, atol=1e-12)

    square_plus_one = _poly(quaternions, [1.0, 0.0, 1.0])
    assert eval_generalized(square_plus_one, twist, 1j, i).norm() <= 1e-12


def test_twist_callback_and_rejection(quaternions, cl11, rng):
    j = root_from(quaternions, oq.J)
    swap = lambda z, s: j.element
    stem = stem_from_slice_poly([quaternions.random_element(rng)
                                 for _ in range(3)])
    i = root_from(quaternions, oq.I)
    z = 0.2 + 0.9j
    assert (eval_generalized(stem, swap, z, i)
            - eval_slice(stem, z, j)).norm() <= 1e-12

    broken = lambda z, s: quaternions.scalar(0.5)
    with pytest.raises(InvalidTwistError):
        eval_generalized(stem, broken, z, i)

    # a root of Cl(1,1), of the same dimension as H, is no root for H's stem
    foreign = find_seed_root(cl11)
    with pytest.raises(DimensionMismatchError):
        eval_generalized(stem, lambda z, s: foreign.element, z, i)
    with pytest.raises(DimensionMismatchError):
        eval_slice(stem, z, foreign)


def test_stem_coefficients_round_trip(quaternions, rng):
    """The rows of coeff_matrix are the coefficients, with zero imaginary
    parts, and the matrix rebuilds the same stem."""
    coeffs = [quaternions.random_element(rng) for _ in range(4)]
    stem = stem_from_slice_poly(coeffs)
    back = stem.coeff_matrix
    assert back.shape == (4, 4)
    for c, b in zip(coeffs, back):
        assert np.allclose(b.real, c.coeffs, atol=1e-15)
        assert np.linalg.norm(b.imag) == 0.0
    assert stem.intrinsic_defect == 0.0
    rebuilt = StemPolynomial(quaternions, back)
    assert np.allclose(rebuilt.coeff_matrix, stem.coeff_matrix)


def test_an_empty_stem_is_refused(quaternions):
    """A stem has at least one coefficient, by either constructor: an empty
    matrix is no longer made the zero stem of degree 0."""
    with pytest.raises(ValueError, match=r"\(degree\+1, N\)"):
        StemPolynomial(quaternions, np.zeros((0, 4)))
    with pytest.raises(ValueError, match="at least one coefficient"):
        stem_from_slice_poly([])
