"""Projective pipeline over the quaternions and the generalized
stereographic bundle."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import einsum_reference
import oracle_quaternion as oq
from conftest import dense_cl12, elements_close, points_close
from slicealgebra import (
    BadSectionError,
    BasePointAtInfinityError,
    ComplexElement,
    DegenerateImageError,
    Element,
    FrameNotFoundError,
    ProjectivePoint,
    QuaternionFrame,
    RootOfMinusOne,
    ZeroDivisorError,
    clifford_algebra,
    component_invariant,
    delta1,
    eval_slice,
    fiber_embed,
    find_seed_root,
    gamma,
    generalized_twistor,
    inverse,
    is_zerodivisor,
    left_divide,
    make_algebra,
    minus_i_eigenspace,
    pi_eval,
    pi_tensor_eval,
    conjugate_root,
    rho,
    rho1,
    rho1_general,
    sample_root,
    segre1,
    segre2,
    standard_section,
    stem_from_slice_poly,
    stereographic_fiber,
    twistor_lift,
)
from slicealgebra.config import within_tol
from slicealgebra.numerics import projector_range
from slicealgebra.roots import integer_trace


@pytest.fixture(scope="module")
def frame(quaternions):
    return QuaternionFrame.detect(quaternions)


def _cp(vals):
    return ProjectivePoint(np.asarray(vals, dtype=complex))


def _fiber_basis(u, s):
    """Orthonormal columns spanning {c : u c = c s}: the range of (1 - R_s L_u)/2,
    the (-1)-eigenspace of the involution R_s L_u, of rank (N - tr R_s L_u)/2."""
    alg = u.algebra
    op = alg.right_matrix_vec(s.element.coeffs) @ alg.left_matrix_vec(u.element.coeffs)
    return projector_range(0.5 * (np.eye(alg.dimension) - op),
                           (alg.dimension - integer_trace(op)) // 2)


def test_projective_point_normalization(quaternions, frame):
    p = ProjectivePoint(np.array([2.0, 4.0, 6.0]))
    assert np.allclose(p.coords, [1.0, 2.0, 3.0])
    q = ProjectivePoint(np.array([0.0, 3j, 6.0]))
    assert np.allclose(q.coords, [0.0, 1.0, -2j])
    for coords in (np.zeros(3), [np.nan, 1.0], [np.inf, 1.0]):
        with pytest.raises(ValueError):
            ProjectivePoint(np.asarray(coords))
    # F(z) overflows at z = 1e200 (1 + i): the lift is no point, under any warning filter
    square = stem_from_slice_poly([quaternions.unit(), quaternions.zero(), quaternions.unit()])
    with pytest.raises(ValueError):
        twistor_lift(square, 1e200 * (1 + 1j), _cp([1.0, 0.5j]), frame)

    a = _cp([1 + 2j, 3.0, -1j])
    scaled = ProjectivePoint((0.3 - 1.7j) * np.asarray([1 + 2j, 3.0, -1j]))
    assert points_close(a, scaled)
    assert a.chordal_distance(scaled) <= 1e-12
    assert a.chordal_distance(_cp([1.0, 0.0, 0.0])) > 0.5


def test_frame_detection(quaternions, cl11, cl03):
    f = QuaternionFrame.detect(quaternions)
    assert np.allclose(f.matrix, np.eye(4))
    assert np.allclose((f.i * f.j).coeffs, oq.qmul(f.i.coeffs, f.j.coeffs))
    assert (f.i * f.j + f.j * f.i).norm() <= 1e-12
    with pytest.raises(FrameNotFoundError):
        QuaternionFrame.detect(cl11)
    with pytest.raises(FrameNotFoundError):
        QuaternionFrame.detect(cl03)
    with pytest.raises(FrameNotFoundError):
        QuaternionFrame(quaternions.basis_element(1), quaternions.basis_element(1))


def test_a_frame_reads_its_algebra_from_i(quaternions):
    i, j = quaternions.basis_element(1), quaternions.basis_element(2)
    frame = QuaternionFrame(i, j)
    assert frame.algebra is i.algebra
    assert np.array_equal(frame.matrix, QuaternionFrame.detect(quaternions).matrix)


def test_frame_detection_on_the_standard_basis_is_e1_e2():
    h = clifford_algebra(0, 2)
    frame = QuaternionFrame.detect(h)
    assert np.array_equal(frame.i.coeffs, h.basis_element(1).coeffs)
    assert np.array_equal(frame.j.coeffs, h.basis_element(2).coeffs)


@settings(max_examples=30, deadline=None)
@given(q=st.tuples(*[st.floats(-2.0, 2.0)] * 4))
def test_frame_independence_reads_singular_values_only(quaternions, q):
    """The independence test of 1, I, J, K counts a rank and reads no
    singular vector: every SVD it takes computes values only.  The frame is
    H's basis frame conjugated by a unit quaternion."""
    q = np.array(q)
    assume(np.linalg.norm(q) >= 0.1)
    q, conj = q / np.linalg.norm(q), q * np.array([1.0, -1.0, -1.0, -1.0]) / np.linalg.norm(q)
    i, j = (quaternions.element(oq.qmul(oq.qmul(q, e), conj)) for e in (oq.I, oq.J))
    flags, svd = [], np.linalg.svd

    def recorded(m, *args, **kwargs):
        flags.append(kwargs.get("compute_uv", True))
        return svd(m, *args, **kwargs)

    with mock.patch.object(np.linalg, "svd", recorded):
        QuaternionFrame(i, j)
    assert flags == [False]


def test_gamma_basis_values(quaternions, frame):
    assert elements_close(gamma(1.0, 0.0, frame), quaternions.unit())
    assert np.allclose(gamma(1j, 0.0, frame).coeffs, oq.I)
    assert np.allclose(gamma(0.0, 1.0, frame).coeffs, oq.J)
    assert np.allclose(gamma(0.0, 1j, frame).coeffs, oq.K)
    rng = np.random.default_rng(5)
    for _ in range(25):
        z, w = (complex(*rng.standard_normal(2)) for _ in range(2))
        assert np.allclose(gamma(z, w, frame).coeffs, oq.gamma_pair(z, w),
                           atol=1e-13)


def test_gamma_right_action_identities(quaternions, frame):
    rng = np.random.default_rng(6)
    I, J, K = frame.i, frame.j, frame.i * frame.j
    for _ in range(50):
        z, w = (complex(*rng.standard_normal(2)) for _ in range(2))
        g = gamma(z, w, frame)
        assert (g * I - gamma(1j * z, -1j * w, frame)).norm() <= 1e-12
        assert (g * J - gamma(-w, z, frame)).norm() <= 1e-12
        assert (g * K - gamma(1j * w, 1j * z, frame)).norm() <= 1e-12


def test_segre1_klein_quadric():
    p = segre1(_cp([1.0, 2.0]), _cp([3.0, 4.0]))
    assert points_close(p, _cp([3.0, 4.0, 6.0, 8.0]))
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = _cp(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        b = _cp(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        x = segre1(a, b).coords
        assert abs(x[0] * x[3] - x[1] * x[2]) <= 1e-12
    with pytest.raises(ValueError):
        segre1(_cp([1.0, 0.0, 0.0]), _cp([1.0, 0.0]))


def test_rho1_values(quaternions, frame):
    z0, z1 = 0.4 - 0.3j, 1.1 + 0.2j
    p = _cp([1.0, 0.0, z0, z1])
    assert elements_close(rho1(p, frame), gamma(z0, z1, frame))
    with pytest.raises(BasePointAtInfinityError):
        rho1(_cp([0.0, 0.0, 1.0, 0.0]), frame)
    with pytest.raises(ValueError):
        rho1(_cp([1.0, 0.0]), frame)


def test_rho_lands_on_conjugated_slice(quaternions, frame):
    """rho(z, u) = x + y * (gamma(u)^{-1} I gamma(u)): the slice through the
    rotated root."""
    rng = np.random.default_rng(8)
    for _ in range(25):
        z = complex(*rng.standard_normal(2))
        uvec = rng.standard_normal(4).reshape(2, 2)
        u = _cp(uvec[0] + 1j * uvec[1])
        got = rho(z, u, frame)
        # oracle for the same chart
        wantv = oq.rho_point(z, u.coords[0], u.coords[1])
        assert np.allclose(got.coeffs, wantv, atol=1e-10)
        gu = gamma(u.coords[0], u.coords[1], frame)
        s_u = conjugate_root(inverse(gu), frame.i_root)
        assert (got - pi_eval(z, s_u)).norm() <= 1e-10


def test_delta1_pinned_slots():
    p = np.array([0.7, 1.0 - 2j, 0.5j, -1.2, 0.25 + 0.25j])
    left = delta1(segre2(_cp(p), _cp([1.0, 0.0])))
    assert points_close(left, _cp([p[0], 0.0, p[1] + 1j * p[2], p[3] + 1j * p[4]]))
    right = delta1(segre2(_cp(p), _cp([0.0, 1.0])))
    assert points_close(right, _cp([0.0, p[0], -p[3] + 1j * p[4], p[1] - 1j * p[2]]))
    with pytest.raises(ValueError):
        delta1(_cp(np.ones(9)))
    with pytest.raises(DegenerateImageError):
        delta1(segre2(_cp([0.0, 1.0, 1j, 1.0, 1j]), _cp([1.0, 0.0])))


def test_twistor_lift_constant_stem(quaternions, frame):
    one = stem_from_slice_poly([quaternions.unit()])
    u = _cp([0.3 + 0.4j, 1.0])
    lift = twistor_lift(one, 0.7 + 0.2j, u, frame)
    expect = _cp([u.coords[0], u.coords[1], u.coords[0], u.coords[1]])
    assert points_close(lift, expect)


def test_twistor_diagram_against_oracle(quaternions, frame):
    """rho1 after the lift equals the slice polynomial evaluated at
    rho(z, u), checked with plain Hamilton arithmetic."""
    rng = np.random.default_rng(9)
    for _ in range(200):
        degree = int(rng.integers(1, 6))
        coeffs = [quaternions.random_element(rng) for _ in range(degree + 1)]
        stem = stem_from_slice_poly(coeffs)
        z = complex(*(0.8 * rng.standard_normal(2)))
        u = _cp(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        lift = twistor_lift(stem, z, u, frame)
        got = rho1(lift, frame)
        q = oq.rho_point(z, u.coords[0], u.coords[1])
        want = oq.slice_poly_eval([c.coeffs for c in coeffs], q)
        assert np.allclose(got.coeffs, want, atol=1e-8 * (1 + np.linalg.norm(want)))


def test_twistor_image_of_sphere_is_line(quaternions, frame):
    stem = stem_from_slice_poly([quaternions.unit(), quaternions.zero(),
                                 quaternions.unit()])
    rng = np.random.default_rng(10)
    for z in (0.5 + 1.2j, -0.3 + 0.8j, 1.4 - 0.6j):
        rows = []
        for _ in range(5):
            u = _cp(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            rows.append(twistor_lift(stem, z, u, frame).coords)
        sv = np.linalg.svd(np.stack(rows), compute_uv=False)
        assert sv[1] > 1e-3 * sv[0]
        assert sv[2] <= 1e-10 * sv[0]


def _in_span(cols, vector, tol):
    """vector is its projection onto the span of the orthonormal cols."""
    proj = cols @ (cols.conj().T @ vector)
    return bool(within_tol(np.linalg.norm(vector - proj),
                           np.linalg.norm(vector) + np.linalg.norm(proj), tol))


def test_fiber_quaternions(quaternions, frame, rng):
    i = frame.i_root
    same = stereographic_fiber(i, i)
    assert same.shape[1] == 1
    assert _in_span(same, fiber_embed(i, quaternions.unit()), 1e-9)
    anti = stereographic_fiber(i, RootOfMinusOne.from_element(-i.element))
    assert anti.shape[1] == 1
    assert _in_span(anti, fiber_embed(i, quaternions.basis_element(2)), 1e-9)
    assert not _in_span(anti, fiber_embed(i, quaternions.unit()), 1e-9)

    seed = find_seed_root(quaternions)
    for _ in range(20):
        s = sample_root(seed, rng)
        assert stereographic_fiber(i, s).shape[1] == 1


def test_fiber_complex_and_cl03(complex_algebra, cl03, rng):
    i = RootOfMinusOne.from_element(complex_algebra.basis_element(1))
    assert stereographic_fiber(i, i).shape[1] == 1
    minus = RootOfMinusOne.from_element(-complex_algebra.basis_element(1))
    assert stereographic_fiber(i, minus).shape[1] == 0

    u = find_seed_root(cl03)
    for _ in range(10):
        s = sample_root(u, rng)
        assert stereographic_fiber(u, s).shape[1] == 2


def _projector(cols: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of cols, rank by its own SVD."""
    if cols.shape[1] == 0:
        return np.zeros((cols.shape[0], cols.shape[0]))
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    q = u[:, sv > 1e-8 * sv[0]]
    return q @ q.conj().T


@pytest.mark.parametrize("p, q", [(0, 6), (3, 3), (2, 1), (0, 1)])
def test_fiber_chart_is_fiber_embed_on_the_real_basis(p, q):
    """stereographic_fiber charts the real basis in one product; its span is
    that of fiber_embed applied column by column, the chart's definition."""
    alg = clifford_algebra(p, q)
    u = find_seed_root(alg)
    rng = np.random.default_rng(p + 7 * q)
    targets = [u, RootOfMinusOne(-u.element)]
    targets += [sample_root(u, rng) for _ in range(3)]
    for s in targets:
        basis = _fiber_basis(u, s)
        want = np.stack([fiber_embed(u, alg.element(col)) for col in basis.T], axis=1) \
            if basis.shape[1] else np.zeros((alg.dimension, 0), dtype=complex)
        got = stereographic_fiber(u, s)
        assert np.linalg.norm(_projector(got) - _projector(want)) <= 1e-9


@pytest.mark.parametrize("p, q", [(0, 2), (1, 1), (0, 3), (2, 1)])
def test_stereographic_fiber_is_an_orthonormal_array_in_its_chart_range(p, q):
    """The columns are orthonormal and fixed by the chart projector
    (1 - i L_u)/2 (1 - R_s L_u)/2, of rank (N - tr R_s L_u)/4."""
    alg = clifford_algebra(p, q)
    u = find_seed_root(alg)
    rng = np.random.default_rng(p + 7 * q)
    left, n = alg.left_matrix_vec(u.element.coeffs), alg.dimension
    for s in [u, RootOfMinusOne(-u.element)] + [sample_root(u, rng) for _ in range(3)]:
        cols = stereographic_fiber(u, s)
        op = alg.right_matrix_vec(s.element.coeffs) @ left
        k = round(n - np.trace(op)) // 4
        assert isinstance(cols, np.ndarray) and cols.dtype == complex
        assert cols.shape == (n, k)
        assert np.linalg.norm(cols.conj().T @ cols - np.eye(k)) <= 1e-12
        proj = 0.5 * (np.eye(n) - op)
        chart = 0.5 * (proj - 1j * (left @ proj))
        assert np.linalg.norm(chart @ cols - cols) <= 1e-12 * (1.0 + np.linalg.norm(op))


def test_fiber_over_a_central_root_in_a_dense_basis():
    """The pseudoscalar u of Cl(2,3) is a central root, so u c = c u for
    every c.  In a rotated basis R_u L_u + 1 vanishes only up to rounding,
    and it must still count as zero rather than as full rank."""
    basis = einsum_reference.rotation(32, np.random.default_rng(5))
    alg = make_algebra(einsum_reference.rotated(
        clifford_algebra(2, 3).structure_constants, basis))
    u = RootOfMinusOne.from_element(alg.element(basis[-1]))
    assert _fiber_basis(u, u).shape[1] == 32
    assert stereographic_fiber(u, u).shape[1] == 16
    assert stereographic_fiber(u, RootOfMinusOne.from_element(-u.element)).shape[1] == 0


@pytest.mark.parametrize("p, q", [(0, 2), (2, 1), (0, 6)])
def test_fiber_eigenspace_and_quotient_need_no_svd(monkeypatch, p, q):
    """Each fiber and eigenspace is the range of a projector whose rank is a
    trace, and the chart quotient is one LU solve: with the SVD made to
    raise they still give the fiber, the eigenspace and f(x + sy)."""
    alg = clifford_algebra(p, q)
    u = find_seed_root(alg)
    rng = np.random.default_rng(p + 7 * q)
    stem = stem_from_slice_poly([alg.random_element(rng) for _ in range(3)])
    roots = [sample_root(u, rng) for _ in range(3)]

    def refuse(*args, **kwargs):
        raise AssertionError("called the SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    n, expected = alg.dimension, (alg.dimension - component_invariant(u)) // 4
    for s in roots:
        point = generalized_twistor(stem, standard_section(u), 0.3 + 0.7j, s, u)
        assert _fiber_basis(u, s).shape == (n, 2 * expected)
        assert stereographic_fiber(u, s).shape[1] == expected
        assert minus_i_eigenspace(s).shape[1] == n // 2
        want = eval_slice(stem, 0.3 + 0.7j, s)
        assert (rho1_general(point, u) - want).norm() <= 1e-9 * (1 + want.norm())


def test_fiber_embed_is_complex_linear(quaternions, rng):
    u = RootOfMinusOne.from_element(quaternions.basis_element(1))
    for _ in range(20):
        v = quaternions.random_element(rng)
        lhs = fiber_embed(u, u.element * v)
        assert np.allclose(lhs, 1j * fiber_embed(u, v), atol=1e-13)
        assert np.allclose(fiber_embed(u, v).real, v.coeffs)


def test_standard_section_values(quaternions, frame, rng):
    u = frame.i_root
    sigma = standard_section(u)
    seed = find_seed_root(quaternions)
    for _ in range(20):
        s = sample_root(seed, rng)
        c = sigma(s)
        assert (u.element * c - c * s.element).norm() <= 1e-9
    at_u = sigma(u)
    assert np.allclose(at_u.coeffs, 2.0 * quaternions.unit().coeffs)
    vanish = sigma(RootOfMinusOne.from_element(-u.element))
    assert vanish.norm() <= 1e-15


def test_generalized_twistor_consistency(quaternions, cl03, frame, rng):
    for alg, u in ((quaternions, frame.i_root), (cl03, find_seed_root(cl03))):
        sigma = standard_section(u)
        stem = stem_from_slice_poly([alg.random_element(rng)
                                     for _ in range(4)])
        seed = find_seed_root(alg)
        for _ in range(100):
            s = sample_root(seed, rng)
            if (s.element + u.element).norm() < 1e-3:
                continue  # section vanishes at -u
            z = complex(*rng.standard_normal(2))
            p = generalized_twistor(stem, sigma, z, s, u)
            got = rho1_general(p, u)
            want = eval_slice(stem, z, s)
            assert (got - want).norm() <= 1e-8 * (1 + want.norm())


def test_generalized_twistor_constant_stem(quaternions, frame):
    one = stem_from_slice_poly([quaternions.unit()])
    u = frame.i_root
    sigma = standard_section(u)
    seed = find_seed_root(quaternions)
    s = sample_root(seed, np.random.default_rng(11))
    p = generalized_twistor(one, sigma, 0.4 + 0.9j, s, u)
    n = quaternions.dimension
    assert np.allclose(p.coords[:n], p.coords[n:], atol=1e-12)


def test_generalized_twistor_bad_sections(quaternions, frame):
    stem = stem_from_slice_poly([quaternions.unit(), quaternions.unit()])
    u = frame.i_root
    s = RootOfMinusOne.from_element(quaternions.basis_element(2))
    off_fiber = lambda _s: quaternions.unit()
    with pytest.raises(BadSectionError):
        generalized_twistor(stem, off_fiber, 0.1 + 0.1j, s, u)
    vanishing = lambda _s: quaternions.zero()
    with pytest.raises(BadSectionError):
        generalized_twistor(stem, vanishing, 0.1 + 0.1j, s, u)
    # the standard section itself dies at s = -u
    sigma = standard_section(u)
    minus_u = RootOfMinusOne.from_element(-u.element)
    with pytest.raises(BadSectionError):
        generalized_twistor(stem, sigma, 0.1 + 0.1j, minus_u, u)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), eps=st.floats(1e-6, 1.0))
def test_generalized_twistor_measures_its_base_point(quaternions, cl03, seed, eps):
    """A u that is no root of -1 raises BadSectionError: a random element
    and a root scaled by 1 + eps."""
    rng = np.random.default_rng(seed)
    for alg in (quaternions, cl03):
        stem = stem_from_slice_poly([alg.unit(), alg.unit()])
        s = find_seed_root(alg)
        for x in (alg.random_element(rng), (1.0 + eps) * s.element):
            u = RootOfMinusOne(x)
            assert not u.holds()
            with pytest.raises(BadSectionError, match="base point"):
                generalized_twistor(stem, lambda _s: alg.unit(), 0.3 + 0.7j, s, u)


@pytest.fixture(scope="module")
def cl22():
    return clifford_algebra(2, 2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_only_a_zero_or_off_fiber_section_value_is_rejected(cl22, seed):
    """On Cl(2,2) = M4(R) the fiber over u, the centralizer of u, holds
    nonzero zerodivisors: for a in it and an eigenvalue alpha + i beta of
    L_a (beta != 0), one of c = a - alpha -+ beta u is singular, as L_a and
    L_u commute and L_u has eigenvalues +-i.  generalized_twistor gives a
    point for such a c; its chart quotient raises ZeroDivisorError or
    misses eval_slice, and never passes.  A zero value, an off-fiber value
    and the standard section at s = -u still raise BadSectionError."""
    u = find_seed_root(cl22)
    stem = stem_from_slice_poly([cl22.unit(), cl22.zero(), cl22.unit()])
    z = 0.3 + 0.7j
    for sigma, s in [(lambda _s: cl22.zero(), u),
                     (lambda _s: cl22.unit() + cl22.basis_element(1), u),
                     (standard_section(u), RootOfMinusOne.from_element(-u.element))]:
        with pytest.raises(BadSectionError):
            generalized_twistor(stem, sigma, z, s, u)
    rng = np.random.default_rng(seed)
    basis = _fiber_basis(u, u)
    a = cl22.element(basis @ rng.standard_normal(basis.shape[1]))
    eigenvalues = np.linalg.eigvals(cl22.left_matrix_vec(a.coeffs))
    lam = eigenvalues[np.argmax(np.abs(eigenvalues.imag))]
    assume(abs(lam.imag) > 1e-3)
    candidates = [a - lam.real * cl22.unit() - sign * abs(lam.imag) * u.element
                  for sign in (1, -1)]
    singular = [c for c in candidates if is_zerodivisor(c)]
    assert len(singular) == 1
    point = generalized_twistor(stem, lambda _s: singular[0], z, u, u)
    try:
        residual = (rho1_general(point, u) - eval_slice(stem, z, u)).norm()
    except ZeroDivisorError:
        return
    assert not within_tol(residual, (1.0 + u.element.norm()) * stem.term_size(z))


BUNDLE_ALGEBRAS = {"H": (0, 2), "Cl(2,2)": (2, 2), "Cl(0,6)": (0, 6), "Cl(3,3)": (3, 3),
                   "dense Cl(1,2)": None}


@pytest.mark.parametrize("name", sorted(BUNDLE_ALGEBRAS))
def test_bundle_array_path_gives_the_element_bits(name):
    """generalized_twistor, fiber_embed, rho1_general and eval_slice are
    exactly their expansions in Element operators."""
    pq = BUNDLE_ALGEBRAS[name]
    alg = dense_cl12() if pq is None else clifford_algebra(*pq)
    u = find_seed_root(alg)
    ue, n = u.element, alg.dimension
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = sample_root(u, rng)
        stem = stem_from_slice_poly([alg.random_element(rng) for _ in range(4)])
        z = complex(*rng.standard_normal(2))
        point = generalized_twistor(stem, standard_section(u), z, s, u)

        c = alg.unit() - ue * s.element
        w = ComplexElement.from_vector(alg, stem.evaluate_vector(z))
        image = c * w.re + ue * (c * w.im)
        chart = [v.coeffs - 1j * (ue * v).coeffs for v in (c, image)]
        assert np.array_equal(fiber_embed(u, c), chart[0])
        assert np.array_equal(point.coords, ProjectivePoint(np.concatenate(chart)).coords)
        quotient = left_divide(alg.element(point.coords[:n].real),
                               alg.element(point.coords[n:].real))
        assert np.array_equal(rho1_general(point, u).coeffs, quotient.coeffs)
        value = eval_slice(stem, z, s)
        assert np.array_equal(value.coeffs, pi_tensor_eval(w, s).coeffs)
        assert np.array_equal(value.coeffs, (w.re + s.element * w.im).coeffs)


def test_a_twistor_point_gathers_L_u_once_and_wraps_only_the_section(monkeypatch):
    """A generalized_twistor call gathers L_u once (and L_c once) and
    builds one Element, the section value, and so does a second call on the
    same u.  The standard section's own product u*s and the defect of u,
    measured on its first read, are gathers of L_u too, so both are formed
    before the count starts and the counted section only wraps its value."""
    alg = clifford_algebra(2, 2)
    u = find_seed_root(alg)
    rng = np.random.default_rng(3)
    s = sample_root(u, rng)
    stem = stem_from_slice_poly([alg.random_element(rng) for _ in range(3)])
    value = standard_section(u)(s).coeffs
    assert u.residual <= 1e-12  # measured once, here

    def section(_):
        return Element(alg, value)

    gathers, elements = [], []
    gather = alg.left_matrix_vec
    post_init = Element.__post_init__

    def counted_gather(a):
        gathers.append(np.array(a))
        return gather(a)

    def counted_post_init(self):
        elements.append(self)
        post_init(self)

    monkeypatch.setattr(alg, "left_matrix_vec", counted_gather)
    monkeypatch.setattr(Element, "__post_init__", counted_post_init)
    for _ in range(2):
        gathers.clear()
        elements.clear()
        point = generalized_twistor(stem, section, 0.3 + 0.7j, s, u)
        c = elements[0]
        assert len(elements) == 1
        assert sum(np.array_equal(a, u.element.coeffs) for a in gathers) == 1
        assert len(gathers) == 2 and np.array_equal(gathers[1], c.coeffs)
        assert point.coords.shape == (2 * alg.dimension,)


_unit_imaginary = st.tuples(*[st.floats(-1.0, 1.0) for _ in range(3)])
_quaternion = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)


@settings(max_examples=80, deadline=None)
@given(direction=_unit_imaginary,
       coefficients=st.lists(_quaternion, min_size=1, max_size=5),
       x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0))
def test_bundle_quotient_is_the_slice_function_on_H(quaternions, direction, coefficients, x, y):
    """On H the chart quotient of the generalized twistor point is f(x + y s)
    = sum (x + y s)^k a_k, computed by hand-written Hamilton products, within
    the tolerance rule; s stays away from -u, where the section vanishes."""
    v = np.array(direction)
    assume(np.linalg.norm(v) >= 0.1)
    s = RootOfMinusOne(quaternions.element(np.concatenate([[0.0], v / np.linalg.norm(v)])))
    u = find_seed_root(quaternions)
    assume((u.element + s.element).norm() >= 0.1)
    stem = stem_from_slice_poly([quaternions.element(a) for a in coefficients])
    z = complex(x, y)
    point = generalized_twistor(stem, standard_section(u), z, s, u)
    got = rho1_general(point, u).coeffs
    want = oq.slice_poly_eval([np.array(a) for a in coefficients],
                              np.concatenate([[x], y * s.element.coeffs[1:]]))
    size = (1.0 + s.element.norm()) * stem.term_size(z)
    assert within_tol(np.linalg.norm(got - want), size)


_complex = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(lambda xy: complex(*xy))


@settings(max_examples=80, deadline=None)
@given(coefficients=st.lists(_quaternion, min_size=2, max_size=6), z=_complex,
       u0=_complex, u1=_complex)
def test_the_bundle_at_I_is_the_chart_of_the_GSS_lift(quaternions, coefficients, z, u0, u1):
    """On H, with u = I and s_u = g^-1 I g for g = gamma(u0, u1), the bundle
    point over s_u is the chart [gamma(w0, w1) - i I gamma(w0, w1) : same for
    (w2, w3)] of the lift [w0 : w1 : w2 : w3] of the same stem and z, for the
    section value g and for the standard section, whose value vanishes at
    s_u = -I and loses its relative accuracy near it.  The chart quotient of
    that point is f at rho(z, u), in hand-written Hamilton products."""
    assume(abs(u0) + abs(u1) >= 0.1)
    frame = QuaternionFrame.detect(quaternions)
    i = frame.i_root
    stem = stem_from_slice_poly([quaternions.element(a) for a in coefficients])
    w = twistor_lift(stem, z, ProjectivePoint(np.array([u0, u1])), frame).coords
    chart = ProjectivePoint(np.concatenate([fiber_embed(i, gamma(w[0], w[1], frame)),
                                            fiber_embed(i, gamma(w[2], w[3], frame))]))
    g = oq.gamma_pair(u0, u1)
    s_u = RootOfMinusOne(quaternions.element(oq.qmul(oq.qinv(g), oq.qmul(oq.I, g))))
    sections = [lambda _: quaternions.element(g)]
    if (s_u.element + i.element).norm() >= 0.1:
        sections.append(standard_section(i))
    want = oq.slice_poly_eval([np.array(a) for a in coefficients], oq.rho_point(z, u0, u1))
    size = (1.0 + s_u.element.norm()) * stem.term_size(z)
    for section in sections:
        point = generalized_twistor(stem, section, z, s_u, i)
        assert point.chordal_distance(chart) <= 1e-12
        assert within_tol(np.linalg.norm(rho1_general(point, i).coeffs - want), size)
