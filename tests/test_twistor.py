"""Projective pipeline over the quaternions and the generalized
stereographic bundle."""

import functools
import gc
import weakref
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


def _qr_calls():
    """(calls, patch): while patch is active, every np.linalg.qr call appends
    the shape it factored to calls."""
    calls, qr = [], np.linalg.qr

    def counted(a, mode="reduced"):
        calls.append(a.shape)
        return qr(a, mode=mode)

    return calls, mock.patch.object(np.linalg, "qr", counted)


def _chart_range_of(u, s):
    """The fiber over s from its definition: the range of the chart projector
    (1 - i L_u)/2 (1 - R_s L_u)/2, of rank (N - tr R_s L_u)/4."""
    alg, n = u.algebra, u.algebra.dimension
    left = alg.left_matrix_vec(u.element.coeffs)
    op = alg.right_matrix_vec(s.element.coeffs) @ left
    proj = 0.5 * (np.eye(n) - op)
    return projector_range(0.5 * (proj - 1j * (left @ proj)), (n - integer_trace(op)) // 4)


def _same_span(got, want) -> bool:
    """Orthonormal columns, as many as want has, spanning want's range."""
    k = want.shape[1]
    return (got.shape == want.shape
            and np.linalg.norm(got.conj().T @ got - np.eye(k)) <= 1e-12
            and np.linalg.norm(got @ got.conj().T - want @ want.conj().T) <= 1e-9)


_TRANSLATE_SIGNATURES = {"H": (0, 2), "Cl(0,3)": (0, 3), "Cl(1,1)": (1, 1), "Cl(2,1)": (2, 1),
                         "Cl(2,2)": (2, 2), "Cl(0,6)": (0, 6)}


@functools.cache
def _translate_algebra(name):
    """The algebras of the translate test, each built once."""
    if name == "dense Cl(1,2)":
        return dense_cl12()
    if name == "rotated Cl(2,2)":
        basis = einsum_reference.rotation(16, np.random.default_rng(22))
        return make_algebra(einsum_reference.rotated(
            clifford_algebra(2, 2).structure_constants, basis))
    return clifford_algebra(*_TRANSLATE_SIGNATURES[name])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_TRANSLATE_SIGNATURES) + ["dense Cl(1,2)", "rotated Cl(2,2)"]),
       seed=st.integers(0, 2**32 - 1))
def test_the_fiber_over_an_orbit_root_is_the_section_translate(name, seed):
    """For s on u's conjugation orbit, c = 1 - u s is invertible, and the
    fiber over s is R_c times the fiber over u: once that one is built, a
    single QR, with no projector fallback, gives orthonormal columns that
    span the range of the chart projector over s."""
    alg = _translate_algebra(name)
    u = find_seed_root(alg)
    s = sample_root(u, np.random.default_rng(seed))
    stereographic_fiber(u, u)  # builds the fiber over u
    calls, patch = _qr_calls()
    with patch:
        got = stereographic_fiber(u, s)
    assert len(calls) == 1
    assert _same_span(got, _chart_range_of(u, s))


def _cl30_central_case():
    """Cl(3,0) with u = e12 and the central root s = e123: s is off u's
    conjugation orbit, and c = 1 - u s = 1 + e3 is a zerodivisor, while the
    trace rank over s equals the one over u."""
    alg = clifford_algebra(3, 0)
    return (RootOfMinusOne.from_element(alg.basis_element(alg.labels.index("e12"))),
            RootOfMinusOne.from_element(alg.basis_element(alg.labels.index("e123"))))


def _minus_u_case(p, q):
    """s = -u, where c = 1 - u s = 1 + u*u is zero."""
    u = find_seed_root(clifford_algebra(p, q))
    return u, RootOfMinusOne(-u.element)


def _unit_second_case():
    """Cl(1,1) on the basis (e1, 1, e2, e12), u = e2 and s = -u.  The QR of
    R_c = 0 returns the first basis vector e1, which lies in the fiber
    (e2 e1 = -e1 e2) but is real, so it is no column of the chart."""
    order = [1, 0, 2, 3]
    c = clifford_algebra(1, 1).structure_constants[np.ix_(order, order, order)]
    alg = make_algebra(c, unit_index=1)
    u = RootOfMinusOne.from_element(alg.basis_element(2))
    return u, RootOfMinusOne(-u.element)


_ZERODIVISOR_CASES = {"Cl(3,0) e12 e123": _cl30_central_case,
                      "Cl(1,1) unit second -u": _unit_second_case,
                      **{f"Cl({p},{q}) -u": functools.partial(_minus_u_case, p, q)
                         for p, q in [(0, 2), (0, 3), (2, 2), (2, 1), (0, 6)]}}


@pytest.mark.parametrize("case", _ZERODIVISOR_CASES.values(), ids=_ZERODIVISOR_CASES.keys())
def test_a_zerodivisor_section_falls_back_to_the_projector(case):
    """Where c = 1 - u s is a zerodivisor, R_c times the fiber over u spans
    too little; the fiber and chart identities reject that basis, and the
    fiber over s is the projector range, of rank (N - tr R_s L_u)/4."""
    u, s = case()
    stereographic_fiber(u, u)  # builds the fiber over u
    calls, patch = _qr_calls()
    with patch:
        got = stereographic_fiber(u, s)
    assert len(calls) in (2, 3)  # the projector range, after a rejected translate or none
    assert _same_span(got, _chart_range_of(u, s))


def test_the_central_case_tries_and_rejects_the_translate():
    """On Cl(3,0) with u = e12 and s = e123 the trace ranks agree, so the
    translate is formed (one QR) and rejected (two more, the projector)."""
    u, s = _cl30_central_case()
    stereographic_fiber(u, u)
    calls, patch = _qr_calls()
    with patch:
        stereographic_fiber(u, s)
    assert len(calls) == 3


def test_the_fiber_over_u_is_built_once_per_algebra_and_root():
    """The projector range over u (two QRs) is built on the first fiber call
    with u's coefficients in its algebra; every later fiber over that base,
    through any root object with those coefficients, is one QR.  Another
    algebra object builds its own; each algebra keeps one, its last base's,
    so a call over another base root replaces it."""
    alg = clifford_algebra(2, 1)  # a new object: nothing is kept for it yet
    u = find_seed_root(alg)
    rng = np.random.default_rng(4)
    roots = [sample_root(u, rng) for _ in range(4)]
    calls, patch = _qr_calls()
    with patch:
        for s in roots:
            stereographic_fiber(u, s)
        stereographic_fiber(RootOfMinusOne(alg.element(u.element.coeffs)), roots[0])
        assert len(calls) == 2 + 5
        twin = clifford_algebra(2, 1)
        stereographic_fiber(find_seed_root(twin), RootOfMinusOne(twin.element(roots[0].element.coeffs)))
        assert len(calls) == 2 + 5 + 2 + 1
        stereographic_fiber(roots[1], roots[0])
        stereographic_fiber(u, roots[0])
        assert len(calls) == 2 + 5 + 2 + 1 + 3 + 3
    assert alg.kept["base fiber"][0] == u.element.coeffs.tobytes()


def test_a_freed_algebra_leaves_no_cached_fiber():
    """The fiber over u is kept in algebra.kept: once the algebra and its
    roots are gone, gc frees it with them."""
    alg = clifford_algebra(0, 3)
    u = find_seed_root(alg)
    stereographic_fiber(u, sample_root(u, np.random.default_rng(0)))
    freed, fiber = weakref.ref(alg), weakref.ref(alg.kept["base fiber"][1])
    del alg, u
    gc.collect()
    assert freed() is None and fiber() is None


def test_a_freed_algebra_leaves_no_kept_root_or_frame():
    """The seed root and the frame an algebra keeps refer to it, but they are
    kept in algebra.kept, so gc frees the cycle once the algebra is gone.
    Another algebra object detects its own frame."""
    alg = clifford_algebra(0, 2)
    root, frame = find_seed_root(alg), QuaternionFrame.detect(alg)
    assert find_seed_root(alg) is root and QuaternionFrame.detect(alg) is frame
    assert QuaternionFrame.detect(clifford_algebra(0, 2)) is not frame
    freed, root_gone, frame_gone = weakref.ref(alg), weakref.ref(root), weakref.ref(frame)
    del alg, root, frame
    gc.collect()
    assert freed() is None and root_gone() is None and frame_gone() is None


def test_a_frame_measures_its_i_root_once(monkeypatch):
    """frame.i_root is one root, whose defect the constructor measured by one
    gather of L_I, no product I*I; it keeps that L_I, so later reads of the
    defect, the standard section and generalized_twistor gather no other."""
    alg = clifford_algebra(0, 2)
    i_vec = alg.basis_element(1).coeffs
    squares, gathers = [], []
    multiply, gather = alg.multiply_vec, alg.left_matrix_vec
    monkeypatch.setattr(alg, "multiply_vec", lambda x, y: squares.append(
        np.array_equal(x, i_vec) and np.array_equal(y, i_vec)) or multiply(x, y))
    monkeypatch.setattr(alg, "left_matrix_vec", lambda a: gathers.append(
        np.array_equal(a, i_vec)) or gather(a))
    frame = QuaternionFrame(alg.basis_element(1), alg.basis_element(2))
    assert sum(gathers) == 2  # the defect of I, and K = I*J by multiply_vec
    assert frame.i_root is frame.i_root and all(frame.i_root.holds() for _ in range(3))
    assert sum(squares) == 0
    rng = np.random.default_rng(1)
    stem = stem_from_slice_poly([alg.random_element(rng) for _ in range(3)])
    s = sample_root(frame.i_root, rng)
    g = standard_section(frame.i_root)(s)
    for _ in range(3):
        generalized_twistor(stem, lambda _: g, 0.3 + 0.7j, s, frame.i_root)
    assert sum(gathers) == 2


def test_a_frame_forms_I_J_once(monkeypatch):
    """QuaternionFrame(e1, e2) on H forms two products, K = I*J and J*I for
    the anticommutator K + J*I, and measures each defect from a gathered
    L: four gathers, none of them repeated."""
    alg = clifford_algebra(0, 2)
    products, gathers = [], []
    multiply, gather = alg.multiply_vec, alg.left_matrix_vec
    monkeypatch.setattr(alg, "multiply_vec", lambda x, y: products.append(
        (np.argmax(x), np.argmax(y))) or multiply(x, y))
    monkeypatch.setattr(alg, "left_matrix_vec", lambda a: gathers.append(
        int(np.argmax(a))) or gather(a))
    frame = QuaternionFrame(alg.basis_element(1), alg.basis_element(2))
    assert products == [(1, 2), (2, 1)]
    assert sorted(gathers) == [1, 1, 2, 2]
    assert np.array_equal(frame.matrix[:, 3], alg.basis_element(3).coeffs)


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
    """u gathers L_u once, on its first read (here the defect), and keeps
    it: a generalized_twistor call gathers only L_c and builds one Element,
    the section value, and so does a second call on the same u.  The
    counted section only wraps the standard section's value."""
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
        assert sum(np.array_equal(a, u.element.coeffs) for a in gathers) == 0
        assert len(gathers) == 1 and np.array_equal(gathers[0], c.coeffs)
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
