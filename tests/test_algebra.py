"""Structure-constant validation, Clifford products, multiplication
operators, inverses, quotients and JSON interchange; the type and message
of each input check that no other test reaches."""

import io
import json
import os
import re
import tempfile
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracle_quaternion as oq
from conftest import algebra_json, elements_close
from slicealgebra import (
    BadUnitError,
    ComplexElement,
    DimensionMismatchError,
    FrameNotFoundError,
    InnerProduct,
    NonAssociativeError,
    ProjectivePoint,
    QuaternionFrame,
    RootOfMinusOne,
    TooLargeError,
    ZeroDivisorError,
    algebra_from_dict,
    cauchy_riemann_residual,
    clifford_algebra,
    dump_algebra,
    inverse,
    is_zerodivisor,
    left_divide,
    make_algebra,
    rho1_general,
    right_divide,
    segre2,
    stem_from_slice_poly,
)
from slicealgebra.algebra import Algebra, Element


def test_make_algebra_validates_shape_and_unit():
    good = np.zeros((2, 2, 2))
    good[0, 0, 0] = good[0, 1, 1] = good[1, 0, 1] = 1.0
    good[1, 1, 0] = -1.0  # complex numbers
    alg = make_algebra(good)
    assert alg.dimension == 2

    with pytest.raises(DimensionMismatchError):
        make_algebra(np.zeros((2, 3, 2)))
    with pytest.raises(DimensionMismatchError):
        make_algebra(1.0)
    with pytest.raises(BadUnitError):
        make_algebra(good, unit_index=1)
    with pytest.raises(BadUnitError):
        make_algebra(np.zeros((2, 2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_algebra_rejects_non_finite(bad):
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    c[1, 1, 0] = -1.0
    c[1, 1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        make_algebra(c)
    data = {"dimension": 2, "unit_index": 0, "labels": ["1", "i"],
            "structure_constants": c.tolist()}
    with pytest.raises(ValueError, match="finite"):
        algebra_from_dict(data)


def test_make_algebra_rejects_nonassociative():
    # cross product on basis {1, x, y, z} with formal unit is not associative
    c = np.zeros((4, 4, 4))
    c[0] = np.eye(4)
    for i in range(4):
        c[i, 0, i] = 1.0
    c[1, 2, 3], c[2, 1, 3] = 1.0, -1.0
    c[2, 3, 1], c[3, 2, 1] = 1.0, -1.0
    c[3, 1, 2], c[1, 3, 2] = 1.0, -1.0
    with pytest.raises(NonAssociativeError):
        make_algebra(c)


def test_make_algebra_size_guard():
    n = 70
    c = np.zeros((n, n, n))
    c[0] = np.eye(n)
    for i in range(n):
        c[i, 0, i] = 1.0
    with pytest.raises(TooLargeError):
        make_algebra(c)
    with pytest.raises(TooLargeError):
        clifford_algebra(0, 7)


def test_clifford_basis_layout():
    alg = clifford_algebra(1, 2)
    assert alg.dimension == 8
    assert alg.labels[0] == "1"
    assert alg.labels[-1] == "e123"  # pseudoscalar last
    assert alg.labels[1:4] == ("e1", "e2", "e3")
    assert alg.signature == (1, 2)
    assert alg.associativity_residual == 0.0


def test_clifford_generator_squares():
    alg = clifford_algebra(2, 1)
    e1, e2, e3 = (alg.basis_element(k) for k in (1, 2, 3))
    assert elements_close(e1 * e1, alg.unit())
    assert elements_close(e2 * e2, alg.unit())
    assert elements_close(e3 * e3, -alg.unit())
    # anticommutation
    assert (e1 * e2 + e2 * e1).norm() == 0.0


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(7) for p in range(n + 1)])
def test_clifford_defining_relations(p, q):
    """Generators square to +1 (the first p) or -1 and anticommute, each
    blade is the ordered product of its generators, and blades come in
    graded-lexicographic order."""
    n = p + q
    alg = clifford_algebra(p, q)
    assert list(alg.labels) == ["1"] + ["e" + "".join(map(str, gens))
                                        for size in range(1, n + 1)
                                        for gens in combinations(range(1, n + 1), size)]
    gen = {g: alg.basis_element(alg.labels.index(f"e{g}")) for g in range(1, n + 1)}
    for g, e in gen.items():
        square = 1.0 if g <= p else -1.0
        assert np.array_equal((e * e).coeffs, square * alg.unit().coeffs)
        for h in range(g + 1, n + 1):
            assert np.array_equal((e * gen[h]).coeffs, -(gen[h] * e).coeffs)
    for k, label in enumerate(alg.labels[1:], start=1):
        blade = alg.unit()
        for digit in label[1:]:
            blade = blade * gen[int(digit)]
        assert np.array_equal(blade.coeffs, alg.basis_element(k).coeffs), label


def test_quaternion_table_matches_oracle(quaternions, rng):
    """clifford(0,2) multiplication equals the hand-written Hamilton product."""
    for _ in range(100):
        p, q = rng.standard_normal(4), rng.standard_normal(4)
        ours = (quaternions.element(p) * quaternions.element(q)).coeffs
        assert np.allclose(ours, oq.qmul(p, q), atol=1e-12)


def test_operator_matrices_represent_multiplication(cl03, rng):
    for _ in range(50):
        a = cl03.random_element(rng)
        x = cl03.random_element(rng)
        left = cl03.left_matrix_vec(a.coeffs)
        right = cl03.right_matrix_vec(a.coeffs)
        assert np.allclose(left @ x.coeffs, (a * x).coeffs, atol=1e-12)
        assert np.allclose(right @ x.coeffs, (x * a).coeffs, atol=1e-12)


def test_left_right_commute(cl03, rng):
    """[L_a, R_a] = 0 by associativity."""
    for _ in range(50):
        a = cl03.random_element(rng)
        left = cl03.left_matrix_vec(a.coeffs)
        right = cl03.right_matrix_vec(a.coeffs)
        assert np.linalg.norm(left @ right - right @ left) <= 1e-9


def test_inverse_and_zerodivisors(quaternions, cl11, rng):
    for _ in range(50):
        a = quaternions.random_element(rng)
        assert not is_zerodivisor(a)
        assert elements_close(a * inverse(a), quaternions.unit(), 1e-10)
        assert elements_close(inverse(a) * a, quaternions.unit(), 1e-10)

    # 1 + e1 in clifford(1,1): (1+e1)(1-e1) = 1 - e1^2 = 0
    zd = cl11.unit() + cl11.basis_element(1)
    assert is_zerodivisor(zd)
    with pytest.raises(ZeroDivisorError):
        inverse(zd)


def test_json_round_trip(quaternions):
    data = algebra_json(quaternions)
    text = json.dumps(data)
    back = algebra_from_dict(json.loads(text))
    assert back.compatible(quaternions)
    assert back.labels == quaternions.labels

    bad = dict(data)
    bad["dimension"] = 5
    with pytest.raises(DimensionMismatchError):
        algebra_from_dict(bad)


def _json_dump_bytes(algebra):
    """The file json.dump wrote, each entry folded by float(x) and, when
    integer-valued, int(float(x)): the writer's bytes before it took the C
    encoder."""
    def jsonable(x):
        xf = float(x)
        return int(xf) if xf.is_integer() else xf

    data = {"dimension": algebra.dimension, "unit_index": algebra.unit_index,
            "labels": list(algebra.labels),
            "structure_constants": [[[jsonable(v) for v in row] for row in plane]
                                    for plane in algebra.structure_constants]}
    out = io.StringIO()
    json.dump(data, out, sort_keys=True)
    out.write("\n")
    return out.getvalue().encode("utf-8")


_ENTRIES = st.one_of(st.integers(-10**6, 10**6).map(float),
                     st.sampled_from([0.0, -0.0, 1e300, -1e300, 2.0**62, 5e-324, -2.2e-308]),
                     st.floats(-1e-300, 1e-300, allow_subnormal=True),
                     st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(c=st.integers(1, 4).flatmap(
    lambda n: hnp.arrays(float, (n, n, n), elements=_ENTRIES)))
def test_dump_algebra_writes_the_json_dump_bytes(c):
    """Integer-valued entries (-0.0 and 1e300 among them) are written as
    ints, every other one by float repr, as json.dump wrote them."""
    algebra = Algebra(c, 0, tuple(f"b{i}" for i in range(c.shape[0])))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        dump_algebra(algebra, path)
        with open(path, "rb") as fh:
            assert fh.read() == _json_dump_bytes(algebra)


def test_element_arithmetic(quaternions):
    i = quaternions.basis_element(1)
    j = quaternions.basis_element(2)
    k = quaternions.basis_element(3)
    assert elements_close(i * j, k)
    assert elements_close(j * i, -k)
    assert elements_close((i + j) * 0.5, 0.5 * i + j / 2)
    assert (i - i).norm() == 0.0


def test_reprs_print_what_is_left_at_six_decimals(quaternions):
    """An element's repr leaves out each term that rounds to 0 at 6 decimals,
    and prints 0 when none is left; a stem and a projective point print their
    shape and coordinates."""
    assert repr(quaternions.element([1, 1e-9, -2e-8, 0.5])) == "<+1*1 +0.5*e12>"
    assert repr(quaternions.element([4e-7, 0, -4e-7, 0])) == "<0>"
    stem = stem_from_slice_poly([quaternions.unit(), quaternions.zero(), quaternions.unit()])
    assert repr(stem) == "StemPolynomial(degree=2, algebra_dim=4)"
    assert repr(ProjectivePoint([1, 0.5j])) == "[1+0j:0+0.5j]"


def test_element_copies_the_callers_array(quaternions):
    """Algebra.element keeps the caller's buffer writeable and its own."""
    v = np.array([1.0, 2.0, 3.0, 4.0])
    e = quaternions.element(v)
    assert v.flags.writeable and not e.coeffs.flags.writeable
    v[0] = 2.0
    assert e.coeffs[0] == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs", [np.array([1j, 0, 0, 0]), np.array([1, 2, 3, 4], dtype=complex),
                                    [np.complex128(1j), 0, 0, 0], [0.0, 2j, 0.0, 0.0]])
def test_complex_coefficients_are_rejected(quaternions, coeffs):
    """Algebra.element and Element raise before casting to float, which
    would drop the imaginary part (numpy warns only)."""
    with pytest.raises(ValueError, match="coefficients must be real"):
        quaternions.element(coeffs)
    with pytest.raises(ValueError, match="coefficients must be real"):
        Element(quaternions, coeffs)


CLIFFORD_0Q = [clifford_algebra(0, q) for q in range(7)]

# moderate entries, whose sums round differently in another order; any
# float (inf, NaN, subnormals); entries near 1e154 whose squares overflow
# to inf; tiny entries whose squares underflow
_NORM_ENTRIES = st.one_of(st.floats(-10.0, 10.0), st.floats(), st.floats(1e153, 1e155),
                          st.floats(-1e155, -1e153), st.floats(-1e-300, 1e-300))


@settings(max_examples=300, deadline=None)
@given(q=st.integers(0, 6), stride=st.integers(1, 3), data=st.data())
def test_element_norm_is_numpy_norm_bit_for_bit(q, stride, data):
    """Element.norm gives the bits of float(np.linalg.norm(c)), also for
    coefficients held as a strided view, whose dot sums in another order.
    Where the square c.c is no normal float (it overflows, and np.linalg.norm
    says inf, or it underflows, and that says 0 or loses digits) and c is
    finite and nonzero, Element.norm gives the bits of np.linalg.norm at the
    scale max|c|.  The element keeps the norm: a second read gives it again."""
    alg = CLIFFORD_0Q[q]
    c = data.draw(hnp.arrays(float, alg.dimension * stride, elements=_NORM_ENTRIES))[::stride]
    with np.errstate(over="ignore", invalid="ignore"):
        element = Element(alg, c)
        got, want = element.norm(), float(np.linalg.norm(c))
        square, big = np.ascontiguousarray(c).dot(np.ascontiguousarray(c)), np.abs(c).max()
        if not np.finfo(float).tiny <= square < np.inf and 0.0 < big < np.inf:
            want = float(big * np.linalg.norm(c / big))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert element.norm() is got


@pytest.mark.parametrize("p, q", [(0, 2), (2, 2), (3, 3)])
def test_structure_norm_is_the_frobenius_norm_once(p, q):
    """mu = ||c||_F, with the bits of np.linalg.norm, is computed once per algebra."""
    alg = clifford_algebra(p, q)
    mu = alg.structure_norm
    assert float(mu).hex() == float(np.linalg.norm(alg.structure_constants)).hex()
    assert alg.structure_norm is mu


SPLIT = {"cl11": clifford_algebra(1, 1), "cl22": clifford_algebra(2, 2)}


def _inverse_raises(a) -> bool:
    try:
        inverse(a)
    except ZeroDivisorError:
        return True
    return False


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(SPLIT)), built=st.booleans(),
       coeffs=hnp.arrays(float, 16, elements=st.floats(-10.0, 10.0)))
# cond(L_x) = 1.4e7: one LU solve on L_x left x^{-1} x - 1 at 1.9e-3
@example(name="cl22", built=False,
         coeffs=np.array([4.0, 0.0, 4.0, 4.0, 2.0 ** -7] + [4.0] * 11))
def test_zerodivisor_exactly_when_inverse_raises(name, built, coeffs):
    """(1 + e1) x is a zerodivisor, since (1 - e1)(1 + e1) = 1 - e1^2 = 0;
    an inverse is one on both sides, to cond(L_a) times 1e-10."""
    alg = SPLIT[name]
    x = alg.element(coeffs[:alg.dimension])
    a = (alg.unit() + alg.basis_element(1)) * x if built else x
    assert is_zerodivisor(a) == _inverse_raises(a)
    if built:
        assert is_zerodivisor(a)
    elif not is_zerodivisor(a):
        atol = 1e-10 * np.linalg.cond(alg.left_matrix_vec(a.coeffs))
        assert elements_close(a * inverse(a), alg.unit(), atol)
        assert elements_close(inverse(a) * a, alg.unit(), atol)


def test_subnormal_singular_values_count_as_zero(cl11):
    """Below the smallest normal float the relative cutoff underflows and
    1/sigma overflows, so such a singular value counts as zero: for a
    subnormal multiple of the zerodivisor (1 + e1)(1 + e1 + e2 + e12) and
    for subnormal multiples of invertible elements alike."""
    e1 = cl11.basis_element(1)
    built = (cl11.unit() + e1) * cl11.element(np.full(4, 5e-324))
    for a in (built, 1.1125369292536007e-308 * e1, 5e-324 * cl11.unit()):
        assert np.any(a.coeffs)
        assert is_zerodivisor(a) and _inverse_raises(a)
    small = 1e-300 * e1  # e1^2 = 1
    assert elements_close(small * inverse(small), cl11.unit(), 1e-12)


@settings(max_examples=60, deadline=None)
@given(p=hnp.arrays(float, 4, elements=st.one_of(  # |p|^2 must not underflow
    st.just(0.0), st.floats(1e-6, 100.0), st.floats(-100.0, -1e-6))))
def test_quaternion_inverse_matches_oracle(quaternions, p):
    """Every nonzero quaternion is invertible, with inverse conj(p)/|p|^2."""
    a = quaternions.element(p)
    assert is_zerodivisor(a) == _inverse_raises(a) == (not np.any(p))
    if np.any(p):
        assert np.allclose(inverse(a).coeffs, oq.qinv(p), rtol=1e-12,
                           atol=1e-12 * np.linalg.norm(oq.qinv(p)))


@settings(max_examples=60, deadline=None)
@given(c=hnp.arrays(float, 4, elements=st.floats(-100.0, 100.0)).filter(
    lambda c: np.linalg.norm(c) >= 1e-3),
       d=hnp.arrays(float, 4, elements=st.floats(-100.0, 100.0)))
def test_quaternion_divides_match_oracle(quaternions, c, d):
    """c^{-1} d and d c^{-1} against conj(c)/|c|^2 multiplied out by hand;
    L_c and R_c are |c| times orthogonal, so the quotients are exact to
    rounding relative to |d|/|c|."""
    ce, de = quaternions.element(c), quaternions.element(d)
    atol = 1e-12 * (1.0 + np.linalg.norm(d)) / np.linalg.norm(c)
    assert np.allclose(left_divide(ce, de).coeffs, oq.qmul(oq.qinv(c), d), rtol=0, atol=atol)
    assert np.allclose(right_divide(de, ce).coeffs, oq.qmul(d, oq.qinv(c)), rtol=0, atol=atol)


def test_divides_by_a_zerodivisor_raise(cl11):
    """1 + e1 in clifford(1,1) has (1 - e1)(1 + e1) = 0: L and R are exactly
    singular, and LAPACK's LU finds a zero pivot."""
    zd = cl11.unit() + cl11.basis_element(1)
    for divide in (lambda d: left_divide(zd, d), lambda d: right_divide(d, zd)):
        with pytest.raises(ZeroDivisorError):
            divide(cl11.unit())



_H, _C = clifford_algebra(0, 2), clifford_algebra(0, 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Algebra(np.zeros((2, 2, 2)), 0, ("1",)),
     DimensionMismatchError, "label count must match dimension"),
    (lambda: _C.element([1.0]), DimensionMismatchError, "expected 2 coefficients, got (1,)"),
    (lambda: make_algebra(np.zeros((0, 0, 0))),
     DimensionMismatchError, "dimension must be at least 1"),
    (lambda: make_algebra(_C.structure_constants, unit_index=2),
     BadUnitError, "unit index 2 out of range"),
    (lambda: clifford_algebra(-1, 2), ValueError, "signature parts must be nonnegative"),
    (lambda: InnerProduct(np.eye(4)[:3]), ValueError, "gram matrix must be square"),
    (lambda: cauchy_riemann_residual(stem_from_slice_poly([_H.unit()]), 0.5j,
                                     RootOfMinusOne(_H.basis_element(1)), h=0.0),
     ValueError, "step must be positive"),
    (lambda: QuaternionFrame(_C.basis_element(1), _C.basis_element(1)),
     FrameNotFoundError, "frame requires a 4-dimensional algebra"),
    (lambda: segre2(ProjectivePoint(np.ones(2)), ProjectivePoint(np.ones(5))),
     ValueError, "segre2 expects a CP^4 and a CP^1 point"),
    (lambda: rho1_general(ProjectivePoint(np.ones(4)), RootOfMinusOne(_H.basis_element(1))),
     ValueError, "point does not match the algebra dimension"),
    (lambda: ComplexElement(_H.unit(), _C.unit()),
     ValueError, "components from incompatible algebras"),
], ids=["Algebra-labels", "element-length", "make_algebra-N0", "make_algebra-unit",
        "clifford-signature", "gram-square", "cauchy-riemann-h", "frame-on-C", "segre2-shapes",
        "rho1_general-dimension", "ComplexElement-algebras"])
def test_input_checks_raise_their_error(call, error, message):
    with pytest.raises(error, match=re.escape(message)) as raised:
        call()
    assert type(raised.value) is error
