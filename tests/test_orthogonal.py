"""Orthogonal complex structures, the quadratic cone and the quadratic
equations for the distinguished zero variety."""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import einsum_reference
import oracle_quaternion as oq
from conftest import dense_cl12, root_from
from slicealgebra import (
    ComplexElement,
    DimensionMismatchError,
    Element,
    InnerProduct,
    NotFoundError,
    RootOfMinusOne,
    ZeroWitness,
    antisymmetric_subspace,
    clifford_algebra,
    cone_decompose,
    find_seed_root,
    is_in_S0,
    make_algebra,
    orthogonality_characterization,
    sample_S0,
    sample_root,
    tangent_frame,
    z0_equivalence_check,
    z0_residual,
)
from slicealgebra import cli, orthogonal
from slicealgebra.config import within_tol
from slicealgebra.numerics import null_space


def _std(alg):
    return InnerProduct.standard(alg)


def test_inner_product_validation(quaternions):
    with pytest.raises(ValueError):
        InnerProduct(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        InnerProduct(np.diag([1.0, -1.0]))
    G = InnerProduct(np.diag([1.0, 2.0, 3.0, 4.0]))
    a = quaternions.element([1.0, 1.0, 0.0, 0.0])
    assert G.pairing(a, a) == 3.0
    assert abs(G.norm(a) - np.sqrt(3.0)) <= 1e-15
    w = ComplexElement(quaternions.unit(), quaternions.element([0.0, 1.0, 0.0, 0.0]))
    for check in (lambda G: is_in_S0(quaternions.unit(), G),
                  lambda G: antisymmetric_subspace(quaternions, G),
                  lambda G: cone_decompose(quaternions.unit(), G),
                  lambda G: z0_residual(w, G),
                  lambda G: z0_equivalence_check(w, G)):
        with pytest.raises(DimensionMismatchError):
            check(InnerProduct(np.eye(2)))


def test_pairing_and_norm_read_the_scaled_gram(quaternions, rng):
    """The norm under G = 1e308 I is 2e154 without an overflow on the way,
    and under G = I pairing and norm are the plain a^T b and its root."""
    ones = quaternions.element([1.0, 1.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert InnerProduct(1e308 * np.eye(4)).norm(ones) == 2e154
        assert InnerProduct(1e-308 * np.eye(4)).norm(ones) == 2e-154
        G = InnerProduct(np.eye(4))
        for _ in range(20):
            a, b = quaternions.random_element(rng), quaternions.random_element(rng)
            assert G.pairing(a, b) == float(a.coeffs @ np.eye(4) @ b.coeffs)
            assert G.norm(a) == float(np.sqrt(max(float(a.coeffs @ np.eye(4) @ a.coeffs), 0.0)))


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_norm_holds_at_the_element_scale(quaternions, scale):
    """Under the standard G the norm of scale * 1 is scale, with no warning:
    its square over- or underflows unless the argument is scaled first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = quaternions.element([scale, 0.0, 0.0, 0.0])
        assert InnerProduct.standard(quaternions).norm(a) == scale


def test_pairing_of_arguments_at_both_ends_of_the_range(complex_algebra):
    """<(1e308, 1e308), (1e-10, 0)> = 1.9e298 under G = [[1, .9], [.9, 1]],
    with no warning: unscaled, a^T G overflows and inf * 0 is NaN."""
    G = InnerProduct(np.array([[1.0, 0.9], [0.9, 1.0]]))
    a, b = complex_algebra.element([1e308, 1e308]), complex_algebra.element([1e-10, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = G.pairing(a, b)
    assert abs(got - 1.9e298) <= 1e-15 * 1.9e298


def test_pairing_and_norm_keep_the_bits_of_the_unscaled_form(complex_algebra, quaternions,
                                                             cl03, rng):
    """Scaling by powers of two is exact, so where a^T G_hat b is finite and
    normal unscaled, pairing and norm give its bits: 2^power a^T G_hat b and
    2^(power // 2) sqrt(2^(power % 2) a^T G_hat a)."""
    for alg in (complex_algebra, quaternions, cl03):
        n = alg.dimension
        for _ in range(10):
            m = rng.standard_normal((n, n))
            G = InnerProduct(np.ldexp(m @ m.T + n * np.eye(n), int(rng.integers(-60, 61))))
            for _ in range(10):
                a, b = (alg.element(rng.standard_normal(n) * 10.0 ** rng.uniform(-50, 50))
                        for _ in range(2))
                q = max(float(a.coeffs @ G.scaled @ a.coeffs), 0.0)
                assert G.pairing(a, b) == float(np.ldexp(a.coeffs @ G.scaled @ b.coeffs, G.power))
                assert G.norm(a) == float(np.ldexp(np.sqrt(np.ldexp(q, G.power % 2)), G.power // 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inner_product_rejects_a_non_finite_gram(bad):
    """Finiteness is tested first, under its own message and with no
    RuntimeWarning from the symmetry test's g - g^T."""
    gram = np.eye(4)
    gram[1, 2] = gram[2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gram matrix must be finite"):
            InnerProduct(gram)


@pytest.mark.parametrize("gram, message", [
    (np.eye(4) + 1j * np.ones((4, 4)), "gram matrix must be real"),
    (np.zeros((0, 0)), "gram matrix must not be empty")], ids=["complex", "0x0"])
def test_inner_product_rejects_a_complex_or_empty_gram(gram, message):
    """A complex G is not taken as its real part, and a 0 x 0 G is no inner
    product: each is refused with its own message, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            InnerProduct(gram)


def test_a_weighted_pairing_is_antisymmetric_on_A0(quaternions, rng):
    """Under W = diag(1, 1, 2, 2) A0 is the span of e1: <u, e1 v> = -<e1 u, v>
    under W for every u, v, the identity L^T W_hat + W_hat L = 0 read
    through InnerProduct.pairing, while e2 fails it."""
    W = InnerProduct(np.diag([1.0, 1.0, 2.0, 2.0]))
    e1, e2 = quaternions.basis_element(1), quaternions.basis_element(2)
    for _ in range(10):
        u = quaternions.random_element(rng)
        v = quaternions.random_element(rng)
        lhs = W.pairing(u, e1 * v)
        assert abs(lhs + W.pairing(e1 * u, v)) <= 1e-10 * (1 + abs(lhs))
    for a, skew in ((e1, True), (e2, False)):
        L = quaternions.left_matrix_vec(a.coeffs)
        assert np.allclose(L.T @ W.scaled, -(W.scaled @ L), atol=1e-13) is skew


def test_left_multiplication_by_imaginary_unit_is_antisymmetric(quaternions):
    G = _std(quaternions)
    for vec in (oq.I, oq.J, oq.K):
        L = quaternions.left_matrix_vec(quaternions.element(vec).coeffs)
        assert np.allclose(L.T @ G.scaled, -(G.scaled @ L), atol=1e-14)


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
        span = antisymmetric_subspace(alg, _std(alg))
        assert span.shape == (alg.dimension, dim)
        for a in span.T:
            left = alg.left_matrix_vec(a)
            assert np.linalg.norm(left + left.T) <= 1e-10


def test_quaternion_antisymmetric_subspace_is_imaginary(quaternions):
    span = antisymmetric_subspace(quaternions, _std(quaternions))
    assert np.linalg.norm(span[0]) <= 1e-12
    assert np.linalg.matrix_rank(span[1:]) == 3


def _per_basis_subspace(alg, G):
    """A0 from one column vec(G L_{e_j} + L_{e_j}^T G) per basis element, all
    N^2 rows, and one null_space."""
    n = alg.dimension
    cols = np.empty((n * n, n))
    for j in range(n):
        left = alg.left_matrix_vec(np.eye(n)[j])
        cols[:, j] = (G.gram @ left + left.T @ G.gram).ravel()
    return null_space(cols)


@pytest.mark.parametrize("make", [lambda: clifford_algebra(2, 2), lambda: clifford_algebra(0, 6),
                                  dense_cl12], ids=["Cl(2,2)", "Cl(0,6)", "dense Cl(1,2)"])
def test_antisymmetric_subspace_is_the_per_basis_build(make):
    """A0 from the half system, a block of rows at a time: the per-basis
    subspace to 1e-12 in projector norm under the standard G, and the same
    subspace under G = R_b^T R_b, for which L_a (commuting with R_b) has the
    same A0."""
    alg = make()
    G = _std(alg)
    got = antisymmetric_subspace(alg, G)
    oracle = _per_basis_subspace(alg, G)
    assert got.shape == oracle.shape
    assert np.linalg.norm(got @ got.T - oracle @ oracle.T) <= 1e-12
    right = alg.right_matrix_vec(alg.random_element(np.random.default_rng(4)).coeffs)
    G = InnerProduct(right.T @ right)
    moved = antisymmetric_subspace(alg, G)
    for basis in (moved, _per_basis_subspace(alg, G)):
        assert basis.shape == got.shape
        assert np.linalg.norm(basis @ basis.T - got @ got.T) <= 1e-9


_A0_SIGNATURES = [(p, n - p) for n in range(5) for p in range(n + 1)]


@settings(max_examples=80, deadline=None)
@given(pq=st.sampled_from(_A0_SIGNATURES), gram=st.sampled_from(["standard", "4I", "R_b^T R_b"]),
       seed=st.integers(0, 2**32 - 1))
@example(pq=(2, 2), gram="R_b^T R_b", seed=865824)  # cond(G) 3.7e5
def test_antisymmetric_subspace_matches_the_oracle(pq, gram, seed):
    """On Cl(p,q), p + q <= 4, A0 is the per-basis oracle's subspace, with
    the same dimension, and every L_a in it is G-antisymmetric.  Two kernels
    of a system weighted by G agree to about eps cond(G), so the bound 1e-12
    is taken times cond(G): 1 for the standard G and 4 I, and large for
    R_b^T R_b when b is near a zerodivisor of a split signature."""
    alg = clifford_algebra(*pq)
    n = alg.dimension
    if gram == "R_b^T R_b":
        right = alg.right_matrix_vec(np.random.default_rng(seed).standard_normal(n))
        G = InnerProduct(right.T @ right)
    else:
        G = InnerProduct((4.0 if gram == "4I" else 1.0) * np.eye(n))
    bound = 1e-12 * np.linalg.cond(G.gram)
    got = antisymmetric_subspace(alg, G)
    oracle = _per_basis_subspace(alg, G)
    assert got.shape == oracle.shape
    assert np.linalg.norm(got @ got.T - oracle @ oracle.T) <= bound
    for a in got.T:
        left = alg.left_matrix_vec(a)
        skew = G.gram @ left + left.T @ G.gram
        assert np.linalg.norm(skew) <= bound * 2.0 * np.linalg.norm(G.gram) * np.linalg.norm(left)


def test_antisymmetric_subspace_takes_o_n2_memory():
    """At N = 64 neither the N^2 x N system (2 MiB) nor an (N, N, N)
    temporary is ever held."""
    alg = clifford_algebra(0, 6)
    G = _std(alg)
    tracemalloc.start()
    try:
        assert antisymmetric_subspace(alg, G).shape[1] == 28
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def _block_qr_calls(monkeypatch) -> list:
    """Grows by one on each np.linalg.qr(..., mode="r"), the call that folds
    one block of rows into antisymmetric_subspace's triangular factor."""
    calls, qr = [], np.linalg.qr

    def counted(a, mode="reduced"):
        if mode == "r":
            calls.append(a.shape)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


@pytest.mark.parametrize("first", ["z0_equivalence_check", "sample_S0"])
def test_A0_is_built_once_per_inner_product(monkeypatch, first):
    """The first z0_equivalence_check or sample_S0 under G builds A0; every
    later one, of either kind, with the same algebra and G reads it."""
    alg = clifford_algebra(2, 2)
    G = _std(alg)
    rng = np.random.default_rng(5)
    s = sample_S0(alg, InnerProduct(np.eye(alg.dimension)), rng)  # another G: its A0 is not G's
    b = alg.random_element(rng)
    member = ComplexElement(-(s.element * b), b)
    calls = _block_qr_calls(monkeypatch)
    checks = {"z0_equivalence_check": lambda: z0_equivalence_check(member, G, rng=rng),
              "sample_S0": lambda: sample_S0(alg, G, rng)}
    checks[first]()
    built = len(calls)
    assert built == 1  # N = 16: one block
    for _ in range(3):
        assert checks["z0_equivalence_check"]().search.status == "found"
        assert is_in_S0(checks["sample_S0"]().element, G)
    assert len(calls) == built


def test_the_cone_suite_builds_A0_once_per_algebra(monkeypatch):
    """The cone suite reads InnerProduct.standard, one standard G per
    algebra, so the first cone run on an algebra builds A0 and every later one
    reads it, with the same report; the algebra keeps G (algebra.kept), and G
    keeps A0 under a weak key, so a freed algebra goes with its G and A0."""
    alg = clifford_algebra(2, 2)
    fresh = cli.run_suite("cone", clifford_algebra(2, 2), "x", 6, 1, 1e-9).to_json()
    calls = _block_qr_calls(monkeypatch)
    cli.run_suite("cone", alg, "x", 6, 0, 1e-9)
    assert len(calls) == 1  # N = 16: one block
    assert cli.run_suite("cone", alg, "x", 6, 1, 1e-9).to_json() == fresh
    assert len(calls) == 1
    freed = weakref.ref(alg)
    del alg
    gc.collect()
    assert freed() is None


def test_sample_S0_gathers_the_drawn_root_once(monkeypatch):
    """The root sample_S0 returns has L_s gathered once, by the polish, which
    measures ||s*s + 1||; the root keeps both, so the two-of-three test
    measures no defect again and the G-identities read the kept L_s."""
    alg = clifford_algebra(2, 2)
    G = _std(alg)
    antisymmetric_subspace(alg, G)
    gathers, gather = [], alg.left_matrix_vec
    monkeypatch.setattr(alg, "left_matrix_vec", lambda a: gathers.append(np.array(a)) or gather(a))
    s = sample_S0(alg, G, np.random.default_rng(0))
    assert sum(np.array_equal(a, s.element.coeffs) for a in gathers) == 1
    assert is_in_S0(s.element, G)


def test_each_inner_product_keeps_its_own_A0(monkeypatch, quaternions):
    """A new G on the same algebra builds its own A0: under diag(1, 1, 2, 2)
    only e1 is antisymmetric.  Each is built once, however often it is read."""
    calls = _block_qr_calls(monkeypatch)
    standard, weighted = InnerProduct(np.eye(4)), InnerProduct(np.diag([1.0, 1.0, 2.0, 2.0]))
    for _ in range(3):
        assert antisymmetric_subspace(quaternions, standard).shape[1] == 3
        (e1,) = antisymmetric_subspace(quaternions, weighted).T
        assert abs(abs(e1[1]) - 1.0) <= 1e-12
        assert is_in_S0(sample_S0(quaternions, weighted).element, weighted)
    assert len(calls) == 2


def test_one_inner_product_keeps_an_A0_per_algebra(monkeypatch):
    """The same G on Cl(0,2) and Cl(2,0), both N = 4, gives each algebra its
    own A0 (dimensions 3 and 1), each built once."""
    calls = _block_qr_calls(monkeypatch)
    G = InnerProduct(np.eye(4))
    quaternions, split = clifford_algebra(0, 2), clifford_algebra(2, 0)
    for _ in range(2):
        assert antisymmetric_subspace(quaternions, G).shape[1] == 3
        assert antisymmetric_subspace(split, G).shape[1] == 1
    assert len(calls) == 2


@pytest.mark.parametrize("p, q", [(0, 2), (2, 2), (0, 6)])
def test_sample_S0_needs_no_factorization(monkeypatch, p, q):
    """A draw is the Newton-Schulz polar factor: with the SVD, lstsq and
    solve made to raise, sample_S0 still returns roots in S0."""
    alg = clifford_algebra(p, q)
    G = _std(alg)
    antisymmetric_subspace(alg, G)  # A0's QR and SVD, kept on G

    def refuse(*args, **kwargs):
        raise AssertionError("sample_S0 factored a matrix")

    for name in ("svd", "lstsq", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(1)
    for _ in range(10):
        s = sample_S0(alg, G, rng)
        assert s.holds() and is_in_S0(s.element, G)


_SMALL_SIGNATURES = [(p, n - p) for n in range(2, 6) for p in range(n + 1)] + [(0, 1)]
_S0_CASES = {}  # (algebra, G): G keeps the algebra's A0 across examples


@settings(max_examples=60, deadline=None)
@given(pq=st.sampled_from(_SMALL_SIGNATURES), seed=st.integers(0, 2**32 - 1))
def test_S0_roots_are_orthogonal_and_antisymmetric(pq, seed):
    """Every sample_S0 root on Cl(p,q), p + q <= 5, has L_s^T L_s = 1 and
    L_s^T = -L_s, with L_s formed from the structure constants by einsum."""
    if pq not in _S0_CASES:
        alg = clifford_algebra(*pq)
        _S0_CASES[pq] = alg, _std(alg)
    alg, G = _S0_CASES[pq]
    s = sample_S0(alg, G, np.random.default_rng(seed))
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


def test_sample_S0_raises_when_no_draw_in_A0_is_a_root():
    """R + C (basis 1, b1, b2) under G = B^-T B^-1, B with columns (1, -1, 0),
    (0, 1, 0), (0, 0, 1): A0 is span{b2}, the i of the C factor (b2*b2 =
    -b1), whose L_{b2} vanishes on the R factor, so no draw is a root."""
    alg = make_algebra(einsum_reference.CORPUS["R+C"][0])
    inv = np.linalg.inv(np.column_stack([(1.0, -1.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]))
    G = InnerProduct(inv.T @ inv)
    assert np.array_equal(np.abs(antisymmetric_subspace(alg, G)), [[0.0], [0.0], [1.0]])
    with pytest.raises(NotFoundError, match="no orthogonal root found in the antisymmetric"):
        sample_S0(alg, G)


@pytest.mark.parametrize("p, q", [(0, 6), (3, 3)])
def test_sample_S0_reaches_the_rounding_floor(p, q, rng):
    """Orthogonal roots at N = 64 come back with ||s*s + 1|| within 4 times
    the rounding floor eps * N * (1 + ||s||)^2 of s*s."""
    alg = clifford_algebra(p, q)
    G = _std(alg)
    for _ in range(10):
        s = sample_S0(alg, G, rng)
        floor = np.finfo(float).eps * alg.dimension * (1.0 + s.element.norm()) ** 2
        assert s.residual <= 4.0 * floor
        assert is_in_S0(s.element, G)


def test_characterization_report(quaternions, rng):
    G = _std(quaternions)
    s = sample_S0(quaternions, G, rng)
    report = orthogonality_characterization(s, G)
    assert report.passed
    assert len(report.rows) == 2
    assert {"identity", "residual", "pass"} <= set(report.rows[0])

    # a claimed root that is not one: the isometry rows must fail
    bad = RootOfMinusOne(quaternions.element([0.0, 0.9, 1.2, 0.0]))
    bad_report = orthogonality_characterization(bad, G)
    assert not bad_report.passed


def test_characterization_split_counterexample(cl11):
    G = _std(cl11)
    skew = root_from(cl11, [0.0, 1.0, np.sqrt(2.0), 0.0])
    assert not orthogonality_characterization(skew, G).passed
    good = root_from(cl11, [0.0, 0.0, 1.0, 0.0])
    assert orthogonality_characterization(good, G).passed


_SMALL_CLIFFORD = {}  # (p, q) -> (algebra, standard G, seed root or None)


@settings(max_examples=60, deadline=None)
@given(pq=st.sampled_from([(p, n - p) for n in range(5) for p in range(n + 1)]),
       seed=st.integers(0, 2**32 - 1))
def test_characterization_decides_as_is_in_S0(pq, seed):
    """On every Cl(p,q) with p + q <= 4 the two identities pass exactly when
    is_in_S0 does: on sample_S0 roots (True) and on sample_root roots, which
    are orthogonal only where every root is (C, H and Cl(0,3) = H + H).
    R and R + R have no roots."""
    if pq not in _SMALL_CLIFFORD:
        alg = clifford_algebra(*pq)
        try:
            seed_root = find_seed_root(alg)
        except NotFoundError:
            seed_root = None
        _SMALL_CLIFFORD[pq] = alg, _std(alg), seed_root
    alg, G, seed_root = _SMALL_CLIFFORD[pq]
    if seed_root is None:
        assert pq in {(0, 0), (1, 0)}
        return
    rng = np.random.default_rng(seed)
    s = sample_S0(alg, G, rng)
    assert orthogonality_characterization(s, G).passed and is_in_S0(s.element, G)
    r = sample_root(seed_root, rng)
    expect = pq in {(0, 1), (0, 2), (0, 3)}
    assert orthogonality_characterization(r, G).passed == is_in_S0(r.element, G) == expect


def test_tangent_intersection_is_j_invariant(quaternions, rng):
    """Inside A0 the tangent spaces of S0 are stable under h -> s h."""
    G = _std(quaternions)
    for _ in range(20):
        s = sample_S0(quaternions, G, rng)
        basis = tangent_frame(s)
        h = Element(quaternions, basis @ rng.standard_normal(basis.shape[1]))
        sh = s.element * h
        left = quaternions.left_matrix_vec(sh.coeffs)
        skew = left.T @ G.scaled + G.scaled @ left  # L^T G_hat + G_hat L
        assert np.linalg.norm(skew) <= 1e-10 * (1 + h.norm())


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


@pytest.mark.parametrize("pq", [(0, 6), (3, 3)], ids=["Cl(0,6)", "Cl(3,3)"])
def test_cone_verdict_is_the_pair_of_g_identities(pq):
    """x = 0.7*1 at tol 1e-16 passes both G-identities, so it is in the cone
    and real; alpha^2 - beta^2 >= 0 in exact arithmetic, and its rounding
    (here -2.2e-16) is no verdict of its own."""
    alg = clifford_algebra(*pq)
    x, G = alg.scalar(0.7), _std(alg)
    assert all(ok for _, _, ok in orthogonal._g_identities(
        alg.left_matrix_vec(x.coeffs), G, tol=1e-16))
    dec = cone_decompose(x, G, tol=1e-16)
    assert dec is not None and dec.root is None
    assert abs(dec.beta - 0.7) <= 1e-15


def test_cone_rejects_x_that_fails_only_the_second_identity(cl03):
    """Cl(0,3)'s pseudoscalar w = e123 is central with w*w = 1, so L_w is a
    symmetric signed permutation: L_w^T L_w = 1 holds, L_w^T + L_w = 2 L_w is
    no multiple of 1, and w is outside the cone."""
    w, G = cl03.basis_element(cl03.labels.index("e123")), _std(cl03)
    first, second = orthogonal._g_identities(cl03.left_matrix_vec(w.coeffs), G)
    assert first[2] and not second[2]
    assert cone_decompose(w, G) is None


_CONE_ALGEBRAS = {name: clifford_algebra(*pq)
                  for name, pq in (("C", (0, 1)), ("H", (0, 2)), ("Cl(0,3)", (0, 3)),
                                   ("Cl(2,2)", (2, 2)))}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_CONE_ALGEBRAS)), log_ratio=st.floats(-12.0, 0.0),
       tol=st.sampled_from([1e-9, 1e-6, 1e-3]), beta_sign=st.sampled_from([-1.0, 1.0]),
       size=st.floats(0.01, 100.0), seed=st.integers(0, 2**32 - 1))
@example(name="C", log_ratio=float(np.log10(3e-5 / np.hypot(2.0, 3e-5))), tol=1e-9,
         beta_sign=1.0, size=float(np.hypot(2.0, 3e-5)), seed=1)  # 2 + 3e-5 s
@example(name="C", log_ratio=float(np.log10(1e-5 / np.hypot(2.0, 1e-5))), tol=1e-9,
         beta_sign=1.0, size=float(np.hypot(2.0, 1e-5)), seed=1)  # 2 + 1e-5 s
def test_cone_calls_x_real_only_when_x_is_its_real_part(name, log_ratio, tol, beta_sign,
                                                        size, seed):
    """x = beta + gamma s with s from sample_S0 under the standard G (so
    ||s|| = ||1|| = 1) and gamma / ||x|| = 10^log_ratio: cone_decompose either
    calls x real, with x - beta*1 within tol, or returns a root that holds at
    tol, with beta + gamma s within tol of x."""
    alg = _CONE_ALGEBRAS[name]
    G = _std(alg)
    s = sample_S0(alg, G, np.random.default_rng(seed)).element
    ratio = 10.0 ** log_ratio
    x = beta_sign * size * np.sqrt(1.0 - ratio ** 2) * alg.unit() + size * ratio * s
    dec = cone_decompose(x, G, tol)
    assert dec is not None
    real = dec.beta * alg.unit()
    if dec.root is None:
        assert within_tol((x - real).norm(), x.norm() + real.norm(), tol)
    else:
        assert dec.root.holds(tol)
        rebuilt = real + dec.gamma * dec.root.element
        assert within_tol((x - rebuilt).norm(), x.norm() + rebuilt.norm(), tol)


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
        assert verdict.search.status == "found"
        if verdict.agree:
            agree += 1
        assert verdict.search.witness.holds()
        assert is_in_S0(verdict.search.witness.root.element, G)
    assert agree == 100


def test_z0_equivalence_non_members(quaternions, rng):
    G = _std(quaternions)
    z = quaternions.zero()
    zero = z0_equivalence_check(ComplexElement(z, z), G, rng=rng)
    assert zero.residual_member and zero.search.status == "found" and zero.agree

    one = z0_equivalence_check(
        ComplexElement(quaternions.unit(), quaternions.zero()), G, rng=rng)
    assert not one.residual_member
    assert one.search.status == "absent"
    assert one.agree

    for _ in range(50):
        w = ComplexElement(quaternions.random_element(rng),
                           quaternions.random_element(rng))
        verdict = z0_equivalence_check(w, G, rng=rng)
        assert verdict.agree is None or verdict.agree


# Cl(p,q) with p >= 1, whose e1 squares to +1, so that A (1 + e1) is a proper ideal
_SPLIT_ALGEBRAS = {pq: clifford_algebra(*pq)
                   for pq in ((1, 1), (2, 0), (1, 2), (2, 2), (3, 1), (2, 3), (3, 3))}


@settings(max_examples=40, deadline=None)
@given(pq=st.sampled_from(sorted(_SPLIT_ALGEBRAS)), seed=st.integers(0, 2 ** 32 - 1),
       member=st.booleans(), right=st.booleans())
def test_z0_is_decided_with_a_zerodivisor_im_part(pq, seed, member, right):
    """With b = (1 + e1) r or r (1 + e1), a zerodivisor: a member a = -s*b,
    s in S0, is "found" with a witness in S0, and a non-member a, b in
    A (1 + e1) that z0_residual puts outside Z0 is "absent"."""
    alg = _SPLIT_ALGEBRAS[pq]
    G = _std(alg)
    rng = np.random.default_rng(seed)
    one_plus_e1 = alg.unit() + alg.basis_element(1)
    r = alg.random_element(rng)
    if not member:
        verdict = z0_equivalence_check(ComplexElement(
            alg.random_element(rng) * one_plus_e1, r * one_plus_e1), G, rng=rng)
        assert verdict.residual_member or (verdict.search.status == "absent" and verdict.agree)
        return
    b = r * one_plus_e1 if right else one_plus_e1 * r
    s = sample_S0(alg, G, rng)
    verdict = z0_equivalence_check(ComplexElement(-(s.element * b), b), G, rng=rng)
    assert verdict.residual_member
    assert verdict.search.status == "found"
    assert verdict.search.witness.holds()
    assert is_in_S0(verdict.search.witness.root.element, G)


@settings(max_examples=40, deadline=None)
@given(pq=st.sampled_from([(1, 2), (2, 2), (3, 1), (2, 3), (3, 3)]),
       seed=st.integers(0, 2 ** 32 - 1), log_eps=st.floats(-7.0, -3.0),
       delta=st.sampled_from([1e-7, 1e-6, 1e-5]))
def test_z0_finds_a_member_whose_b_is_near_a_zerodivisor(pq, seed, log_eps, delta):
    """b = (1 + e1) r + eps r', near the zerodivisor (1 + e1) r, and a =
    -(s + delta d) b, s in S0 and d = span @ v for v the last right singular
    vector of R_b @ span (span: A0): s*b = -a is solved in A0 by s + delta d,
    a near-root in the band, and s, kept only where it is a witness at tol,
    lies within delta of it.  The band rule's joint Newton inside A0
    finds a witness in S0.  (On Cl(1,1) and Cl(2,0) s is never a witness.)"""
    alg = _SPLIT_ALGEBRAS[pq]
    G = _std(alg)
    rng = np.random.default_rng(seed)
    s = sample_S0(alg, G, rng)
    b = ((alg.unit() + alg.basis_element(1)) * alg.random_element(rng)
         + 10.0 ** log_eps * alg.random_element(rng))
    span = antisymmetric_subspace(alg, G)
    d = alg.element(span @ np.linalg.svd(alg.right_matrix_vec(b.coeffs) @ span)[2][-1])
    w = ComplexElement(-((s.element + delta * d) * b), b)
    assume(ZeroWitness(w, s).holds())
    verdict = z0_equivalence_check(w, G, rng=rng)
    assert verdict.search.status == "found" and verdict.agree
    assert is_in_S0(verdict.search.witness.root.element, G)


def test_z0_without_an_antisymmetric_subspace_is_absent():
    """Cl(1,0) = R + R: A0 is {0}, so S0 is empty and even w = 0 is no member."""
    alg = clifford_algebra(1, 0)
    G = _std(alg)
    assert antisymmetric_subspace(alg, G).shape == (2, 0)
    verdict = z0_equivalence_check(ComplexElement(alg.zero(), alg.zero()), G)
    assert verdict.search.status == "absent"
    assert verdict.search.witness is None


def test_antisymmetric_subspace_is_the_array_kept_on_G(quaternions):
    """A0 comes back as the read-only (N, m) array that G keeps, the same
    object on every call."""
    G = _std(quaternions)
    span = antisymmetric_subspace(quaternions, G)
    assert isinstance(span, np.ndarray) and span.shape == (4, 3)
    assert not span.flags.writeable
    assert antisymmetric_subspace(quaternions, G) is span


_ILL_CONDITIONED = {}  # (p, q) -> (algebra, standard G, seed root), kept across examples


def _near_zerodivisor_right(alg, rng):
    """R_b for b = (1 + e1) r + 1e-3 r', near the zerodivisor (1 + e1) r."""
    b = (alg.unit() + alg.basis_element(1)) * alg.random_element(rng) + 1e-3 * alg.random_element(rng)
    return alg.right_matrix_vec(b.coeffs)


def test_a_gram_past_one_over_eps_can_be_refused():
    """Cl(3,3) at seed 22303 draws b with cond(R_b^T R_b) = 1.5e17: the
    rounded product has a negative eigenvalue, and InnerProduct refuses it."""
    right = _near_zerodivisor_right(clifford_algebra(3, 3), np.random.default_rng(22303))
    gram = right.T @ right
    assert np.linalg.cond(right) ** 2 > 1e17 and np.linalg.eigvalsh(gram)[0] < 0
    with pytest.raises(ValueError, match="positive definite"):
        InnerProduct(gram)


@settings(max_examples=30, deadline=None)
@given(pq=st.sampled_from([(1, 1), (2, 2), (3, 3)]), seed=st.integers(0, 2**32 - 1))
def test_S0_under_an_ill_conditioned_gram(pq, seed):
    """G = R_b^T R_b with b = (1 + e1) r + 1e-3 r', near the zerodivisor
    (1 + e1) r: cond(G) runs from about 1e4 to 1e15, with medians 1e7 to 1e9
    over the three algebras.  A b past cond 1/eps (about one draw in a
    thousand on Cl(3,3)), whose rounded product can be indefinite, is drawn
    again: test_a_gram_past_one_over_eps_can_be_refused pins such a b.
    Every L_a commutes with R_b, so S0 under G is
    S0 under the standard G: a standard S0 root s is in S0, beta + gamma s
    decomposes in the cone, (-s y, y) solves the quadratic equations,
    sample_S0 finds a root, and a root outside S0 stays out."""
    if pq not in _ILL_CONDITIONED:
        alg = clifford_algebra(*pq)
        _ILL_CONDITIONED[pq] = alg, _std(alg), find_seed_root(alg)
    alg, standard, seed_root = _ILL_CONDITIONED[pq]
    rng = np.random.default_rng(seed)
    right = _near_zerodivisor_right(alg, rng)
    while np.linalg.cond(right) ** 2 >= 1 / np.finfo(float).eps:
        right = _near_zerodivisor_right(alg, rng)
    G = InnerProduct(right.T @ right)
    s = sample_S0(alg, standard, rng).element
    assert is_in_S0(s, G)

    beta, gamma = float(rng.standard_normal()), float(abs(rng.standard_normal()) + 0.1)
    dec = cone_decompose(beta * alg.unit() + gamma * s, G)
    assert dec is not None and dec.root is not None
    assert abs(dec.beta - beta) <= 1e-7 * (1 + abs(beta) + gamma)
    assert abs(dec.gamma - gamma) <= 1e-7 * (1 + abs(beta) + gamma)
    assert (dec.root.element - s).norm() <= 1e-6

    y = alg.random_element(rng)
    assert z0_equivalence_check(ComplexElement(-(s * y), y), G, rng=rng).residual_member

    drawn = sample_S0(alg, G, rng)
    assert drawn.holds() and is_in_S0(drawn.element, standard)

    outside = sample_root(seed_root, rng)
    while is_in_S0(outside.element, standard):
        outside = sample_root(seed_root, rng)
    assert not is_in_S0(outside.element, G)


def test_a_gram_scaled_by_a_power_of_ten_keeps_the_verdicts():
    """G = 10^k I for k = +-300, 308 and -320 (subnormal) gives the standard
    G's verdicts on Cl(2,2), with every warning raised as an error: G_hat is
    the same matrix up to a factor in [1, 2), so no term over- or underflows."""
    alg = clifford_algebra(2, 2)
    standard = _std(alg)
    rng = np.random.default_rng(6)
    root = sample_S0(alg, standard, rng)
    skew = sample_root(find_seed_root(alg), rng)
    s, outside = root.element, skew.element
    y = alg.random_element(rng)
    cases = [s, outside, 0.5 * alg.unit() + 2.0 * s, alg.random_element(rng)]
    pairs = [ComplexElement(-(s * y), y), ComplexElement(y, alg.random_element(rng))]

    def verdicts(G):
        return ([is_in_S0(x, G) for x in cases],
                [None if d is None else (d.root is None, round(d.beta, 6), round(d.gamma, 6))
                 for d in (cone_decompose(x, G) for x in cases)],
                [z0_equivalence_check(w, G).residual_member for w in pairs],
                [orthogonality_characterization(r, G).passed for r in (root, skew)],
                is_in_S0(sample_S0(alg, G).element, standard))

    expect = verdicts(standard)
    assert expect[0][:2] == expect[3] == [True, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (300, -300, 308, -320):
            G = InnerProduct(10.0 ** k * np.eye(alg.dimension))
            assert verdicts(G) == expect
            assert antisymmetric_subspace(alg, G).shape == antisymmetric_subspace(
                alg, standard).shape
