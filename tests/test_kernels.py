"""The structure-tensor kernels against the dense einsum definitions: the
gather tables of signed-permutation algebras and the dense (N, N^2) path."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import einsum_reference as ref
import oracle_quaternion as oq
from slicealgebra import (
    Algebra,
    NonAssociativeError,
    clifford_algebra,
    make_algebra,
)

SIGNATURES = [(p, q) for n in range(6) for p in range(n + 1) for q in (n - p,)]


def _labels(n):
    return tuple(f"b{i}" for i in range(n))


CLIFFORD = {sig: clifford_algebra(*sig) for sig in SIGNATURES + [(0, 6), (3, 3)]}
DENSE = make_algebra(ref.rotated(CLIFFORD[2, 3].structure_constants,
                                 ref.rotation(32, np.random.default_rng(11))))
KERNEL_CASES = [CLIFFORD[sig] for sig in SIGNATURES + [(3, 3)]] + [DENSE]


def _vectors(n, count):
    return hnp.arrays(float, (count, n), elements=st.floats(-100.0, 100.0))


@pytest.mark.parametrize("alg", KERNEL_CASES, ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_kernels_match_einsum(alg, data):
    c = alg.structure_constants
    x, y = data.draw(_vectors(alg.dimension, 2))
    scale = 1e-12 * (1.0 + np.linalg.norm(x)) * (1.0 + np.linalg.norm(y))
    assert np.allclose(alg.multiply_vec(x, y), ref.multiply(c, x, y),
                       rtol=1e-12, atol=scale)
    left, right = alg.left_matrix_vec(x), alg.right_matrix_vec(x)
    if alg._product_table is not None:
        # one product per entry: the gather is the einsum, bit for bit
        assert np.array_equal(left, ref.left_matrix(c, x))
        assert np.array_equal(right, ref.right_matrix(c, x))
    else:
        atol = 1e-12 * (1.0 + np.linalg.norm(x))
        assert np.allclose(left, ref.left_matrix(c, x), rtol=1e-12, atol=atol)
        assert np.allclose(right, ref.right_matrix(c, x), rtol=1e-12, atol=atol)


OPPOSITE = {alg: make_algebra(alg.structure_constants.transpose(1, 0, 2))
            for alg in KERNEL_CASES}


@pytest.mark.parametrize("alg", KERNEL_CASES, ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_right_operator_is_left_operator_of_the_opposite_algebra(alg, data):
    """R_a is L_a of the algebra with the two factor indices of c swapped,
    bit for bit, on both kernel kinds."""
    opposite = OPPOSITE[alg]
    assert (opposite._product_table is None) == (alg._product_table is None)
    a = data.draw(_vectors(alg.dimension, 1))[0]
    assert np.array_equal(alg.right_matrix_vec(a), opposite.left_matrix_vec(a))


@pytest.mark.parametrize("alg", KERNEL_CASES, ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_product_is_left_operator_times_vector(alg, data):
    """x*y is L_x @ y, bit for bit, on both kernel kinds."""
    x, y = data.draw(_vectors(alg.dimension, 2))
    assert np.array_equal(alg.multiply_vec(x, y), alg.left_matrix_vec(x) @ y)


def test_kernel_choice_follows_the_tensor():
    assert all(CLIFFORD[sig]._product_table is not None for sig in CLIFFORD)
    assert DENSE._product_table is None


@settings(max_examples=60, deadline=None)
@given(pq=_vectors(4, 2))
def test_quaternion_multiply_matches_oracle(quaternions, pq):
    p, q = pq
    got = (quaternions.element(p) * quaternions.element(q)).coeffs
    assert np.allclose(got, oq.qmul(p, q), rtol=1e-12,
                       atol=1e-12 * (1.0 + np.linalg.norm(p)) * (1.0 + np.linalg.norm(q)))


@settings(max_examples=40, deadline=None)
@given(sig=st.sampled_from(SIGNATURES), data=st.data())
def test_associativity_residual_is_the_einsum_on_tables(sig, data):
    """Rescaled bases and flipped signs keep one product per slice, so the
    table comparison must return the einsum value exactly."""
    c = CLIFFORD[sig].structure_constants
    n = c.shape[0]
    lam = data.draw(hnp.arrays(float, n, elements=st.floats(0.25, 4.0)))
    c = c * lam[:, None, None] * lam[None, :, None] / lam[None, None, :]
    flips = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=3))
    for i, j in flips:
        c[i, j] = -c[i, j]
    alg = Algebra(c, 0, _labels(n))
    assert alg._product_table is not None
    assert alg.associativity_residual == ref.associativity_residual(c)


def _swap_products(c, idx, i1, j1, j2):
    """Swap the products e_i1 e_j1 and e_i1 e_j2, and those of the i2 with
    e_i2 e_j1 = e_i1 e_j2: the targets move, yet both still permute."""
    i2 = int(np.flatnonzero(idx[:, j1] == idx[i1, j2])[0])
    assert idx[i2, j2] == idx[i1, j1]  # an abelian table: the four form a 2 x 2 square
    for i in (i1, i2):
        c[i, [j1, j2]] = c[i, [j2, j1]]


@pytest.mark.parametrize("sig", [(0, 6), (3, 3)], ids=["Cl(0,6)", "Cl(3,3)"])
@pytest.mark.parametrize("change", ["flipped", "swapped", "moved"])
def test_n64_associativity_residual_is_the_einsum(sig, change):
    """At N = 64 one sign flipped or a square of products swapped keeps the
    table path, one index moved takes the dense path; either way the
    residual is the einsum's, bit for bit."""
    c = CLIFFORD[sig].structure_constants.copy()
    rng = np.random.default_rng(sum(sig) + len(change))
    i, j, k = rng.integers(1, 64, size=3)
    if change == "flipped":
        c[i, j] = -c[i, j]
    elif change == "swapped":
        _swap_products(c, CLIFFORD[sig]._product_table[0], i, j, k)
    else:
        c[i, j] = np.roll(c[i, j], 1)
    alg = Algebra(c, 0, _labels(64))
    assert (alg._product_table is None) == (change == "moved")
    assert alg.associativity_residual == ref.associativity_residual(c) > 0.0


def test_table_residual_takes_o_n2_memory_a_row():
    """At N = 64 the table path never holds an N^3 temporary (2 MiB)."""
    alg = Algebra(CLIFFORD[3, 3].structure_constants, 0, _labels(64))  # not yet checked
    tracemalloc.start()
    try:
        assert alg.associativity_residual == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_flipped_sign_is_rejected():
    c = CLIFFORD[0, 3].structure_constants.copy()
    c[3, 3] = -c[3, 3]  # e3 e3 = +1 breaks e1 e2 e3 relations
    residual = Algebra(c, 0, _labels(8)).associativity_residual
    assert residual == ref.associativity_residual(c) > 0.0
    with pytest.raises(NonAssociativeError):
        make_algebra(c)


def test_quaternions_in_a_diagonal_basis_load():
    """H in the basis 1, 1100 e1, 1300 e2, 700 e12 is exactly H: its largest
    associator entry, about 1.2e-7, is rounding against products up to 1.7e6,
    and the check compares it with their size, not with tol itself."""
    H = clifford_algebra(0, 2)
    c = ref.rebased(H.structure_constants, np.diag([1.0, 1100.0, 1300.0, 700.0]))
    alg = make_algebra(c, labels=H.labels)
    assert np.array_equal(alg.structure_constants, c)
    assert alg.associativity_residual == Algebra(c, 0, H.labels).associativity_residual > 1e-8


@pytest.mark.parametrize("alg", [CLIFFORD[0, 6], CLIFFORD[3, 3], DENSE], ids=repr)
def test_an_entry_off_by_a_millionth_is_rejected(alg):
    """One structure constant off by 1e-6 of the largest: rejected at the
    default tol, on the table path (the entry scaled) and on the dense one."""
    c = alg.structure_constants.copy()
    i, j = 5, 9
    k = int(np.argmax(np.abs(c[i, j])))
    c[i, j, k] += 1e-6 * np.abs(c).max()
    assert (Algebra(c, 0, alg.labels)._product_table is None) == (alg is DENSE)
    with pytest.raises(NonAssociativeError):
        make_algebra(c, labels=alg.labels)


@pytest.mark.parametrize("alg", [CLIFFORD[sig] for sig in SIGNATURES], ids=repr)
def test_clifford_tables_are_associative(alg):
    assert alg.associativity_residual == 0.0


def test_dense_associativity_matches_einsum(rng):
    assert DENSE.associativity_residual == pytest.approx(
        ref.associativity_residual(DENSE.structure_constants), abs=1e-14)
    c = DENSE.structure_constants + 1e-3 * rng.standard_normal(DENSE.structure_constants.shape)
    got = Algebra(c, 0, DENSE.labels).associativity_residual
    assert got == pytest.approx(ref.associativity_residual(c), abs=1e-13)


def _split_idempotent():
    c = np.zeros((2, 2, 2))  # 1, e with e*e = e: one product per slice, not a permutation
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = c[1, 1, 1] = 1.0
    return c


@pytest.mark.parametrize("c", [ref.dual_numbers(np.ones((1, 1, 1))), _split_idempotent()],
                         ids=["dual-numbers", "idempotent"])
def test_degenerate_products_take_the_dense_path(c, rng):
    alg = make_algebra(c)
    assert alg._product_table is None
    assert alg.associativity_residual == ref.associativity_residual(c) == 0.0
    for _ in range(10):
        x, y = rng.standard_normal((2, 2))
        assert np.allclose(alg.multiply_vec(x, y), ref.multiply(c, x, y), atol=1e-14)
        assert np.allclose(alg.left_matrix_vec(x), ref.left_matrix(c, x), atol=1e-14)
        assert np.allclose(alg.right_matrix_vec(x), ref.right_matrix(c, x), atol=1e-14)
