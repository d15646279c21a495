"""Complexified pairs, the evaluation map, witness search, absorption and
the discrete zero scan."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import einsum_reference as ref
import oracle_quaternion as oq
from conftest import elements_close, root_from
from slicealgebra import (
    ComplexElement,
    PreconditionFailedError,
    RootOfMinusOne,
    SliceAlgebraError,
    ZeroWitness,
    clifford_algebra,
    discrete_zero_scan,
    find_seed_root,
    inverse,
    is_zerodivisor,
    leaf_membership,
    left_absorption,
    make_algebra,
    pi_eval,
    pi_tensor_eval,
    right_absorption,
    sample_root,
    stem_from_slice_poly,
    tau_involution,
    zero_variety_witness,
)
from slicealgebra import zerovariety
from slicealgebra.cli import run_suite


def test_pi_eval_values(quaternions, rng):
    j = root_from(quaternions, oq.J)
    assert elements_close(pi_eval(1j, j), quaternions.basis_element(2))
    i = root_from(quaternions, oq.I)
    got = pi_eval(2 + 3j, i)
    assert np.allclose(got.coeffs, [2.0, 3.0, 0.0, 0.0])
    # real z ignores the root
    s = sample_root(find_seed_root(quaternions), rng)
    assert elements_close(pi_eval(1.5, s), quaternions.scalar(1.5))


def test_pi_tensor_eval_against_oracle(quaternions):
    """pi((1, i), s) for s = i and s = j, pinned by Hamilton products."""
    w = ComplexElement(quaternions.unit(), quaternions.element(oq.I))
    i, j = root_from(quaternions, oq.I), root_from(quaternions, oq.J)
    assert pi_tensor_eval(w, i).norm() <= 1e-12
    expect = oq.ONE + oq.qmul(oq.J, oq.I)  # 1 - k
    assert np.allclose(pi_tensor_eval(w, j).coeffs, expect, atol=1e-12)
    assert np.allclose(expect, [1.0, 0.0, 0.0, -1.0])


def test_pi_tensor_constant_part(quaternions, rng):
    a = quaternions.random_element(rng)
    w = ComplexElement(a, quaternions.zero())
    for _ in range(5):
        s = sample_root(find_seed_root(quaternions), rng)
        assert elements_close(pi_tensor_eval(w, s), a)


def test_tau_equivariance(quaternions, rng):
    seed = find_seed_root(quaternions)
    for _ in range(20):
        w = ComplexElement(quaternions.random_element(rng),
                           quaternions.random_element(rng))
        s = sample_root(seed, rng)
        wt, st = tau_involution(w, s)
        gap = (pi_tensor_eval(wt, st) - pi_tensor_eval(w, s)).norm()
        assert gap <= 1e-12 * (1 + w.norm())


def test_witness_exact_branch(quaternions):
    w = ComplexElement(quaternions.unit(), quaternions.element(oq.I))
    found = zero_variety_witness(w)
    assert found.status == "found"
    assert np.allclose(found.witness.root.element.coeffs, oq.I, atol=1e-12)

    nothing = zero_variety_witness(
        ComplexElement(quaternions.unit(), quaternions.zero()))
    assert nothing.status == "absent"


def test_witness_constructed_members(quaternions, rng):
    j = root_from(quaternions, oq.J)
    for _ in range(50):
        q = quaternions.random_element(rng)
        if q.norm() < 1e-6:
            continue
        w = ComplexElement(-(j.element * q), q)  # a = -j b, so j is a witness
        res = zero_variety_witness(w)
        assert res.status == "found"
        assert pi_tensor_eval(w, res.witness.root).norm() <= 1e-8 * (1 + w.norm())


_quaternion = hnp.arrays(float, 4, elements=st.floats(-10.0, 10.0))


def _oracle_witness_holds(a, b, s) -> bool:
    """The tolerance rule on s*s + 1 and a + s*b, in oracle arithmetic."""
    ns = np.linalg.norm(s)
    return (np.linalg.norm(oq.qmul(s, s) + oq.ONE) <= 1e-9 * (1.0 + ns) ** 2
            and np.linalg.norm(oq.pi_pair(a, b, s))
            <= 1e-9 * (np.linalg.norm(a) + ns * np.linalg.norm(b)))


@settings(max_examples=80, deadline=None)
@given(a=_quaternion, b=_quaternion, member=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-6.0, 6.0))
def test_exact_verdict_against_oracle(quaternions, a, b, member, seed, exponent):
    """Invertible b: no "absent" input has a witness at tol, every "found"
    root squares to -1 and annihilates w, and every member is found.  The
    verdict on lam*w, lam in [1e-6, 1e6], is the verdict on w."""
    if np.linalg.norm(b) < 0.1:
        b = b + oq.ONE
    if member:
        a = -oq.qmul(oq.random_root(np.random.default_rng(seed)), b)
    lam = 10.0 ** exponent
    verdicts = []
    for pa, pb in ((a, b), (lam * a, lam * b)):
        res = zero_variety_witness(ComplexElement(quaternions.element(pa),
                                                  quaternions.element(pb)))
        verdicts.append(res.status)
        if res.status == "found":
            assert _oracle_witness_holds(pa, pb, res.witness.root.element.coeffs)
    assert verdicts[0] == verdicts[1]
    if verdicts[0] != "found":
        assert not member and verdicts[0] == "absent"
        cand = -oq.qmul(a, oq.qinv(b))  # the only s with a + s b = 0
        ncand = np.linalg.norm(cand)
        defect = np.linalg.norm(oq.qmul(cand, cand) + oq.ONE)
        # outside the band [tol, sqrt(tol)] the margin is wide
        assert defect > 1e-6 or defect <= np.sqrt(1e-9) * (1.0 + ncand) ** 2
        # every witness at tol lies within r of cand (||x y|| = ||x|| ||y||),
        # where s*s + 1 moves by at most 2 ||cand|| r + r^2
        r = 1e-9 * (np.linalg.norm(a) / np.linalg.norm(b) + ncand) / (1.0 - 1e-9)
        assert defect - 2.0 * ncand * r - r * r > 1e-9 * (1.0 + ncand + r) ** 2


def _witness_holds_in_einsum(w, root, tol=1e-9):
    """The tolerance rule on s*s + 1 and a + s*b, in einsum arithmetic."""
    c = w.algebra.structure_constants
    ns = np.linalg.norm(root)
    square = ref.multiply(c, root, root) + w.algebra.unit().coeffs
    pi = w.re.coeffs + ref.multiply(c, root, w.im.coeffs)
    return (np.linalg.norm(square) <= tol * (1.0 + ns) ** 2
            and np.linalg.norm(pi) <= tol * (w.re.norm() + ns * w.im.norm()))


@pytest.mark.parametrize("seed", range(3))
def test_member_with_a_large_root_is_found(seed):
    """s = e3 + 1e4 (e1 + e4) on clifford(2,2) squares to -1 (e1 + e4 is
    nilpotent and anticommutes with e3) and has norm 1.4e4.  With the
    zerodivisor b = (1 + e1) r, the Newton path reaches roots of that norm
    at ||s*s + 1|| of 1e-8 to 1e-7, the rounding level of s*s, which passes
    only against the size (1 + ||s||)^2 of its terms."""
    alg = clifford_algebra(2, 2)
    e = {label: alg.basis_element(i) for i, label in enumerate(alg.labels)}
    s = e["e3"] + 1e4 * (e["e1"] + e["e4"])
    b = (alg.unit() + e["e1"]) * alg.random_element(np.random.default_rng(seed))
    w = ComplexElement(-(s * b), b)
    res = zero_variety_witness(w)
    assert res.status == "found"
    assert _witness_holds_in_einsum(w, res.witness.root.element.coeffs)


def test_ill_conditioned_absorption_products_are_found():
    """Left absorption on clifford(2,1) produces members whose b has R_b
    condition 3e3 to 6e4 and whose solution -a b^-1 has norm up to 2e3:
    trials 45, 88 and 90 of this run once came back "absent"."""
    report = run_suite("absorption", clifford_algebra(2, 1), "clifford(2,1)",
                       trials=100, seed=7, tol=1e-9)
    failed = {f["input"].split(":")[0] for f in report.failures}
    assert not failed & {"trial 45", "trial 88", "trial 90"}


def test_ill_conditioned_members_are_never_absent():
    """b = (1 + e1) r1 + 1e-7 r2 on clifford(2,2) has R_b of condition 2e7
    to 2e9 (the zerodivisor test takes those above 1e8), so -a b^-1 misses
    S by about cond * eps.  The joint Newton on s*s + 1 and a + s*b finds
    every one.  k = 1, 2, 3, 5, 9, 10 and 13 were once reported "absent",
    and 13 of the 20 "inconclusive" when a polish replaced the joint Newton."""
    alg = clifford_algebra(2, 2)
    zerodivisor = alg.unit() + alg.basis_element(1)  # e1 squares to +1
    statuses = []
    for k in range(20):
        rng = np.random.default_rng(k)
        s = sample_root(find_seed_root(alg), rng)
        b = zerodivisor * alg.random_element(rng) + 1e-7 * alg.random_element(rng)
        statuses.append(zero_variety_witness(ComplexElement(-(s.element * b), b)).status)
    assert statuses == ["found"] * 20, statuses


_NEAR_ZERODIVISOR_ALGEBRAS = {pq: clifford_algebra(*pq) for pq in ((1, 1), (2, 1), (2, 2))}


@settings(max_examples=60, deadline=None)
@given(pq=st.sampled_from(sorted(_NEAR_ZERODIVISOR_ALGEBRAS)),
       seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-10.0, -5.0))
@example(pq=(1, 1), seed=15293, exponent=-10.0)
@example(pq=(1, 1), seed=818, exponent=-10.0)
@example(pq=(1, 1), seed=1278, exponent=-10.0)
@example(pq=(1, 1), seed=2804, exponent=-10.0)
def test_members_near_a_zerodivisor_are_found(pq, seed, exponent):
    """b = (1 + e1) r + eps r' with eps log-uniform in [1e-10, 1e-5] puts
    singular values of R_b near the rank cutoff, on either side: -a b^-1
    misses S by about cond(R_b) eps, or a truncated R_b leaves a just
    outside its range.  Every member w = (-s b, b) is found, and its
    witness holds in einsum arithmetic.  Such members were once reported
    "inconclusive", and some "absent".  The examples have cond(R_b) 3e10
    to 2e11, past the cutoff: the kernel Newton on the truncated solution
    set finds no root, and they were "inconclusive" until LU's -a b^-1,
    which LAPACK still computes, became the first candidate."""
    alg = _NEAR_ZERODIVISOR_ALGEBRAS[pq]
    rng = np.random.default_rng(seed)
    s = sample_root(find_seed_root(alg), rng)
    b = ((alg.unit() + alg.basis_element(1)) * alg.random_element(rng)
         + 10.0 ** exponent * alg.random_element(rng))
    w = ComplexElement(-(s.element * b), b)
    res = zero_variety_witness(w)
    assert res.status == "found"
    assert _witness_holds_in_einsum(w, res.witness.root.element.coeffs)


@pytest.mark.parametrize("p, q", [(0, 2), (0, 3), (2, 2), (3, 3)])
def test_an_invertible_member_is_found_by_lu_alone(monkeypatch, p, q):
    """For an invertible b, the LU candidate -a*b^{-1} of a member holds at
    tol and is its own proof: the search decides no rank (no SVD, so no
    zerodivisor test) and returns the witness of that candidate, bit for bit."""
    alg = clifford_algebra(p, q)
    rng = np.random.default_rng(p + 10 * q)
    seed = find_seed_root(alg)
    members = []
    for _ in range(5):
        s, b = sample_root(seed, rng), alg.random_element(rng)
        w = ComplexElement(-(s.element * b), b)
        members.append((w, np.linalg.solve(alg.right_matrix_vec(b.coeffs), -w.re.coeffs)))
    svds = []

    def counted(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", counted)
    for w, lu in members:
        res = zero_variety_witness(w)
        assert res.status == "found"
        assert res.witness.root.element.coeffs.tobytes() == lu.tobytes()
    assert svds == []


@contextmanager
def _recorded_svds():
    """Record (matrix, compute_uv) of every direct np.linalg.svd call."""
    calls, svd = [], np.linalg.svd

    def recorded(m, *args, **kwargs):
        calls.append((np.array(m), kwargs.get("compute_uv", True)))
        return svd(m, *args, **kwargs)

    with mock.patch.object(np.linalg, "svd", recorded):
        yield calls


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_a_zero_pivot_member_needs_no_zerodivisor_test(seed):
    """b = (1 + e1) r on clifford(1,1): LU on R_b hits an exact zero pivot,
    which already shows b singular, so the search takes no values-only SVD
    to decide invertibility: its first SVD is the full one of R_b that gives
    the solution set, and it still finds the member (-s b, b)."""
    alg = clifford_algebra(1, 1)
    rng = np.random.default_rng(seed)
    s = sample_root(find_seed_root(alg), rng)
    b = (alg.unit() + alg.basis_element(1)) * alg.random_element(rng)
    rb = alg.right_matrix_vec(b.coeffs)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(rb, np.ones(alg.dimension))
    w = ComplexElement(-(s.element * b), b)
    with _recorded_svds() as calls:
        res = zero_variety_witness(w, rng=rng)
    assert res.status == "found"
    assert _witness_holds_in_einsum(w, res.witness.root.element.coeffs)
    assert calls and np.array_equal(calls[0][0], rb)
    assert all(uv for _, uv in calls)


@pytest.mark.parametrize("gap", [1e-11, 1e-9, 1e-8, 1e-6, 1e-5])
def test_a_near_miss_with_a_well_conditioned_b_is_decided(quaternions, gap):
    """a = (1 - gap) i, b = 1: the only solution s = -(1 - gap) i has defect
    2 gap - gap^2, so the defect lies in the band [tol, sqrt(tol)] (relative
    to (1 + ||s||)^2) for gap 1e-8 to 1e-5.  R_b = 1 keeps every witness
    within about tol of s, so the verdict is exact: "found" when the
    oracle's s is a root at tol, else "absent" (once "inconclusive").  The
    band's verdict takes one SVD, values only, of R_b: its sigma_min both
    shows b invertible and bounds the distance (once two, L_b's and R_b's)."""
    a = (1.0 - gap) * oq.I
    s = -a  # the solution of a + s*1 = 0
    member = np.linalg.norm(oq.qmul(s, s) + oq.ONE) <= 1e-9 * (1.0 + np.linalg.norm(s)) ** 2
    with _recorded_svds() as calls:
        res = zero_variety_witness(ComplexElement(quaternions.element(a), quaternions.unit()))
    assert res.status == ("found" if member else "absent")
    in_band = 1e-8 <= gap <= 1e-5
    assert [uv for _, uv in calls] == ([False] if in_band else [])
    assert all(np.array_equal(m, np.eye(4)) for m, _ in calls)  # R_1


def _clifford_one_plus_e1(p: int, q: int):
    """clifford(p, q) and its 1 + e1."""
    alg = clifford_algebra(p, q)
    return alg, alg.unit() + alg.basis_element(1)


def _dense_cl23_one_plus_e1(seed: int):
    """The benchmark's dense Cl(2,3), drawn as bench/workloads.py draws it
    (from default_rng([seed, 0xDE45E])), and its image of 1 + e1."""
    cl23, e = _clifford_one_plus_e1(2, 3)
    basis = ref.rotation(32, np.random.default_rng([seed, 0xDE45E]))
    alg = make_algebra(ref.rotated(cl23.structure_constants, basis))
    return alg, alg.element(basis.T @ e.coeffs)


# name: (p, the algebra and its 1 + e1)
_VERDICT_ALGEBRAS = {**{f"Cl({p},{q})": (p, _clifford_one_plus_e1(p, q))
                        for p in range(5) for q in range(5) if 1 <= p + q <= 4},
                     **{f"dense Cl(2,3) seed {k}": (2, _dense_cl23_one_plus_e1(k))
                        for k in (0, 1)}}


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(_VERDICT_ALGEBRAS)), seed=st.integers(0, 2 ** 32 - 1),
       one_plus_e1=st.booleans())
def test_the_search_decides_invertibility_as_is_zerodivisor(name, seed, one_plus_e1):
    """The witness search reads b's invertibility off the singular values of
    R_b, and that verdict is is_zerodivisor's on L_b: for random b, and for
    b = (1 + e1) r, a zerodivisor exactly when e1 squares to +1 (p >= 1).
    The search shows its verdict by whether, once LU's candidate for a
    random a fails, it goes on to the full SVD of R_b."""
    p, (alg, e) = _VERDICT_ALGEBRAS[name]
    rng = np.random.default_rng(seed)
    b = alg.random_element(rng)
    b = e * b if one_plus_e1 else b
    rb = alg.right_matrix_vec(b.coeffs)
    w = ComplexElement(alg.random_element(rng), b)
    with _recorded_svds() as calls:
        zero_variety_witness(w, rng=rng)
    singular = any(uv and np.array_equal(m, rb) for m, uv in calls)
    assert singular == is_zerodivisor(b) == (one_plus_e1 and p >= 1)


def test_absence_in_the_band_keeps_the_second_order_term(cl11):
    """b = 1 + (1 - 1e-4) e1 has sigma_min(R_b) = 1e-4, so a witness at tol
    may lie r = 2.8e-5 from the solution s = lam e2 of a + s*b = 0.  The
    defect lam^2 - 1 of s clears the first-order bound ||L_s + R_s|| r +
    tol (1 + ||s|| + r)^2 (||L_s + R_s|| = 2 lam) by less than mu r^2,
    mu = sqrt(2) the largest ||x*y|| / (||x|| ||y||) on clifford(1,1): no
    witness is ruled out, so the verdict may not be "absent"."""
    lam, delta = 1.0000282869, 1e-4
    b = cl11.unit() + (1.0 - delta) * cl11.basis_element(1)
    s = lam * cl11.basis_element(2)  # e2 squares to -1
    r = 1e-9 * 2.0 * lam * b.norm() / (delta - 1e-9 * b.norm())
    margin = lam ** 2 - 1.0 - 2.0 * lam * r - 1e-9 * (1.0 + lam + r) ** 2
    assert 0.0 < margin < np.sqrt(2.0) * r * r
    assert zero_variety_witness(ComplexElement(-(s * b), b)).status != "absent"


def test_witness_zero_element(quaternions):
    z = quaternions.zero()
    res = zero_variety_witness(ComplexElement(z, z))
    assert res.status == "found"
    assert res.witness.residual == 0.0


def test_witness_zerodivisor_branch(cl11, rng):
    """clifford(1,1): b = 1 + e1 is a zerodivisor; the affine search decides
    solvable systems and reports honest verdicts."""
    b = cl11.unit() + cl11.basis_element(1)
    s = find_seed_root(cl11)  # e2 works: e2^2 = -1
    w = ComplexElement(-(s.element * b), b)
    res = zero_variety_witness(w, rng=rng)
    assert res.status == "found"
    assert res.witness.residual <= 1e-8

    # unsolvable linear system: s (1+e1) = -1 has no solution (rank drop)
    res2 = zero_variety_witness(ComplexElement(cl11.unit(), b), rng=rng)
    assert res2.status == "absent"


def test_witness_of_a_nonzero_real_part_without_roots():
    """Cl(1,0) = R + R has no root of -1, so a + s*0 = 1 has no witness."""
    alg = clifford_algebra(1, 0)
    assert zero_variety_witness(ComplexElement(alg.unit(), alg.zero())).status == "absent"


def test_zero_is_absent_where_S_is_empty():
    """w = 0 meets every root, so its witness is the seed root; on R, where
    S is empty, the seed search raises and the verdict is "absent"."""
    alg = clifford_algebra(0, 0)
    assert zero_variety_witness(ComplexElement(alg.zero(), alg.zero())).status == "absent"


@pytest.mark.parametrize("p, q", [(0, 0), (1, 0), (0, 2), (2, 2), (3, 3)])
def test_a_nonzero_real_part_is_absent_without_a_seed_search(monkeypatch, p, q):
    """pi((a, 0), s) = a for every s, so w = (a, 0) with a != 0 has no witness:
    the general path decides that exactly (LU raises on R_0, and a misses
    its range {0}), with no seed search."""
    alg = clifford_algebra(p, q)

    def refuse(*args, **kwargs):
        raise AssertionError("searched for a seed root")

    monkeypatch.setattr(zerovariety, "find_seed_root", refuse)
    for a in (alg.unit(), alg.random_element(np.random.default_rng(p + 10 * q))):
        assert zero_variety_witness(ComplexElement(a, alg.zero())).status == "absent"


def test_leaf_membership(quaternions, rng):
    """The pinned example: w = (1+j, i), target 1 -> witness -k."""
    w = ComplexElement(quaternions.element(oq.ONE + oq.J),
                       quaternions.element(oq.I))
    res = leaf_membership(w, quaternions.unit())
    assert res.status == "found"
    assert np.allclose(res.witness.root.element.coeffs, -oq.K, atol=1e-10)

    a = quaternions.random_element(rng)
    every = leaf_membership(ComplexElement(a, quaternions.zero()), a)
    assert every.status == "found"
    assert every.witness.residual <= 1e-12


def test_right_absorption_pinned(quaternions):
    """w = (1, i), wp = (j, 0): product (j, k) still killed by s = i."""
    w = ComplexElement(quaternions.unit(), quaternions.element(oq.I))
    base = zero_variety_witness(w).witness
    wp = ComplexElement(quaternions.element(oq.J), quaternions.zero())
    out = right_absorption(base, wp)
    assert np.allclose(out.w.re.coeffs, oq.J, atol=1e-12)
    assert np.allclose(out.w.im.coeffs, oq.K, atol=1e-12)
    assert out.residual <= 1e-12
    assert np.allclose(out.root.element.coeffs, base.root.element.coeffs)


def test_right_absorption_random(quaternions, cl03, rng):
    for alg in (quaternions, cl03):
        seed = find_seed_root(alg)
        for _ in range(50):
            s = sample_root(seed, rng)
            b = alg.random_element(rng)
            w = ComplexElement(-(s.element * b), b)
            base = zero_variety_witness(w, rng=rng)
            assert base.status == "found"
            wp = ComplexElement(alg.random_element(rng), alg.random_element(rng))
            out = right_absorption(base.witness, wp)
            assert out.residual <= 1e-8 * (1 + w.norm() * wp.norm())


def test_right_absorption_rejects_bad_witness(quaternions):
    fake = ZeroWitness(ComplexElement(quaternions.unit(), quaternions.zero()),
                       RootOfMinusOne.from_element(quaternions.basis_element(1)))
    z = quaternions.zero()
    with pytest.raises(PreconditionFailedError):
        right_absorption(fake, ComplexElement(z, z))


def test_absorption_measures_the_witness_root(quaternions, rng):
    """x = 0.9 e1 + 1.2 e2 has x*x + 1 = -1.25: no root, though a + x*b = 0
    exactly for a = -x*b.  Its witness measures both defects, and both
    absorptions reject it."""
    x = quaternions.element([0.0, 0.9, 1.2, 0.0])
    b = quaternions.random_element(rng)
    witness = ZeroWitness(ComplexElement(-(x * b), b), RootOfMinusOne(x))
    assert witness.residual == 0.0
    assert abs(witness.root.residual - 1.25) <= 1e-12
    wp = ComplexElement(quaternions.random_element(rng), quaternions.random_element(rng))
    with pytest.raises(PreconditionFailedError, match="root defect 1.250e"):
        right_absorption(witness, wp)
    with pytest.raises(PreconditionFailedError, match="root defect 1.250e"):
        left_absorption(witness, wp)


def test_left_absorption_pinned(quaternions):
    """w = (1, i) with witness root i, wp = (j, 0): conjugated witness -i."""
    w = ComplexElement(quaternions.unit(), quaternions.element(oq.I))
    base = zero_variety_witness(w).witness
    wp = ComplexElement(quaternions.element(oq.J), quaternions.zero())
    res = left_absorption(base, wp)
    assert res.status == "found"
    assert np.allclose(res.witness.root.element.coeffs, -oq.I, atol=1e-10)
    # oracle check on the product: wp w = (j, ji) = (j, -k)
    assert np.allclose(res.witness.w.im.coeffs, -oq.K, atol=1e-12)
    assert res.witness.residual <= 1e-12


def test_left_absorption_identity_multiplier(quaternions):
    w = ComplexElement(quaternions.unit(), quaternions.element(oq.I))
    base = zero_variety_witness(w).witness
    res = left_absorption(base, ComplexElement(quaternions.unit(),
                                               quaternions.zero()))
    assert res.status == "found"
    assert np.allclose(res.witness.root.element.coeffs,
                       base.root.element.coeffs, atol=1e-12)


def test_left_absorption_without_a_closed_form_searches(quaternions):
    """wp = 0 makes s' - ta exactly singular: there is no closed form, and
    the search on the zero product finds a witness."""
    w = ComplexElement(quaternions.unit(), quaternions.element(oq.I))
    base = zero_variety_witness(w).witness
    z = quaternions.zero()
    res = left_absorption(base, ComplexElement(z, z))
    assert res.status == "found"
    assert res.witness.w.re.norm() == res.witness.w.im.norm() == 0.0
    assert res.witness.root.holds()


def test_left_absorption_random(quaternions, rng):
    seed = find_seed_root(quaternions)
    found = 0
    for _ in range(100):
        s = sample_root(seed, rng)
        b = quaternions.random_element(rng)
        w = ComplexElement(-(s.element * b), b)
        base = zero_variety_witness(w, rng=rng)
        wp = ComplexElement(quaternions.random_element(rng),
                            quaternions.random_element(rng))
        res = left_absorption(base.witness, wp, rng=rng)
        if res.status == "found":
            found += 1
            assert res.witness.root.holds(1e-9)
            scale = 1 + res.witness.w.norm()
            assert res.witness.residual <= 1e-8 * scale
    assert found >= 99


def test_discrete_scan_sphere(quaternions):
    stem = stem_from_slice_poly([quaternions.unit(), quaternions.zero(),
                                 quaternions.unit()])
    hits = discrete_zero_scan(stem, (-2, 2, -2, 2))
    assert [h.classification for h in hits] == ["sphere", "sphere"]
    zs = sorted((h.z for h in hits), key=lambda z: z.imag)
    assert abs(zs[0] + 1j) <= 1e-8 and abs(zs[1] - 1j) <= 1e-8


def test_discrete_scan_real_roots(quaternions):
    # p(x) = x^2 - 1 -> isolated real points +-1
    stem = stem_from_slice_poly([-1.0 * quaternions.unit(), quaternions.zero(),
                                 quaternions.unit()])
    hits = discrete_zero_scan(stem, (-2, 2, -2, 2))
    assert [h.classification for h in hits] == ["real", "real"]
    assert sorted(round(h.z.real) for h in hits) == [-1, 1]
    assert all(h.z.imag == 0.0 for h in hits)


def test_discrete_scan_quadratic_oracle(quaternions):
    """p(x) = x^2 + x + 1: spherical zeros at (-1 +- i sqrt3)/2, verified by
    evaluating the polynomial at (-1 + sqrt3 s)/2 with the oracle."""
    stem = stem_from_slice_poly([quaternions.unit()] * 3)
    hits = discrete_zero_scan(stem, (-2, 2, -2, 2))
    assert len(hits) == 2
    expect = np.sqrt(3.0) / 2.0
    for h in hits:
        assert h.classification == "sphere"
        assert abs(h.z.real + 0.5) <= 1e-8
        assert abs(abs(h.z.imag) - expect) <= 1e-8

    rng = np.random.default_rng(3)
    coeffs = [oq.ONE, oq.ONE, oq.ONE]
    for _ in range(10):
        s = oq.random_root(rng)
        point = (-oq.ONE + np.sqrt(3.0) * s) / 2.0
        assert np.linalg.norm(oq.slice_poly_eval(coeffs, point)) <= 1e-12


def test_discrete_scan_tiny_low_coefficients_give_isolated_zeros(quaternions):
    """c_0 .. c_3 = 1e-9 (1, 1, 1, 1) and c_4 of size 1: the eight zeros at
    |z| ~ 6e-3 have ||F(z)|| ~ 1e-9, the size of the terms of F(z) there,
    so they are isolated, not spheres."""
    small = quaternions.element(1e-9 * np.ones(4))
    stem = stem_from_slice_poly([small] * 4 + [quaternions.element([1.0, 0.2, -0.3, 0.1])])
    hits = discrete_zero_scan(stem, (-2, 2, -2, 2))
    assert len(hits) == 8
    assert all(h.classification == "isolated" for h in hits)
    assert all(5e-3 <= abs(h.z) <= 7e-3 for h in hits)


def test_discrete_scan_with_target(quaternions):
    # solve x^2 = 1 + 0i via target: zeros of x^2 at value 1
    stem = stem_from_slice_poly([quaternions.zero(), quaternions.zero(),
                                 quaternions.unit()])
    hits = discrete_zero_scan(stem, (-2, 2, -2, 2), target=quaternions.unit())
    assert sorted(round(h.z.real) for h in hits) == [-1, 1]
    assert all(h.classification == "real" for h in hits)


def _symmetrization(coeffs):
    """Real coefficients of f * f^c for f(x) = sum x^k c_k over H."""
    sym = np.zeros(2 * len(coeffs) - 1)
    for j, cj in enumerate(coeffs):
        for k, ck in enumerate(coeffs):
            sym[j + k] += oq.qmul(cj, oq.qconj(ck))[0]
    return sym


@settings(max_examples=60, deadline=None)
@given(coeffs=st.integers(1, 5).flatmap(lambda d: hnp.arrays(
    float, (d + 1, 4), elements=st.floats(-3.0, 3.0))))
def test_scan_finds_the_symmetrization_roots(quaternions, coeffs):
    """Every zero of a quaternion polynomial lies over a root of f * f^c and
    every such root carries a zero, so the hit z-values are those roots.  A
    real zero or a sphere makes a double root, so the simple roots compared
    here carry isolated zeros.  Coefficients far below the others are kept:
    F(z) is judged against the size of its terms, with no absolute floor
    under which an isolated zero would pass for a sphere."""
    if np.linalg.norm(coeffs[-1]) < 0.5:
        coeffs[-1] = coeffs[-1] + oq.ONE
    roots = np.roots(_symmetrization(coeffs)[::-1])
    # keep the comparison away from the region edge and from near-double roots
    edge = np.minimum(2.0 - np.abs(roots.real), 2.0 - np.abs(roots.imag))
    gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(len(roots))
    assume(np.all(np.abs(edge) > 1e-3) and np.all(gaps > 1e-3))
    stem = stem_from_slice_poly([quaternions.element(c) for c in coeffs])
    hits = discrete_zero_scan(stem, (-2, 2, -2, 2))
    inside = roots[edge > 0]
    assert len(hits) == len(inside)
    for h in hits:
        assert np.min(np.abs(inside - h.z)) <= 1e-8
        assert h.classification == "isolated"


@settings(max_examples=40, deadline=None)
@given(coeffs=st.integers(1, 5).flatmap(lambda d: hnp.arrays(
    float, (d + 1, 4), elements=st.floats(-3.0, 3.0))))
def test_scan_hits_do_not_depend_on_the_region(quaternions, coeffs):
    """The eigenvalues of a zero are grouped at radii set by the
    eigenproblem, not by the region: the hits of a wide region that lie in
    +-2 are the +-2 hits, which are the symmetrization roots there."""
    if np.linalg.norm(coeffs[-1]) < 0.5:
        coeffs[-1] = coeffs[-1] + oq.ONE
    roots = np.roots(_symmetrization(coeffs)[::-1])
    edge = np.minimum(2.0 - np.abs(roots.real), 2.0 - np.abs(roots.imag))
    gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(len(roots))
    assume(np.all(np.abs(edge) > 1e-3) and np.all(gaps > 1e-3))
    stem = stem_from_slice_poly([quaternions.element(c) for c in coeffs])
    hits = [(h.z, h.classification) for h in discrete_zero_scan(stem, (-2, 2, -2, 2))]
    inside = roots[edge > 0]
    assert len(hits) == len(inside)
    assert all(np.min(np.abs(inside - z)) <= 1e-8 for z, _ in hits)
    for extent in (1e10, 1e100, 1e300):
        wide = [(h.z, h.classification)
                for h in discrete_zero_scan(stem, (-extent, extent, -extent, extent))
                if max(abs(h.z.real), abs(h.z.imag)) <= 2.0]
        assert [kind for _, kind in wide] == [kind for _, kind in hits]
        assert np.allclose([z for z, _ in wide], [z for z, _ in hits], rtol=0, atol=1e-12)


@pytest.mark.parametrize("pq", [(0, 2), (1, 1), (2, 2)])
@pytest.mark.parametrize("k", [10, 20, 40, 75, 100])
def test_scan_finds_tiny_zeros(pq, k):
    """1 + 10^(2k) x^2 vanishes on the spheres at +-10^-k i.  Their
    eigenvalues are grouped within radii relative to |z - mu|, so the two
    spheres stay apart, and the row norm of c_2 does not overflow at k = 100."""
    alg = clifford_algebra(*pq)
    stem = stem_from_slice_poly([alg.unit(), alg.zero(), 10.0 ** (2 * k) * alg.unit()])
    hits = discrete_zero_scan(stem, (-2, 2, -2, 2))
    assert [h.classification for h in hits] == ["sphere", "sphere"]
    assert np.allclose([h.z for h in hits], [-(10.0 ** -k) * 1j, 10.0 ** -k * 1j],
                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("pq", [(0, 2), (2, 2)])
@pytest.mark.parametrize("delta", [1e-6, 1e-4])
def test_scan_resolves_two_close_real_zeros(pq, delta):
    """(x - 1)(x - 1 - delta): the mean 1 + delta/2 of both zeros' eigenvalues
    is no zero, and R's singular value there says so, so the two stay apart."""
    alg = clifford_algebra(*pq)
    stem = stem_from_slice_poly([(1.0 + delta) * alg.unit(), -(2.0 + delta) * alg.unit(),
                                 alg.unit()])
    hits = discrete_zero_scan(stem, (-2, 2, -2, 2))
    assert [h.classification for h in hits] == ["real", "real"]
    assert np.allclose([h.z for h in hits], [1.0, 1.0 + delta], rtol=0, atol=1e-3 * delta)


@settings(max_examples=60, deadline=None)
@given(pq=st.sampled_from([(0, 2), (1, 1), (2, 2)]), degree=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1),
       c=st.sampled_from([1e-300, 1e-200, 1e-150, 1e160, 1e200, 1e300]))
def test_scan_hits_do_not_depend_on_the_stems_scale(pq, degree, seed, c):
    """The hits of c F are those of F: the tolerance rule is relative, and
    a norm whose square over- or underflows is taken at a rescaled vector
    (at c = 1e-200 a norm once read 0, and every eigenvalue passed)."""
    alg = clifford_algebra(*pq)
    rng = np.random.default_rng(seed)
    coeffs = [alg.random_element(rng) for _ in range(degree + 1)]
    hits = discrete_zero_scan(stem_from_slice_poly(coeffs), (-2, 2, -2, 2))
    scaled = discrete_zero_scan(stem_from_slice_poly([c * a for a in coeffs]), (-2, 2, -2, 2))
    assert [h.classification for h in scaled] == [h.classification for h in hits]
    assert all(abs(g.z - h.z) <= 1e-9 * abs(h.z) for g, h in zip(scaled, hits))


def test_scan_of_a_stem_with_subnormal_coefficients(quaternions):
    """(x^2 + 1) 1e-310 is scaled to normal coefficients before its rank is
    decided, so it keeps the spheres of x^2 + 1 rather than count as 0."""
    tiny = 1e-310 * quaternions.unit()
    hits = discrete_zero_scan(stem_from_slice_poly([tiny, quaternions.zero(), tiny]),
                              (-2, 2, -2, 2))
    assert [(h.z, h.classification) for h in hits] == [(-1j, "sphere"), (1j, "sphere")]


def test_scan_finds_both_isolated_zeros_of_a_split_linear_stem():
    """x - q in Cl(2,2) with q = 1/4 + 3/4 y e3 y^-1 vanishes at 1/4 +- 3i/4
    only; the grid scan missed both."""
    cl22 = clifford_algebra(2, 2)
    y = cl22.element(cl22.unit().coeffs
                     + 0.3 * np.random.default_rng(0).standard_normal(16))
    s = y * cl22.basis_element(cl22.labels.index("e3")) * inverse(y)
    q = 0.25 * cl22.unit() + 0.75 * s
    hits = discrete_zero_scan(stem_from_slice_poly([-1.0 * q, cl22.unit()]),
                              (-2, 2, -2, 2))
    assert [h.classification for h in hits] == ["isolated", "isolated"]
    assert abs(hits[0].z - (0.25 - 0.75j)) <= 1e-10
    assert abs(hits[1].z - (0.25 + 0.75j)) <= 1e-10


def test_scan_sphere_residual_is_at_rounding_level():
    alg = clifford_algebra(2, 1)
    hits = discrete_zero_scan(
        stem_from_slice_poly([alg.unit(), alg.zero(), alg.unit()]), (-2, 2, -2, 2))
    assert [(h.z, h.classification) for h in hits] == [(-1j, "sphere"), (1j, "sphere")]
    assert all(h.residual <= 1e-12 for h in hits)


def test_scan_splits_off_a_constant_kernel(cl03):
    """((1 + e123)/2)(x^2 + 1): right multiplication by the idempotent has a
    kernel at every z; the spheres at +-i remain."""
    e = 0.5 * (cl03.unit() + cl03.basis_element(cl03.labels.index("e123")))
    hits = discrete_zero_scan(stem_from_slice_poly([e, cl03.zero(), e]),
                              (-2, 2, -2, 2))
    assert [h.classification for h in hits] == ["sphere", "sphere"]
    assert np.allclose([h.z for h in hits], [-1j, 1j], rtol=0, atol=1e-12)


@pytest.mark.parametrize("real_coeffs, zeros", [
    ([0, 0, 0, 1], [(0.0, "real")]),
    ([-1, 3, -3, 1], [(1.0, "real")]),
    ([1, 0, 3, 0, 3, 0, 1], [(-1j, "sphere"), (1j, "sphere")]),
    ([0, 0, 0, 0, 0, 1], [(0.0, "real")]),
    ([0, 0, 0, 0, -1, 0, 1], [(-1.0, "real"), (0.0, "real"), (1.0, "real")]),
])
def test_scan_reports_a_multiple_zero_once(quaternions, real_coeffs, zeros):
    """x^3, (x-1)^3, (x^2+1)^3, x^5, x^4 (x^2-1): a zero of multiplicity m
    spreads its eigenvalues by about eps^(1/m), and the spread is one zero."""
    stem = stem_from_slice_poly([c * quaternions.unit() for c in real_coeffs])
    hits = discrete_zero_scan(stem, (-2, 2, -2, 2))
    assert [h.classification for h in hits] == [kind for _, kind in zeros]
    assert np.allclose([h.z for h in hits], [z for z, _ in zeros], rtol=0, atol=1e-12)


def test_scan_of_a_singular_pencil_without_zeros(cl11):
    """On Cl(1,1) = M_2(R), F(x) = E11 + x E12 has rank one at every z with a
    real column space, so it has no zero although R(z) is singular
    everywhere.  F(x) = E11 + x E21 vanishes at every z off the axis."""
    e1, e2, e12 = (cl11.basis_element(cl11.labels.index(l)) for l in ("e1", "e2", "e12"))
    e11 = 0.5 * (cl11.unit() + e1)
    assert discrete_zero_scan(stem_from_slice_poly([e11, 0.5 * (e2 + e12)]),
                              (-2, 2, -2, 2)) == []
    with pytest.raises(SliceAlgebraError, match="not discrete"):
        discrete_zero_scan(stem_from_slice_poly([e11, 0.5 * (e12 - e2)]), (-2, 2, -2, 2))


def test_scan_of_a_nonzero_constant_stem_has_no_zeros(quaternions):
    assert discrete_zero_scan(stem_from_slice_poly([quaternions.unit()]), (-2, 2, -2, 2)) == []


def test_scan_rejects_a_candidate_whose_size_overflows(quaternions):
    """A candidate z = 1e300 of x^2 + 1 has terms of size 1e600: it cannot
    be judged, and the scan says so, naming z, rather than test it against
    an infinite size."""
    stem = stem_from_slice_poly([quaternions.unit(), quaternions.zero(), quaternions.unit()])
    candidate = (np.array([1e300 + 0j]), quaternions.dimension, 0.0)
    with mock.patch("slicealgebra.zerovariety._eigenvalues", return_value=candidate), \
            pytest.raises(SliceAlgebraError, match=r"too large to represent at z = \(1e\+300"):
        discrete_zero_scan(stem, (-1e300, 1e300, -1e300, 1e300))


@pytest.mark.parametrize("coeffs, target", [("0", None), ("00", None), ("1", "1"),
                                            ("10", "1")])
def test_scan_rejects_a_zero_set_that_is_not_discrete(quaternions, coeffs, target):
    def element(digit):
        return quaternions.unit() if digit == "1" else quaternions.zero()

    stem = stem_from_slice_poly([element(d) for d in coeffs])
    with pytest.raises(SliceAlgebraError, match="not discrete"):
        discrete_zero_scan(stem, (-2, 2, -2, 2),
                           target=None if target is None else element(target))


@pytest.mark.parametrize("algebra", ["quaternions", "cl03", "cl11"])
def test_a_constant_pencil_is_found_from_singular_values_alone(request, algebra):
    """The test that F = target for every z counts a rank and reads no
    singular vector: the scan of F = 0 takes one SVD, of values only."""
    alg = request.getfixturevalue(algebra)
    stem = stem_from_slice_poly([alg.zero(), alg.zero(), alg.zero()])
    with _recorded_svds() as calls, pytest.raises(SliceAlgebraError, match="not discrete"):
        discrete_zero_scan(stem, (-2, 2, -2, 2))
    assert [uv for _, uv in calls] == [False]


def test_scan_rejects_nonintrinsic(quaternions):
    from slicealgebra import NotIntrinsicError, StemPolynomial

    bad = StemPolynomial(quaternions, np.array([[1j, 0, 0, 0]]))
    with pytest.raises(NotIntrinsicError):
        discrete_zero_scan(bad, (-1, 1, -1, 1))


def test_complex_element_arithmetic(quaternions, rng):
    a = ComplexElement(quaternions.random_element(rng),
                       quaternions.random_element(rng))
    b = ComplexElement(quaternions.random_element(rng),
                       quaternions.random_element(rng))
    prod = a * b
    # compare against complex-vector arithmetic through the quaternion oracle
    lhs = oq.qmul(a.re.coeffs, b.re.coeffs) - oq.qmul(a.im.coeffs, b.im.coeffs)
    rhs = oq.qmul(a.re.coeffs, b.im.coeffs) + oq.qmul(a.im.coeffs, b.re.coeffs)
    assert np.allclose(prod.re.coeffs, lhs, atol=1e-12)
    assert np.allclose(prod.im.coeffs, rhs, atol=1e-12)
    back = ComplexElement.from_vector(quaternions, a.as_vector())
    assert np.abs(back.as_vector() - a.as_vector()).max() <= 1e-12
