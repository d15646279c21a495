"""Algebras beyond Clifford, whose answers follow from structure theory.

By Wedderburn-Artin, A / rad A is a sum of simple factors M_n(R), M_n(C)
and M_m(H), and a root of -1 there lifts through the radical (x^2 + 1 is
separable), so S is empty exactly when some factor is M_n(R) with n odd.
Every tensor here is exact: einsum_reference.CORPUS, built from integer
entries with the unit as basis element 0.  None of these algebras is R, C
or H, so by Frobenius's theorem each has a zerodivisor.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import einsum_reference as ref
from slicealgebra import SuiteNotApplicableError, clifford_algebra, dump_algebra, make_algebra
from slicealgebra.cli import SUITES, main, run_suite

def test_the_reference_tensors_of_C_and_H_are_cliffords():
    assert np.array_equal(ref.COMPLEX, clifford_algebra(0, 1).structure_constants)
    assert np.array_equal(ref.QUATERNIONS, clifford_algebra(0, 2).structure_constants)


# cone on M2(R), M4(R) and C+H is a known defect (tests/test_known_defects.py);
# twistor needs a quaternion frame, which only H has.  Where S is empty a
# failed seed search takes 20-230 ms a suite, so one root suite stands for all
_CASES = [(name, suite) for name in ref.CORPUS
          for suite in (SUITES if ref.s_nonempty(name) else ("traces",))
          if not (suite == "cone" and name in ("M2(R)", "M4(R)", "C+H"))]


@pytest.mark.parametrize("name, suite", _CASES)
def test_a_suite_applies_exactly_when_S_is_nonempty_and_then_passes(name, suite):
    alg = make_algebra(ref.CORPUS[name][0])
    if suite == "twistor" or not ref.s_nonempty(name):
        with pytest.raises(SuiteNotApplicableError):
            run_suite(suite, alg, name, 20, 0, 1e-9)
    else:
        report = run_suite(suite, alg, name, 20, 0, 1e-9)
        assert report.passed, report.failures


@pytest.mark.parametrize("name", ref.CORPUS)
def test_info_finds_a_zerodivisor(tmp_path, capsys, name):
    path = tmp_path / "algebra.json"
    dump_algebra(make_algebra(ref.CORPUS[name][0]), str(path))
    assert main(["info", "--algebra", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["zerodivisors"]["found"] is True


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), data=st.data())
def test_matrix_algebra_products_are_matmul(n, data):
    """Coordinates x and y in the basis 1, E_ij multiply as the matrices
    sum x_i basis_i do under numpy.matmul, an oracle free of the tensor."""
    alg = make_algebra(ref.matrix_algebra(n))
    x, y = (data.draw(hnp.arrays(float, n * n, elements=st.floats(-1e3, 1e3)), label=label)
            for label in ("x", "y"))
    basis = ref.matrix_basis(n)
    product = np.einsum("i,iab->ab", (alg.element(x) * alg.element(y)).coeffs, basis)
    want = np.einsum("i,iab->ab", x, basis) @ np.einsum("i,iab->ab", y, basis)
    assert np.abs(product - want).max() <= 1e-12 * (1.0 + np.abs(x).sum() * np.abs(y).sum())
