"""Known defects, one strict xfail each.

Each test asserts the correct behaviour and fails today for the reason its
`reason=` names, with the exception its `raises=` names; ROADMAP.md's item of
that number describes the defect and its fix.  Under strict mode a test that
starts to pass fails the run: the change that mended the defect turns the
test into a plain one, and CHANGES.md records it.  `pytest --runxfail` shows
each real failure.
"""

import numpy as np
import pytest

import einsum_reference as ref
from slicealgebra import (
    NonAssociativeError,
    NotFoundError,
    clifford_algebra,
    find_seed_root,
    make_algebra,
    run_suite,
)
from slicealgebra.config import default_tol


@pytest.mark.xfail(strict=True, raises=NonAssociativeError,
                   reason="ROADMAP item 7: make_algebra compares the associativity "
                          "violation with tol itself, not with tol times the size of the products")
def test_quaternions_in_a_diagonal_basis_load():
    """H in the basis 1, 1100 e1, 1300 e2, 700 e12 is exactly H; the violation
    1.2e-7 is rounding against entries up to 1.7e6."""
    H = clifford_algebra(0, 2)
    c = ref.rebased(H.structure_constants, np.diag([1.0, 1100.0, 1300.0, 700.0]))
    assert np.array_equal(make_algebra(c, labels=H.labels).structure_constants, c)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: the search budgets and Newton starts assume "
                          "a basis of unit scale")
@pytest.mark.parametrize("suite", ["zero-variety", "stereographic"])
@pytest.mark.parametrize("draw", [0, 1, 2])
def test_rescaled_cl22_passes_as_the_built_in(draw, suite):
    """Each generator of Cl(2,2) scaled by 2^(20 sigma_g), sigma drawn by
    default_rng([1, draw]), each blade by the product of its generators'
    scales (an exact change of basis): the suite passes as often as on the
    built-in algebra (20 of 20)."""
    alg = clifford_algebra(2, 2)
    sigma = np.random.default_rng([1, draw]).choice([-1, 1], 4)
    gen = np.ldexp(1.0, 20 * sigma)
    scales = [np.prod([gen[int(g) - 1] for g in label[1:]]) for label in alg.labels]
    rescaled = make_algebra(ref.rebased(alg.structure_constants, np.diag(scales)),
                            labels=alg.labels)
    want = run_suite(suite, alg, "Cl(2,2)", 20, 0, default_tol()).pass_count
    assert run_suite(suite, rescaled, "rescaled", 20, 0, default_tol()).pass_count == want


@pytest.mark.xfail(strict=True, raises=NotFoundError,
                   reason="ROADMAP item 11: find_seed_root's 50 Newton starts can all "
                          "fail, and S is not empty")
@pytest.mark.parametrize("p, q, basis_seed, rng_seed",
                         [(2, 1, 0, 2), (2, 1, 3, 3), (2, 1, 18, 3), (1, 1, 17, 0)])
def test_seed_root_on_a_skewed_basis(p, q, basis_seed, rng_seed):
    """In the basis B = I + 0.3 G (G standard normal from default_rng(basis_seed),
    the unit column kept exact) find_seed_root returns a root of -1."""
    alg = clifford_algebra(p, q)
    n = alg.dimension
    basis = np.eye(n) + 0.3 * np.random.default_rng(basis_seed).standard_normal((n, n))
    basis[:, 0] = np.eye(n)[0]
    skewed = make_algebra(ref.rebased(alg.structure_constants, basis))
    assert find_seed_root(skewed, rng=np.random.default_rng(rng_seed)).holds()
