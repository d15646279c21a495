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
    SuiteNotApplicableError,
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


def _rescaled(p, q, k, suite, draws, raises=AssertionError):
    """One strict xfail per draw: ROADMAP item 7's scale defect, which a
    suite on Cl(p,q) at generator scales 2^(+-k) shows by raising `raises`."""
    mark = pytest.mark.xfail(strict=True, raises=raises,
                             reason="ROADMAP item 7: the search budgets, Newton starts and "
                                    "tangency checks assume a basis of unit scale")
    return [pytest.param(p, q, k, suite, draw, marks=mark, id=f"Cl({p},{q})-2^{k}-{suite}-{draw}")
            for draw in draws]


@pytest.mark.parametrize("p, q, k, suite, draw", [
    *_rescaled(2, 2, 20, "zero-variety", [0, 1, 2]),
    *_rescaled(2, 2, 20, "stereographic", [0, 1, 2]),
    *_rescaled(2, 2, 20, "dims", [0, 1]),
    *_rescaled(2, 2, 20, "nijenhuis", [0, 1, 2]),
    *_rescaled(2, 2, 20, "absorption", [0, 1, 2]),
    *_rescaled(0, 2, 20, "stereographic", [0, 1, 2]),
    *_rescaled(0, 2, 20, "absorption", [0, 1, 2]),
    *_rescaled(0, 2, 20, "nijenhuis", [0, 1, 2]),
    *_rescaled(0, 2, 20, "twistor", [0, 1, 2], raises=(AssertionError, SuiteNotApplicableError)),
    *_rescaled(0, 3, 13, "nijenhuis", [0, 2]),
    *_rescaled(0, 3, 13, "zero-variety", [0, 2]),
    *_rescaled(0, 3, 13, "stereographic", [1, 2]),
    *_rescaled(0, 3, 13, "absorption", [0, 1, 2]),
])
def test_rescaled_clifford_passes_as_the_built_in(p, q, k, suite, draw):
    """Each generator of Cl(p,q) scaled by 2^(k sigma_g), sigma drawn by
    default_rng([1, draw]), each blade by the product of its generators'
    scales (an exact change of basis; einsum_reference.rescaled_blades): the
    suite passes as often as on the built-in algebra, at 20 trials and seed 0."""
    alg = clifford_algebra(p, q)
    rescaled = make_algebra(ref.rescaled_blades(alg.structure_constants, alg.labels, k, draw),
                            labels=alg.labels)
    want = run_suite(suite, alg, f"Cl({p},{q})", 20, 0, default_tol()).pass_count
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
