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
from conftest import info_zerodivisors
from slicealgebra import (
    ComplexElement,
    Element,
    NotFoundError,
    NotTangentError,
    RootOfMinusOne,
    SuiteNotApplicableError,
    ZeroWitness,
    cli,
    clifford_algebra,
    find_seed_root,
    j_structure,
    make_algebra,
    run_suite,
    sample_root,
    tangent_frame,
    zero_variety_witness,
)
from slicealgebra.config import default_tol
from slicealgebra.numerics import numerical_rank


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


@pytest.mark.xfail(strict=True, raises=NotTangentError,
                   reason="ROADMAP item 7: tangent_frame's kernel cutoff and the tangency "
                          "check assume a basis of unit scale")
@pytest.mark.parametrize("draw", [0, 1, 2])
def test_tangent_frames_of_a_rescaled_clifford_are_tangent(draw):
    """On Cl(2,2) at generator scales 2^(+-20) (as above), every column of
    tangent_frame(s) passes j_structure's tangency check, for 20 roots drawn
    by sample_root at rng seed 0."""
    alg = clifford_algebra(2, 2)
    rescaled = make_algebra(ref.rescaled_blades(alg.structure_constants, alg.labels, 20, draw),
                            labels=alg.labels)
    rng = np.random.default_rng(0)
    seed = find_seed_root(rescaled, rng=rng)
    for _ in range(20):
        s = sample_root(seed, rng)
        for column in tangent_frame(s).T:
            j_structure(s, Element(rescaled, column))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: the trace form's eigenvalues on the trace-free "
                          "elements spread over 2^80, and the small ones fall below the "
                          "rank cutoff")
def test_info_finds_no_zerodivisor_in_a_rescaled_H(tmp_path):
    """H at generator scales 2^(+-20), draw 0 (as above), has no zerodivisor."""
    alg = clifford_algebra(0, 2)
    c = ref.rescaled_blades(alg.structure_constants, alg.labels, 20, 0)
    assert info_zerodivisors(make_algebra(c), tmp_path / "alg.json")[0]["found"] is False


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5a: a random w whose witness search finds nothing "
                          "counts as a passed zero-variety trial, with nothing checked")
def test_zero_variety_counts_only_checked_trials(monkeypatch):
    """On H at 20 trials and seed 0, pass_count counts only trials whose
    witness was checked, so no more than the searches that found one."""
    searches, original = [], cli.zero_variety_witness

    def recorded(*args, **kwargs):
        searches.append(original(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(cli, "zero_variety_witness", recorded)
    report = run_suite("zero-variety", clifford_algebra(0, 2), "H", 20, 0, default_tol())
    assert report.pass_count <= sum(search.found for search in searches)


@pytest.mark.xfail(strict=True, raises=SuiteNotApplicableError,
                   reason="ROADMAP item 18: the cone suite reads S0 under the standard inner "
                          "product only, which holds no orthogonal root here")
@pytest.mark.parametrize("name", ["M2(R)", "M4(R)", "C+H"])
def test_cone_applies_where_S_is_nonempty(name):
    """S is not empty on M2(R), M4(R) and C + H (tests/test_structure_theory.py),
    and the cone suite passes every trial there, at 20 trials and seed 0."""
    assert run_suite("cone", make_algebra(ref.CORPUS[name][0]), name, 20, 0, default_tol()).passed


# Cl(2,1): root 11 (||s|| = 25.7) of the 40 with ||s|| > 15 that
# sample_root(find_seed_root(alg), default_rng(0)) draws, and b = r (1 + e23)
# for an r drawn from the same generator afterwards.
_LARGE_ROOT = [-2.982721115797117e-15, -12.659846222828925, 2.7864037487324427, 12.038684579275849,
               -13.621604795561803, -3.87812631276794, -12.099687089811763, -3.254239055577219e-15]
_ZERODIVISOR = [0.27422007476124566, 0.8773915261127647, -0.49467861253408646, -0.49467861253408646,
                0.6624359690711461, 0.6624359690711461, 0.27422007476124566, 0.8773915261127647]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 21: the Newton starts on the kernel of R_b are "
                          "standard normal, far inside the orbit of a large root")
def test_a_large_root_member_with_a_zerodivisor_im_part_is_found():
    """w = (-s*b, b) on Cl(2,1), with the pinned root s (||s|| = 25.7) and the
    zerodivisor b = r (1 + e23), whose R_b has a 4-dimensional kernel: s is
    a witness at tol, and zero_variety_witness (rng default_rng(11)) finds one."""
    alg = clifford_algebra(2, 1)
    s, b = RootOfMinusOne(alg.element(_LARGE_ROOT)), alg.element(_ZERODIVISOR)
    w = ComplexElement(-(s.element * b), b)
    rank = numerical_rank(np.linalg.svd(alg.right_matrix_vec(b.coeffs), compute_uv=False))
    if not ZeroWitness(w, s).holds() or rank != 4:  # Failed, not AssertionError: a real failure
        pytest.fail("the pinned w is no member with a 4-dimensional kernel of R_b")
    assert zero_variety_witness(w, rng=np.random.default_rng(11)).status == "found"
