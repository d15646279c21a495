import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# On CI a failing example prints a blob that @reproduce_failure replays.
# Every other setting is the default profile's; hypothesis's own "ci"
# profile, which this one replaces, would also derandomize the search.
settings.register_profile("ci", settings.get_profile("default"), print_blob=True)
if "CI" in os.environ:
    settings.load_profile("ci")

import einsum_reference
from slicealgebra import RootOfMinusOne, clifford_algebra, dump_algebra, make_algebra
from slicealgebra.config import resolve_tol, within_tol


def elements_close(a, b, tol=None) -> bool:
    """||a - b|| <= tol: an absolute bound on the coefficient difference."""
    return (a - b).norm() <= resolve_tol(tol)


def algebra_json(algebra) -> dict:
    """The JSON object that dump_algebra writes for the algebra, read back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        dump_algebra(algebra, path)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def dense_cl12():
    """Cl(1,2) in a random orthonormal basis: dense structure constants."""
    c = clifford_algebra(1, 2).structure_constants
    return make_algebra(einsum_reference.rotated(
        c, einsum_reference.rotation(c.shape[0], np.random.default_rng(2))))


def root_from(alg, vec):
    """The root of -1 with coefficients vec, checked at the default tol."""
    return RootOfMinusOne.from_element(alg.element(vec))


def points_close(p, q, tol=None) -> bool:
    """Equal shapes, and the chordal distance ||a - b|| of the unit
    representatives within tol of its size 2."""
    return p.coords.shape == q.coords.shape and bool(within_tol(p.chordal_distance(q), 2.0, tol))


@pytest.fixture(scope="session")
def quaternions():
    return clifford_algebra(0, 2)


@pytest.fixture(scope="session")
def complex_algebra():
    return clifford_algebra(0, 1)


@pytest.fixture(scope="session")
def cl03():
    return clifford_algebra(0, 3)


@pytest.fixture(scope="session")
def cl11():
    return clifford_algebra(1, 1)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
