import os
import sys
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

from slicealgebra import clifford_algebra


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
