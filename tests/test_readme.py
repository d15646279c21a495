"""README's Quick tour runs as written and gives the values its comments state."""

import re
from pathlib import Path

import numpy as np

from slicealgebra import rho

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs_and_states_its_values():
    tour = {}
    exec(compile(_quick_tour(), str(README), "exec"), tour)
    s, w, F, H = tour["s"], tour["w"], tour["F"], tour["H"]
    assert tour["tangent_frame"](s).shape[1] == 2
    assert tour["zero_variety_witness"](w).status == "found"
    assert tour["eval_slice"](F, 1j, s).norm() == 0
    # rho1 of the lift is F(x) = x*x + 1 at the point x = rho(z, u) it lies over
    x = rho(0.3 + 0.2j, tour["u"], tour["frame"])
    want = x * x + H.unit()
    got = tour["rho1"](tour["p"], tour["frame"])
    assert np.linalg.norm(got.coeffs - want.coeffs) <= 1e-12 * (1.0 + want.norm())
