"""README's Quick tour runs as written and gives the values its comments
state, and its list of entry points names only what the modules hold."""

import builtins
import importlib
import re
from pathlib import Path
from types import ModuleType

import numpy as np

import slicealgebra
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


def _entry_points():
    """(module, backticked span) for each span of each bullet of README's
    list of entry points, the bullet headed by its module's name."""
    text = README.read_text(encoding="utf-8")
    block = text.split("The main entry points, grouped the way the modules are:", 1)[1]
    for bullet in re.split(r"\n(?=- `)", block.strip().split("\n\n", 1)[0]):
        module, body = re.fullmatch(r"- `(\w+)`:(.*)", bullet, re.S).groups()
        for span in re.findall(r"`([^`]+)`", body):
            yield module, span


def _resolves(scope, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(scope, part):
            return False
        scope = getattr(scope, part)
    return True


def test_entry_point_names_are_attributes_of_their_modules():
    """Each backticked name in the list, dotted or not, with or without an
    argument list, is an attribute of the module its bullet names.  A name
    qualified by another module of the package (`roots.RootOfMinusOne.holds`)
    is looked up in that module, a builtin (`ValueError`) among the builtins;
    a span that is no name (a lambda, `verify dims`) is skipped."""
    stale, names = [], 0
    for module, span in _entry_points():
        match = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span, re.S)
        if match is None:
            continue
        name, names = match.group(1), names + 1
        head = name.split(".")[0]
        scopes = [importlib.import_module(f"slicealgebra.{module}"), builtins]
        if isinstance(getattr(slicealgebra, head, None), ModuleType):
            scopes.append(slicealgebra)
        if not any(_resolves(scope, name) for scope in scopes):
            stale.append(f"{module}: {span}")
    assert names > 50
    assert not stale, stale
