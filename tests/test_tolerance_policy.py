"""The tolerances of the package live in config.py.

A float literal in (0, 1) inside a comparison in src/, or as the default of
a `tol` parameter, is a tolerance chosen on the spot; outside config.py each
one must be on the allowlist with its reason.  Exact tests against 0.0 are
not tolerances and are not flagged.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "slicealgebra"

ALLOWED = {
    ("roots.py", 0.01): "component_invariant snaps tr(T_s) to an integer; "
                        "rounding moves it by about N eps ||s||^2, far below 0.01",
    ("twistor.py", 1e-12): "zero-coordinate cutoffs of ProjectivePoint, delta1 "
                           "and rho1: a coordinate this far below the largest "
                           "is a rounded zero, not a value to divide by",
}


def _small_floats(node) -> list[float]:
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, float)
            and 0.0 < n.value < 1.0]


def tolerance_literals(source: str) -> list[tuple[int, float]]:
    """(line, value) of each small float literal in a comparison or a tol
    default."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            found += [(node.lineno, v) for v in _small_floats(node)]
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            named = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            named += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [(node.lineno, v) for a, d in named if a.arg == "tol"
                      for v in _small_floats(d)]
    return found


def test_the_scan_flags_comparisons_and_tol_defaults():
    source = ("def f(x, tol=1e-8):\n"
              "    if x <= 1e-6 * (1 + x) or x == 0.0:\n"
              "        return x > 2.5\n")
    assert tolerance_literals(source) == [(1, 1e-8), (2, 1e-6)]


def test_no_tolerance_literal_outside_config():
    offenders, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "config.py":
            continue
        for line, value in tolerance_literals(path.read_text(encoding="utf-8")):
            if (path.name, value) in ALLOWED:
                used.add((path.name, value))
            else:
                offenders.append(f"{path.name}:{line}: {value!r}")
    assert offenders == [], "tolerance literals outside config.py"
    assert used == set(ALLOWED), "stale allowlist entries"
