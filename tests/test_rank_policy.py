"""The one rank cutoff is read in few places.

RANK_RELTOL is defined in config.py and every kernel, eigenspace, Newton
step, rank decision and zerodivisor test reads numerics.numerical_rank.
A mention of RANK_RELTOL anywhere else in src/ (code, docstring or
comment) must sit in an allowlisted function, with its reason; a mention
outside any function, such as the import, is allowed in a module that has
an allowlisted one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "slicealgebra"

ALLOWED = {
    ("numerics.py", "numerical_rank"): "the cutoff itself, for every kernel, eigenspace, "
                                       "Newton step, rank and zerodivisor the package "
                                       "decides",
    ("zerovariety.py", "_solution_witnesses"): "solvability of s*b = -a: the residual "
                                               "of svd_rank's truncated solve is "
                                               "judged at the same cutoff",
}


def mentions(source: str) -> list[tuple[int, str | None]]:
    """(line, innermost enclosing function or None) of each line naming
    RANK_RELTOL."""
    spans = [(node.lineno, node.end_lineno, node.name) for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for number, text in enumerate(source.splitlines(), 1):
        if "RANK_RELTOL" in text:
            inner = [span for span in spans if span[0] <= number <= span[1]]
            found.append((number, max(inner)[2] if inner else None))
    return found


def test_the_scan_names_the_enclosing_function():
    source = ("from x import RANK_RELTOL\n"
              "def f():\n"
              "    def g():\n"
              "        return RANK_RELTOL\n"
              "    return 0\n")
    assert mentions(source) == [(1, None), (4, "g")]


def test_rank_cutoff_only_where_allowed():
    offenders, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "config.py":
            continue
        found = mentions(path.read_text(encoding="utf-8"))
        allowed_here = {func for name, func in ALLOWED if name == path.name}
        for line, func in found:
            if func is None and allowed_here:
                continue
            if func in allowed_here:
                used.add((path.name, func))
            else:
                offenders.append(f"{path.name}:{line} in {func or 'module scope'}")
    assert offenders == [], "RANK_RELTOL read outside numerical_rank's allowlist"
    assert used == set(ALLOWED), "stale allowlist entries"
