"""The package's modules import one another one way: stems (slicefunctions)
sit below the zero variety, and no function imports from the package at
call time except the lazy command-line names of `__init__`."""

import ast
from pathlib import Path

import slicealgebra

PACKAGE = Path(slicealgebra.__file__).parent


def _package_targets(node: ast.AST) -> list[str]:
    """Modules of the package that an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and not (node.module or "").startswith("slicealgebra"):
            return []
        module = (node.module or "").removeprefix("slicealgebra").lstrip(".")
        return [module] if module else [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("slicealgebra.")]
    return []


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _graph() -> dict[str, set[str]]:
    """Module -> the package modules it imports, at any depth of its code."""
    return {name: {t for node in ast.walk(tree) for t in _package_targets(node)}
            for name, tree in _trees().items()}


def _reach(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, todo = set(), [start]
    while todo:
        for nxt in graph.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def test_internal_imports_are_acyclic_with_stems_below_the_zero_variety():
    graph = _graph()
    cycles = sorted(name for name in graph if name in _reach(graph, name))
    assert cycles == [], f"modules on an import cycle: {cycles}"
    assert "slicefunctions" in _reach(graph, "zerovariety")
    assert "zerovariety" not in _reach(graph, "slicefunctions")


def test_no_function_imports_from_the_package():
    lazy = set()
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lazy |= {(name, fn.name) for node in ast.walk(fn) if _package_targets(node)}
    assert lazy == {("__init__", "__getattr__")}
