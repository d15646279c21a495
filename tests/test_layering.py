"""The package's modules import one another one way: stems (slicefunctions)
sit below the zero variety, and no function imports from the package at
call time except the lazy command-line names of `__init__`.  No module of
the package or of tools/ keeps an import it does not use."""

import ast
from pathlib import Path

import pytest

import slicealgebra

PACKAGE = Path(slicealgebra.__file__).parent
TOOLS = Path(__file__).resolve().parents[1] / "tools"


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


def unused_imports(source: str) -> list[str]:
    """Names that a module imports and never reads, less those on a line
    marked `# noqa: F401`."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not future:
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.name != "__init__.py"]
                         + sorted(TOOLS.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_a_leftover_import_is_found():
    assert unused_imports("import os\nimport sys  # noqa: F401\nfrom a import b, c\nc()\n") \
        == ["b (line 3)", "os (line 1)"]
