"""Package layout: modules share only public names, objects share only
public attributes, kd-trees are built in two places only, the resolution
estimators are spelled in ``metrics`` only, and ``pcqa.__all__`` lists each
exported name once, every one of them defined."""

import ast
from collections import Counter
from pathlib import Path

import pcqa

MODULES = sorted(Path(pcqa.__file__).parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_uses(path: Path) -> list[str]:
    """``from .x import _y`` lines, and ``_y`` read off a module bound by
    ``from . import x``, in one pcqa module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").split(".")[0] == "pcqa"):
            continue  # a third-party or standard-library import
        for alias in node.names:
            if node.module is None or node.module == "pcqa":
                modules.add(alias.asname or alias.name)  # a sibling module
            elif _is_private(alias.name):
                found.append(f"{path.name}:{node.lineno} imports {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_modules_import_no_private_names():
    assert len(MODULES) > 5
    assert [use for path in MODULES for use in _private_uses(path)] == []


def _scoped_nodes(path: Path):
    """Every AST node of a module with the dotted name of the class or
    function that encloses it ("" at module level)."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield child, inner
            yield from walk(child, inner)

    yield from walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")


# a cloud gets one tree, in PreparedCloud; normal_vectors builds one only
# when it is called on a bare cloud without neighbors
INDEX_BUILDERS = {("metrics.py", "PreparedCloud.index"), ("normals.py", "normal_vectors")}


def test_neighbor_index_is_built_in_two_places_only():
    builders = [
        (path.name, scope) for path in MODULES for node, scope in _scoped_nodes(path)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "NeighborIndex"
    ]
    assert sorted(builders) == sorted(INDEX_BUILDERS)


def test_private_attributes_are_used_only_off_self_or_cls():
    found = [
        f"{path.name}:{node.lineno} in {scope or 'module'} uses .{node.attr}"
        for path in MODULES for node, scope in _scoped_nodes(path)
        if isinstance(node, ast.Attribute) and _is_private(node.attr)
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert found == []


def test_every_export_is_defined_once():
    twice = [name for name, count in Counter(pcqa.__all__).items() if count > 1]
    missing = [name for name in pcqa.__all__ if not hasattr(pcqa, name)]
    assert twice == [] and missing == []


def test_estimator_names_are_spelled_in_metrics_only():
    # whole string constants only: a help text that mentions annk/apdk is fine,
    # and so is ``__all__``, which names the functions ann and mnn
    names = {"mnn", "ann", "annk", "apdk"}
    found = []
    for path in MODULES:
        if path.name == "metrics.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]:
                continue
            found += [f"{path.name}:{node.lineno} spells {node.value!r}" for node in ast.walk(stmt)
                      if isinstance(node, ast.Constant) and node.value in names]
    assert found == []
