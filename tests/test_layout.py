"""Package layout: modules share only public names, and ``pcqa.__all__``
lists each exported name once, every one of them defined."""

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


def test_every_export_is_defined_once():
    twice = [name for name, count in Counter(pcqa.__all__).items() if count > 1]
    missing = [name for name in pcqa.__all__ if not hasattr(pcqa, name)]
    assert twice == [] and missing == []
