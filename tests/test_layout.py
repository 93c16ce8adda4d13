"""Package layout: modules share only public names, objects share only
public attributes, kd-trees and per-cloud state are built in one place
only, the resolution estimators are spelled in ``spec`` only, each
command applies the ``--bitdepth`` rule in one call that no flag guards,
``pcqa.__all__`` lists each exported name once, every one of them defined,
every mean over points in ``metrics`` is taken by ``_mean``, the
benchmark's group-size rule is read by ``fit_regression`` only, the
density-adaptive ``ra-`` prefix is spelled in ``spec`` only, and the
unit-normal tolerance, a bit depth's coercion and a variant's spelling are
each stated once.  Every resolution value is written by one statement, and
every pcqa name that the benchmark scripts read exists."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pcqa

MODULES = sorted(Path(pcqa.__file__).parent.glob("*.py"))
BENCH_SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))


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


def _calls(name: str) -> list[tuple[str, str]]:
    """(module, scope) of every call of the bare name ``name`` in pcqa."""
    return [
        (path.name, scope) for path in MODULES for node, scope in _scoped_nodes(path)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


# a cloud gets one tree, in PreparedCloud; normal_vectors on a bare cloud
# is a PreparedCloud pass, so it builds none of its own
INDEX_BUILDERS = {("metrics.py", "PreparedCloud.index")}
# what a cloud keeps for its lifetime is created, and its store read, in one place
STATE_OWNER = ("metrics.py", "PreparedCloud.__init__")


def test_neighbor_index_is_built_in_one_place_only():
    assert sorted(_calls("NeighborIndex")) == sorted(INDEX_BUILDERS)


def test_per_cloud_state_is_created_in_one_place_only():
    assert _calls("_CloudState") == [STATE_OWNER]
    readers = [(path.name, scope) for path in MODULES for node, scope in _scoped_nodes(path)
               if isinstance(node, ast.Name) and node.id == "_STATES"]
    assert sorted(set(readers)) == [("metrics.py", ""), STATE_OWNER]  # its definition, its one user


# the one --bitdepth rule: each command decides its depth in one call
BIT_DEPTH_DECIDERS = {("cli.py", "cmd_compare"), ("cli.py", "cmd_degrade"),
                      ("evaluation.py", "benchmark_scores")}


def test_the_bit_depth_rule_is_called_once_per_command_and_never_forked():
    assert sorted(_calls("require_bit_depth")) == sorted(BIT_DEPTH_DECIDERS)
    # no `if` decides whether the rule runs: the one allowed around it is a
    # cache's first-use branch, which tests only the name the call's result is
    # bound to (benchmark_scores' ``if ref is None``)
    forks = []
    for path in MODULES:
        for node, scope in _scoped_nodes(path):
            if not isinstance(node, (ast.If, ast.IfExp)):
                continue
            calls = [n for n in ast.walk(node)
                     if isinstance(n, ast.Call) and _name(n.func) == "require_bit_depth"]
            bound = {target.id for n in ast.walk(node) if isinstance(n, ast.Assign) and n.value in calls
                     for target in n.targets if isinstance(target, ast.Name)}
            tested = {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)}
            if calls and not (isinstance(node, ast.If) and tested <= bound):
                forks.append(f"{path.name}:{node.lineno} in {scope}: {ast.unparse(node.test)}")
    assert forks == []


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


def test_estimator_names_are_spelled_in_spec_only():
    # the one module is ``spec``, which holds ResolutionEstimator; whole string
    # constants only: a help text that mentions annk/apdk is fine, and so is
    # ``__all__``, which names the functions ann and mnn
    names = {"mnn", "ann", "annk", "apdk"}
    found = []
    for path in MODULES:
        if path.name == "spec.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]:
                continue
            found += [f"{path.name}:{node.lineno} spells {node.value!r}" for node in ast.walk(stmt)
                      if isinstance(node, ast.Constant) and node.value in names]
    assert found == []


def _docstrings(tree) -> set[int]:
    """ids of the docstring constants of a module and of its classes and functions."""
    return {id(body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and (body := node.body) and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)}


def test_the_density_adaptive_prefix_is_spelled_in_spec_only():
    # PeakSpec.label writes "ra-" and PeakSpec.parse reads it; every other
    # module sets density_adaptive on a parsed spec instead of composing a
    # label to parse back; the first piece of an f-string is a constant too
    found = []
    for path in MODULES:
        if path.name == "spec.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        docstrings = _docstrings(tree)
        found += [f"{path.name}:{node.lineno} spells {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.startswith("ra-") and id(node) not in docstrings]
    assert found == []


def _name(node) -> str | None:
    """The name a Name or an Attribute node ends in."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_per_point_kernels_step_by_the_one_block_constant():
    # ply keeps its own _ASCII_BLOCK_ROWS, which bounds the rows per np.loadtxt
    # call and per write, not kernels;
    # every blocked loop is in metrics, which owns the constant and reads it bare
    steps, owners, read_off = [], [], []
    for path in MODULES:
        for node, scope in _scoped_nodes(path):
            if (path.name in ("metrics.py", "normals.py") and isinstance(node, ast.Call)
                    and _name(node.func) == "range" and len(node.args) == 3):
                steps.append((f"{path.name}:{node.lineno}", _name(node.args[2])))
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                owners += [(path.name, scope) for target in targets for name in ast.walk(target)
                           if _name(name) == "BLOCK_ROWS"]
            if isinstance(node, ast.Attribute) and node.attr == "BLOCK_ROWS":
                read_off.append(f"{path.name}:{node.lineno} reads {ast.unparse(node)}")
    assert steps
    assert [where for where, step in steps if step != "BLOCK_ROWS"] == []
    assert owners == [("metrics.py", "")]
    assert read_off == []  # no normals.BLOCK_ROWS, nor any other module's


def test_every_mean_over_points_is_taken_by_the_one_helper():
    # a call named mean (np.mean, x.mean()) anywhere else in metrics would be
    # a second spelling of the reduction, free to sum in another order
    path = Path(pcqa.__file__).parent / "metrics.py"
    found = [f"metrics.py:{node.lineno} in {scope or 'module'}" for node, scope in _scoped_nodes(path)
             if isinstance(node, ast.Call) and _name(node.func) == "mean" and scope != "_mean"]
    assert found == []


def test_the_group_size_rule_has_one_reader():
    # run_benchmark reports whatever group the fit accepts, so it restates no size
    path = Path(pcqa.__file__).parent / "evaluation.py"
    uses = {(type(node.ctx).__name__, scope) for node, scope in _scoped_nodes(path)
            if isinstance(node, ast.Name) and node.id == "MIN_GROUP_SIZE"}
    assert uses == {("Store", ""), ("Load", "fit_regression")}


def test_value_rules_have_one_statement():
    # UNIT_NORMAL_TOL is the one unit-normal tolerance, _check_bit_depth the one
    # place a bit depth becomes an int, and variant_to_string the one spelling
    # of a variant, read by the report's config and the skip warning alike
    tolerances, coercions = [], []
    for path in MODULES:
        for node, scope in _scoped_nodes(path):
            if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-9:
                tolerances.append((path.name, scope))
            if (isinstance(node, ast.Call) and _name(node.func) == "int" and node.args
                    and "bit_depth" in (_name(node.args[0]) or "")):
                coercions.append((path.name, scope))
    assert tolerances == [("cloud.py", "")]
    assert coercions == [("cloud.py", "_check_bit_depth")]
    assert sorted(set(_calls("variant_to_string"))) == [("cli.py", "cmd_benchmark"),
                                                        ("evaluation.py", "run_benchmark")]


def test_every_resolution_value_is_written_by_one_statement():
    # _fill reads every estimator as sqrt(reduce(row sums) / width), MNN included
    path = Path(pcqa.__file__).parent / "metrics.py"
    writes = [node.lineno for node, scope in _scoped_nodes(path)
              if scope == "PreparedCloud._fill" and isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Subscript) and _name(t.value) == "values" for t in node.targets)]
    assert len(writes) == 1


def test_every_pcqa_name_the_benchmark_reads_exists():
    # the benchmark scripts are parsed, not imported: a rename in pcqa shows
    # here rather than as a crashed benchmark run
    assert BENCH_SCRIPTS
    missing = []
    for path in BENCH_SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "pcqa":
                module = importlib.import_module(node.module)
                missing += [f"{path.name}:{node.lineno} {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
    assert missing == []
    # bench/counting.wrap_normals patches the kernel through its module attribute
    assert callable(importlib.import_module("pcqa.normals").normal_vectors)


def test_no_row_unique_is_left_in_the_package():
    # np.unique(axis=0) sorts rows as a structured dtype, several times slower
    # than one lexsort of the columns; octree_quantize dedupes by the latter
    found = [f"{path.name}:{node.lineno}" for path in MODULES for node, _ in _scoped_nodes(path)
             if isinstance(node, ast.Call) and _name(node.func) == "unique"
             and any(keyword.arg == "axis" for keyword in node.keywords)]
    assert found == []
