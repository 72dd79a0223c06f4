"""Layering rules of the package, checked on its source."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "seqsteer"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_no_private_names_from_each_other(path):
    # a module that needs another's private table should get a public
    # function for it instead, so each rule lives in one module
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"


def _chains_on(tree, root):
    """Every dotted name root.a.b... spelled out in tree, in its longest
    form only: seqsteer.Optimizer.FIXED_XYZ, not also seqsteer.Optimizer."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == root:
            chains.add(".".join([root, *reversed(parts)]))
    return {c for c in chains if not any(o.startswith(c + ".") for o in chains)}


def _resolves(chain):
    """Whether chain names an object, importing submodules on the way."""
    obj = importlib.import_module(chain.split(".")[0])
    for part in chain.split(".")[1:]:
        if not hasattr(obj, part) and inspect.ismodule(obj):
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except ModuleNotFoundError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_package_name_the_benchmark_uses_exists():
    # the benchmark's workloads reach the package only through attribute
    # chains on seqsteer; one that no longer resolves fails every op there
    workloads = Path(__file__).parents[1] / "bench" / "workloads.py"
    chains = _chains_on(ast.parse(workloads.read_text()), "seqsteer")
    assert "seqsteer.SettingTriple.from_directions" in chains
    missing = sorted(c for c in chains if not _resolves(c))
    assert not missing, f"bench/workloads.py uses names the package lacks: {missing}"


def test_every_exported_name_resolves_once_and_star_imports():
    # a name left in __all__ after its function is removed would break
    # `from seqsteer import *` while every direct import still works
    package = importlib.import_module("seqsteer")
    names = package.__all__
    assert len(names) == len(set(names)), "__all__ lists a name twice"
    missing = [name for name in names if not hasattr(package, name)]
    assert not missing, f"__all__ names the package lacks: {missing}"
    namespace = {}
    exec("from seqsteer import *", namespace)
    assert set(names) <= set(namespace)


def test_inequalities_imports_no_sibling_module():
    # a functional is symbols, coefficients and arithmetic; what a symbol
    # measures as an operator is for the layers that trace it to decide
    tree = ast.parse((PACKAGE / "inequalities.py").read_text())
    siblings = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or node.module.split(".")[0] == "seqsteer")
        or isinstance(node, ast.Import)
        and any(a.name.split(".")[0] == "seqsteer" for a in node.names)
    ]
    assert not siblings, f"inequalities.py imports from the package: {siblings}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_cache(path):
    # a cache shared across calls outlives its inputs and can hand one
    # input another's bits: BlochDirection(0.0, 0.0) and (-0.0, 0.0) are
    # equal and hash alike, but their unit vectors differ in the sign of
    # zero; per-instance caches (functools.cached_property) are the rule
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    } | {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    }
    shared = sorted(names & {"lru_cache", "cache"})
    assert not shared, f"{path.name} uses a module-level cache: {shared}"


def _comparisons_against(tree, literals):
    """Every comparison in tree that names one of the literals."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(c, ast.Constant) and c.value in literals
            for operand in (node.left, *node.comparators)
            for c in ast.walk(operand)
        )
    ]


_FORMATS = ("json", "csv")


def test_only_the_renderer_compares_against_a_format_name():
    # each command builds its JSON document and its CSV and text lines,
    # and one function picks the format, so a new format is one branch
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    render = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_render"
    )
    inside = _comparisons_against(render, _FORMATS)
    assert inside, "_render no longer picks the format"
    assert len(_comparisons_against(tree, _FORMATS)) == len(inside), (
        "a format is chosen outside _render"
    )


_SYMBOLS = ("I", "X", "Y", "Z", "A1", "A2", "A3", "B1", "B2", "B3")


def test_the_inequalities_module_reads_every_term_symbol():
    # inequalities.resolve turns a term's symbols into each wing's axis,
    # so every other layer reads axes and a new symbol is one table entry
    assert _comparisons_against(ast.parse((PACKAGE / "inequalities.py").read_text()), _SYMBOLS)
    readers = {
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "inequalities.py"
        for node in _comparisons_against(ast.parse(path.read_text()), _SYMBOLS)
    }
    assert not readers, f"term symbols compared outside inequalities.py: {sorted(readers)}"


def _names_used(path):
    """Every name path reads, imports or takes as an attribute, outside
    the top-level definition that binds that name."""
    used = set()
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        used |= names - {getattr(stmt, "name", None)}
    return used


# types the workflow hands its callers without their naming them
_RECEIVED = {
    "CascadeResult",
    "SearchError",
    "StateFormatError",
    "SteeringDirection",
    "ThresholdTable",
}


def test_every_exported_name_has_a_caller_outside_the_tests():
    # the public surface is the paper's workflow, what the demos and the
    # benchmark call plus the types they receive; a name only the package
    # or the tests use stays importable from its own module instead
    root = PACKAGE.parents[1]
    paths = [p for folder in ("demos", "bench") for p in sorted((root / folder).glob("*.py"))]
    used = set().union(*map(_names_used, paths))
    exported = set(importlib.import_module("seqsteer").__all__)
    assert _RECEIVED <= exported
    unused = sorted(exported - used - _RECEIVED)
    assert not unused, f"__all__ names with no caller in demos/ or bench/: {unused}"


def test_the_ladder_row_is_spelled_once():
    # threshold's output and both of a table's are built by one row
    # function, so the CSV header and the "ok" status cannot drift apart
    constants = [
        node.value
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant)
    ]
    for literal in ("m,lambda_min,status", "ok"):
        count = constants.count(literal)
        assert count == 1, f"{literal!r} is spelled {count} times in src/"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_modules_parse_as_the_oldest_supported_python(path):
    # pyproject.toml declares requires-python >= 3.10, so no module may use
    # syntax that only a later parser accepts
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
