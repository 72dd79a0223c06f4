"""Layering rules of the package, checked on its source."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from seqsteer import CascadeResult, ThresholdTable

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
    # each Term turns its symbols into each wing's axis when it is built,
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


def test_every_src_definition_has_a_caller_outside_the_tests():
    # code that only the tests call is a seam kept for them, not part of
    # the program; its reference belongs in tests/util.py. Every
    # top-level function and class of the package, and every method but
    # the dunders, must be named somewhere in src/, demos/ or bench/
    # outside its own definition
    root = PACKAGE.parents[1]
    folders = ("src/seqsteer", "demos", "bench")
    paths = [p for folder in folders for p in sorted((root / folder).glob("*.py"))]
    used = set().union(*map(_names_used, paths))
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{stmt.name}", stmt.name))
            if isinstance(stmt, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{stmt.name}.{node.name}", node.name)
                    for node in stmt.body
                    if isinstance(node, ast.FunctionDef)
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                ]
    unused = [qualified for qualified, name in defined if name not in used]
    assert not unused, f"src/ definitions with no caller outside the tests: {unused}"


def _src_nodes():
    """Every AST node of every module in src/."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def test_the_ladder_row_is_spelled_once():
    # threshold's output and both of a table's are built by one row
    # function, so the CSV header and the "ok" status cannot drift apart
    constants = [node.value for node in _src_nodes() if isinstance(node, ast.Constant)]
    for literal in ("m,lambda_min,status", "ok"):
        count = constants.count(literal)
        assert count == 1, f"{literal!r} is spelled {count} times in src/"


def test_each_fact_has_one_home():
    # the sharpness rule is qop.require_sharpness; the steering type is
    # the string InequalityKind.direction gives; the zero-vector rule is
    # _best_direction's; a cascade's inputs are its spec's, and whether a
    # ladder was cut is read off its last row
    constants = [node.value for node in _src_nodes() if isinstance(node, ast.Constant)]
    count = constants.count("sharpness must lie in (0, 1], got ")
    assert count == 1, f"the sharpness message is spelled {count} times in src/"
    gone = {"SteeringDirection", "_direction_from_vector"}
    defined = sorted(
        node.name
        for node in _src_nodes()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in gone
    )
    assert not defined, f"defined again in src/: {defined}"
    assert [f.name for f in dataclasses.fields(CascadeResult)] == ["values"]
    fields = [f.name for f in dataclasses.fields(ThresholdTable)]
    assert fields == ["state", "scenario", "inequality", "rows"]
    # the CLI reads the sharpness rule too, in its words
    assert " outside (0, 1]" not in constants, "a second sharpness message in src/"
    # a functional's term values are read by position: no table keyed by
    # a term's symbols, and so no missing term to raise LookupError for
    lookups = [
        ast.unparse(node)
        for node in _src_nodes()
        if isinstance(node, ast.Raise)
        and any(getattr(n, "id", None) == "LookupError" for n in ast.walk(node))
    ]
    assert not lookups, f"src/ raises LookupError: {lookups}"
    keys = [node.slice for node in _src_nodes() if isinstance(node, ast.Subscript)]
    keys += [k for node in _src_nodes() if isinstance(node, ast.Dict) for k in node.keys if k]
    keys += [node.key for node in _src_nodes() if isinstance(node, ast.DictComp)]
    by_ops = [
        ast.unparse(key)
        for key in keys
        if any(isinstance(n, ast.Attribute) and n.attr == "ops" for n in ast.walk(key))
    ]
    assert not by_ops, f"src/ looks a term up by its symbols: {by_ops}"
    # the outcome layout is measurement's: every other module reads an
    # outcome table through its shape
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "measurement":
            continue
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        }
        assert "OUTCOMES" not in names, f"{path.name} names measurement.OUTCOMES"


def _callers_of(name):
    """The top-level statements of src/ that call name, plainly or as an
    attribute: module.function, module.Class, or module.line for any
    other statement."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    callers.add(f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}")
    return callers


def test_one_walk_runs_a_state_down_a_chain():
    # every chain walk, a cascade's, a threshold's prefix, a ladder's and
    # the audit's, goes through states_along, so the averaged channel is
    # applied in one loop
    assert _callers_of("averaged_channel") == {"cascade.states_along"}


def test_spread_product_is_the_one_three_qubit_product():
    # every 8x8 product of three 2x2 factors is a qop.spread_product of
    # their spreads, so the wing-bit layout is spelled once: the term walk
    # multiplies the spreads cascade builds at import, the Kraus stack the
    # roots' spread with the identity spreads measurement builds at import,
    # and the outcome operators each wing's setting_spreads; no module
    # shifts bits outside qop, and no tensor3 is left to build a product
    assert _callers_of("spread_product") == {
        "cascade.term_expectations",
        "measurement.selective_updates",
        "measurement.outcome_table",
    }
    assert _callers_of("tensor3") == set()
    # and cascade's x, y, z spreads, from one module-level statement
    callers = _callers_of("setting_spreads")
    statements = callers - {"measurement.joint_probability", "cascade._wing_spreads"}
    assert len(statements) == 1
    module, _, where = statements.pop().partition(".")
    assert module == "cascade" and where.isdigit()
    shifts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "qop"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(getattr(node, "op", None), ast.RShift)  # x >> n or x >>= n
    ]
    assert not shifts, f"bit shifts outside qop: {shifts}"


def _arrays_in(value):
    """Every ndarray in value: value itself, or one inside its tuples and
    dicts, at any depth."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays_in(item)


def test_every_module_level_array_is_read_only():
    # a module-level array is shared by every call, so an in-place write
    # to it would change every later result: none can be written to
    arrays = {
        f"{path.stem}.{name}": list(_arrays_in(value))
        for path in sorted(PACKAGE.glob("*.py"))
        for name, value in vars(importlib.import_module(f"seqsteer.{path.stem}")).items()
    }
    writeable = [name for name, found in arrays.items() if any(a.flags.writeable for a in found)]
    assert not writeable, f"writeable module-level arrays: {writeable}"
    # the walk reaches the arrays inside tuples and dicts, nested too
    tables = {
        "qop._PAULI",
        "measurement._IDENTITY",
        "cascade._SPREADS",
        "cascade._TERM_FACTORS",
        "cascade._XYZ_SPREADS",
        "cascade._GRID",
        "cascade._ORACLE_PLANS",
    }
    assert tables <= {name for name, found in arrays.items() if found}


def test_one_function_builds_and_reads_the_outcome_operators():
    # outcome_table goes from an observer's direction cells to their
    # outcome probabilities, so the (..., 8, 8, 8) operators never cross a
    # function boundary and no module builds them apart from it
    defined = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "joint_operators"
    ]
    assert not defined, f"joint_operators is defined again: {defined}"
    # setting_spreads builds each wing's factors, effects on the
    # sequential wing, and outcome_table alone multiplies and traces them
    assert _callers_of("effect") == {"measurement.setting_spreads"}
    assert _callers_of("outcome_table") == {
        "measurement.joint_probability",
        "cascade.run_cascade_oracle",
        "cascade.no_signalling_audit",
    }


def _open_mode(call):
    """The mode of an open call, builtin open(file, mode) or a method
    path.open(mode), as its AST node, or None when the default "r" holds."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    position = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[position] if len(call.args) > position else None


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_opens_a_file_for_writing(path):
    # every command's output goes to stdout through cli._render, and a
    # file comes from redirecting it, so the package only ever reads files;
    # a mode it cannot read as a literal counts as a write
    writes = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in ("write_text", "write_bytes"):
            writes.append(f"{path.name}:{node.lineno}")
        elif name == "open":
            mode = _open_mode(node)
            reads = isinstance(mode, ast.Constant) and set(str(mode.value)).isdisjoint("wax+")
            if mode is not None and not reads:
                writes.append(f"{path.name}:{node.lineno}")
    assert not writes, f"files opened for writing: {writes}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_modules_parse_as_the_oldest_supported_python(path):
    # pyproject.toml declares requires-python >= 3.10, so no module may use
    # syntax that only a later parser accepts
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
