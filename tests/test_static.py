"""Static guards over the package source: no assert statements stand in
for runtime checks, no quadrature error estimate is thrown away, no user
count is truncated by a bare int(), and every export list names only what
its module defines and the package re-exports."""

import ast
import importlib
from pathlib import Path

import pytest

import circlaw

MODULES = sorted(Path(circlaw.__file__).parent.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_exports_are_defined_in_their_module(path):
    # a name imported from elsewhere does not count: it would outlive the
    # definition it names
    exported, defined = [], set()
    for node in parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            defined.update(names)
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    assert [n for n in exported if n not in defined] == [], path.name


# cli is the console entry point (circlaw.cli:main), which the package
# does not import; every other module's exports are circlaw.<name>
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem not in ("__init__", "cli")], ids=lambda p: p.stem
)
def test_exports_are_package_attributes(path):
    module = importlib.import_module(f"circlaw.{path.stem}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(circlaw, n)] == [], path.name


def _is_quad(call) -> bool:
    f = call.func
    return (isinstance(f, ast.Attribute) and f.attr == "quad") or (
        isinstance(f, ast.Name) and f.id == "quad"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_quad_error_estimates_are_kept(path):
    # a (value, abserr) pair unpacked into `_` discards the estimate that
    # certifies the value; every quad result must be named and checked
    lines = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and _is_quad(node.value):
            for target in node.targets:
                names = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
                if any(isinstance(t, ast.Name) and t.id == "_" for t in names):
                    lines.append(node.lineno)
    assert lines == [], f"{path.name}: quad error estimate discarded at lines {lines}"


# user-facing counts; errors._check_count refuses 2.5 where int() makes it 2
COUNTS = {"size", "shells", "max_steps", "n_nodes"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_counts_are_checked_not_truncated(path):
    lines = [
        node.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "int"
        and any(isinstance(a, ast.Name) and a.id in COUNTS for a in node.args)
    ]
    assert lines == [], f"{path.name}: bare int() of a count at lines {lines}; use errors._check_count"
