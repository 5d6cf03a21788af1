"""Static guards over the package source: no assert statements stand in
for runtime checks, no quadrature error estimate is thrown away, and
every export list names only what its module defines."""

import ast
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
