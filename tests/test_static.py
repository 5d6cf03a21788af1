"""Static guards over the package source: no assert statements stand in
for runtime checks, no quadrature error estimate is thrown away, no user
count is truncated by a bare int(), every export list names only what
its module defines and the package re-exports, every export is used by
the package beyond its re-export, every import is the standard
library, the package itself or a declared dependency, and scipy is
imported only inside function bodies, the line kernels' node sums
run in real arithmetic, and no module-level array is writable."""

import ast
import importlib
import re
import sys
from pathlib import Path

import numpy as np
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


# cli is the console entry point (circlaw.cli:main) and validation the suite
# behind `circlaw validate`, which the package does not import; every other
# module's exports are circlaw.<name>
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem not in ("__init__", "cli", "validation")], ids=lambda p: p.stem
)
def test_exports_are_package_attributes(path):
    module = importlib.import_module(f"circlaw.{path.stem}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(circlaw, n)] == [], path.name


# exports that no other code of the package uses, each with the reason it stays
UNUSED_EXPORTS_KEPT = {
    "von_mises_density": "the abstract's Von Mises comparison, until its validate row lands",
    "von_mises_density_series": "the Von Mises comparison's second route, until its row lands",
    "von_mises_matched_kappa": "the Von Mises comparison's moment match, until its row lands",
    "sample": "the rejection sampler the benchmark's sampling workload draws from (ROADMAP item 11)",
    "line_density_even": "the paper's even-order solution on the line; even_circle_density_wrapped"
    " sums its kernel (line._line_values) with the arguments checked once",
    "line_density_odd": "the paper's odd-order solution on the line; odd_circle_density_wrapped"
    " sums its bodies (line._third_values, line._line_values) with the arguments checked once",
}


def test_package_surface_is_the_module_exports():
    # __init__ only star-imports each module's __all__: a name bound there
    # would be a second declaration of the surface
    others = []
    for node in parse(Path(circlaw.__file__)).body:
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        star = isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
        version = isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__version__"]
        if not (docstring or star or version):
            others.append(node.lineno)
    assert others == [], f"__init__ binds names at lines {others}"


def _uses(path):
    """Names a module reads or imports; the package's re-exports do not count."""
    if path.stem == "__init__":
        return set()
    used = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


# cli's export is the console entry point (circlaw.cli:main)
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem not in ("__init__", "cli")], ids=lambda p: p.stem
)
def test_exports_are_used_by_the_package(path):
    # an export only the tests reach is surface without a caller: it backs
    # a CLI command, a validate row or another export, or it goes
    exported = getattr(importlib.import_module(f"circlaw.{path.stem}"), "__all__", [])
    used = set().union(*(_uses(p) for p in MODULES))
    unused = [n for n in exported if n not in used and n not in UNUSED_EXPORTS_KEPT]
    assert unused == [], path.name


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


def _declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    specs = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower().replace("-", "_") for spec in specs}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_are_declared(path):
    # a runtime import of an undeclared package works only where the
    # package happens to be installed
    allowed = set(sys.stdlib_module_names) | {"circlaw"} | _declared_dependencies()
    imported = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert sorted(imported - allowed) == [], path.name


# the modules that own the term budget: special defines it and
# harmonic.certified_cutoff spends it; every other count goes through that
BUDGET_OWNERS = {"special", "harmonic"}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem not in BUDGET_OWNERS], ids=lambda p: p.stem
)
def test_term_budget_is_spent_only_by_the_cutoff(path):
    # a loop capped by MAX_TERMS is a truncation search of its own
    lines = [
        node.lineno
        for node in ast.walk(parse(path))
        if (isinstance(node, ast.Name) and node.id == "MAX_TERMS")
        or (isinstance(node, ast.alias) and "MAX_TERMS" in (node.name, node.asname))
        or (isinstance(node, ast.Attribute) and node.attr == "MAX_TERMS")
    ]
    assert lines == [], f"{path.name}: MAX_TERMS at lines {lines}; use harmonic.certified_cutoff"


def _module_level_imports(node, in_function=False):
    """(lineno, top-level package) of every import not inside a function body."""
    found = []
    for child in ast.iter_child_nodes(node):
        inside = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        if not inside and isinstance(child, ast.Import):
            found += [(child.lineno, alias.name.split(".")[0]) for alias in child.names]
        elif not inside and isinstance(child, ast.ImportFrom) and child.level == 0:
            found.append((child.lineno, child.module.split(".")[0]))
        found += _module_level_imports(child, inside)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_scipy_is_imported_only_inside_functions(path):
    # importing the package loads no scipy: the few routes that need it
    # (the Von Mises functions) load it when called
    lines = [line for line, package in _module_level_imports(parse(path)) if package == "scipy"]
    assert lines == [], f"{path.name}: scipy imported at module level at lines {lines}"


# the line functions that must run in real arithmetic
REAL_KERNELS = {
    "_two_term_ray", "_saddle_ray", "_gauss_sums", "_airy_oscillating",
    # the rule sizing of every call and the per-order tables it reads
    "_rule_sizes", "_ray_table", "_saddle_table", "_leg_table",
}


def test_line_kernels_are_real():
    # a complex constant (1j), complex(...) or a complex dtype in these
    # bodies would bring back a complex exp or complex Horner steps per node
    path = Path(circlaw.__file__).parent / "line.py"
    nodes = parse(path).body
    bodies = [n for n in nodes if isinstance(n, ast.FunctionDef) and n.name in REAL_KERNELS]
    assert {n.name for n in bodies} == REAL_KERNELS
    found = [
        (body.name, node.lineno)
        for body in bodies
        for node in ast.walk(body)
        if (isinstance(node, ast.Constant) and isinstance(node.value, complex))
        or (isinstance(node, ast.Name) and node.id == "complex")
        or (isinstance(node, ast.Attribute) and node.attr.startswith("complex"))
    ]
    assert found == [], f"line.py: complex arithmetic at {found}"


# one representative argument tuple for every lru_cache'd helper of the
# package; a cache added without an entry here fails the test below
CACHED_CALLS = {
    "cli": {"_csv_grid": (9,), "_build_parser": (), "_ten_powers": (1,), "_digit_tables": ()},
    "lattice": {"_bernoulli_ratios": (), "_factorials": (), "series_length": (2.5, False)},
    "line": {
        "_gauss_legendre": (96,),
        "_gamma_column": (5,),
        "_node_powers": (96, 4),
        "_two_term": (4,),
        "_ray_table": (4,),
        "_saddle_table": (5,),
        "_leg_table": (5,),
        "_line_bound": (4,),
        "_shell_count": (4, 1.0, circlaw.special.DEFAULT_TOL),
        "_shell_row": (6,),
    },
    "special": {"_ml_nodes": (0.5, 1e-10)},
}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"], ids=lambda p: p.stem)
def test_module_arrays_are_read_only(path):
    # a module-level array is shared by every caller in the process, as a
    # cached one is: a caller that wrote into it would move every later value
    module = importlib.import_module(f"circlaw.{path.stem}")
    writable = [k for k, v in vars(module).items() if isinstance(v, np.ndarray) and v.flags.writeable]
    assert writable == [], path.name
    calls = CACHED_CALLS.get(path.stem, {})
    cached = {k for k, v in vars(module).items() if hasattr(v, "cache_info") and v.__module__ == module.__name__}
    assert cached == set(calls)
    for name, args in calls.items():
        out = getattr(module, name)(*args)
        arrays = [a for a in (out if isinstance(out, tuple) else (out,)) if isinstance(a, np.ndarray)]
        assert [a.flags.writeable for a in arrays] == [False] * len(arrays), name


# perfbench/tracing.py wraps these private names by name and skips a missing
# one without a word; pseudo._grid_min moved to validation (CHANGES.md FOUND
# on the tracer's EXTRA), the one known miss
EXTRA_KNOWN_MISSES = {("pseudo", "_grid_min")}


def test_tracer_extra_names_resolve():
    # fractional._space_time_coeffs, for one, must stay the space-time
    # coefficient builder for the fractional.terms_built counter to count
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    extra = next(
        ast.literal_eval(node.value)
        for node in parse(tracing).body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["EXTRA"]
    )
    missing = {
        (module, name)
        for module, names in extra.items()
        for name in names
        if not hasattr(importlib.import_module(f"circlaw.{module}"), name)
    }
    assert missing == EXTRA_KNOWN_MISSES


def test_validation_rows_reduce_with_numpy():
    # builtin max and min skip a NaN (max(0.0, nan) is 0.0), so every row
    # reduces through validation._gap or _top; the one builtin left picks a
    # KS threshold
    path = Path(circlaw.__file__).parent / "validation.py"
    calls = [
        ast.unparse(node)
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("max", "min")
    ]
    assert calls == ["max(pinned, tol)"]


def test_cli_flags_are_declared_once():
    # every option of the command line is a row of cli._COMMANDS: the one
    # add_argument call sits in the loop over that table, so argparse and
    # cli._parse_table cannot read different flags
    path = Path(circlaw.__file__).parent / "cli.py"
    tree = parse(path)
    loops = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and "_COMMANDS" in {n.id for n in ast.walk(node.iter) if isinstance(n, ast.Name)}
    ]
    inside = {id(n) for loop in loops for n in ast.walk(loop)}
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"
    ]
    assert calls and all(id(c) in inside for c in calls)
