"""Module hygiene of the library: every name a module imports is used in
that module, only ``algebra`` constructs ``ImpLattice`` objects, only
``verify`` constructs ``Verdict`` objects, the test helper that empties
the memos knows every memo and every row table, and importing the CLI
loads no heavy standard module that the interpreter does not load anyway.

``__init__.py`` is skipped: it imports names to re-export them.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

from implattice.verify import run_suite

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "implattice"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == [
        "os (line 1)",
        "b (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def constructor_calls(source: str, name: str = "ImpLattice") -> list[int]:
    """Lines that call ``name``, bare or as a module attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_checker_sees_a_constructor_call():
    source = (
        "from .algebra import ImpLattice\n"
        "def f(A: ImpLattice) -> ImpLattice:\n"
        "    return ImpLattice(A.n, A.base, ())\n"
        "key = algebra.ImpLattice.sort_key\n"
        "B = algebra.ImpLattice(0, e, ())\n"
    )
    assert constructor_calls(source) == [3, 5]


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE.glob("*.py") if p.name != "algebra.py"], ids=lambda p: p.name
)
def test_only_algebra_constructs_lattices(path):
    # every other module gets its lattices from algebra's intern table
    assert constructor_calls(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE.glob("*.py") if p.name != "verify.py"], ids=lambda p: p.name
)
def test_only_the_claim_registry_builds_verdicts(path):
    # library checks return their (lhs, rhs) pair; Claim.run makes the Verdict
    assert constructor_calls(path.read_text(encoding="utf-8"), "Verdict") == []


def library_globals(keep):
    """Every module-level object of a library module for which
    ``keep(module, name, obj)`` holds, keyed ``"module.name"``."""
    found = {}
    for path in MODULES:
        module = importlib.import_module(f"implattice.{path.stem}")
        for name, obj in vars(module).items():
            if keep(module, name, obj):
                found[f"{path.stem}.{name}"] = obj
    return found


def memoized_functions():
    """Every ``functools.cache`` function a library module defines, found by
    its ``cache_info`` attribute."""
    return library_globals(
        lambda module, name, obj: hasattr(obj, "cache_info") and obj.__module__ == module.__name__
    )


def row_tables():
    """Every module-level ``_*_ROWS`` list a library module defines: the
    tables that grow a row at a time from row 0."""
    return library_globals(
        lambda module, name, obj: name.startswith("_")
        and name.endswith("_ROWS")
        and isinstance(obj, list)
    )


def test_clear_caches_empties_every_memo(cold_caches):
    # the cold-cache tests rely on conftest.clear_caches missing no memo; a
    # small verify run fills every memo, so each clear below is observable
    memos = memoized_functions()
    assert "poset._order" in memos
    run_suite("all", 3)
    assert {name for name, fn in memos.items() if fn.cache_info().currsize} == set(memos)
    cold_caches()
    assert {name: fn.cache_info().currsize for name, fn in memos.items()} == dict.fromkeys(memos, 0)


def test_clear_caches_trims_every_row_table(cold_caches):
    # a row table the helper forgets would let a cold-cache test read rows
    # an earlier test built
    tables = row_tables()
    assert {
        "formulas._STIRLING_ROWS",
        "formulas._CHAIN_ROWS",
        "formulas._CORRECTED_ROWS",
        "formulas._COMPOSITION_ROWS",
    } <= set(tables)
    run_suite("all", 3)
    assert {name for name, rows in tables.items() if len(rows) > 1} == set(tables)
    cold_caches()
    assert {name: len(rows) for name, rows in tables.items()} == dict.fromkeys(tables, 1)


def modules_loaded_by(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``statement``, with the
    library's ``src`` first on its path."""
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_heavy_modules():
    # every CLI run is a cold process that pays for its imports: dataclasses
    # alone pulls in inspect, and with it ast, dis and tokenize
    baseline = modules_loaded_by("pass")
    cli = modules_loaded_by("import implattice.cli")
    assert "implattice.cli" in cli
    assert (cli - baseline) & {"dataclasses", "inspect", "ast"} == set()
