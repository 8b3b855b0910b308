"""Module hygiene of the library: every name a module imports is used in
that module, each module imports only the layers before it, only
``algebra`` constructs ``ImpLattice`` objects, only ``verify`` constructs
``Verdict`` objects, the test helper that empties the memos knows every
memo and every row table, and importing the CLI loads no heavy standard
module that the interpreter does not load anyway.  The package loads each
submodule when one of its names is first read, so ``import implattice``
loads none, and only the commands that run claims load the claim registry.

``__init__.py`` is skipped: it names the other modules only to load them
when their names are first read.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import implattice
from implattice import cli
from implattice.formulas import stirling1
from implattice.verify import SUITES, run_suite

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


# each module may import only the modules before it: the oracle (poset)
# never imports the closed forms (formulas) it is checked against
LAYERS = ("algebra", "poset", "formulas", "verify", "cli", "__main__")


def package_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports, relatively or by the
    package name, at module level or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import inside the package starts from the package
            module = ".".join(filter(None, ["implattice" if node.level else "", node.module]))
            names = [f"{module}.{a.name}" for a in node.names] if module == "implattice" else [module]
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("implattice.")}
    return found


def later_layers(stem: str, source: str) -> set[str]:
    """The package modules ``source``, module ``stem``, imports that do not
    come before it in :data:`LAYERS`."""
    return package_imports(source) - set(LAYERS[: LAYERS.index(stem)])


def test_checker_sees_every_form_of_package_import():
    source = (
        "import json\n"
        "from . import algebra, formulas\n"
        "from .poset import interval\n"
        "import implattice.verify\n"
        "from implattice import cli\n"
        "def f():\n"
        "    from implattice.poset import _slice\n"
        "    from .__main__ import main\n"
    )
    assert package_imports(source) == {"algebra", "formulas", "poset", "verify", "cli", "__main__"}


def test_layers_name_every_module():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_earlier_layers(path):
    assert later_layers(path.stem, path.read_text(encoding="utf-8")) == set()


def test_layer_guard_sees_the_oracle_import_a_closed_form():
    source = (PACKAGE / "poset.py").read_text(encoding="utf-8")
    assert later_layers("poset", source + "from .formulas import bell\n") == {"formulas"}


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
    # an earlier test built; no claim reads the first-kind Stirling rows, so
    # they are grown by hand
    tables = row_tables()
    assert {
        "formulas._STIRLING_ROWS",
        "formulas._STIRLING1_ROWS",
        "formulas._CHAIN_ROWS",
        "formulas._CORRECTED_ROWS",
        "formulas._COMPOSITION_ROWS",
    } <= set(tables)
    run_suite("all", 3)
    stirling1(3, 1)
    assert {name for name, rows in tables.items() if len(rows) > 1} == set(tables)
    cold_caches()
    assert {name: len(rows) for name, rows in tables.items()} == dict.fromkeys(tables, 1)


def run_fresh(source: str, *args: str) -> str:
    """Standard output of ``source`` run with ``args`` in a fresh
    interpreter, with the library's ``src`` first on its path."""
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", source, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout


def modules_loaded_by(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    return set(run_fresh(f"{statement}\nimport sys\nprint(*sys.modules)").split())


def test_cli_import_loads_no_heavy_modules():
    # every CLI run is a cold process that pays for its imports: dataclasses
    # alone pulls in inspect, and with it ast, dis and tokenize
    baseline = modules_loaded_by("pass")
    cli = modules_loaded_by("import implattice.cli")
    assert "implattice.cli" in cli
    assert (cli - baseline) & {"dataclasses", "inspect", "ast"} == set()


# every public name of the package, by the submodule that defines it; a
# submodule is a public name of its own
PUBLIC = {
    "algebra": (
        "algebra", "ContextMismatchError", "Element", "EmptyError", "ImpLattice",
        "NotClosedError", "Verdict", "apply_atom_permutation", "complement",
        "complement_closure", "elements", "enumerate_all", "from_elements", "full_algebra",
        "implies", "is_boolean_subalgebra", "is_sub", "is_ultrafilter", "join",
        "lattice_from_dict", "lattice_from_json", "lattice_to_dict", "lattice_to_json", "meet",
        "principal_ultrafilter", "top_only", "up_closure",
    ),
    "formulas": (
        "formulas", "NonIntegerResultError", "bell", "chain_count", "chain_sum_corrected",
        "chain_sum_printed", "factorial", "mobius_product_formula",
        "mobius_product_formula_printed", "mu_rank_sum_chain", "mu_rank_sum_composition",
        "mu_rank_sum_composition_printed", "mu_rank_sum_oracle", "mu_top_closed_form",
        "partition_mobius", "rank_one_chain_identity", "stirling1", "stirling2",
    ),
    "poset": (
        "poset", "AtomNotBelowBaseError", "IntervalPoset", "NotClosedEndpointError",
        "NotComparableError", "closed_suborder", "closure_theorem_check", "interval",
        "interval_isomorphism_via_permutation", "interval_to_dict", "interval_to_dot",
        "interval_to_json", "maximal_chain_length", "mobius_between", "mobius_oracle",
        "product_decomposition",
    ),
    "verify": ("verify", "SUITES", "run_claims", "run_suite", "summarize"),
}
PUBLIC_NAMES = [name for names in PUBLIC.values() for name in names]


def test_package_import_loads_no_submodule():
    assert modules_loaded_by("import implattice") - modules_loaded_by("pass") == {"implattice"}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_public_name_is_its_submodules_object(module, name):
    source = importlib.import_module(f"implattice.{module}")
    assert getattr(implattice, name) is (source if name == module else getattr(source, name))


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from implattice import *", namespace)
    assert len(set(PUBLIC_NAMES)) == 66
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
    assert sorted(implattice.__all__) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(implattice))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'implattice' has no attribute 'no_such_name'$"):
        implattice.no_such_name


# eight threads read every public name of a fresh package at the same
# moment; the probe prints whether each got, for each name, the object its
# submodule holds
THREADED_READS = """
import sys, threading
import implattice
pairs = [arg.split(":") for arg in sys.argv[1:]]
start = threading.Barrier(8)
got = [None] * 8
def read(i):
    start.wait()
    got[i] = [getattr(implattice, name) for _, name in pairs]
threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
modules = [sys.modules[f"implattice.{module}"] for module, _ in pairs]
own = [m if name == module else getattr(m, name) for m, (module, name) in zip(modules, pairs)]
print(*(all(a is b for a, b in zip(objects, own, strict=True)) for objects in got))
"""


def test_threads_resolve_every_name_to_its_object():
    # the library may be called from several threads, so two first reads of
    # one name may race; each must get the one object the submodule holds
    pairs = [f"{module}:{name}" for module, names in PUBLIC.items() for name in names]
    assert run_fresh(THREADED_READS, *pairs).split() == ["True"] * 8


# runs one CLI command as ``python -m implattice`` does, its output dropped,
# and prints its exit code and then sys.modules
COMMAND_PROBE = """
import contextlib, io, runpy, sys
sys.argv = ["implattice", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("implattice", run_name="__main__")
    except SystemExit as exit:
        code = exit.code
print(code, *sys.modules)
"""


@pytest.mark.parametrize(
    "argv, loads_claims",
    [
        ("enumerate --n 1", False),
        ("mobius --n 2", False),
        ("export --n 2", False),
        ("table --n 2", False),
        ("verify --n-max 1", True),
        ("identity --n-max 1", True),
    ],
)
def test_only_the_claim_commands_load_the_registry(argv, loads_claims):
    code, *modules = run_fresh(COMMAND_PROBE, *argv.split()).split()
    assert code == "0"
    assert ("implattice.verify" in modules) == loads_claims


def test_cli_import_loads_the_traced_modules():
    # perfbench/inproc.py imports implattice.cli, and then the tracer's
    # install() looks up the functions it wraps in sys.modules: the modules
    # that define them must be loaded by that import, not on first use
    loaded = modules_loaded_by("import implattice.cli")
    assert {f"implattice.{m}" for m in ("algebra", "poset", "formulas", "cli")} <= loaded


def test_suite_choices_are_the_registrys_suites():
    # the parser names the suites without loading the claim registry
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert suite.choices == ("all",) + SUITES
