"""The mutant registry of ``scripts/mutants.py`` still fits the code: every
snippet occurs exactly once in the current source, and every test that must
kill a mutant exists.  Running the mutants is the script's job, not tier-1's."""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_every_snippet_occurs_exactly_once():
    mutants = load_mutants()
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert all(m.path.startswith(("src/", "tests/")) for m in mutants.MUTANTS)
    assert mutants.snippet_problems() == []


def test_the_checker_sees_a_missing_and_a_repeated_snippet():
    mutants = load_mutants()
    m = mutants.MUTANTS[0]
    assert mutants.snippet_problems([m._replace(snippet=m.replacement + "#")]) == [
        f"{m.name}: snippet occurs 0 times in {m.path}"
    ]
    assert mutants.snippet_problems([m._replace(snippet="\n")])[0].startswith(f"{m.name}: snippet occurs ")


def test_every_named_test_exists():
    # a node id is a test file and a test function in it; a parameter id in
    # brackets is left to pytest, which the script runs on an unmutated copy first
    functions = {}
    for m in load_mutants().MUTANTS:
        assert m.tests
        for node in m.tests:
            path, _, name = node.partition("::")
            if path not in functions:
                tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
                functions[path] = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
            assert name.partition("[")[0] in functions[path], node
