#!/usr/bin/env python3
"""Rebuild each registered mutant and check that its tests still kill it.

A mutant is one exact edit that breaks a guarded behaviour: a file, a
snippet that must occur exactly once in it, its replacement, and the test
ids that must fail once the edit is made.  For each mutant the script copies
``src/`` and ``tests/`` into a temporary directory, makes the edit there and
runs ``python -m pytest -q -x`` on the mutant's ids, one subprocess at a
time.  First the ids of every mutant run once on an unmutated copy,
where they must pass, so that a kill comes from the mutant and not from the
copy.  The script exits 1 if a snippet does not occur exactly once, if the
unmutated copy fails, or if a mutant survives.

    python scripts/mutants.py    # about 70 s on 2 cores

A change that adds a guard appends the mutants its guard kills.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMEOUT_S = 120  # a mutant whose tests hang counts as survived


class Mutant(NamedTuple):
    name: str
    path: str  # from the repository root, under src/ or tests/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids from the repository root


ALGEBRA, POSET, FORMULAS = (f"src/implattice/{m}.py" for m in ("algebra", "poset", "formulas"))
VERIFY, CLI = "src/implattice/verify.py", "src/implattice/cli.py"
PACKAGE = "src/implattice/__init__.py"

MUTANTS = (
    Mutant(
        "constructor without the block-order check", ALGEBRA,
        "            if b & -b < least:\n", "            if False:\n",
        ("tests/test_algebra.py::test_blocks_canonical_order",),
    ),
    Mutant(
        "chain_count counting one chain too many per gap", FORMULAS,
        "2 ** (n - k - 1)", "2 ** (n - k)",
        (
            "tests/test_formulas.py::test_chain_sums_against_explicit_enumeration",
            "tests/test_formulas.py::test_rank_chain_against_explicit_enumeration",
        ),
    ),
    Mutant(
        "containment columns ORed over the elements in E_j", POSET,
        "for e in every.difference(A._element_masks):", "for e in A._element_masks:",
        ("tests/test_poset.py::test_containment_matches_the_pairwise_order",),
    ),
    Mutant(
        "_inside joining the up- and down-sets", POSET,
        "_bits(up[a] & L.down[c])", "_bits(up[a] | L.down[c])",
        ("tests/test_poset.py::test_slice_equals_the_walk_every_interval",),
    ),
    Mutant(
        "closed_suborder without the fixed-point filter", POSET,
        " if cl[g] == g]", "]",
        ("tests/test_poset.py::test_closed_suborder_members",),
    ),
    Mutant(
        "_restricted taking the lower index from upper", POSET,
        "at.index(index[lower.key]), at.index(index[upper.key])",
        "at.index(index[upper.key]), at.index(index[upper.key])",
        ("tests/test_poset.py::test_slice_equals_the_walk_every_interval",),
    ),
    Mutant(
        "records that allow assignment", ALGEBRA,
        'raise AttributeError(f"cannot assign to field {name!r} of a frozen record")',
        "object.__setattr__(self, name, value)",
        ("tests/test_algebra.py::test_records_are_frozen_values",),
    ),
    Mutant(
        "lattice == without the same-class check", ALGEBRA,
        "(other.n, other.key) if other.__class__ is self.__class__ else NotImplemented", "(other.n, other.key)",
        ("tests/test_algebra.py::test_records_are_frozen_values",),
    ),
    Mutant(
        "_per_class keyed by g instead of its class", VERIFY,
        "if (c := cl[g]) not in verdicts:", "if (c := g) not in verdicts:",
        (
            "tests/test_verify.py::test_closure_theorem_fails_exactly_the_pairs_of_the_failing_class",
            "tests/test_verify.py::test_monotone_half_fails_exactly_the_pairs_of_the_failing_class",
        ),
    ),
    Mutant(
        "stdout written without a flush", CLI,
        'print(text, end="", flush=True)', 'print(text, end="")',
        ("tests/test_cli.py::test_closed_stdout_is_a_usage_error",),
    ),
    Mutant(
        "entry without gc.freeze()", CLI,
        "        gc.freeze()\n", "        pass\n",
        ("tests/test_cli.py::test_main_module_leaves_the_collector_off",),
    ),
    Mutant(
        "_contraction mapping the base atoms to themselves", ALGEBRA,
        "    images = [0] * C.n\n", "    images = [1 << x for x in range(C.n)]\n",
        ("tests/test_poset.py::test_contraction_maps_every_interval_onto_a_whole_order",),
    ),
    Mutant(
        "_factors taking p1 as the whole interval", POSET,
        "_slice(_interned(w, *A.key, _contraction(up_closure(A))), full_algebra(w))",
        "_slice(A, full_algebra(A.n))",
        ("tests/test_poset.py::test_the_pairing_is_not_kept", "tests/test_poset.py::test_product_examples"),
    ),
    Mutant(
        "stirling1 adding m * s(m, k)", FORMULAS,
        "prev[k - 1] - m * prev[k]", "prev[k - 1] + m * prev[k]",
        (
            "tests/test_formulas.py::test_stirling1_is_the_rank_sum_up_to_100",
            "tests/test_formulas.py::test_stirling_kinds_are_mutually_inverse",
        ),
    ),
    Mutant(
        "the walk's seen keyed by blocks[1:]", POSET,
        "            p = seen.get(key)\n            if p is None:\n                p = seen[key] = len(kept)\n",
        "            p = seen.get(key[1:])\n            if p is None:\n"
        "                p = seen[key[1:]] = len(kept)\n",
        (
            "tests/test_poset.py::test_interval_members_are_exactly_the_between_set",
            "tests/test_poset.py::test_walk_past_the_cap",
        ),
    ),
    Mutant(
        "_layers by base rank", POSET,
        "layers[len(A.key[1])].append(i)", "layers[A.key[0].bit_count()].append(i)",
        ("tests/test_poset.py::test_whole_order_matches_is_sub_beyond_n4",),
    ),
    Mutant(
        "export's edge groups joined without their comma", POSET,
        'f"\\n    ],\\n    {head}"', 'f"\\n    ]\\n    {head}"',
        ("tests/test_poset.py::test_interval_json_writer_matches_the_encoder",),
    ),
    Mutant(
        "identity's closed_form read from the corrected lhs", CLI,
        '(c.params["n"], c.rhs, c.lhs,', '(c.params["n"], c.lhs, c.lhs,',
        ("tests/test_cli.py::test_identity_reports_the_method2_verdicts",),
    ),
    Mutant(
        "identity's printed_ok taken from the corrected verdict", CLI,
        "c.passed, p.passed)", "c.passed, c.passed)",
        ("tests/test_cli.py::test_identity_reports_the_method2_verdicts",),
    ),
    Mutant(
        "chain_sum_printed without its minus sign", FORMULAS,
        "return -mu_rank_sum_chain(1, n)", "return mu_rank_sum_chain(1, n)",
        ("tests/test_cli.py::test_identity_reports_the_method2_verdicts",),
    ),
    Mutant(
        "an empty --out taken as stdout", CLI,
        "if args.out is not None:", "if args.out:",
        ("tests/test_cli.py::test_empty_out_is_usage_error",),
    ),
    Mutant(
        "an n past any shift left to crash", CLI,
        "except (OverflowError,", "except (ZeroDivisionError,",
        ("tests/test_cli.py::test_n_past_any_shift_is_a_usage_error",),
    ),
    Mutant(
        "cli importing the claim registry at module level", CLI,
        "\nPOSET_CAP = 8\n", "\nfrom .verify import run_suite\n\nPOSET_CAP = 8\n",
        ("tests/test_imports.py::test_only_the_claim_commands_load_the_registry",),
    ),
    Mutant(
        "the lazy table sourcing SUITES from poset", PACKAGE,
        '"product_decomposition",\n    ),\n    "verify": ("SUITES", ',
        '"product_decomposition", "SUITES",\n    ),\n    "verify": (',
        ("tests/test_imports.py::test_public_name_is_its_submodules_object",),
    ),
    Mutant(
        "the package returning None for an unknown name", PACKAGE,
        'raise AttributeError(f"module {__name__!r} has no attribute {name!r}")', "return None",
        ("tests/test_imports.py::test_unknown_name_is_an_attribute_error",),
    ),
    Mutant(
        "the parser's suite names without pkb", CLI,
        '"pkb", ', "",
        ("tests/test_imports.py::test_suite_choices_are_the_registrys_suites",),
    ),
    Mutant(
        "the layer fold reading the current block count's down-sets", POSET,
        "mask |= prev[j]", "mask |= now.get(j, 0)",
        (
            "tests/test_poset.py::test_value_class_fold_matches_the_per_bit_fold",
            "tests/test_poset.py::test_slice_equals_the_walk_every_interval",
        ),
    ),
    Mutant(
        "a layer's class bit set at the member index", POSET,
        "out.append((i, p, mask))", "out.append((i, i, mask))",
        (
            "tests/test_poset.py::test_value_class_fold_matches_the_per_bit_fold",
            "tests/test_poset.py::test_slice_equals_the_walk_every_interval",
        ),
    ),
    Mutant(
        "every poset folding over its order", POSET,
        "    for layer in poset._downs():", "    for layer in _Restricted._downs(poset):",
        ("tests/test_poset.py::test_exports_build_no_order",),
    ),
    Mutant(
        "the chain length building the order first", POSET,
        "default=-1) + 1)\n", "default=-1) + 1) if poset.down else []\n",
        ("tests/test_poset.py::test_exports_build_no_order",),
    ),
    Mutant(
        "up-sets filled over the layers bottom first", POSET,
        "reversed(_layers(L.members))", "_layers(L.members)",
        ("tests/test_poset.py::test_per_n_order_is_is_sub_both_ways",),
    ),
    Mutant(
        "export wired to cmd_mobius", CLI,
        "add_common(p, cmd_export,", "add_common(p, cmd_mobius,",
        (
            "tests/test_cli.py::test_every_subcommand_runs_its_own_handler[export]",
            "tests/test_cli.py::test_export_bytes_are_pinned",
        ),
    ),
    Mutant(
        "MemoryError left to a traceback", CLI,
        "MemoryError) as exc:", "ZeroDivisionError) as exc:",
        ("tests/test_cli.py::test_running_out_of_memory_is_a_usage_error",),
    ),
    Mutant(
        "is_sub without its base test", ALGEBRA,
        "    if base2 & ~base1:\n        return False\n", "",
        (
            "tests/test_algebra.py::test_is_sub_examples",
            "tests/test_algebra.py::test_is_sub_matches_element_inclusion",
        ),
    ),
    Mutant(
        "forked verdicts merged in completion order", VERIFY,
        "    return sorted(verdicts, key=lambda v: rank[v.claim])\n", "    return verdicts\n",
        ("tests/test_verify.py::test_forked_stdout_is_the_serial_stdout",),
    ),
    Mutant(
        "a claim given to no worker", VERIFY,
        "        for cost, unit in costed:\n", "        for cost, unit in costed[:-1]:\n",
        ("tests/test_verify.py::test_forked_stdout_is_the_serial_stdout",),
    ),
    Mutant(
        "one worker's verdicts dropped", VERIFY,
        "            verdicts += _result(data, status)\n", "            _result(data, status)\n",
        ("tests/test_verify.py::test_forked_stdout_is_the_serial_stdout",),
    ),
    Mutant(
        "forking under a trace or profile hook", VERIFY,
        "    hooked = sys.gettrace() or sys.getprofile()\n", "    hooked = False\n",
        ("tests/test_verify.py::test_a_trace_or_profile_hook_keeps_verify_in_one_process",),
    ),
    Mutant(
        "forking beside another thread", VERIFY,
        " or threading.active_count() > 1:", ":",
        ("tests/test_verify.py::test_another_thread_keeps_verify_in_one_process",),
    ),
    Mutant(
        "a failed fork leaking its pipe", VERIFY,
        "                os.close(read)\n                os.close(write)\n", "",
        ("tests/test_verify.py::test_a_failed_fork_exits_2",),
    ),
    Mutant(
        "a worker left unreaped when the caller fails", VERIFY,
        "            os.kill(pid, signal.SIGKILL)\n            os.waitpid(pid, 0)\n",
        "            os.kill(pid, signal.SIGKILL)\n",
        ("tests/test_verify.py::test_a_failing_run_exits_2_and_leaves_no_worker",),
    ),
)


def snippet_problems(mutants=MUTANTS) -> list[str]:
    """One line per mutant whose snippet does not occur exactly once in the
    current source."""
    problems = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.snippet)
        if count != 1:
            problems.append(f"{m.name}: snippet occurs {count} times in {m.path}")
    return problems


def run_pytest(mutant: Mutant | None, ids) -> int | None:
    """pytest's exit code on ``ids`` in a fresh copy of src/ and tests/ with
    the mutant's edit made, or None when the run exceeds the timeout."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            target = copy / mutant.path
            target.write_text(target.read_text(encoding="utf-8").replace(mutant.snippet, mutant.replacement))
        paths = [str(copy / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", *ids]
        try:
            return subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return None


def main() -> int:
    problems = snippet_problems()
    for line in problems:
        print(f"BAD SNIPPET {line}")
    if problems:
        return 1
    start = time.perf_counter()
    ids = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    if (code := run_pytest(None, ids)) != 0:
        print(f"the unmutated copy fails its tests (pytest exit {code})")
        return 1
    survived = 0
    for m in MUTANTS:
        code = run_pytest(m, m.tests)
        killed = code == 1  # 1: a test failed; 0 passed, anything else did not run them
        survived += not killed
        verdict = "killed  " if killed else "SURVIVED" if code in (0, None) else f"ERROR {code}"
        print(f"{verdict} {m.name}", flush=True)
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - survived} killed, {survived} not killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
