"""Acceptance criteria, one test per criterion, exact values throughout.

Timed criteria take the ``cold_caches`` fixture so the bound is measured
from a cold start.  The conftest hook prints one PASS/FAIL line per
criterion.
"""

import json
import math
import pathlib
import time

from implattice.algebra import (
    enumerate_all,
    full_algebra,
    is_sub,
    top_only,
)
from implattice.cli import main
from implattice.formulas import (
    chain_sum_corrected,
    chain_sum_printed,
    mobius_product_formula,
    mu_rank_sum_chain,
    mu_rank_sum_composition,
    mu_rank_sum_composition_printed,
    mu_rank_sum_oracle,
)
from implattice.poset import closure_theorem_check, mobius_between
from implattice.verify import run_claims

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def test_criterion_1_enumeration_counts(cold_caches, closed_families_oracle):
    start = time.perf_counter()
    counts = [len(enumerate_all(n)) for n in range(8)]
    elapsed = time.perf_counter() - start
    assert counts == [1, 2, 5, 15, 52, 203, 877, 4140]
    assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"
    for n in range(4):
        brute = {fam for fam in closed_families_oracle(n)}
        ours = {frozenset(A._element_masks) for A in enumerate_all(n)}
        assert ours == brute


def test_criterion_2_top_interval_mobius(cold_caches):
    start = time.perf_counter()
    for n in range(7):
        mu = mobius_between(top_only(n), full_algebra(n))
        assert mu == (-1) ** n * math.factorial(n), f"n={n}: got {mu}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.2f}s"


def test_criterion_3_product_formula_sweep():
    for n in range(5):
        top = full_algebra(n)
        lattices = enumerate_all(n)
        if n == 4:
            assert len(lattices) == 52
        for A in lattices:
            assert mobius_product_formula(A) == mobius_between(A, top)
    lattices = enumerate_all(5)
    top = full_algebra(5)
    total = len(lattices)
    sample_indices = sorted({i * total // 200 for i in range(200)})
    assert len(sample_indices) == 200
    for i in sample_indices:
        A = lattices[i]
        assert mobius_product_formula(A) == mobius_between(A, top)


def test_criterion_4_chain_sums_to_15(cold_caches):
    start = time.perf_counter()
    for n in range(1, 16):
        assert chain_sum_corrected(n) == (-1) ** n * math.factorial(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"corrected sums took {elapsed:.2f}s"
    for n in range(1, 16):
        assert chain_sum_printed(n) == (-1) ** n * math.factorial(n - 1)


def test_criterion_5_closure_theorem_all_pairs(cold_caches):
    start = time.perf_counter()
    for n in range(5):
        lattices = enumerate_all(n)
        for closure in ("complement", "up"):
            for y in lattices:
                for z in lattices:
                    if is_sub(y, z):
                        lhs, rhs = closure_theorem_check(closure, y, z)
                        assert lhs == rhs, (closure, n, y, z, lhs, rhs)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"closure identity sweep took {elapsed:.2f}s"


def test_criterion_6_lemma_suite():
    closure_claims = [
        "closure.complement.subalgebra",
        "closure.complement.fixed_points",
        "closure.complement.axioms",
        "closure.complement.saturation",
        "closure.up.axioms",
        "closure.up.saturation",
    ]
    for verdict in run_claims(closure_claims, 5):
        assert verdict.passed, verdict
    for verdict in run_claims(["iso.atom_transposition", "iso.equal_rank_subalgebras"], 4):
        assert verdict.passed, verdict


def test_criterion_7_product_decomposition():
    for verdict in run_claims(["product.pairing_bijection", "product.mu_multiplicative"], 4):
        assert verdict.passed, verdict


def test_criterion_8_rank_sum_three_way():
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert mu_rank_sum_chain(k, n) == mu_rank_sum_oracle(k, n)
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert mu_rank_sum_chain(k, n) == mu_rank_sum_composition(k, n)
    for n in range(1, 13):
        assert mu_rank_sum_chain(1, n) == (-1) ** (n - 1) * math.factorial(n - 1)
    # documented erratum values for the printed composition form
    assert mu_rank_sum_composition_printed(2, 2) == 2 != mu_rank_sum_oracle(2, 2) == 1
    assert mu_rank_sum_composition_printed(2, 3) == -6 != mu_rank_sum_oracle(2, 3) == -3


def test_criterion_9_cli_golden(tmp_path, capsys):
    out = tmp_path / "verify_all_nmax4.json"
    code = main(
        ["verify", "--suite", "all", "--n-max", "4", "--format", "json", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    got = out.read_bytes()
    want = (GOLDENS / "verify_all_nmax4.json").read_bytes()
    assert got == want
    assert json.loads(got)["summary"]["failed"] == 0
