import functools
import math
import pathlib
import random
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implattice import formulas
from implattice.algebra import ImpLattice, enumerate_all, full_algebra, top_only
from implattice.algebra import _set_partitions
from implattice.formulas import (
    bell,
    chain_count,
    chain_sum_corrected,
    chain_sum_printed,
    factorial,
    mobius_product_formula,
    mobius_product_formula_printed,
    mu_rank_sum_chain,
    mu_rank_sum_composition,
    mu_rank_sum_composition_printed,
    mu_rank_sum_oracle,
    mu_top_closed_form,
    partition_mobius,
    rank_one_chain_identity,
    stirling2,
)
from implattice.poset import mobius_between


def mask(atoms):
    return sum(1 << a for a in atoms)


def lat(n, base, *blocks):
    return ImpLattice(n, (mask(base), tuple(mask(b) for b in blocks)))


def stirling_product(chain):
    prod = 1
    for a, b in zip(chain, chain[1:]):
        prod *= stirling2(a, b)
    return prod


# --- basic arithmetic -------------------------------------------------------


def test_stirling_values():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    for n in range(8):
        assert stirling2(n, n) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(0, 0) == 1
    assert stirling2(3, 7) == 0


def test_bell_values():
    assert [bell(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_bell_rejects_negative_n():
    # an empty Stirling row would sum to 0; like its siblings, bell raises
    with pytest.raises(ValueError):
        bell(-1)


def test_bell_binomial_recurrence():
    # B(n+1) = sum_j C(n,j) B(j), and |A(B_n)| = B(n+1)
    for n in range(8):
        assert bell(n + 1) == sum(math.comb(n, j) * bell(j) for j in range(n + 1))
    for n in range(7):
        assert len(enumerate_all(n)) == bell(n + 1)


def test_stirling_counts_boolean_subalgebras():
    for n in range(7):
        by_rank = {}
        for A in enumerate_all(n):
            if A.base.mask == 0:
                by_rank[A.w] = by_rank.get(A.w, 0) + 1
        for k in range(1, n + 1):
            assert by_rank.get(k, 0) == stirling2(n, k)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
def test_stirling_inclusion_exclusion(n, k):
    if k > n:
        assert stirling2(n, k) == 0
        return
    # independent route: S(n,k) = (1/k!) sum_j (-1)^j C(k,j) (k-j)^n
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    assert total % math.factorial(k) == 0
    assert stirling2(n, k) == total // math.factorial(k)


def test_domain_errors():
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        stirling2(3, -2)
    with pytest.raises(ValueError):
        factorial(-1)
    with pytest.raises(ValueError):
        chain_sum_printed(0)
    with pytest.raises(ValueError):
        chain_sum_corrected(0)
    with pytest.raises(ValueError):
        mu_top_closed_form(-1)
    for bad_k, bad_n in ((0, 3), (4, 3), (-1, 2)):
        with pytest.raises(ValueError):
            chain_count(bad_k, bad_n)
        with pytest.raises(ValueError):
            mu_rank_sum_chain(bad_k, bad_n)
        with pytest.raises(ValueError):
            mu_rank_sum_oracle(bad_k, bad_n)
        with pytest.raises(ValueError):
            mu_rank_sum_composition(bad_k, bad_n)


def test_partition_mobius_values():
    assert partition_mobius([1, 1, 1]) == 1
    assert partition_mobius([2]) == -1
    assert partition_mobius([3, 1]) == 2
    assert partition_mobius([4]) == -6
    assert partition_mobius([2, 2]) == 1


# --- product closed form ----------------------------------------------------


def test_product_formula_examples():
    for n in range(5):
        assert mobius_product_formula(full_algebra(n)) == 1
        assert mobius_product_formula(top_only(n)) == (-1) ** n * math.factorial(n)
    assert mobius_product_formula(lat(2, [0], [1])) == -1


def test_product_formula_matches_oracle():
    for n in range(5):
        top = full_algebra(n)
        for A in enumerate_all(n):
            assert mobius_product_formula(A) == mobius_between(A, top)


def test_printed_sign_wrong_exactly_for_odd_base_rank():
    for n in range(5):
        top = full_algebra(n)
        for A in enumerate_all(n):
            printed = mobius_product_formula_printed(A)
            oracle = mobius_between(A, top)
            if A.base.rank % 2 == 0:
                assert printed == oracle
            else:
                assert printed == -oracle != oracle
    # the pinned counterexample: a principal ultrafilter inside B_2
    assert mobius_product_formula_printed(lat(2, [0], [1])) == 1
    assert mobius_between(lat(2, [0], [1]), full_algebra(2)) == -1


# --- chain sums --------------------------------------------------------------


def test_chain_sum_values():
    assert [chain_sum_printed(n) for n in range(1, 4)] == [-1, 1, -2]
    assert [chain_sum_corrected(n) for n in range(1, 4)] == [-1, 2, -6]
    assert chain_sum_corrected(4) == 24


def test_corrected_equals_signed_factorial_up_to_15():
    for n in range(1, 16):
        assert chain_sum_corrected(n) == (-1) ** n * math.factorial(n)
        assert chain_sum_corrected(n) == mu_top_closed_form(n)


def test_printed_equals_signed_shifted_factorial_up_to_15():
    for n in range(1, 16):
        assert chain_sum_printed(n) == (-1) ** n * math.factorial(n - 1)


def test_corrected_matches_oracle():
    for n in range(1, 7):
        assert chain_sum_corrected(n) == mobius_between(top_only(n), full_algebra(n))


def test_chain_sums_against_explicit_enumeration(chains_oracle):
    # the memoized recursions against literal chain-by-chain evaluation
    for n in range(1, 11):
        printed_chains = chains_oracle(n, 1)
        value = sum(
            (-1) ** (len(ch) - 1 + 1) * stirling_product(ch) for ch in printed_chains
        )
        assert chain_sum_printed(n) == value
        assert chain_count(1, n) == len(printed_chains)

        corrected = (-1) ** n
        count = 0
        for endpoint in range(1, n):
            for ch in chains_oracle(n, endpoint):
                corrected += (-1) ** (ch[-1] + len(ch) - 1) * stirling_product(ch)
                count += 1
        assert chain_sum_corrected(n) == corrected
        assert sum(chain_count(e, n) for e in range(1, n)) == count == 2 ** (n - 1) - 1


def test_rank_chain_against_explicit_enumeration(chains_oracle):
    for n in range(1, 11):
        for k in range(1, n + 1):
            chains = chains_oracle(n, k)
            value = sum((-1) ** (len(ch) - 1) * stirling_product(ch) for ch in chains)
            assert mu_rank_sum_chain(k, n) == value
            assert chain_count(k, n) == len(chains)


# --- rank-restricted sums ------------------------------------------------------


def test_rank_sum_oracle_values():
    for n in range(1, 5):
        assert mu_rank_sum_oracle(n, n) == 1
    assert mu_rank_sum_oracle(1, 3) == 2
    assert mu_rank_sum_oracle(2, 4) == 11
    assert [mu_rank_sum_oracle(k, 5) for k in range(1, 6)] == [24, -50, 35, -10, 1]


def test_rank_chain_values():
    assert mu_rank_sum_chain(3, 3) == 1
    assert mu_rank_sum_chain(1, 3) == -stirling2(3, 1) + stirling2(3, 2) * stirling2(2, 1)
    assert mu_rank_sum_chain(2, 4) == -stirling2(4, 2) + stirling2(4, 3) * stirling2(3, 2)
    assert mu_rank_sum_chain(2, 4) == 11


def test_rank_chain_matches_oracle():
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert mu_rank_sum_chain(k, n) == mu_rank_sum_oracle(k, n)


def test_chain_rows_match_the_memoized_recursion(cold_caches):
    # the per-k rows and the corrected sums grow in whatever order the
    # values are asked for; each order, from cold tables, must give the
    # integers of the recursions written out directly
    @functools.cache
    def recursion(k, n):
        if n == k:
            return 1
        return -sum(stirling2(n, j) * recursion(k, j) for j in range(k, n))

    @functools.cache
    def corrected(n):
        return (-1) ** n - sum(stirling2(n, j) * corrected(j) for j in range(1, n))

    top = 60
    pairs = [(k, n) for n in range(1, top + 1) for k in range(1, n + 1)]
    orders = {
        "n ascending": pairs,
        "n descending": sorted(pairs, key=lambda kn: -kn[1]),
        "k-major": sorted(pairs),
    }
    want = {kn: recursion(*kn) for kn in pairs}
    want_corrected = {n: corrected(n) for n in range(1, top + 1)}
    for name, order in orders.items():
        cold_caches()
        got, got_corrected = {}, {}
        for k, n in order:
            got[k, n] = mu_rank_sum_chain(k, n)
            got_corrected[n] = chain_sum_corrected(n)
        assert got == want, name
        assert got_corrected == want_corrected, name
        assert [chain_sum_printed(n) for n in range(1, top + 1)] == [
            -want[1, n] for n in range(1, top + 1)
        ], name


def test_partition_sum_is_second_oracle_route():
    for n in range(1, 6):
        for k in range(1, n + 1):
            total = sum(
                partition_mobius([b.bit_count() for b in part])
                for part in _set_partitions(tuple(range(n)))
                if len(part) == k
            )
            assert total == mu_rank_sum_oracle(k, n)


def test_composition_formula_values():
    for n in range(1, 9):
        assert mu_rank_sum_composition(1, n) == (-1) ** (n - 1) * math.factorial(n - 1)
    assert mu_rank_sum_composition(2, 2) == 1
    assert mu_rank_sum_composition(2, 3) == -3
    assert mu_rank_sum_composition(3, 4) == -6


def test_composition_matches_chain_up_to_12():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert mu_rank_sum_composition(k, n) == mu_rank_sum_chain(k, n)


def test_non_integral_composition_sum_is_refused():
    # the printed (k=2, n=3) value -6 divided by 4 instead of 2! is -3/2; the
    # message prints the reduced fraction with its sign on the numerator
    with pytest.raises(formulas.NonIntegerResultError, match=r"is -3/2$"):
        formulas._composition_sum(2, 3, 4)


def test_printed_composition_erratum():
    assert mu_rank_sum_composition_printed(2, 2) == 2
    assert mu_rank_sum_composition_printed(2, 3) == -6
    assert mu_rank_sum_composition_printed(3, 4) == -36
    for n in range(1, 9):
        for k in range(1, n + 1):
            printed = mu_rank_sum_composition_printed(k, n)
            corrected = mu_rank_sum_composition(k, n)
            assert printed == math.factorial(k) * corrected
            if k >= 2:
                assert printed != corrected


def test_printed_composition_is_its_own_sum():
    # both forms evaluated from their definition, one term per composition:
    # the independent reference for the library's recurrence
    def harmonic_comp_sum(k, n):
        def comps(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(1, total - parts + 2):
                for rest in comps(total - first, parts - 1):
                    yield (first,) + rest

        acc = Fraction(0)
        for parts in comps(n, k):
            denom = 1
            for p in parts:
                denom *= p
            acc += Fraction(1, denom)
        return acc

    for n in range(1, 13):
        for k in range(1, n + 1):
            want = (-1) ** (n - k) * math.factorial(n) * harmonic_comp_sum(k, n)
            assert want.denominator == 1
            assert mu_rank_sum_composition_printed(k, n) == int(want)
            assert mu_rank_sum_composition(k, n) == want / math.factorial(k)


def test_table_lock_is_reentrant():
    # a table's next row may grow another table under the lock it holds; a
    # lock that is not reentrant fails here at once instead of hanging the
    # first cold chain or corrected sum
    lock = formulas._TABLE_LOCK
    assert lock.acquire(timeout=1)
    try:
        assert lock.acquire(blocking=False)
        lock.release()
    finally:
        lock.release()


def test_tables_grow_consistently_across_threads(monkeypatch):
    # several threads grow the cold corrected-sum, Stirling, chain-sum and
    # composition tables at once, each corrected sum first, so that it grows
    # the Stirling rows it reads under the lock it holds; a tiny switch
    # interval makes unguarded growth interleave mid-row
    ns = range(1, 41)

    def rows(order):
        return {
            n: (
                chain_sum_corrected(n),
                [stirling2(n, k) for k in range(n + 1)],
                [mu_rank_sum_chain(k, n) for k in range(1, n + 1)],
                [mu_rank_sum_composition(k, n) for k in range(1, n + 1)],
            )
            for n in order
        }

    def cold():
        monkeypatch.setattr(formulas, "_STIRLING_ROWS", [[1]])
        monkeypatch.setattr(formulas, "_CHAIN_ROWS", [[1]])
        monkeypatch.setattr(formulas, "_CORRECTED_ROWS", [1])
        monkeypatch.setattr(formulas, "_COMPOSITION_ROWS", [[1]])

    cold()
    want = rows(ns)
    cold()
    workers = 8
    results, errors = [], []
    barrier = threading.Barrier(workers)

    def worker(seed):
        order = list(ns)
        random.Random(seed).shuffle(order)
        try:
            barrier.wait(timeout=60)
            results.append(rows(order))
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(workers)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert results == [want] * workers


def test_erratum_report_matches_golden():
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "erratum_report.py"), "10"],
        capture_output=True,
        check=True,
    )
    assert proc.stdout == (root / "tests" / "goldens" / "erratum_report_n10.txt").read_bytes()


def test_rank_one_identity():
    for n in range(1, 13):
        lhs, rhs = rank_one_chain_identity(n)
        assert lhs == rhs
        assert lhs == (-1) ** (n - 1) * math.factorial(n - 1)
    assert rank_one_chain_identity(4) == (-6, -6)
    with pytest.raises(ValueError):
        rank_one_chain_identity(0)


def test_mu_top_closed_form_values():
    assert [mu_top_closed_form(n) for n in range(5)] == [1, -1, 2, -6, 24]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_corrected_recursion_consistency(n):
    # f(n) = (-1)^n - sum_{k<n} S(n,k) f(k) must telescope to (-1)^n n!
    lhs = chain_sum_corrected(n)
    rhs = (-1) ** n - sum(
        stirling2(n, k) * chain_sum_corrected(k) for k in range(1, n)
    )
    assert lhs == rhs == (-1) ** n * math.factorial(n)
