"""Shared fixtures: independent brute-force oracles that bypass the library's
canonical representations, plus a per-criterion result line for the
acceptance module."""

import pytest


def brute_closed_families(n):
    """Every nonempty subset of B_n closed under x->y = ~x|y and meet,
    enumerated as raw frozensets of element masks (no library code)."""
    full = (1 << n) - 1
    out = []
    for bits in range(1, 1 << (1 << n)):
        fam = frozenset(m for m in range(1 << n) if bits >> m & 1)
        if all(((x ^ full) | y) in fam and (x & y) in fam for x in fam for y in fam):
            out.append(fam)
    return out


def brute_mobius(families):
    """mu(x, y) over a family-of-sets poset by the defining recursion."""
    m = len(families)
    order = sorted(range(m), key=lambda i: len(families[i]))
    mu = {}
    for i in range(m):
        for j in order:
            if not families[i] <= families[j]:
                continue
            if families[i] == families[j]:
                mu[i, j] = 1
            else:
                mu[i, j] = -sum(
                    mu[i, k]
                    for k in range(m)
                    if families[i] <= families[k] <= families[j] and k != j
                )
    return mu


def brute_chains(n, k):
    """All strictly decreasing integer chains n = n_0 > ... > n_p = k."""
    from itertools import combinations

    if n == k:
        return [(n,)]
    mids = range(k + 1, n)
    out = []
    for r in range(len(mids) + 1):
        for sub in combinations(mids, r):
            out.append((n,) + tuple(sorted(sub, reverse=True)) + (k,))
    return out


def clear_caches():
    """Empty every process-wide memo: the argument-memoized functions (which
    hold the posets, and so their cached orders, Mobius values and covers, the
    per-n orders the slices are cut from, the per-n closure indices, the
    interned lattices and the atom tuples) and the Stirling (both kinds),
    chain-sum, corrected-sum and composition row tables, trimmed back to
    row 0."""
    from implattice import algebra, formulas, poset

    for fn in (
        algebra.enumerate_all,
        algebra._lattice,
        algebra._atoms,
        poset._order,
        poset._slice,
        poset._closed,
        poset._closure_row,
    ):
        fn.cache_clear()
    del formulas._STIRLING_ROWS[1:]
    del formulas._STIRLING1_ROWS[1:]
    del formulas._CHAIN_ROWS[1:]
    del formulas._CORRECTED_ROWS[1:]
    del formulas._COMPOSITION_ROWS[1:]


@pytest.fixture
def cold_caches():
    """Start the test from empty caches; the fixture's value clears them again."""
    clear_caches()
    return clear_caches


@pytest.fixture(scope="session")
def closed_families_oracle():
    return brute_closed_families


@pytest.fixture(scope="session")
def mobius_oracle_brute():
    return brute_mobius


@pytest.fixture(scope="session")
def chains_oracle():
    return brute_chains


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {item.name}: {status}")
