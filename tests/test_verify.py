import pytest

from implattice import formulas, verify
from implattice.algebra import (
    Element,
    elements,
    enumerate_all,
    full_algebra,
    is_sub,
    join,
    lattice_to_json,
    top_only,
)
from implattice.poset import CLOSURES, interval, interval_to_dot, interval_to_json
from implattice.verify import CLAIMS, SUITES, run_claims, run_suite, summarize


def test_registry_ids_unique_and_suites_known():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert {c.suite for c in CLAIMS} == set(SUITES)


def test_run_suite_all_passes():
    verdicts = run_suite("all", 2)
    summary = summarize(verdicts)
    assert summary["failed"] == 0
    assert summary["claims"] == summary["passed"] == len(verdicts)


@pytest.mark.parametrize("suite", SUITES)
def test_each_suite_selects_only_its_claims(suite):
    verdicts = run_suite(suite, 2)
    wanted = {c.id for c in CLAIMS if c.suite == suite}
    got = {v.claim for v in verdicts}
    assert got <= wanted
    assert all(v.passed for v in verdicts)


def test_run_suite_order_is_registry_order():
    verdicts = run_suite("all", 3)
    ids = [v.claim for v in verdicts]
    registry_rank = {c.id: i for i, c in enumerate(CLAIMS)}
    assert ids == sorted(ids, key=lambda i: registry_rank[i])
    # within one claim, n ascends
    by_claim = {}
    for v in verdicts:
        by_claim.setdefault(v.claim, []).append(v.params["n"])
    for ns in by_claim.values():
        assert ns == sorted(ns)


def test_unknown_suite_and_claims_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", 2)
    with pytest.raises(ValueError):
        run_claims(["no.such.claim"], 2)


def test_max_n_bound_respected():
    roundtrip = [v for v in run_suite("lemmas", 5) if v.claim == "core.closed_set_roundtrip"]
    assert [v.params["n"] for v in roundtrip] == [0, 1, 2, 3]


def test_run_claims_subset():
    verdicts = run_claims(["core.enumeration_count"], 4)
    assert [v.params["n"] for v in verdicts] == [0, 1, 2, 3, 4]
    assert all(v.passed for v in verdicts)
    assert [int(v.lhs) for v in verdicts] == [1, 2, 5, 15, 52]


def test_failing_sweep_counts_every_case(monkeypatch):
    # the printed sign exponent is wrong exactly when the base rank is odd
    monkeypatch.setattr(formulas, "mobius_product_formula", formulas.mobius_product_formula_printed)
    verdicts = run_claims(["method1.formula_vs_oracle"], 3)
    assert [(v.params["n"], v.lhs, v.rhs) for v in verdicts] == [
        (0, 1, 1),
        (1, 2, 1),
        (2, 5, 3),
        (3, 15, 8),
    ]
    assert all(v.params["cases"] == v.lhs for v in verdicts)
    assert [v.passed for v in verdicts] == [True, False, False, False]


def test_library_paths_build_no_elements(cold_caches, monkeypatch):
    # a lattice stores masks only, and its Element views are for callers:
    # every claim but the two brute-force ones (which check element sets on
    # purpose) and the exports run on cold caches without building one
    built = []
    init = Element.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Element, "__init__", counting)
    brute = {"closure.complement.subalgebra", "core.closed_set_roundtrip"}
    verdicts = run_claims([c.id for c in CLAIMS if c.id not in brute], 4)
    assert verdicts and all(v.passed for v in verdicts)
    assert built == []

    cold_caches()
    poset = interval(top_only(4), full_algebra(4))
    interval_to_json(poset)
    interval_to_dot(poset)
    for A in poset.members:
        lattice_to_json(A)
    assert built == []
    Element(4, 0)
    assert len(built) == 1  # the counter sees a construction


# --- closure sweeps: brute references and one check per class -------------------


def test_brute_up_indicators_match_the_set_definition():
    # the 2^n-bit shift-OR closure against the definition it replaced
    for n in range(6):
        lattices = enumerate_all(n)
        indicators = list(verify._brute_up_indicators(n))
        assert len(indicators) == len(lattices)
        for A, got in zip(lattices, indicators):
            masks = set(A._element_masks)
            want = {m for m in range(1 << n) if any(m & e == e for e in masks)}
            assert got == sum(1 << m for m in want), (n, A)


def pairs_by_closure(closure, n):
    """The pairs (y, z), y <= z, of L_n, by the closure of z, counted by
    is_sub over every pair."""
    close = CLOSURES[closure]
    lattices = enumerate_all(n)
    return [(y, close(z)) for y in lattices for z in lattices if is_sub(y, z)]


@pytest.mark.parametrize("closure", sorted(CLOSURES))
def test_closure_theorem_fails_exactly_the_pairs_of_the_failing_class(monkeypatch, closure):
    # a check that fails only when cl(z) is B_n fails every pair of that
    # class and no other, and runs once per y and class
    calls = []

    def failing_at_top(name, y, z):
        calls.append((y, CLOSURES[name](z)))
        return 0, int(CLOSURES[name](z) == full_algebra(z.n))

    (claim,) = [c for c in CLAIMS if c.id == f"closure.theorem.{closure}"]
    honest = [claim.run(n) for n in range(5)]
    monkeypatch.setattr(verify, "closure_theorem_check", failing_at_top)
    for n, v in enumerate(honest):
        calls.clear()
        w = claim.run(n)
        pairs = pairs_by_closure(closure, n)
        assert v.passed and w.params == v.params == {"n": n, "cases": len(pairs)}
        assert w.lhs - w.rhs == sum(c == full_algebra(n) for _, c in pairs)
        assert sorted(calls, key=repr) == sorted(set(pairs), key=repr)


@pytest.mark.parametrize("closure", sorted(CLOSURES))
def test_monotone_half_fails_exactly_the_pairs_of_the_failing_class(monkeypatch, closure):
    # is_sub refusing B_n as the larger side fails the extensive half at the
    # lattices that close to B_n, and the monotone half at every pair (a, g)
    # whose cl(g) is B_n, checked once per a and class
    calls = []

    def refusing_top(x, y):
        calls.append((x, y))
        return is_sub(x, y) and y != full_algebra(y.n)

    (claim,) = [c for c in CLAIMS if c.id == f"closure.{closure}.axioms"]
    honest = [claim.run(n) for n in range(5)]
    monkeypatch.setattr(verify, "is_sub", refusing_top)
    for n, v in enumerate(honest):
        calls.clear()
        w = claim.run(n)
        top, lattices = full_algebra(n), enumerate_all(n)
        pairs = pairs_by_closure(closure, n)
        assert v.passed and w.params == v.params
        extensive = sum(CLOSURES[closure](A) == top for A in lattices)
        assert w.lhs - w.rhs == extensive + sum(c == top for _, c in pairs)
        assert len(calls) == len(lattices) + len(set(pairs))


def test_brute_element_ops_check_sees_a_dropped_join(monkeypatch):
    # B_3 without 0b011 = 0b001 | 0b010 loses the complement of 0b100 too;
    # with complement made the identity, only that one join is missing
    A = full_algebra(3)
    assert verify._brute_element_ops_closed(A)
    dropped = elements(A) - {join(Element(3, 0b001), Element(3, 0b010))}
    monkeypatch.setattr(verify, "elements", lambda B: dropped)
    assert not verify._brute_element_ops_closed(A)
    monkeypatch.setattr(verify, "complement", lambda x: x)
    assert not verify._brute_element_ops_closed(A)
