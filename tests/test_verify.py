import pytest

from implattice import formulas
from implattice.algebra import Element, full_algebra, lattice_to_json, top_only
from implattice.poset import interval, interval_to_dot, interval_to_json
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
