import os
import sys
import threading

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
from implattice.cli import main
from implattice.poset import CLOSURES, interval, interval_to_dot, interval_to_json
from implattice.verify import CLAIMS, SUITES, run_claims, run_suite, summarize


def test_registry_ids_unique_and_suites_known():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert {c.suite for c in CLAIMS} == set(SUITES)
    assert list(verify._COST_MS) == ids and verify._TOP_SLICE_CLAIMS <= set(ids)


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


# --- the forked runner ----------------------------------------------------------


def verify_cli(capsys, *argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs, whatever the machine has, and the pids of the
    workers forked (a worker's own list is never read)."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counting)
    return pids


def serial_cli(capsys, monkeypatch, *argv):
    with monkeypatch.context() as m:
        m.setattr(verify, "_usable_cpus", lambda: 1)
        m.setattr(os, "fork", None)  # called only by a forked run
        return verify_cli(capsys, *argv)


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("suite", ("all",) + SUITES)
def test_forked_stdout_is_the_serial_stdout(capsys, monkeypatch, forks, suite, fmt):
    argv = ("--suite", suite, "--n-max", "5", "--format", fmt)
    forked = verify_cli(capsys, *argv)
    assert len(forks) == len(verify._split(verify._suite(suite), 5, 2)) - 1
    assert serial_cli(capsys, monkeypatch, *argv) == forked
    assert forked[0] == 0 and forked[2] == ""
    assert_no_worker_left()


@pytest.mark.parametrize(
    "name, wrong, failing",
    [
        # the printed sign exponent fails at n >= 1 (test_failing_sweep_counts_every_case)
        ("mobius_product_formula", formulas.mobius_product_formula_printed, "method1.formula_vs_oracle"),
        # the equal-rank sweep compares mu at the top with (-1)^k k!
        ("mu_top_closed_form", lambda n: formulas.factorial(n), "iso.equal_rank_subalgebras"),
    ],
)
def test_a_failing_forked_run_prints_the_serial_verdicts(capsys, monkeypatch, forks, name, wrong, failing):
    monkeypatch.setattr(formulas, name, wrong)
    argv = ("--suite", "all", "--n-max", "5")
    code, out, _ = verify_cli(capsys, *argv)
    assert forks and code == 1
    assert serial_cli(capsys, monkeypatch, *argv) == (code, out, "")
    assert f"FAIL {failing} n=5 " in out
    assert_no_worker_left()


def fail_in(where, failure):
    """Every claim check, failing by ``failure()`` in the forked worker or in
    the process that forked it, and running as usual in the other."""
    parent = os.getpid()

    def wrap(check):
        def failing(n):
            if (os.getpid() == parent) == (where == "parent"):
                failure()
            return check(n)

        return failing

    return tuple(c._replace(check=wrap(c.check)) for c in CLAIMS)


def out_of_memory():
    raise MemoryError


@pytest.mark.parametrize(
    "where, failure, message",
    [
        ("worker", out_of_memory, "error: n is too large: out of memory"),
        ("worker", lambda: os._exit(3), "error: a verify worker ended without a result (exit status 3)"),
        ("parent", out_of_memory, "error: n is too large: out of memory"),
    ],
)
def test_a_failing_run_exits_2_and_leaves_no_worker(capsys, monkeypatch, forks, where, failure, message):
    monkeypatch.setattr(verify, "CLAIMS", fail_in(where, failure))
    code, out, err = verify_cli(capsys, "--suite", "all", "--n-max", "4")
    assert forks and code == 2
    assert (out, err) == ("", message + "\n")
    assert_no_worker_left()


def test_a_failed_fork_exits_2(capsys, monkeypatch, forks):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    code, out, err = verify_cli(capsys, "--suite", "all", "--n-max", "4")
    assert (code, out) == (2, "")
    assert err == "error: cannot fork a verify worker: Resource temporarily unavailable\n"
    assert fds is None or os.listdir("/proc/self/fd") == fds  # the pipe is closed again


def refuse_to_fork():
    raise AssertionError("forked")


@pytest.mark.parametrize("hook", [sys.settrace, sys.setprofile])
def test_a_trace_or_profile_hook_keeps_verify_in_one_process(capsys, monkeypatch, forks, hook):
    # a tracer, a profiler or coverage sees only this process's calls
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    hook(lambda *args: None)
    try:
        code, out, _ = verify_cli(capsys, "--suite", "all", "--n-max", "4")
    finally:
        hook(None)
    assert code == 0 and out.endswith("summary: 111 claims, 111 passed, 0 failed\n")


def test_another_thread_keeps_verify_in_one_process(capsys, monkeypatch, forks):
    # a fork copies only the calling thread: a lock the other one holds
    # would stay held in the worker
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        code, out, _ = verify_cli(capsys, "--suite", "all", "--n-max", "4")
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert code == 0 and out.endswith("summary: 111 claims, 111 passed, 0 failed\n")
