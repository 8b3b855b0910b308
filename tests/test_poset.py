import collections
import gc
import inspect
import json
import math
import random
import sys
import threading
import weakref
from itertools import compress

import pytest

from implattice.algebra import (
    ContextMismatchError,
    ImpLattice,
    apply_atom_permutation,
    elements,
    enumerate_all,
    full_algebra,
    is_boolean_subalgebra,
    is_sub,
    is_ultrafilter,
    lattice_from_json,
    lattice_to_json,
    principal_ultrafilter,
    top_only,
    _bits,
    _contraction,
    _interned,
    _lattice,
    _sub_masks,
)
from implattice import poset, verify
from implattice.formulas import bell, mobius_product_formula
from implattice.poset import (
    CLOSURES,
    AtomNotBelowBaseError,
    NotClosedEndpointError,
    NotComparableError,
    closed_suborder,
    closure_theorem_check,
    interval,
    interval_isomorphism_via_permutation,
    interval_to_dict,
    interval_to_dot,
    interval_to_json,
    maximal_chain_length,
    mobius_between,
    mobius_oracle,
    product_decomposition,
    _closed,
    _closure_row,
    _containment,
    _factors,
    _fold_below,
    _order,
    _product_order,
    _slice,
)


def mask(atoms):
    return sum(1 << a for a in atoms)


def lat(n, base, *blocks):
    return ImpLattice(n, (mask(base), tuple(mask(b) for b in blocks)))


def _contract(C, D):
    """D <= C rewritten over the blocks of C by the library's contraction."""
    return _interned(C.w, *D.key, _contraction(C))


def mu_top(P):
    """mu(lower, upper) of a poset, read off its Mobius values."""
    return mobius_oracle(P)[P.upper_index]


# --- interval construction ----------------------------------------------------


def test_interval_examples():
    A = lat(2, [0], [1])
    assert len(interval(A, A)) == 1
    assert len(interval(top_only(2), full_algebra(2))) == 5
    assert len(interval(A, full_algebra(2))) == 2


def test_interval_members_are_exactly_the_between_set():
    for n in range(5):
        lattices = enumerate_all(n)
        for lower in lattices:
            for upper in lattices:
                if not is_sub(lower, upper):
                    with pytest.raises(NotComparableError):
                        interval(lower, upper)
                    continue
                got = set(interval(lower, upper).members)
                want = {
                    D for D in lattices if is_sub(lower, D) and is_sub(D, upper)
                }
                assert got == want


def test_walk_from_the_top_reaches_every_lattice():
    # [{1}, B_n] is the whole order: the walk must find all Bell(n+1)
    # sublattices of the independent enumeration, in canonical order
    for n in range(7):
        assert interval(top_only(n), full_algebra(n)).members == tuple(enumerate_all(n))


def test_walk_to_the_top_keeps_exactly_the_sublattices_above():
    n = 5
    lattices = enumerate_all(n)
    for A in lattices:
        want = tuple(D for D in lattices if is_sub(A, D))
        assert interval(A, full_algebra(n)).members == want


def test_small_interval_at_the_cap_is_output_sensitive(cold_caches):
    # from the principal filter of atom 0 up to B_8 there are two members;
    # finding them must not enumerate the Bell(9) = 21 147 sublattices of B_8
    P = interval(principal_ultrafilter(8, 0), full_algebra(8))
    assert len(P) == 2
    assert enumerate_all.cache_info().currsize == 0


def test_interval_relation_properties():
    for n in range(4):
        P = interval(top_only(n), full_algebra(n))
        m = len(P)
        for i in range(m):
            assert P.leq(i, i)
            for j in range(m):
                assert P.leq(i, j) == is_sub(P.members[i], P.members[j])
                if P.leq(i, j) and P.leq(j, i):
                    assert i == j
                for k in range(m):
                    if P.leq(i, j) and P.leq(j, k):
                        assert P.leq(i, k)


# --- graded build against the containment reference -----------------------------


def containment_order(members, lower, upper):
    """The order by element-set containment, compared pairwise: the reference
    for the graded one-move build."""
    elems = [frozenset(A._element_masks) for A in members]
    down = [0] * len(members)
    for i, ei in enumerate(elems):
        for j, ej in enumerate(elems):
            if ei <= ej:
                down[j] |= 1 << i
    return tuple(down), members.index(lower), members.index(upper)


def pairwise_covers(P):
    """Pairs i < j with no member strictly between, by definition."""
    return tuple(
        (i, j)
        for i in range(len(P))
        for j in range(len(P))
        if i != j
        and P.leq(i, j)
        and not any(k not in (i, j) and P.leq(i, k) and P.leq(k, j) for k in range(len(P)))
    )


def assert_matches_containment(P, lower, upper):
    assert (P.down, P.lower_index, P.upper_index) == containment_order(
        P.members, lower, upper
    )
    assert P.covers == pairwise_covers(P)


def test_graded_order_matches_containment_every_interval():
    for n in range(5):
        lattices = enumerate_all(n)
        for lower in lattices:
            for upper in lattices:
                if is_sub(lower, upper):
                    assert_matches_containment(interval(lower, upper), lower, upper)


def rank_layer_covers(P):
    """The Hasse edges by the rank-layer walk: each down-set masked to the
    rank layer just below its member.  Covers step one block and nothing
    lies strictly between members one block apart; the reference for the
    covers read off the one-move neighbours where the pairwise one is too
    slow."""
    ranks = [A.w for A in P.members]
    layer = [0] * (max(ranks, default=0) + 1)
    for i, w in enumerate(ranks):
        layer[w] |= 1 << i
    edges = [(i, j) for j, w in enumerate(ranks) if w for i in _bits(P.down[j] & layer[w - 1])]
    edges.sort()
    return tuple(edges)


@pytest.mark.parametrize("n", [5, 6])
def test_whole_order_matches_is_sub_beyond_n4(n):
    # [{1}, B_n] holds every sublattice, so this is every pair at n
    P = interval(top_only(n), full_algebra(n))
    want = tuple(
        sum(1 << i for i, D in enumerate(P.members) if is_sub(D, C)) for C in P.members
    )
    assert P.down == want
    assert P.covers == rank_layer_covers(P)


def test_exports_build_no_order(cold_caches):
    # a poset stores its members and ends; the order is derived on first use,
    # and the JSON and DOT exports read the members and Hasse edges only.  A
    # walked interval folds its Mobius values and its chain length by
    # block-count layers, so it then caches exactly the Hasse edges, the
    # Mobius values and the cover lists the walk handed over, and no order.
    # A product decomposition takes its second factor as the per-n order
    # itself, whose order the slices read, and which caches no more than that
    fields = list(inspect.signature(poset.IntervalPoset).parameters)
    assert fields == ["members", "lower_index", "upper_index"]
    assert list(vars(poset.IntervalPoset((), 0, 0))) == fields
    P = interval(top_only(4), full_algebra(4))
    interval_to_json(P)
    interval_to_dot(P)
    assert "covers" in vars(P) and "down" not in vars(P)
    assert mu_top(P) == 24
    assert "down" not in vars(P)
    cached = {"members", "lower_index", "upper_index", "_cover_lists", "covers", "_mobius"}
    assert set(vars(P)) == cached
    assert maximal_chain_length(P) == 4
    assert set(vars(P)) == cached
    assert product_decomposition(top_only(4))[1] is poset._order(4)[0]
    assert set(vars(poset._order(4)[0])) <= cached | {"down"}


def test_slice_equals_the_walk_every_interval(cold_caches):
    # a slice of the per-n order is the interval the walk builds, field by
    # field, with the same order, Hasse edges and Mobius values, for every
    # comparable pair: the walk folds by block-count layers, the slice over
    # its order
    for n in range(5):
        lattices = enumerate_all(n)
        for lower in lattices:
            for upper in lattices:
                if not is_sub(lower, upper):
                    with pytest.raises(NotComparableError):
                        poset._slice(lower, upper)
                    continue
                S, P = poset._slice(lower, upper), interval(lower, upper)
                assert (S.members, S.lower_index, S.upper_index) == (
                    P.members,
                    P.lower_index,
                    P.upper_index,
                )
                assert S.down == P.down
                assert S.covers == P.covers
                assert mobius_oracle(S) == mobius_oracle(P)
    for n in (5, 6, 7):
        S, P = poset._slice(top_only(n), full_algebra(n)), interval(top_only(n), full_algebra(n))
        assert S.members == P.members and mobius_oracle(S) == mobius_oracle(P)


def test_walk_hands_over_the_covers_it_found(cold_caches):
    # the walk records, for each member it keeps, the kept keys one move
    # below it, also those it had reached before; remapped to member
    # indices they are the cover lists that a poset built without the walk
    # derives by making the walk's moves again, member by member and in
    # move order
    posets = [
        interval(lower, upper)
        for n in range(5)
        for lower in enumerate_all(n)
        for upper in enumerate_all(n)
        if is_sub(lower, upper)
    ]
    posets += [interval(top_only(n), full_algebra(n)) for n in range(5, 7)]
    for P in posets:
        assert "_cover_lists" in vars(P)
        fresh = poset.IntervalPoset(P.members, P.lower_index, P.upper_index)
        assert fresh._cover_lists == P._cover_lists


def test_equal_posets_hash_equal(cold_caches):
    # two walks of one interval, a poset built by hand over the same fields,
    # and slices cut before and after the caches are emptied (so over other
    # lattice objects) compare and hash by their fields
    for n in range(4):
        top = full_algebra(n)
        for lower in enumerate_all(n):
            P, Q, S = interval(lower, top), interval(lower, top), poset._slice(lower, top)
            fresh = poset.IntervalPoset(P.members, P.lower_index, P.upper_index)
            cold_caches()
            T = poset._slice(lower, top)
            assert P is not Q and S is not T and S.members[0] is not T.members[0]
            assert P == Q == fresh and hash(P) == hash(Q) == hash(fresh)
            assert S == T and hash(S) == hash(T)
            assert len({P, Q, fresh, S, T}) == 2


def test_walk_makes_only_the_moves_it_keeps(cold_caches):
    # every block of a member of [A, C] lies in one part of A, so the moves
    # the walk makes, _lower_moves filtered by A's parts, all stay inside:
    # each move from a member lands on a member, the moves from all members
    # are the cover edges, one move each, and every key the walk keeps
    # passes the containment test that the walk no longer makes; a move
    # gives the blocks, and the base is the atoms outside them
    for n in range(6):
        lattices = enumerate_all(n)
        for A in lattices:
            part = poset._parts(A.key)
            for C in lattices:
                if not is_sub(A, C):
                    continue
                P = interval(A, C)
                index = poset._key_index(P.members)
                made = 0
                for D in P.members:
                    for blocks in poset._lower_moves(D.key[1], part):
                        key = ((1 << n) - 1 - sum(blocks), blocks)
                        assert key in index, (A, C, D, key)
                        made += 1
                assert made == len(P.covers)
                assert all(_sub_masks(*A.key, *key) for key in index)


def test_walk_past_the_cap(cold_caches):
    # n = 24: a base of 2 atoms and eleven blocks of 2 above it, so
    # [A, B_24] is 2^11 splittings of the blocks times L_2 below the base;
    # the walk only reaches members, so it stays small at any n
    A = _lattice(24, (0b11, tuple(0b11 << i for i in range(2, 24, 2))))
    P = interval(A, full_algebra(24))
    assert len(P) == 2**11 * bell(3) == 10240
    assert mobius_oracle(P)[P.upper_index] == mobius_product_formula(A) == -2


def test_sweep_posets_keep_no_cover_lists(cold_caches):
    # slices and closed suborders read their cover lists off L_n's on each
    # use; the sweeps hold thousands of them, so none may cache its lists
    for n in range(5):
        top = full_algebra(n)
        for lower in enumerate_all(n):
            S, W = poset._slice(lower, top), interval(lower, top)
            assert (S.down, S.covers) == (W.down, W.covers)
            assert "_cover_lists" not in vars(S)
            for closure, cl in CLOSURES.items():
                if cl(lower) == lower:
                    P = closed_suborder(closure, lower, top)
                    assert P.leq(P.lower_index, P.upper_index)
                    assert all(P.leq(i, j) for i, j in P.covers)
                    assert "_cover_lists" not in vars(P)


def test_per_n_order_is_is_sub_both_ways():
    # up[i] holds the members above member i, down[j] those below member j,
    # each reflexively, over the members of L_n in canonical order
    for n in range(5):
        L, index, up = poset._order(n)
        lattices = enumerate_all(n)
        assert L.members == lattices
        assert index == {A.key: i for i, A in enumerate(lattices)}
        for i, A in enumerate(lattices):
            assert up[i] == sum(1 << j for j, C in enumerate(lattices) if is_sub(A, C))
            assert L.down[i] == sum(1 << j for j, D in enumerate(lattices) if is_sub(D, A))
            assert sorted(L._cover_lists[i]) == [k for k, j in L.covers if j == i]


@pytest.mark.parametrize("closure", sorted(CLOSURES))
def test_graded_order_matches_containment_closed_suborders(closure):
    cl = CLOSURES[closure]
    for n in range(5):
        closed = [A for A in enumerate_all(n) if cl(A) == A]
        for lower in closed:
            for upper in closed:
                if is_sub(lower, upper):
                    P = closed_suborder(closure, lower, upper)
                    assert_matches_containment(P, lower, upper)


# --- Mobius oracle --------------------------------------------------------------


def test_mobius_examples():
    A = lat(2, [0], [1])
    assert mobius_between(A, A) == 1
    assert mobius_between(top_only(2), full_algebra(2)) == 2
    assert mobius_between(A, full_algebra(2)) == -1


def test_mobius_defining_identity_every_interval():
    # for every interval [y, z] with n <= 4, proper down-sets sum to zero
    def check(P):
        mu = mobius_oracle(P)
        for i in range(len(P)):
            total = sum(mu[j] for j in range(len(P)) if P.leq(j, i))
            assert total == (1 if i == P.lower_index else 0)

    for n in range(5):
        lattices = enumerate_all(n)
        for lower in lattices:
            for upper in lattices:
                if is_sub(lower, upper):
                    check(interval(lower, upper))


def assert_mobius_matches_brute(P, families, brute):
    """P's members are exactly the families between its ends, and its Mobius
    values, in member order, are ``brute``'s, the recursion over
    ``families``."""
    index = {fam: i for i, fam in enumerate(families)}
    lo, hi = (frozenset(A._element_masks) for A in (P.lower, P.upper))
    masks = [frozenset(D._element_masks) for D in P.members]
    assert set(masks) == {fam for fam in families if lo <= fam <= hi}
    i = index[lo]
    assert mobius_oracle(P) == tuple(brute[i, index[fam]] for fam in masks)


def test_mobius_matches_independent_recursion(closed_families_oracle, mobius_oracle_brute):
    # the library oracle against a from-scratch recursion over raw mask sets,
    # on every interval and on both closed suborders, whose fixed families
    # are found from the masks too: closed under complement m ^ full, or
    # upward closed
    for n in range(4):
        full = (1 << n) - 1
        families = closed_families_oracle(n)
        fixed = {
            "complement": [F for F in families if all(m ^ full in F for m in F)],
            "up": [F for F in families if all(m | x in F for m in F for x in range(full + 1))],
        }
        brute = mobius_oracle_brute(families)
        lattices = enumerate_all(n)
        for lower in lattices:
            for upper in lattices:
                if is_sub(lower, upper):
                    assert_mobius_matches_brute(interval(lower, upper), families, brute)
        masks = {A: frozenset(A._element_masks) for A in lattices}
        for closure, closed in fixed.items():
            brute = mobius_oracle_brute(closed)
            ends = [A for A in lattices if masks[A] in closed]
            for lower in ends:
                for upper in ends:
                    if masks[lower] <= masks[upper]:
                        P = closed_suborder(closure, lower, upper)
                        assert_mobius_matches_brute(P, closed, brute)


def test_a_dropped_poset_is_freed_without_the_cycle_collector():
    # the order, the Hasse edges and the Mobius values are cached on the
    # poset as plain tuples, none of which refers back to it, so dropping
    # the last reference frees it at once (closed suborders are not memoized)
    enabled = gc.isenabled()
    gc.disable()
    try:
        P = closed_suborder("up", top_only(3), full_algebra(3))
        assert P.down and P.covers and mobius_oracle(P)
        ref = weakref.ref(P)
        del P
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_contraction_maps_every_interval_onto_a_whole_order():
    # [D, C] is [D', B_w], w the block count of C, for every comparable
    # pair, C with a nonempty base included: members and order (through
    # containment of element sets, which shares no code with the moves),
    # and block i of C is atom i: the member that absorbs it is [{i}, 1]
    pairs = based = 0
    for n in range(5):
        lattices = enumerate_all(n)
        for C in lattices:
            base, blocks = C.key
            for i, b in enumerate(blocks):
                absorbed = _lattice(n, (base | b, blocks[:i] + blocks[i + 1 :]))
                assert _contract(C, absorbed) is principal_ultrafilter(C.w, i), (C, i)
            for D in lattices:
                if not is_sub(D, C):
                    continue
                pairs += 1
                based += C.key[0] != 0
                P = _slice(D, C)
                image = [_contract(C, M) for M in P.members]
                whole = _slice(_contract(C, D), full_algebra(C.w))
                assert len(image) == len(whole) and set(image) == set(whole.members), (D, C)
                assert _containment(image) == P.down, (D, C)
    assert (pairs, based) == (434, 213)


def test_product_formula_on_every_interval():
    # the closed form of [A, B_n], carried to every [A, C] by contraction:
    # arithmetic that shares no code with the walk, the order or the fold
    pairs = [0] * 6
    for n in range(6):
        lattices = enumerate_all(n)
        for A in lattices:
            for C in lattices:
                if is_sub(A, C):
                    pairs[n] += 1
                    assert mobius_between(A, C) == mobius_product_formula(_contract(C, A)), (A, C)
    assert pairs == [1, 3, 12, 60, 358, 2471]


def test_mu_top_signed_factorial():
    for n in range(6):
        assert mobius_between(top_only(n), full_algebra(n)) == (-1) ** n * math.factorial(n)


def fold_below_reference(poset, at_lower, combine):
    """The fold walked member by member: ``combine`` of the values of every
    member strictly below, one set bit at a time.  The reference for the
    value-class fold."""
    value = [0] * len(poset.members)
    for i in sorted(range(len(poset)), key=lambda i: len(poset.members[i].blocks)):
        if i == poset.lower_index:
            value[i] = at_lower
        else:
            value[i] = combine(value[j] for j in _bits(poset.down[i] & ~(1 << i)))
    return value


def assert_fold_matches_reference(P):
    mu = fold_below_reference(P, 1, lambda below: -sum(below))
    assert mobius_oracle(P) == tuple(mu)
    chain = fold_below_reference(P, 0, lambda below: max(below, default=-1) + 1)
    longest = lambda values, counts: max(compress(values, counts), default=-1) + 1
    assert _fold_below(P, 0, longest) == chain
    assert maximal_chain_length(P) == chain[P.upper_index]


def test_value_class_fold_matches_the_per_bit_fold():
    for n in range(5):
        lattices = enumerate_all(n)
        for lower in lattices:
            for upper in lattices:
                if is_sub(lower, upper):
                    assert_fold_matches_reference(interval(lower, upper))
                    for closure, cl in CLOSURES.items():
                        if cl(lower) == lower and cl(upper) == upper:
                            assert_fold_matches_reference(closed_suborder(closure, lower, upper))
    for n in range(7):
        assert_fold_matches_reference(interval(top_only(n), full_algebra(n)))


# --- closure identity ------------------------------------------------------------


def test_closure_theorem_examples():
    one, top = top_only(2), full_algebra(2)
    assert closure_theorem_check("complement", one, top) == (0, 0)
    assert closure_theorem_check("up", one, top) == (1, 1)
    sub = lat(2, [], [0, 1])
    assert closure_theorem_check("complement", sub, sub) == (1, 1)


@pytest.mark.parametrize("closure", ["complement", "up"])
def test_closure_theorem_all_pairs(closure):
    for n in range(4):
        lattices = enumerate_all(n)
        for y in lattices:
            for z in lattices:
                if is_sub(y, z):
                    lhs, rhs = closure_theorem_check(closure, y, z)
                    assert lhs == rhs


@pytest.mark.parametrize("closure", sorted(CLOSURES))
def test_closure_index_is_the_closure_of_each_member(closure):
    # cl[g] is the L_n index of the closure of member g: the closure
    # function's own (interned) lattice, a fixed point, and above g
    for n in range(6):
        L, _, up = _order(n)
        cl = _closed(closure, n)
        assert len(cl) == len(L)
        for g, A in enumerate(L.members):
            assert L.members[cl[g]] is CLOSURES[closure](A)
            assert cl[cl[g]] == cl[g]
            assert up[g] >> cl[g] & 1


def closure_theorem_reference(closure, y, z, n):
    """(lhs, rhs) of the closure identity the direct way: rescan [y, B_n]
    for the members whose closure is cl(z), and build the closed suborder
    from y to cl(z) itself."""
    cl = CLOSURES[closure]
    whole = interval(y, full_algebra(n))
    mu = mobius_oracle(whole)
    cz = cl(z)
    lhs = sum(mu[i] for i, x in enumerate(whole.members) if cl(x) == cz)
    rhs = mu_top(closed_suborder(closure, y, cz)) if cl(y) == y else 0
    return lhs, rhs


def test_closure_rows_match_the_direct_sums(cold_caches):
    # both closures in turn for each y, so a row that forgot its closure
    # would be read back for the other one; at n <= 3 y and z also come in
    # parsed from JSON, not as the intern table's objects (as `mobius
    # --lower/--upper` passes them), and go first, so the rows are built
    # from and looked up by lattices equal in value only
    for n in range(5):
        lattices = enumerate_all(n)
        for y in lattices:
            for z in lattices:
                if is_sub(y, z):
                    pairs = [(y, z)]
                    if n <= 3:
                        parsed = tuple(lattice_from_json(lattice_to_json(A)) for A in (y, z))
                        assert parsed[0] is not y and parsed[1] is not z
                        pairs.insert(0, parsed)
                    for closure in sorted(CLOSURES):
                        want = closure_theorem_reference(closure, y, z, n)
                        for yy, zz in pairs:
                            got = closure_theorem_check(closure, yy, zz)
                            assert got == want, (closure, yy, zz)


def test_closure_rows_are_built_once_per_closure_and_lower_end(cold_caches, monkeypatch):
    # every pair of both closures at n = 5 reads one row per (closure, y)
    # and builds one closed suborder per closed y: the Boolean subalgebras
    # (Bell(5)) and the principal filters (2^5)
    calls = []

    def counted(*args):
        calls.append(args)
        return closed_suborder(*args)

    monkeypatch.setattr(poset, "closed_suborder", counted)
    n = 5
    top = full_algebra(n)
    for closure in sorted(CLOSURES):
        for y in enumerate_all(n):
            for z in interval(y, top).members:
                lhs, rhs = closure_theorem_check(closure, y, z)
                assert lhs == rhs
    assert _closure_row.cache_info().currsize == 2 * bell(n + 1)
    assert len(calls) == bell(n) + 2**n


def test_closure_theorem_errors():
    one, top = top_only(2), full_algebra(2)
    with pytest.raises(NotComparableError):
        closure_theorem_check("up", top, lat(2, [0], [1]))
    with pytest.raises(ValueError):
        closure_theorem_check("sideways", one, top)
    # the context comes from y, so a z over another atom count is refused
    with pytest.raises(ContextMismatchError):
        closure_theorem_check("up", one, full_algebra(3))
    with pytest.raises(ContextMismatchError):
        closure_theorem_check("complement", top_only(3), top)


def test_closure_theorem_returns_its_right_side(cold_caches, monkeypatch):
    # the two sides agree on every real pair, so only a broken row shows that
    # the check returns its right side instead of copying the left: without
    # the closure filter the "closed suborder" from {1} to B_2 is all of
    # [{1}, B_2], whose top value is 2, not the principal filters' (-1)^2 = 1
    monkeypatch.setattr(poset, "closed_suborder", lambda closure, lower, upper: interval(lower, upper))
    try:
        assert closure_theorem_check("up", top_only(2), full_algebra(2)) == (1, 2)
    finally:
        cold_caches()  # drop the row built from the broken suborder


def test_closed_suborder_members():
    # complement closure: fixed points between the 2-element subalgebra and
    # B_3 are the Boolean subalgebras, Bell(3) = 5 of them
    sub = closed_suborder("complement", lat(3, [], [0, 1, 2]), full_algebra(3))
    assert len(sub) == 5
    assert all(is_boolean_subalgebra(D) for D in sub.members)
    # up closure: fixed points over [{1}, B_n] are the 2^n principal filters,
    # order-dual to B_n, with top Mobius value (-1)^n
    for n in range(5):
        sub = closed_suborder("up", top_only(n), full_algebra(n))
        assert len(sub) == 2**n
        assert mu_top(sub) == (-1) ** n
    # n = 1: the up closure has the 2-member chain [{1}, B]; the only
    # complement-closed element of B_1 is B itself
    assert len(closed_suborder("up", top_only(1), full_algebra(1))) == 2
    assert len(closed_suborder("complement", full_algebra(1), full_algebra(1))) == 1


def test_closed_suborder_rejects_open_endpoints():
    with pytest.raises(NotClosedEndpointError):
        closed_suborder("complement", top_only(2), full_algebra(2))
    with pytest.raises(NotClosedEndpointError):
        closed_suborder("up", lat(3, [0], [1, 2]), full_algebra(3))
    with pytest.raises(ValueError):
        closed_suborder("sideways", top_only(2), full_algebra(2))


def poset_layer_values(order):
    """mu(A, B_4) for every A, then the closed-suborder top value of every closed
    pair and the closure-theorem (lhs, rhs) of every comparable pair at
    n <= 3 for both closures, then the product-decomposition index map of
    every A and the atom-swap sides of every swap at n <= 3 (both relabel
    through the intern table), visited in a given order."""
    top = full_algebra(4)
    lattices = enumerate_all(4)
    mus = {i: mobius_between(lattices[i], top) for i in order(range(len(lattices)))}
    pairs = [
        (closure, lower, upper)
        for closure, cl in sorted(CLOSURES.items())
        for n in range(4)
        for lower in enumerate_all(n)
        for upper in enumerate_all(n)
        if cl(lower) == lower and cl(upper) == upper and is_sub(lower, upper)
    ]
    subs = {i: mu_top(closed_suborder(*pairs[i])) for i in order(range(len(pairs)))}
    theorem = [
        (closure, y, z)
        for closure in sorted(CLOSURES)
        for n in range(4)
        for y in enumerate_all(n)
        for z in enumerate_all(n)
        if is_sub(y, z)
    ]
    checks = {i: closure_theorem_check(*theorem[i]) for i in order(range(len(theorem)))}
    small = [A for n in range(4) for A in enumerate_all(n)]
    isos = {i: product_decomposition(small[i])[2] for i in order(range(len(small)))}
    swaps = [
        (A, c1, c2)
        for A in small
        for k, c1 in enumerate(A.base.atoms)
        for c2 in A.base.atoms[k + 1 :]
    ]
    swapped = {i: interval_isomorphism_via_permutation(*swaps[i]) for i in order(range(len(swaps)))}
    return mus, subs, checks, isos, swapped


def test_poset_layer_agrees_across_threads(cold_caches):
    # several threads fill the cold interval, suborder and Mobius caches at
    # once; a tiny switch interval makes them interleave inside each build
    want = poset_layer_values(list)
    cold_caches()
    workers = 8
    results, errors = [], []
    barrier = threading.Barrier(workers)

    def worker(seed):
        def shuffled(indices):
            out = list(indices)
            random.Random(seed).shuffle(out)
            return out

        try:
            barrier.wait(timeout=60)
            results.append(poset_layer_values(shuffled))
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(workers)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert results == [want] * workers


# --- product factorization ---------------------------------------------------------


def test_the_pairing_is_not_kept(monkeypatch):
    # the pairing lives for one call: the mu claim reads only the factors,
    # the cached slice and per-n order that product_decomposition returns
    assert not hasattr(product_decomposition, "cache_info")
    calls = []

    def counting(A):
        calls.append(A)
        return product_decomposition(A)

    monkeypatch.setattr(poset, "product_decomposition", counting)
    monkeypatch.setattr(verify, "product_decomposition", counting)
    assert all(v.passed for v in verify.run_claims(["product.mu_multiplicative"], 4))
    assert calls == []
    verify.run_claims(["product.pairing_bijection"], 4)
    assert len(calls) == sum(bell(n + 1) for n in range(5))
    for n in range(5):
        for A in enumerate_all(n):
            p1, p2 = _factors(A)
            q1, q2, _ = product_decomposition(A)
            assert q1 is p1 and q2 is p2


def test_product_examples():
    n = 3
    p1, p2, iso = product_decomposition(full_algebra(n))
    assert (len(iso), len(p1), len(p2)) == (1, 1, 1)
    p1, p2, iso = product_decomposition(top_only(n))
    assert len(p1) == 1
    assert len(p2) == len(iso) == len(interval(top_only(n), full_algebra(n)))
    p1, p2, iso = product_decomposition(lat(2, [0], [1]))
    assert (len(iso), len(p1), len(p2)) == (2, 1, 2)


def test_product_is_order_isomorphism():
    for n in range(5):
        for A in enumerate_all(n):
            whole = interval(A, full_algebra(n))
            p1, p2, iso = product_decomposition(A)
            assert len(whole) == len(p1) * len(p2)
            assert len(set(iso)) == len(whole)
            for i in range(len(whole)):
                i1, i2 = iso[i]
                for j in range(len(whole)):
                    j1, j2 = iso[j]
                    assert whole.leq(i, j) == (p1.leq(i1, j1) and p2.leq(i2, j2))


def test_product_mu_multiplies():
    for n in range(5):
        for A in enumerate_all(n):
            p1, p2, _ = product_decomposition(A)
            assert mu_top(interval(A, full_algebra(n))) == mu_top(p1) * mu_top(p2)


# --- orders as down-mask tuples -------------------------------------------------------


def assert_orders_agree(P, down, leq):
    """The candidate down-masks are the order the predicate ``leq`` puts on
    P's member indices, built pair by pair, and that order is P's."""
    m = len(P)
    assert down == tuple(sum(1 << i for i in range(m) if leq(i, j)) for j in range(m))
    assert down == P.down


def test_product_order_matches_the_pairwise_order():
    for n in range(5):
        for A in enumerate_all(n):
            p1, p2, iso = product_decomposition(A)
            assert_orders_agree(
                interval(A, full_algebra(n)),
                _product_order(p1, p2, iso),
                lambda i, j: p1.leq(iso[i][0], iso[j][0]) and p2.leq(iso[i][1], iso[j][1]),
            )


def test_product_order_is_exact_for_any_index_map():
    # pulled back through an arbitrary map, not only the bijection
    rng = random.Random(8)
    for A in enumerate_all(3):
        p1, p2, pairs = product_decomposition(A)
        iso = tuple((rng.randrange(len(p1)), rng.randrange(len(p2))) for _ in pairs)
        want = tuple(
            sum(
                1 << i
                for i in range(len(iso))
                if p1.leq(iso[i][0], iso[j][0]) and p2.leq(iso[i][1], iso[j][1])
            )
            for j in range(len(iso))
        )
        assert _product_order(p1, p2, iso) == want


def test_containment_matches_the_pairwise_order():
    # the atom-swap images and the contracted images of the iso claims
    for n in range(5):
        for A in enumerate_all(n):
            atoms = A.base.atoms
            for k, c1 in enumerate(atoms):
                for c2 in atoms[k + 1 :]:
                    sigma = list(range(n))
                    sigma[c1], sigma[c2] = sigma[c2], sigma[c1]
                    src = interval(A, principal_ultrafilter(n, c1))
                    image = [apply_atom_permutation(D, sigma) for D in src.members]
                    assert_orders_agree(src, _containment(image), lambda i, j: is_sub(image[i], image[j]))
            if is_boolean_subalgebra(A):
                below = interval(top_only(n), A)
                image = [_contract(A, D) for D in below.members]
                assert_orders_agree(below, _containment(image), lambda i, j: is_sub(image[i], image[j]))


def test_containment_matches_is_sub_on_every_pair():
    # the whole of L_n: for n >= 1 every element of B_n, the bottom 0
    # included, is held by some lattice and left out by another
    for n in range(6):
        lattices = list(enumerate_all(n))
        m = len(lattices)
        want = tuple(sum(1 << i for i in range(m) if is_sub(lattices[i], lattices[j])) for j in range(m))
        assert _containment(lattices) == want
    assert _containment([]) == ()


# --- one intern table -----------------------------------------------------------------


def swap_bits(mask, c1, c2):
    flip = (mask >> c1 ^ mask >> c2) & 1
    return mask ^ (flip << c1 | flip << c2)


def test_every_route_returns_the_interned_lattice(cold_caches, monkeypatch):
    # on cold caches no lattice predates the table, so a lattice that is not
    # the table's object for its key was built outside the table
    for n in range(6):
        named = [full_algebra(n), top_only(n)] + [principal_ultrafilter(n, c) for c in range(n)]
        assert all(A is _lattice(n, A.key) for A in named)
        assert full_algebra(n) is full_algebra(n)
        walked = interval(top_only(n), full_algebra(n)).members
        assert all(A is D for A, D in zip(enumerate_all(n), walked, strict=True))

    reordered = 0
    for n in range(5):
        for A in enumerate_all(n):
            for c1 in range(n):
                for c2 in range(c1 + 1, n):
                    sigma = list(range(n))
                    sigma[c1], sigma[c2] = c2, c1
                    blocks = [swap_bits(b.mask, c1, c2) for b in A.blocks]
                    key = (swap_bits(A.base.mask, c1, c2), tuple(sorted(blocks, key=lambda b: b & -b)))
                    reordered += list(key[1]) != blocks
                    assert apply_atom_permutation(A, sigma) is _lattice(n, key)
            if is_boolean_subalgebra(A):
                lattices = enumerate_all(A.w)
                for D in interval(top_only(n), A).members:
                    image = _contract(A, D)
                    assert lattices[lattices.index(image)] is image
    assert reordered  # some swaps leave the blocks out of order, so they are sorted

    built = []
    interned = poset._interned

    def recording(*args):
        built.append(interned(*args))
        return built[-1]

    monkeypatch.setattr(poset, "_interned", recording)
    for n in range(5):
        for A in enumerate_all(n):
            built.clear()
            p1, p2, iso = product_decomposition(A)
            # the lower end of the first factor, then each distinct part once:
            # a member's parts depend only on its blocks and base, and every
            # member of each factor is one member's part
            assert built[0] is p1.lower
            assert all(d is _lattice(d.n, d.key) for d in built)
            assert len(built) == 1 + len(p1) + len(p2)
            parts = {id(d) for i1, i2 in iso for d in (p1.members[i1], p2.members[i2])}
            assert parts == {id(d) for d in built[1:]}


# --- relabeling isomorphisms ----------------------------------------------------------


def atom_filters(n, c1, c2):
    return (interval(top_only(n), principal_ultrafilter(n, c)) for c in (c1, c2))


def test_atom_swap_examples():
    # [{1}, [0,1]] is the 2-chain {1} < [0,1], listed top first; each side is
    # a member set and one down-mask per source member
    src, dst = atom_filters(2, 0, 1)
    assert src.down == (3, 2) and len(dst) == 2
    side = (frozenset(dst.members), src.down)
    assert interval_isomorphism_via_permutation(top_only(2), 0, 1) == (side, side)
    src, _ = atom_filters(2, 0, 0)
    side = (frozenset(src.members), src.down)
    assert interval_isomorphism_via_permutation(top_only(2), 0, 0) == (side, side)
    src, dst = atom_filters(3, 0, 2)
    lhs, rhs = interval_isomorphism_via_permutation(top_only(3), 0, 2)
    assert lhs == rhs == (frozenset(dst.members), src.down)


def test_atom_swap_sides_differ_on_a_failed_check(monkeypatch):
    # every real swap gives two equal sides, so only a broken relabeling or
    # order shows that the right side is the image's own, not a copy of the
    # left: a "swap" that moves nothing leaves [{1}, [0,1]] in place, so the
    # member sets differ and the orders agree; a wrong order over the right
    # members (an antichain) differs in the order only
    src, dst = atom_filters(2, 0, 1)
    with monkeypatch.context() as m:
        m.setattr(poset, "apply_atom_permutation", lambda A, sigma: A)
        lhs, rhs = interval_isomorphism_via_permutation(top_only(2), 0, 1)
    assert lhs == (frozenset(dst.members), src.down)
    assert rhs == (frozenset(src.members), src.down) != lhs
    monkeypatch.setattr(poset, "_containment", lambda lattices: tuple(1 << i for i in range(len(lattices))))
    lhs, rhs = interval_isomorphism_via_permutation(top_only(2), 0, 1)
    assert rhs == (frozenset(dst.members), (1, 2)) != lhs


def test_atom_swap_exhaustive():
    for n in range(2, 5):
        for A in enumerate_all(n):
            atoms = A.base.atoms
            for i, c1 in enumerate(atoms):
                for c2 in atoms[i:]:
                    lhs, rhs = interval_isomorphism_via_permutation(A, c1, c2)
                    assert lhs == rhs


def test_atom_swap_requires_atoms_below_base():
    with pytest.raises(AtomNotBelowBaseError):
        interval_isomorphism_via_permutation(lat(2, [0], [1]), 0, 1)
    with pytest.raises(AtomNotBelowBaseError):
        interval_isomorphism_via_permutation(top_only(2), 0, 5)


def test_equal_rank_subalgebra_intervals_match():
    # intervals below Boolean subalgebras depend only on the atom count:
    # size, maximal chain length, and Mobius value agree per rank (n <= 5)
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n in range(1, 6):
        one = top_only(n)
        for C in enumerate_all(n):
            if not is_boolean_subalgebra(C):
                continue
            k = C.w
            below = interval(one, C)
            assert len(below) == bell[k + 1]
            assert maximal_chain_length(below) == k
            assert mu_top(below) == (-1) ** k * math.factorial(k)


def test_different_rank_subalgebras_have_different_interval_sizes():
    one = top_only(4)
    sizes = {}
    for C in enumerate_all(4):
        if is_boolean_subalgebra(C):
            sizes.setdefault(C.w, set()).add(len(interval(one, C)))
    assert all(len(v) == 1 for v in sizes.values())
    flat = sorted(next(iter(v)) for v in sizes.values())
    assert len(set(flat)) == len(flat)


# --- chains ---------------------------------------------------------------------------


def test_maximal_chain_examples():
    A = lat(2, [0], [1])
    assert maximal_chain_length(interval(A, A)) == 0
    assert maximal_chain_length(interval(top_only(1), full_algebra(1))) == 1
    assert maximal_chain_length(interval(top_only(2), full_algebra(2))) == 2


def test_maximal_chain_of_full_interval_is_n():
    for n in range(6):
        assert maximal_chain_length(interval(top_only(n), full_algebra(n))) == n


def chains_by_length(lattices, lower, upper):
    """``c[k]``, the number of chains lower = x0 < ... < xk = upper, counted
    one chain at a time over ``is_sub`` (no poset or fold code)."""
    between = [D for D in lattices if is_sub(lower, D) and is_sub(D, upper)]
    counts = collections.Counter()

    def extend(x, k):
        if x == upper:
            counts[k] += 1
            return
        for y in between:
            if y != x and is_sub(x, y):
                extend(y, k + 1)

    extend(lower, 0)
    return counts


def test_mobius_is_the_alternating_chain_count():
    # Philip Hall's theorem: mu(A, C) = sum over k of (-1)^k c_k
    for n in range(4):
        lattices = enumerate_all(n)
        for A in lattices:
            for C in lattices:
                if is_sub(A, C):
                    counts = chains_by_length(lattices, A, C)
                    assert mobius_between(A, C) == sum((-1) ** k * c for k, c in counts.items())


# --- exports ---------------------------------------------------------------------------


EXPECTED_DOT = """digraph hasse {
  rankdir=BT;
  v0 [label="{\\"n\\":2,\\"base\\":[],\\"blocks\\":[[0],[1]]}"];
  v1 [label="{\\"n\\":2,\\"base\\":[],\\"blocks\\":[[0,1]]}"];
  v2 [label="{\\"n\\":2,\\"base\\":[0],\\"blocks\\":[[1]]}"];
  v3 [label="{\\"n\\":2,\\"base\\":[1],\\"blocks\\":[[0]]}"];
  v4 [label="{\\"n\\":2,\\"base\\":[0,1],\\"blocks\\":[]}"];
  v1 -> v0;
  v2 -> v0;
  v3 -> v0;
  v4 -> v1;
  v4 -> v2;
  v4 -> v3;
}"""


def test_dot_export_golden():
    P = interval(top_only(2), full_algebra(2))
    assert interval_to_dot(P) == EXPECTED_DOT


def test_dot_export_sizes():
    P = interval(top_only(3), full_algebra(3))
    text = interval_to_dot(P)
    assert text.count("[label=") == 15
    singleton = interval(full_algebra(2), full_algebra(2))
    assert interval_to_dot(singleton).count("->") == 0


def test_interval_json():
    P = interval(top_only(2), full_algebra(2))
    doc = interval_to_dict(P)
    assert doc["lower"] == {"n": 2, "base": [0, 1], "blocks": []}
    assert doc["upper"] == {"n": 2, "base": [], "blocks": [[0], [1]]}
    assert len(doc["members"]) == 5
    assert doc["cover_edges"] == [(1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (4, 3)]
    # covers point upward: each edge joins a member to one directly above it
    for i, j in doc["cover_edges"]:
        assert is_sub(P.members[i], P.members[j])
        assert elements(P.members[i]) < elements(P.members[j])


def test_interval_json_writer_matches_the_encoder():
    posets = [
        interval(top_only(0), full_algebra(0)),  # base and blocks both []
        interval(lat(2, [0], [1]), lat(2, [0], [1])),  # one member, no cover edges
    ]
    for n in range(4):
        lattices = enumerate_all(n)
        posets += [interval(A, C) for A in lattices for C in lattices if is_sub(A, C)]
    posets += [interval(A, full_algebra(4)) for A in enumerate_all(4)]
    posets += [interval(top_only(n), full_algebra(n)) for n in range(7)]
    assert interval_to_dict(posets[0]) == {
        "lower": {"n": 0, "base": [], "blocks": []},
        "upper": {"n": 0, "base": [], "blocks": []},
        "members": [{"n": 0, "base": [], "blocks": []}],
        "cover_edges": [],
    }
    assert interval_to_dict(posets[1])["cover_edges"] == []
    for P in posets:
        assert interval_to_json(P) == json.dumps(interval_to_dict(P), indent=2)
