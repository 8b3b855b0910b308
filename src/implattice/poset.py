"""Explicit intervals in the sublattice order and their Mobius functions.

An interval's members are materialized eagerly and its order on first use,
the Mobius function is computed by the defining recursion, and the structural
facts used by the closed forms -- the closure identity, the base/quotient
product factorization, and the relabeling isomorphisms -- are computed here
against that oracle.  A check returns the two sides ``(lhs, rhs)`` it
compares; only the claim registry in :mod:`implattice.verify` turns them
into a verdict.

The order is graded by block count, and every cover D < C is one move on C:
merge two of its blocks, or absorb one block into its base (the partition
lattice cover plus a base move).  The same moves give the members, the order
and the Hasse edges, by one rule, :func:`_lower_moves`: the moves that stay
above the lower end.  Walked down from the upper end by it, every key an
interval's walk reaches is a member and no containment test runs.  A poset
stores only its members and the indices of its ends; its order and Hasse
edges are derived on first use from one primitive, its cover lists: the
members one move below each member, which the walk records as it goes (else
the rule makes the moves again), never by comparing element sets.
:class:`IntervalPoset` states when those moves are all of the member set's
covers.  The one exception is :func:`_containment`, the reference order the
relabeled images are checked against: it compares element sets on purpose,
so that it shares no code with the moves or with ``is_sub``.

Two routes build an interval.  The walk, :func:`interval`, serves single
queries such as the CLI's: a small interval costs its own size at any n, and
the walk also builds the whole order L_n = [{1}, B_n].  The sweeps take
every interval they check as a slice of L_n instead (:func:`_slice`): L_n,
its order and its covers are built once per n by :func:`_order`, the members
of ``[A, C]`` are the bits of ``up[A] & down[C]``, and its order is L_n's
restricted to them, by :func:`_restricted`, which cuts the closed
suborders too.  The closure sweeps likewise close each member of L_n once
per closure (:func:`_closed`) and read closures as L_n indices.  A walked
poset folds its Mobius values by block-count layers and builds no order; a
slice folds over its order, which the sweeps read anyway.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import chain, compress, groupby
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import (
    ImpLattice,
    apply_atom_permutation,
    complement_closure,
    full_algebra,
    is_sub,
    lattice_to_dict,
    lattice_to_json,
    principal_ultrafilter,
    remap,
    top_only,
    up_closure,
    _atoms,
    _bits,
    _contraction,
    _full_mask,
    _interned,
    _lattice,
    _Record,
)


class NotComparableError(ValueError):
    """Interval endpoints are not ordered lower <= upper."""


class NotClosedEndpointError(ValueError):
    """A closed-suborder endpoint is not a fixed point of the closure."""


class AtomNotBelowBaseError(ValueError):
    """The named atom does not lie below the sublattice's base."""


CLOSURES = {
    "complement": complement_closure,
    "up": up_closure,
}


class IntervalPoset(_Record):
    """A finite bounded subposet of the sublattice order.

    Stored: the members, in canonical order, and the indices of the lower and
    upper ends.  For an interval the members are exactly
    ``{D : lower <= D <= upper}``; :func:`closed_suborder` restricts them to
    closure fixed points.  The walk, :func:`interval`, builds L_n and serves
    single queries; the sweeps take their intervals as slices of the per-n
    order (:func:`_slice`).  Derived on first use and cached on the poset, as
    plain tuples: the order ``down``, the Hasse edges ``covers`` and the
    Mobius values.  A walked poset folds the values by block-count layers
    and caches them beside its cover lists without building ``down``; a
    slice or closed suborder folds over ``down`` and caches both.  All three
    read the cover lists, the members one move below each member, so every
    cover of the member set must be one merge of two blocks or one absorb of
    a block into the base.  That holds for an interval, which is convex, and
    for the closed suborders: Boolean subalgebras step by merges, principal
    filters by absorbing a singleton block.  The walk caches the lists it
    found on its poset, the sweeps' posets (:func:`_restricted`) read them
    off L_n's; others redo its moves.
    """

    def __init__(self, members: tuple[ImpLattice, ...], lower_index: int, upper_index: int) -> None:
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "lower_index", lower_index)
        object.__setattr__(self, "upper_index", upper_index)

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    @property
    def lower(self) -> ImpLattice:
        return self.members[self.lower_index]

    @property
    def upper(self) -> ImpLattice:
        return self.members[self.upper_index]

    def __len__(self) -> int:
        return len(self.members)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.down[j] >> i & 1)

    @cached_property
    def _cover_lists(self) -> tuple[tuple[int, ...], ...]:
        """The indices of the members each member covers, in move order: the
        walk's own when it built the poset, else made again by its rule, which
        drops no move onto a member, as each stays above the lower end."""
        index = {C.key[1]: i for i, C in enumerate(self.members)}  # blocks fix a member
        part = _parts(self.lower.key)
        return tuple(tuple([index[k] for k in _lower_moves(C.key[1], part) if k in index]) for C in self.members)

    @cached_property
    def down(self) -> tuple[int, ...]:
        """``down[j]`` is a bitmask over member indices giving the members
        below member j (reflexively); it agrees with ``is_sub``."""
        return _fill(self._cover_lists, _by_rank(self.members))

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse edges (i, j) with member i covered by member j, sorted."""
        return tuple([(i, j) for i, js in enumerate(_transpose(self._cover_lists)) for j in js])

    @cached_property
    def _mobius(self) -> tuple[int, ...]:
        return tuple(
            _fold_below(len(self.members), 1, lambda values, counts: -sum(map(mul, values, counts)), self._downs())
        )

    def _downs(self) -> Iterator[list[tuple[int, int, int]]]:
        """The fold's layers, bits numbering members by block-count position:
        i's down-set is its bit and those of the members it covers, which lie
        in the layer before, so only that layer's down-sets are kept."""
        covered, prev, p = self._cover_lists, {}, 0
        for layer in _layers(self.members):
            now, out = {}, []
            for i in layer:
                mask = 1 << p
                for j in covered[i]:
                    mask |= prev[j]
                now[i] = mask
                out.append((i, p, mask))
                p += 1
            yield out
            prev = now


def _lower_moves(blocks: tuple[int, ...], part: dict[int, int]) -> Iterator[tuple[int, ...]]:
    """The one-move lower neighbours of the member with these block masks
    above a lower end A, as block tuples, for ``part`` the :func:`_parts` of
    A: absorb a block i of base(A) into the base, or merge blocks i < j of
    one part (all moves for A = {1}).  A member's base is the atoms outside
    its blocks, so the blocks alone fix it.  The merged block keeps block
    i's least atom, so it stays at position i."""
    parts = [part[b & -b] for b in blocks]
    for i, b in enumerate(blocks):
        p, head = parts[i], blocks[:i]
        if p < 0:
            yield head + blocks[i + 1 :]
        for j in range(i + 1, len(blocks)):
            if parts[j] == p:
                yield head + (b | blocks[j],) + blocks[i + 1 : j] + blocks[j + 1 :]


def _parts(A: tuple[int, tuple[int, ...]]) -> dict[int, int]:
    """The part of the mask key A that holds each atom, by the atom's bit:
    -1 for base(A), else the index of A's block.  Each block of a C >= A
    lies inside one part, the part of its least atom."""
    base, blocks = A
    return {1 << x: p for p, m in enumerate((base, *blocks), -1) for x in _atoms(m)}


def _key_index(members: tuple[ImpLattice, ...]) -> dict[tuple, int]:
    """The member index by mask key: ``{A.key: i}``."""
    return {A.key: i for i, A in enumerate(members)}


def _layers(members: tuple[ImpLattice, ...]) -> list[list[int]]:
    """Member indices by block count, one ascending list per count, fewest
    first: a member covers only members of the layer before its own."""
    layers: list[list[int]] = [[] for _ in range(members[0].n + 1)]
    for i, A in enumerate(members):
        layers[len(A.key[1])].append(i)
    return [layer for layer in layers if layer]


def _by_rank(members: tuple[ImpLattice, ...]) -> list[int]:
    """The layers run together: a linear extension of the order."""
    return list(chain.from_iterable(_layers(members)))


def _by_down(poset: IntervalPoset) -> list[list[tuple[int, int, int]]]:
    """The fold's layers as ``(i, i, down[i])``: read off the order."""
    down = poset.down
    return [[(i, i, down[i]) for i in layer] for layer in _layers(poset.members)]


def _fill(lists: Sequence[Sequence[int]], order: Iterable[int]) -> tuple[int, ...]:
    """Reflexive masks: bit j and the masks of the indices in ``lists[j]``,
    filled in ``order``.  Cover lists in block-count order give the
    down-sets; the lists transposed, in reverse order, the up-sets."""
    masks = [0] * len(lists)
    for j in order:
        mask = 1 << j
        for i in lists[j]:
            mask |= masks[i]
        masks[j] = mask
    return tuple(masks)


def _transpose(lists: Sequence[Sequence[int]]) -> list[list[int]]:
    """``out[i]`` lists, ascending, the indices j with i in ``lists[j]``."""
    out: list[list[int]] = [[] for _ in lists]
    for j, js in enumerate(lists):
        for i in js:
            out[i].append(j)
    return out


def interval(lower: ImpLattice, upper: ImpLattice) -> IntervalPoset:
    """Materialize ``[lower, upper]`` in the sublattice order.

    Members are found by one-move steps down from upper.  Every block of a
    member lies inside one part of lower, its base or one of its blocks, so
    the walk makes only the moves that keep to one part (:func:`_parts`):
    every key it reaches is a member, one per cover edge, and a small
    interval costs its own size at any n.  The interval is convex and every
    cover is one move, so a chain of covers inside it leads from upper to
    each member.  The keys one move below a member, reached before or not,
    are its covers; the poset keeps them as its cover lists.  The walk keys
    its members by their block tuples, and builds a lattice only for each
    member it keeps, with the atoms outside the blocks as its base.
    """
    if not is_sub(lower, upper):
        raise NotComparableError("interval endpoints must satisfy lower <= upper")
    n = upper.n
    part = _parts(lower.key)
    kept = [upper.key[1]]
    seen = {kept[0]: 0}  # walk position of each kept member, by its blocks
    moves = []  # per kept member, the walk positions of the members it covers
    for C in kept:  # grows as the walk keeps members
        moves.append(below := [])
        for key in _lower_moves(C, part):
            p = seen.get(key)
            if p is None:
                p = seen[key] = len(kept)
                kept.append(key)
            below.append(p)
    full = _full_mask(n)
    lattices = [_lattice(n, (full - sum(blocks), blocks)) for blocks in kept]  # blocks are disjoint
    order = sorted(range(len(kept)), key=lambda p: lattices[p].sort_key())
    rank = [0] * len(kept)
    for i, p in enumerate(order):
        rank[p] = i
    P = IntervalPoset(tuple(lattices[p] for p in order), rank[seen[lower.key[1]]], rank[0])
    vars(P)["_cover_lists"] = tuple(tuple([rank[q] for q in moves[p]]) for p in order)
    return P


@cache
def _order(n: int) -> tuple[IntervalPoset, dict, tuple[int, ...]]:
    """The whole order L_n = [{1}, B_n], built once per n by the walk, as
    ``(L, index, up)``: L_n itself, whose members are ``enumerate_all(n)``
    in canonical order, so that bit order over its indices is member order,
    and which keeps the walk's cover lists; its member index by mask key;
    and its up-sets, filled from the transposed cover lists, top block
    count first."""
    L = interval(top_only(n), full_algebra(n))
    up = _fill(_transpose(L._cover_lists), reversed(_by_rank(L.members)))
    return L, _key_index(L.members), up


class _Restricted(IntervalPoset):
    """A subposet of L_n whose covers are covers of L_n, as those of an
    interval and of a closed suborder are: the same stored fields, and cover
    lists read off L_n's, restricted to the members, on each use: the sweeps
    hold many slices, and caching their lists would cost memory."""

    @property
    def _cover_lists(self) -> list[list[int]]:
        L, index, _ = _order(self.lower.n)
        covered = L._cover_lists
        at = [index[A.key] for A in self.members]
        local = {g: i for i, g in enumerate(at)}
        return [[local[g] for g in covered[k] if g in local] for k in at]

    _downs = _by_down  # the sweeps read each slice's order anyway


def _inside(lower: ImpLattice, upper: ImpLattice) -> list[int]:
    """The L_n indices of ``[lower, upper]``, ascending: the bits of
    ``up[lower] & down[upper]``."""
    L, index, up = _order(upper.n)
    a, c = index[lower.key], index[upper.key]
    if not up[a] >> c & 1:
        raise NotComparableError("interval endpoints must satisfy lower <= upper")
    return list(_bits(up[a] & L.down[c]))


def _restricted(at: list[int], lower: ImpLattice, upper: ImpLattice) -> IntervalPoset:
    """The subposet of L_n on the ascending L_n indices ``at``, with ends
    lower and upper, whose members keep L_n's canonical order."""
    L, index, _ = _order(upper.n)
    members = tuple([L.members[g] for g in at])
    return _Restricted(members, at.index(index[lower.key]), at.index(index[upper.key]))


@cache
def _slice(lower: ImpLattice, upper: ImpLattice) -> IntervalPoset:
    """``[lower, upper]`` as a slice of the per-n order: the members of L_n
    in :func:`_inside`, and the fields :func:`interval` gives."""
    return _restricted(_inside(lower, upper), lower, upper)


def _fold_below(
    size: int, at_lower: int, combine: Callable[[dict, tuple], int], layers: Iterable[list[tuple]]
) -> list[int]:
    """Fold a value up an interval of ``size`` members: ``at_lower`` at the
    lower end, and at every other member ``combine`` of the values of the
    members strictly below it, grouped by value.

    ``layers`` gives the members one block count at a time, fewest first
    (the first is the lower end alone), as ``(i, bit, down)``: a down-set
    and i's own bit in it.  The members already folded are kept as one mask
    of their bits per distinct value, and ``combine`` gets those values, as
    that dict's keys, and in the same order how many members of each class
    lie in i's down-set.  Every member strictly below i is in an earlier
    layer and i in none, so the counts are exactly the multiset of values
    below i, and a fold that only sums or maximises them is the same
    recursion regrouped.  That costs one big-int AND per member and class,
    one comprehension per layer and class, and the classes are few:
    ``[{1}, B_8]`` has 9 distinct Mobius values.
    """
    value = [0] * size
    classes: dict[int, int] = {}
    for layer in layers:
        if classes:
            columns = [[(down & mask).bit_count() for _, _, down in layer] for mask in classes.values()]
            values = [combine(classes, counts) for counts in zip(*columns)]
        else:
            values = [at_lower]
        for (i, bit, _), v in zip(layer, values):
            value[i] = v
            classes[v] = classes.get(v, 0) | 1 << bit
    return value


def mobius_oracle(poset: IntervalPoset) -> tuple[int, ...]:
    """``mu(lower, member)`` for every member, in member order, by the
    defining recursion: mu(lower) = 1 and every proper down-set sums to
    zero.  Computed once per poset and cached on it."""
    return poset._mobius


def mobius_between(lower: ImpLattice, upper: ImpLattice) -> int:
    """Convenience: mu(lower, upper) via the oracle, on a slice."""
    P = _slice(lower, upper)
    return mobius_oracle(P)[P.upper_index]


def _closure(name: str) -> Callable[[ImpLattice], ImpLattice]:
    cl = CLOSURES.get(name)
    if cl is None:
        raise ValueError(f"unknown closure {name!r}; expected one of {sorted(CLOSURES)}")
    return cl


@cache
def _closed(closure: str, n: int) -> tuple[int, ...]:
    """The closure index of L_n: ``cl[g]`` is the L_n index of the closure
    of L_n's member g.  The closure function runs once per member."""
    close = _closure(closure)
    L, index, _ = _order(n)
    return tuple(index[close(A).key] for A in L.members)


def closed_suborder(closure: str, lower: ImpLattice, upper: ImpLattice) -> IntervalPoset:
    """The fixed points of a closure operator between two closed bounds:
    the members g of the slice ``[lower, upper]`` with ``cl[g] == g`` in the
    closure index :func:`_closed`."""
    close = _closure(closure)
    if close(lower) != lower or close(upper) != upper:
        raise NotClosedEndpointError("closed-suborder endpoints must be closure fixed points")
    cl = _closed(closure, upper.n)
    return _restricted([g for g in _inside(lower, upper) if cl[g] == g], lower, upper)


@cache
def _closure_row(closure: str, y: ImpLattice) -> tuple[dict, dict | None]:
    """The closure-theorem row of (closure, y), keyed by L_n index: the sums
    of ``mu(y, x)`` over [y, B_n] by the index ``cl[x]`` of the closure of
    x, and ``mu(y, c)`` in the closed suborder [y, B_n] for each member c,
    by c's index, when y is closed, else None.  The members of [y, B_n] are
    the bits of ``up[y]``, in slice order."""
    n = y.n
    _, index, up = _order(n)
    cl = _closed(closure, n)
    g = index[y.key]
    whole = _slice(y, full_algebra(n))
    sums: dict[int, int] = {}
    for x, mu in zip(_bits(up[g]), mobius_oracle(whole)):
        c = cl[x]
        sums[c] = sums.get(c, 0) + mu
    if cl[g] != g:
        return sums, None
    sub = closed_suborder(closure, y, whole.upper)  # both closures fix B_n
    return sums, {index[D.key]: mu for D, mu in zip(sub.members, mobius_oracle(sub))}


def closure_theorem_check(closure: str, y: ImpLattice, z: ImpLattice) -> tuple[int, int]:
    """The two sides ``(lhs, rhs)`` of the Mobius/closure identity for one
    pair ``y <= z``; the identity holds when they are equal.

    lhs sums ``mu(y, x)`` over all x in [y, B] whose closure equals the
    closure of z; rhs is the Mobius function of the closed suborder from y to
    cl(z) when y is itself closed, and 0 otherwise.  Both are read from one
    row per (closure, y), built once over [y, B], at the L_n index of cl(z),
    which the closure index :func:`_closed` gives.  The Mobius function is
    local to an interval: the closed suborder from y to cl(z) is the
    down-set of cl(z) in the closed suborder from y to B, so its top value
    is the row's value at cl(z).
    """
    if not is_sub(y, z):
        raise NotComparableError("closure identity needs y <= z")
    sums, closed = _closure_row(closure, y)
    c = _closed(closure, z.n)[_order(z.n)[1][z.key]]
    return sums.get(c, 0), 0 if closed is None else closed[c]


def _factors(A: ImpLattice) -> tuple[IntervalPoset, IntervalPoset]:
    """The cached factors ``(p1, p2)`` of ``[A, B_n]`` through ``a = base(A)``: the slice
    ``[A', B_w]``, for A' the :func:`_contraction` of A onto the w atoms outside a, and L_|a|."""
    k = A.key[0].bit_count()
    w = A.n - k
    return _slice(_interned(w, *A.key, _contraction(up_closure(A))), full_algebra(w)), _order(k)[0]


def product_decomposition(A: ImpLattice) -> tuple[IntervalPoset, IntervalPoset, tuple[tuple[int, int], ...]]:
    """Factorization ``(p1, p2, iso)`` of ``[A, B]`` through the base of A:
    (subalgebras of [a,1] over A) x (all of [0,a]), the :func:`_factors`.

    Each member C splits into its part above ``a = base(A)`` (a Boolean
    subalgebra of ``[a, 1]``, contracted onto the atoms outside a) and its
    part below a (a sublattice of ``[0, a]``, relabeled onto the atoms of a).
    The first part depends only on C's blocks outside a, the second only on
    C's base and its blocks inside a, so each distinct part is relabeled
    once, ``len(p1) + len(p2)`` in all.  ``iso[i]`` gives the (p1, p2)
    member indices for member i of ``_slice(A, full_algebra(A.n))``; the
    map is a bijection preserving and reflecting order, so the Mobius value
    of the whole interval is the product of the factors'.  The pairing is
    built on each call and kept by no memo.
    """
    a = A.key[0]
    p1, p2 = _factors(A)
    n1, n2 = p1.upper.n, p2.upper.n
    out_images = _contraction(up_closure(A))
    in_images = {x: 1 << i for i, x in enumerate(_atoms(a))}
    index1, index2 = _key_index(p1.members), _order(n2)[1]
    keys = [C.key for C in _slice(A, full_algebra(A.n)).members]
    # A <= C forces every block of C inside or outside a
    above = [tuple(b for b in bs if not b & a) for _, bs in keys]
    below = [(base, tuple(b for b in bs if b & a)) for base, bs in keys]
    first = {k: index1[_interned(n1, 0, k, out_images).key] for k in dict.fromkeys(above)}
    second = {k: index2[_interned(n2, *k, in_images).key] for k in dict.fromkeys(below)}
    return p1, p2, tuple((first[k1], second[k2]) for k1, k2 in zip(above, below))


def _product_order(p1: IntervalPoset, p2: IntervalPoset, iso: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """The product of the factor orders pulled back through ``iso``, as one
    down-mask per whole member: i is below j iff both factor parts of i are
    below those of j.  Each factor down-set is remapped through the preimage
    masks of its indices, so this is exact whether or not ``iso`` is a
    bijection.  A tuple, like ``down``, so the two compare whole."""
    pre1 = [0] * len(p1)
    pre2 = [0] * len(p2)
    for i, (i1, i2) in enumerate(iso):
        pre1[i1] |= 1 << i
        pre2[i2] |= 1 << i
    down1 = [remap(d, pre1) for d in p1.down]
    down2 = [remap(d, pre2) for d in p2.down]
    return tuple(down1[i1] & down2[i2] for i1, i2 in iso)


def _containment(lattices: list[ImpLattice]) -> tuple[int, ...]:
    """The order of ``lattices`` (all over one B_n) by inclusion of element
    sets, as one down-mask per lattice: bit i of entry j is set iff every
    element of ``lattices[i]`` is an element of ``lattices[j]``.  Column e
    holds the lattices that contain the element e, so i lies below j iff i
    is in no column of an element outside j's: m * 2^n ORs, no pairwise
    test.  A tuple, like ``down``, so the two compare whole."""
    if not lattices:
        return ()
    n = lattices[0].n
    col = [0] * (1 << n)
    for i, A in enumerate(lattices):
        for e in A._element_masks:
            col[e] |= 1 << i
    everyone = (1 << len(lattices)) - 1
    every = set(range(1 << n))
    down = []
    for A in lattices:
        outside = 0
        for e in every.difference(A._element_masks):
            outside |= col[e]
        down.append(everyone & ~outside)
    return tuple(down)


def interval_isomorphism_via_permutation(A: ImpLattice, c1: int, c2: int) -> tuple[tuple, tuple]:
    """Swap two atoms below base(A) and compare the atom-filter intervals.

    The transposition fixes A, maps ``[A, [c1,1]]`` onto ``[A, [c2,1]]``, and
    must preserve and reflect order.  Returns the two sides ``(lhs, rhs)``:
    the target's member set and the source's order, and the image's member
    set and the order containment puts on the image, one down-mask per
    source member.  The intervals are isomorphic when the two are equal; the
    image is then also one-to-one, since two equal images would lie below
    each other, which the source's antisymmetric order does not allow.
    """
    n = A.n
    for c in (c1, c2):
        if not 0 <= c < n or not A.key[0] >> c & 1:
            raise AtomNotBelowBaseError(f"atom {c} is not below the base of {lattice_to_json(A)}")
    sigma = list(range(n))
    sigma[c1], sigma[c2] = sigma[c2], sigma[c1]
    src = _slice(A, principal_ultrafilter(n, c1))
    dst = _slice(A, principal_ultrafilter(n, c2))
    image = [apply_atom_permutation(m, sigma) for m in src.members]
    return (frozenset(dst.members), src.down), (frozenset(image), _containment(image))


def maximal_chain_length(poset: IntervalPoset) -> int:
    """Edge count of the longest chain from lower to upper."""
    length = _fold_below(
        len(poset.members), 0, lambda values, counts: max(compress(values, counts), default=-1) + 1, _by_down(poset)
    )
    return length[poset.upper_index]


# --- exports ---------------------------------------------------------------


def interval_to_dict(poset: IntervalPoset) -> dict:
    return {
        "lower": lattice_to_dict(poset.lower),
        "upper": lattice_to_dict(poset.upper),
        "members": [lattice_to_dict(m) for m in poset.members],
        "cover_edges": list(poset.covers),
    }


def _json_items(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A list (or, with ``brackets="{}"``, an object) of already rendered
    items, laid out as ``json.dumps(..., indent=2)`` lays it out when it
    opens at indentation ``pad``."""
    if not items:
        return brackets
    sep = ",\n" + pad + "  "
    return brackets[0] + sep[1:] + sep.join(items) + "\n" + pad + brackets[1]


def _lattice_json(doc: dict, pad: str, atoms: Callable[[tuple[int, ...], str], str]) -> str:
    inner = pad + "  "
    blocks = _json_items([atoms(tuple(block), inner + "  ") for block in doc["blocks"]], inner)
    base = atoms(tuple(doc["base"]), inner)
    return f'{{\n{inner}"n": {doc["n"]},\n{inner}"base": {base},\n{inner}"blocks": {blocks}\n{pad}}}'


def interval_to_json(poset: IntervalPoset) -> str:
    """``json.dumps(interval_to_dict(poset), indent=2)``, byte for byte,
    rendered by joins that know the interval schema (objects of ``n``,
    ``base`` and ``blocks``, lists of ints) instead of by the general
    encoder, which has no C path for ``indent``.  Each distinct atom list is
    rendered once per indentation, by a memo that lives for one call, and
    the cover edges by one join per lower member: they are sorted by it."""
    doc = interval_to_dict(poset)
    atoms = cache(lambda xs, pad: _json_items([str(a) for a in xs], pad))
    members = [_lattice_json(m, "    ", atoms) for m in doc["members"]]
    edges = []
    for i, group in groupby(doc["cover_edges"], itemgetter(0)):
        head = f"[\n      {i},\n      "
        edges.append(head + f"\n    ],\n    {head}".join([str(j) for _, j in group]) + "\n    ]")
    fields = [
        f'"lower": {_lattice_json(doc["lower"], "  ", atoms)}',
        f'"upper": {_lattice_json(doc["upper"], "  ", atoms)}',
        f'"members": {_json_items(members, "  ")}',
        f'"cover_edges": {_json_items(edges, "  ")}',
    ]
    return _json_items(fields, "", "{}")


def interval_to_dot(poset: IntervalPoset) -> str:
    """Hasse diagram in DOT, nodes labeled by the canonical JSON encoding."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, member in enumerate(poset.members):
        label = lattice_to_json(member).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{i} [label="{label}"];')
    for i, j in poset.covers:
        lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines)
