import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implattice.algebra import (
    ContextMismatchError,
    Element,
    EmptyError,
    ImpLattice,
    NotClosedError,
    Verdict,
    apply_atom_permutation,
    complement,
    complement_closure,
    elements,
    enumerate_all,
    from_elements,
    full_algebra,
    implies,
    is_boolean_subalgebra,
    is_sub,
    is_ultrafilter,
    join,
    lattice_from_json,
    lattice_to_dict,
    lattice_to_json,
    meet,
    principal_ultrafilter,
    top_only,
    up_closure,
    _atoms,
    _bits,
    _interned,
    _lattice,
)
from implattice.poset import IntervalPoset, interval, _slice

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def el(n, *atoms):
    return Element.from_atoms(n, atoms)


def mask(atoms):
    return sum(1 << a for a in atoms)


def lat(n, base, *blocks):
    return ImpLattice(n, (mask(base), tuple(mask(b) for b in blocks)))


# --- element operations -----------------------------------------------------


def test_complement_examples():
    assert complement(el(3, 0, 1)) == el(3, 2)
    assert complement(el(3)) == el(3, 0, 1, 2)
    assert complement(el(1, 0)) == el(1)
    assert complement(complement(el(3, 0, 2))) == el(3, 0, 2)


def test_implies_examples():
    assert implies(el(2, 0), el(2)) == el(2, 1)
    assert implies(el(2, 0, 1), el(2, 1)) == el(2, 1)
    assert implies(el(3), el(3, 2)) == el(3, 0, 1, 2)
    x = el(2, 1)
    assert implies(x, x) == Element.top(2)


def test_meet_join_examples():
    assert meet(el(2, 0), el(2, 1)) == el(2)
    assert join(el(2, 0), el(2, 1)) == el(2, 0, 1)
    assert meet(el(3, 0, 1), el(3, 1, 2)) == el(3, 1)


def test_context_mismatch():
    with pytest.raises(ContextMismatchError):
        implies(el(2, 0), el(3, 0))
    with pytest.raises(ContextMismatchError):
        meet(el(2, 0), el(3, 0))


def test_element_validation():
    with pytest.raises(ValueError):
        Element(2, 4)
    with pytest.raises(ValueError):
        Element(-1, 0)
    with pytest.raises(ValueError):
        Element.from_atoms(2, [2])


# --- canonical form ----------------------------------------------------------


def test_lattice_validation():
    with pytest.raises(ValueError):
        lat(2, [0], [0, 1])  # overlaps base
    with pytest.raises(ValueError):
        lat(2, [0])  # atom 1 uncovered
    with pytest.raises(ValueError):
        ImpLattice(2, (0b01, (0b10, 0)))  # empty block
    with pytest.raises(ValueError):
        ImpLattice(2, (0b100, (0b01, 0b10)))  # base outside B_2
    with pytest.raises(ValueError):
        ImpLattice(2, (0b01, (0b110,)))  # block outside B_2
    with pytest.raises(ValueError):
        ImpLattice(-1, (0, ()))


def test_blocks_canonical_order():
    # _interned sorts the blocks by least atom; the constructor rejects any
    # other order instead of sorting it
    a = _interned(3, 0, [0b100, 0b011])
    b = _interned(3, 0, [0b011, 0b100])
    assert a is b is _lattice(3, (0, (0b011, 0b100)))
    assert [blk.atoms for blk in a.blocks] == [(0, 1), (2,)]
    with pytest.raises(ValueError, match="ordered by least atom"):
        ImpLattice(3, (0, (0b100, 0b011)))


def test_key_is_the_identity():
    # the key is the (base mask, block masks) pair of the canonical blocks
    for n in range(5):
        for A in enumerate_all(n):
            assert A.key == (A.base.mask, tuple(b.mask for b in A.blocks))
    # == and hash agree with element-set equality on every pair, across n
    # too, against distinct copies built by the constructor
    lattices = [A for n in range(4) for A in enumerate_all(n)]
    for A in lattices:
        for B in lattices:
            copy = ImpLattice(B.n, B.key)
            assert copy is not B
            assert (A == copy) == (elements(A) == elements(B)), (A, B)
            if A == copy:
                assert hash(A) == hash(copy)
    # blocks given out of order: interned as the lattice of the sorted key
    A = _interned(4, 0b0010, [0b1000, 0b0101])
    key = (0b0010, (0b0101, 0b1000))
    assert A.key == key
    assert A == _lattice(4, key) and hash(A) == hash(_lattice(4, key))


def test_records_are_frozen_values():
    # no stored field can be reassigned; == and hash read the class and the
    # fields, so a parsed lattice is the interned one in all but identity,
    # and a record never equals a plain tuple or a record of another class
    A = full_algebra(2)
    P = interval(top_only(2), A)
    records = [(Element(2, 1), "mask"), (A, "key"), (P, "members"), (Verdict("x", {}, 1, 1), "lhs")]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    parsed = lattice_from_json(lattice_to_json(A))
    assert parsed is not A and parsed == A and hash(parsed) == hash(A)
    for B in enumerate_all(2):
        e = B.base
        for x, y in [(B, (B.n, B.key)), (B, B.key), (e, (e.n, e.mask)), (B, e)]:
            assert x != y and y != x and not x == y and not y == x
    S = _slice(top_only(2), A)
    assert (S.members, S.lower_index, S.upper_index) == (P.members, P.lower_index, P.upper_index)
    assert S != P and P == IntervalPoset(P.members, P.lower_index, P.upper_index)


def test_elements_examples():
    assert elements(lat(2, [0], [1])) == {el(2, 0), el(2, 0, 1)}
    assert elements(lat(2, [0, 1])) == {el(2, 0, 1)}
    assert elements(lat(3, [], [0, 1], [2])) == {
        el(3),
        el(3, 0, 1),
        el(3, 2),
        el(3, 0, 1, 2),
    }


def test_from_elements_examples():
    assert from_elements({el(2, 0, 1)}, 2) == lat(2, [0, 1])
    full_family = {el(2), el(2, 0), el(2, 1), el(2, 0, 1)}
    assert from_elements(full_family, 2) == lat(2, [], [0], [1])
    with pytest.raises(NotClosedError) as err:
        from_elements({el(2), el(2, 0), el(2, 0, 1)}, 2)
    witness = err.value
    assert (witness.op, witness.x, witness.y, witness.result) == (
        "implies",
        el(2, 0),
        el(2),
        el(2, 1),
    )
    with pytest.raises(EmptyError):
        from_elements(set(), 2)


def test_from_elements_roundtrip_exhaustive(closed_families_oracle):
    # over every nonempty subset of B_n: canonicalization succeeds iff the
    # family is brute-force closed, and elements() inverts it
    for n in range(4):
        closed = set(closed_families_oracle(n))
        for bits in range(1, 1 << (1 << n)):
            fam = {Element(n, m) for m in range(1 << n) if bits >> m & 1}
            masks = frozenset(e.mask for e in fam)
            if masks in closed:
                A = from_elements(fam, n)
                assert elements(A) == frozenset(fam)
            else:
                with pytest.raises(NotClosedError):
                    from_elements(fam, n)


def test_top_belongs_to_every_lattice():
    for n in range(5):
        top = Element.top(n)
        for A in enumerate_all(n):
            assert top in elements(A)


# --- intern table ---------------------------------------------------------------


def test_intern_table_returns_one_object_per_key():
    A = _lattice(3, (0b001, (0b010, 0b100)))
    assert A == lat(3, [0], [1], [2])
    assert _lattice(3, (1, tuple([2, 4]))) is A  # an equal key, built anew
    assert _lattice(3, (0b001, (0b110,))) == lat(3, [0], [1, 2])


@pytest.mark.parametrize(
    "n, key",
    [
        (2, (0b01, (0b11,))),
        (3, (0b001, (0b110, 0b100))),
        (2, (0b01, ())),
        (3, (0, (0b011,))),
        (3, (0, (0b100, 0b011))),
    ],
    ids=["block-overlaps-base", "blocks-overlap", "atom-uncovered", "atoms-uncovered", "blocks-out-of-order"],
)
def test_intern_table_validates_like_the_constructor(n, key):
    with pytest.raises(ValueError) as want:
        ImpLattice(n, key)
    size = _lattice.cache_info().currsize
    with pytest.raises(ValueError) as got:
        _lattice(n, key)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    assert _lattice.cache_info().currsize == size  # nothing interned


def test_atom_tuples_are_the_set_bits():
    # the memo the canonical sort and the JSON read stands for the bit
    # iterator on every atom mask up to n = 10
    assert all(_atoms(m) == tuple(_bits(m)) for m in range(1 << 10))
    assert _atoms(0b1011) is _atoms(0b1011)


def test_closures_match_their_direct_construction():
    for n in range(5):
        for A in enumerate_all(n):
            base, blocks = A.key
            singletons = tuple(1 << i for i in range(n) if not base >> i & 1)
            assert up_closure(A) == ImpLattice(n, (base, singletons))
            if base:
                merged = sorted(blocks + (base,), key=lambda b: b & -b)
                want = ImpLattice(n, (0, tuple(merged)))
            else:
                want = A
            assert complement_closure(A) == want
            # a new closure is the table's object for its canonical key
            for closed in (up_closure(A), complement_closure(A)):
                if closed is not A:
                    assert closed is _lattice(n, closed.key)


# --- containment -------------------------------------------------------------


def test_is_sub_examples():
    assert is_sub(lat(2, [0, 1]), lat(2, [0], [1]))
    assert is_sub(lat(2, [0], [1]), lat(2, [], [0], [1]))
    assert not is_sub(lat(3, [], [0, 1], [2]), lat(3, [2], [0], [1]))
    with pytest.raises(ContextMismatchError):
        is_sub(lat(2, [0, 1]), lat(3, [0, 1, 2]))


def test_is_sub_matches_element_inclusion():
    # block characterization == element-set inclusion, all pairs, n <= 4
    for n in range(5):
        lattices = enumerate_all(n)
        elem_sets = [elements(A) for A in lattices]
        for i, A1 in enumerate(lattices):
            for j, A2 in enumerate(lattices):
                assert is_sub(A1, A2) == (elem_sets[i] <= elem_sets[j])


# --- enumeration -------------------------------------------------------------


def test_enumeration_counts():
    for n in range(7):
        assert len(enumerate_all(n)) == BELL[n + 1]


def test_enumeration_matches_brute_force(closed_families_oracle):
    for n in range(4):
        families = {frozenset(A._element_masks) for A in enumerate_all(n)}
        assert families == set(closed_families_oracle(n))


def test_enumeration_is_canonical_and_deterministic():
    for n in range(5):
        first = enumerate_all(n)
        assert first == enumerate_all(n)
        assert list(first) == sorted(first, key=ImpLattice.sort_key)
        assert len(set(first)) == len(first)


def test_enumerate_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_all(-1)


# --- closure operators ---------------------------------------------------------


def test_complement_closure_examples():
    assert complement_closure(lat(2, [0, 1])) == lat(2, [], [0, 1])
    assert complement_closure(lat(2, [], [0], [1])) == lat(2, [], [0], [1])
    assert complement_closure(lat(3, [2], [0], [1])) == full_algebra(3)


def test_up_closure_examples():
    assert up_closure(lat(3, [0], [1, 2])) == lat(3, [0], [1], [2])
    assert up_closure(lat(3, [], [0, 1, 2])) == full_algebra(3)
    assert up_closure(lat(3, [0, 1, 2])) == lat(3, [0, 1, 2])


@pytest.mark.parametrize("close", [complement_closure, up_closure])
def test_closure_axioms_exhaustive(close):
    for n in range(5):
        lattices = enumerate_all(n)
        for A in lattices:
            assert is_sub(A, close(A))
            assert close(close(A)) == close(A)
        for A1 in lattices:
            for A2 in lattices:
                if is_sub(A1, A2):
                    assert is_sub(close(A1), close(A2))


def test_complement_saturation_exhaustive():
    # closure reaches the full algebra exactly at B and the ultrafilters
    for n in range(6):
        top = full_algebra(n)
        for A in enumerate_all(n):
            assert (complement_closure(A) == top) == (A == top or is_ultrafilter(A))


def test_up_saturation_exhaustive():
    for n in range(6):
        top = full_algebra(n)
        for A in enumerate_all(n):
            assert (up_closure(A) == top) == is_boolean_subalgebra(A)
            assert is_boolean_subalgebra(A) == (A.base.mask == 0)


def test_flag_examples():
    assert is_boolean_subalgebra(lat(2, [], [0, 1]))
    assert not is_ultrafilter(lat(2, [], [0, 1]))
    assert is_ultrafilter(lat(2, [0], [1]))
    assert not is_boolean_subalgebra(lat(3, [0, 1], [2]))
    assert not is_ultrafilter(lat(3, [0, 1], [2]))
    assert is_ultrafilter(principal_ultrafilter(3, 1))


# --- atom permutations ---------------------------------------------------------


def test_permutation_examples():
    A = lat(3, [0], [1], [2])
    assert apply_atom_permutation(A, (0, 1, 2)) == A
    assert apply_atom_permutation(A, (1, 0, 2)) == lat(3, [1], [0], [2])
    B = lat(2, [], [0], [1])
    assert apply_atom_permutation(B, (1, 0)) == B
    with pytest.raises(ValueError):
        apply_atom_permutation(A, (0, 0, 2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_permutation_is_order_automorphism(data):
    n = data.draw(st.integers(min_value=0, max_value=4), label="n")
    lattices = enumerate_all(n)
    sigma = data.draw(st.permutations(range(n)), label="sigma")
    i = data.draw(st.integers(min_value=0, max_value=len(lattices) - 1), label="i")
    j = data.draw(st.integers(min_value=0, max_value=len(lattices) - 1), label="j")
    a1, a2 = lattices[i], lattices[j]
    m1, m2 = apply_atom_permutation(a1, sigma), apply_atom_permutation(a2, sigma)
    assert is_sub(a1, a2) == is_sub(m1, m2)
    inverse = [0] * n
    for src, dst in enumerate(sigma):
        inverse[dst] = src
    assert apply_atom_permutation(m1, inverse) == a1


# --- JSON ----------------------------------------------------------------------


def test_json_shape():
    A = lat(3, [2], [0, 1])
    assert lattice_to_dict(A) == {"n": 3, "base": [2], "blocks": [[0, 1]]}
    assert lattice_to_json(A) == '{"n":3,"base":[2],"blocks":[[0,1]]}'


def test_json_roundtrip_bit_exact():
    for n in range(5):
        for A in enumerate_all(n):
            text = lattice_to_json(A)
            assert lattice_from_json(text) == A
            assert lattice_to_json(lattice_from_json(text)) == text


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        lattice_from_json('{"base":[0],"blocks":[]}')
    with pytest.raises(ValueError):
        lattice_from_json('{"n":"2","base":[],"blocks":[[0],[1]]}')
    with pytest.raises(ValueError):
        lattice_from_json(json.dumps({"n": 2, "base": [0], "blocks": [[0]]}))
    with pytest.raises(ValueError, match="duplicate key 'n'"):
        lattice_from_json('{"n":2,"n":2,"base":[0],"blocks":[[1]]}')
    with pytest.raises(ValueError, match="ordered by least atom"):
        lattice_from_json('{"n":3,"base":[],"blocks":[[2],[0,1]]}')


# --- verdict plumbing ------------------------------------------------------------


def test_verdict_invariant():
    assert Verdict("x", {}, 1, 1).passed
    assert not Verdict("x", {}, 1, 2).passed
    assert Verdict("x", {}, 10**30, 10**30).passed
    # the pass flag is derived, so no verdict can contradict its own sides
    with pytest.raises(TypeError):
        Verdict("x", {}, 1, 2, True)


# --- n = 0 edge cases -------------------------------------------------------------


def test_zero_atom_algebra():
    only = enumerate_all(0)
    assert len(only) == 1
    A = only[0]
    assert A == full_algebra(0) == top_only(0)
    assert is_boolean_subalgebra(A)
    assert not is_ultrafilter(A)
    assert elements(A) == {Element(0, 0)}
    assert complement_closure(A) == A
    assert up_closure(A) == A
