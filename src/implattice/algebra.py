"""Finite Boolean algebras and their implication sublattices.

The ambient algebra ``B_n`` is the powerset of an n-element atom set; an
element is a bitmask over atom indices ``0..n-1``.  An implication sublattice
is a nonempty subset closed under ``x -> y = ~x | y`` and meet; every such
subset is a Boolean subalgebra of the interval ``[a, 1]`` where ``a`` is its
minimum, so it is captured canonically by a *partial partition*: the base
element ``a`` plus a partition of the atoms outside ``a`` into blocks.
:class:`ImpLattice` stores exactly that as masks, ``(n, key)``, and every
sublattice the program builds comes from one intern table, :func:`_lattice`.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import json


class ContextMismatchError(ValueError):
    """Operands live in Boolean algebras with different atom counts."""


class EmptyError(ValueError):
    """An empty element family was given where a sublattice is required."""


class NotClosedError(ValueError):
    """A family is not closed under implication or meet.

    Carries a witness: ``op`` is ``"implies"`` or ``"meet"``, and
    ``op(x, y) = result`` is not in the family.
    """

    def __init__(self, op: str, x: "Element", y: "Element", result: "Element"):
        self.op = op
        self.x = x
        self.y = y
        self.result = result
        super().__init__(
            f"family not closed: {op}({set(x.atoms)}, {set(y.atoms)}) = "
            f"{set(result.atoms)} is missing"
        )


def _full_mask(n: int) -> int:
    return (1 << n) - 1


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@cache
def _atoms(mask: int) -> tuple[int, ...]:
    """The set bits of an atom mask as a tuple, ascending: :func:`_bits`,
    computed once per mask.  Index masks over members are not atom masks
    and go through :func:`_bits`."""
    return tuple(_bits(mask))


def remap(mask: int, images: Sequence[int] | Mapping[int, int]) -> int:
    """Relabel a mask bit by bit: the union of ``images[i]`` over set bits i."""
    out = 0
    for i in _bits(mask):
        out |= images[i]
    return out


class _Record:
    """A frozen record: its fields are the annotated ``__init__`` parameters, set once there."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def _fields(self) -> tuple[tuple[str, object], ...]:
        return tuple((f, getattr(self, f)) for f in type(self).__init__.__annotations__ if f != "return")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={v!r}' for f, v in self._fields())})"


class Element(_Record):
    """An element of ``B_n``: a set of atom indices stored as a bitmask."""

    def __init__(self, n: int, mask: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)
        if self.n < 0:
            raise ValueError(f"atom count must be >= 0, got {self.n}")
        if not 0 <= self.mask <= _full_mask(self.n):
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        return (self.n, self.mask) == (other.n, other.mask) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    @classmethod
    def from_atoms(cls, n: int, atoms: Iterable[int]) -> "Element":
        mask = 0
        for a in atoms:
            if not 0 <= a < n:
                raise ValueError(f"atom {a} out of range for n={n}")
            mask |= 1 << a
        return cls(n, mask)

    @classmethod
    def top(cls, n: int) -> "Element":
        return cls(n, _full_mask(n))

    @property
    def atoms(self) -> tuple[int, ...]:
        return _atoms(self.mask)

    @property
    def rank(self) -> int:
        return self.mask.bit_count()


def _same_context(x: Element, y: Element) -> None:
    if x.n != y.n:
        raise ContextMismatchError(f"mixed contexts n={x.n} and n={y.n}")


def complement(x: Element) -> Element:
    """Boolean complement: flip every atom."""
    return Element(x.n, x.mask ^ _full_mask(x.n))


def implies(x: Element, y: Element) -> Element:
    """Residual implication ``x -> y = ~x | y``."""
    _same_context(x, y)
    return Element(x.n, (x.mask ^ _full_mask(x.n)) | y.mask)


def meet(x: Element, y: Element) -> Element:
    _same_context(x, y)
    return Element(x.n, x.mask & y.mask)


def join(x: Element, y: Element) -> Element:
    _same_context(x, y)
    return Element(x.n, x.mask | y.mask)


class ImpLattice(_Record):
    """Canonical form of an implication sublattice of ``B_n``.

    ``key``, the one stored form, is the ``(base mask, block masks)`` pair:
    the minimum element, and the blocks partitioning the atoms outside it
    (the atom classes of the subalgebra of ``[base, 1]``), sorted by least
    atom.  The constructor validates the key and rejects any other block
    order; ``==`` and ``hash`` read ``(n, key)``, and ``base``/``blocks``
    are Element views built on request.  The element set is
    ``{base | union(S) : S subset of blocks}``, of size ``2**w``.
    """

    def __init__(self, n: int, key: tuple[int, tuple[int, ...]]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "key", key)
        if self.n < 0:
            raise ValueError(f"atom count must be >= 0, got {self.n}")
        cover, blocks = self.key
        least = 0
        for b in blocks:
            if b == 0:
                raise ValueError("blocks must be nonempty")
            if b & cover:
                raise ValueError("blocks must be disjoint from the base and each other")
            if b & -b < least:
                raise ValueError("blocks must be ordered by least atom")
            least = b & -b
            cover |= b
        if cover != _full_mask(self.n):
            raise ValueError(f"base and blocks must cover exactly the atoms of B_{self.n}")

    def __eq__(self, other: object) -> bool:
        return (self.n, self.key) == (other.n, other.key) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.key))

    @property
    def base(self) -> Element:
        return Element(self.n, self.key[0])

    @property
    def blocks(self) -> tuple[Element, ...]:
        return tuple(Element(self.n, b) for b in self.key[1])

    @property
    def w(self) -> int:
        """Number of atoms of the sublattice (= number of blocks)."""
        return len(self.key[1])

    @cached_property
    def _element_masks(self) -> tuple[int, ...]:
        base, blocks = self.key
        masks = [base]
        for b in blocks:
            masks += [m | b for m in masks]
        return tuple(sorted(masks))

    def sort_key(self) -> tuple:
        base, blocks = self.key
        return (base, tuple(map(_atoms, blocks)))


def full_algebra(n: int) -> ImpLattice:
    """The whole algebra ``B_n``: empty base, singleton blocks."""
    return _lattice(n, (0, tuple(1 << i for i in range(n))))


def top_only(n: int) -> ImpLattice:
    """The one-element sublattice ``{1}``."""
    return _lattice(n, (_full_mask(n), ()))


def principal_ultrafilter(n: int, atom: int) -> ImpLattice:
    """The filter ``[c, 1]`` for a single atom ``c``."""
    if not 0 <= atom < n:
        raise ValueError(f"atom {atom} out of range for n={n}")
    return _lattice(n, (1 << atom, tuple(1 << i for i in range(n) if i != atom)))


def elements(A: ImpLattice) -> frozenset[Element]:
    """The element set ``{base | union(S) : S subset of blocks}``."""
    return frozenset(Element(A.n, m) for m in A._element_masks)


def from_elements(S: Iterable[Element], n: int) -> ImpLattice:
    """Canonicalize a family of elements into an ImpLattice.

    Raises EmptyError for an empty family and NotClosedError (with a witness
    pair) when the family is not closed under implication and meet.
    """
    members = sorted({e for e in S}, key=lambda e: e.mask)
    if not members:
        raise EmptyError("an implication sublattice is nonempty (it contains 1)")
    for e in members:
        if e.n != n:
            raise ContextMismatchError(f"element has n={e.n}, expected {n}")
    full = _full_mask(n)
    mask_set = {e.mask for e in members}
    for x in members:
        for y in members:
            imp = (x.mask ^ full) | y.mask
            if imp not in mask_set:
                raise NotClosedError("implies", x, y, Element(n, imp))
            met = x.mask & y.mask
            if met not in mask_set:
                raise NotClosedError("meet", x, y, Element(n, met))
    base = full
    for m in mask_set:
        base &= m
    # the block of atom i is the intersection of all members containing i,
    # minus the base
    block_masks = set()
    for i in range(n):
        if base >> i & 1:
            continue
        cell = full
        for m in mask_set:
            if m >> i & 1:
                cell &= m
        block_masks.add(cell & ~base)
    A = _interned(n, base, block_masks)
    assert set(A._element_masks) == mask_set
    return A


@cache
def _lattice(n: int, key: tuple[int, tuple[int, ...]]) -> ImpLattice:
    """``ImpLattice(n, key)``, built once per key: the intern table every
    sublattice the program builds comes from.  The constructor rejects a key
    whose blocks are not sorted by least atom; see :func:`_interned`."""
    return ImpLattice(n, key)


def _interned(
    n: int,
    base: int,
    blocks: Iterable[int],
    images: Sequence[int] | Mapping[int, int] | None = None,
) -> ImpLattice:
    """The interned lattice of a base mask and block masks in any order,
    each mask first relabeled through ``images`` when given, as by
    :func:`remap` but over the memoized :func:`_atoms` of these atom masks:
    the blocks are sorted by least atom and the key looked up by
    :func:`_lattice`."""
    if images is not None:
        masks = []
        for m in (base, *blocks):
            masks.append(0)
            for i in _atoms(m):
                masks[-1] |= images[i]
        base, *blocks = masks
    return _lattice(n, (base, tuple(sorted(blocks, key=lambda b: b & -b))))


def _contraction(C: ImpLattice) -> list[int]:
    """The atom images that rewrite each D <= C over the blocks of C, as
    ``_interned(C.w, *D.key, images)``: every atom of C's block i goes to
    atom i and every atom of C's base to nothing, so [D, C] is [D', B_w]."""
    images = [0] * C.n
    for i, b in enumerate(C.key[1]):
        for x in _atoms(b):
            images[x] = 1 << i
    return images


def is_sub(A1: ImpLattice, A2: ImpLattice) -> bool:
    """Containment of element sets, decided combinatorially.

    ``A1 <= A2`` iff ``base(A1)`` is an element of ``A2`` and every block of
    ``A1`` is a union of blocks of ``A2``.
    """
    if A1.n != A2.n:
        raise ContextMismatchError(f"mixed contexts n={A1.n} and n={A2.n}")
    (base1, blocks1), (base2, blocks2) = A1.key, A2.key
    if base2 & ~base1:
        return False
    rem = base1 & ~base2
    for m2 in blocks2:
        if m2 & rem and m2 & ~rem:
            return False
    for m1 in blocks1:
        for m2 in blocks2:
            if m2 & m1 and m2 & ~m1:
                return False
    return True


def _submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _set_partitions(atoms: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Partitions of an atom tuple into block masks, ordered by least atom."""
    if not atoms:
        yield ()
        return
    first, rest = atoms[0], atoms[1:]
    rest_mask = 0
    for a in rest:
        rest_mask |= 1 << a
    for extra in _submasks(rest_mask):
        block0 = (1 << first) | extra
        remaining = tuple(a for a in rest if not extra >> a & 1)
        for sub in _set_partitions(remaining):
            yield (block0,) + sub


@cache
def enumerate_all(n: int) -> tuple[ImpLattice, ...]:
    """Every implication sublattice of ``B_n``, in canonical order.

    Generated directly over (base, partition of the remaining atoms) pairs,
    so the count is Bell(n+1).  Memoized: every call with the same n returns
    the one cached tuple.
    """
    if n < 0:
        raise ValueError(f"atom count must be >= 0, got {n}")
    out = []
    for base in range(1 << n):
        outside = tuple(i for i in range(n) if not base >> i & 1)
        for part in _set_partitions(outside):
            out.append(_lattice(n, (base, part)))
    out.sort(key=ImpLattice.sort_key)
    return tuple(out)


def complement_closure(A: ImpLattice) -> ImpLattice:
    """Close under complements: adjoin ``{~x : x in A}``.

    In canonical form the old base becomes one more block; fixed points are
    exactly the Boolean subalgebras (base = 0).
    """
    base, blocks = A.key
    if base == 0:
        return A
    return _interned(A.n, 0, blocks + (base,))


def up_closure(A: ImpLattice) -> ImpLattice:
    """Upward closure ``[min A, 1]``: base kept, blocks split to singletons."""
    base = A.key[0]
    return _lattice(A.n, (base, tuple(1 << i for i in range(A.n) if not base >> i & 1)))


def is_boolean_subalgebra(A: ImpLattice) -> bool:
    """True iff A is closed under complement, i.e. its base is 0."""
    return A.key[0] == 0


def is_ultrafilter(A: ImpLattice) -> bool:
    """True iff A = [c, 1] for an atom c (the principal ultrafilter at c)."""
    return A.key[0].bit_count() == 1 and all(b.bit_count() == 1 for b in A.key[1])


def apply_atom_permutation(A: ImpLattice, sigma: Sequence[int]) -> ImpLattice:
    """Relabel atoms by a permutation sigma (an automorphism of ``B_n``)."""
    if sorted(sigma) != list(range(A.n)):
        raise ValueError(f"not a permutation of range({A.n}): {sigma!r}")
    return _interned(A.n, *A.key, [1 << s for s in sigma])


# --- JSON interchange ------------------------------------------------------
#
# {"n": int, "base": [atoms ascending], "blocks": [[atoms ascending], ...]}
# with blocks sorted by least element and no key given twice; round-trips
# bit-exactly, and lattice_from_dict accepts nothing else.


def lattice_to_dict(A: ImpLattice) -> dict:
    base, blocks = A.key
    return {"n": A.n, "base": list(_atoms(base)), "blocks": [list(_atoms(b)) for b in blocks]}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for :func:`json.loads`: an object that gives a
    key twice is a ValueError, not silently its last value."""
    d = {}
    for k, v in pairs:
        if k in d:
            raise ValueError(f"duplicate key {k!r} in JSON object")
        d[k] = v
    return d


def _mask_from_list(n: int, atoms: object, what: str) -> int:
    if not isinstance(atoms, list) or any(type(a) is not int for a in atoms):
        raise ValueError(f"{what} must be a list of integer atoms, got {atoms!r}")
    if any(a >= b for a, b in zip(atoms, atoms[1:])):
        raise ValueError(f"{what} atoms must be strictly ascending, got {atoms!r}")
    return Element.from_atoms(n, atoms).mask


def lattice_from_dict(d: Mapping) -> ImpLattice:
    """Parse the canonical object; any other form is a ValueError."""
    if not isinstance(d, Mapping) or set(d) != {"n", "base", "blocks"}:
        raise ValueError(f"lattice object needs exactly the keys n, base, blocks: {d!r}")
    n = d["n"]
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    blocks = d["blocks"]
    if not isinstance(blocks, list):
        raise ValueError(f"blocks must be a list of atom lists, got {blocks!r}")
    base = _mask_from_list(n, d["base"], "base")
    return ImpLattice(n, (base, tuple(_mask_from_list(n, blk, "block") for blk in blocks)))


def lattice_to_json(A: ImpLattice) -> str:
    """Canonical compact encoding; the interchange and label format."""
    return json.dumps(lattice_to_dict(A), separators=(",", ":"))


def lattice_from_json(text: str) -> ImpLattice:
    return lattice_from_dict(json.loads(text, object_pairs_hook=_unique_keys))


class Verdict(NamedTuple):
    """Outcome of one verification check.

    ``lhs`` and ``rhs`` are the two exact quantities being compared; for a
    sweep over many cases they are (cases checked, cases conforming).  The
    check passes when they are equal.
    """

    claim: str
    params: Mapping[str, int]
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def verdict_to_dict(v: Verdict) -> dict:
    return {
        "claim": v.claim,
        "params": dict(v.params),
        "lhs": str(v.lhs),
        "rhs": str(v.rhs),
        "pass": v.passed,
    }
