"""Claim registry: every structural law and identity as a per-n check.

A claim's check is a plain function of the atom count n.  A sweep check is a
generator that yields one boolean per case; an identity check returns the
pair ``(lhs, rhs)`` of its two sides.  :meth:`Claim.run` turns either into the
claim's single Verdict at that n: a sweep reports (cases checked, cases
conforming), an identity its two sides.  This is the only place a Verdict is
built: the library checks in ``poset`` and ``formulas`` return their plain
``(lhs, rhs)`` pair, which a sweep compares per case and an identity claim
returns as it is.

Claims are grouped into named suites for the CLI; they are independent of
each other and deterministic, so any subset can run in any order (the runner
keeps registry order for stable output).
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from operator import eq
from typing import Callable, Iterator, NamedTuple

from . import algebra, formulas
from .algebra import (
    ImpLattice,
    Verdict,
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
    meet,
    top_only,
    up_closure,
    _atoms,
    _bits,
    _contraction,
    _interned,
)
from .poset import (
    CLOSURES,
    closure_theorem_check,
    interval_isomorphism_via_permutation,
    maximal_chain_length,
    mobius_between,
    mobius_oracle,
    product_decomposition,
    _closed,
    _containment,
    _factors,
    _order,
    _product_order,
    _slice,
)

SUITES = ("closures", "method1", "method2", "product", "pkb", "lemmas")


class Claim(NamedTuple):
    """One registered claim, checked for every n in ``min_n..max_n``.

    ``check(n)`` either yields one boolean per case (a sweep) or returns the
    ``(lhs, rhs)`` tuple of an identity; :meth:`run` builds the verdict.
    """

    id: str
    suite: str
    min_n: int
    max_n: int | None
    check: Callable[[int], Iterator[bool] | tuple[int, int]]

    def run(self, n: int) -> Verdict:
        result = self.check(n)
        if isinstance(result, tuple):
            return Verdict(self.id, {"n": n}, *result)
        checked = passed = 0
        for ok in result:
            checked += 1
            passed += bool(ok)
        return Verdict(self.id, {"n": n, "cases": checked}, checked, passed)


def _brute_element_ops_closed(A: ImpLattice) -> bool:
    elems = elements(A)  # meet and join commute and are idempotent: each pair once
    return all(complement(x) in elems for x in elems) and all(
        meet(x, y) in elems and join(x, y) in elems for x, y in combinations(elems, 2)
    )


def _claim_complement_subalgebra(n: int) -> Iterator[bool]:
    """Adjoining complements yields a Boolean subalgebra whose element set is
    exactly the family plus its complements.  Many lattices share a closure
    (the 203 at n = 5 have 52), so the brute operation check runs once per
    distinct closed lattice."""
    full = (1 << n) - 1
    ops_closed: dict[ImpLattice, bool] = {}
    for A in enumerate_all(n):
        closed = complement_closure(A)
        want = set(A._element_masks) | {m ^ full for m in A._element_masks}
        if closed not in ops_closed:
            ops_closed[closed] = _brute_element_ops_closed(closed)
        yield (
            is_boolean_subalgebra(closed)
            and set(closed._element_masks) == want
            and ops_closed[closed]
        )


def _claim_complement_fixed_points(n: int) -> Iterator[bool]:
    """Fixed points of the complement closure are the Boolean subalgebras."""
    full = (1 << n) - 1
    for A in enumerate_all(n):
        masks = set(A._element_masks)
        brute_closed = all((m ^ full) in masks for m in masks)
        fixed = complement_closure(A) == A
        yield fixed == is_boolean_subalgebra(A) == brute_closed


def _per_class(closure: str, n: int, check: Callable[[int, int], bool]) -> Iterator[bool]:
    """A verdict for every pair a <= g of L_n indices from a check that reads
    only a and the closure class of g: ``check(a, g)`` runs once per a and
    class, at its first g, and its verdict is yielded for each pair in it."""
    up = _order(n)[2]
    cl = _closed(closure, n)
    for a in range(len(up)):
        verdicts: dict[int, bool] = {}
        for g in _bits(up[a]):
            if (c := cl[g]) not in verdicts:
                verdicts[c] = check(a, g)
            yield verdicts[c]


def _closure_axioms(closure: str, n: int) -> Iterator[bool]:
    """The named closure is extensive, idempotent, and monotone; the monotone
    half reads only ``cl(a)`` and ``cl(g)`` off L_n's closure index."""
    close = CLOSURES[closure]
    for A in enumerate_all(n):
        closed = close(A)
        yield is_sub(A, closed) and close(closed) == closed
    members, cl = _order(n)[0].members, _closed(closure, n)
    yield from _per_class(closure, n, lambda a, g: is_sub(members[cl[a]], members[cl[g]]))


def _brute_up_indicators(n: int) -> Iterator[int]:
    """For each lattice of ``enumerate_all(n)``, its upward closure
    ``{m : some element e has m & e == e}`` as a 2^n-bit indicator: once a
    mask without atom i is set (lane i marks those masks), so is that mask
    with atom i, 2^i bits higher."""
    lanes = [sum(1 << m for m in range(1 << n) if not m >> i & 1) for i in range(n)]
    for A in enumerate_all(n):
        F = sum(1 << e for e in A._element_masks)
        for i, lane in enumerate(lanes):
            F |= (F & lane) << (1 << i)
        yield F


def _claim_up_axioms(n: int) -> Iterator[bool]:
    """Upward closure is a closure operator and matches the element-set
    upward closure."""
    yield from _closure_axioms("up", n)
    for A, want in zip(enumerate_all(n), _brute_up_indicators(n)):
        yield sum(1 << m for m in up_closure(A)._element_masks) == want


def _claim_complement_saturation(n: int) -> Iterator[bool]:
    """Complement closure hits the whole algebra exactly at the top element
    and the principal ultrafilters."""
    top = full_algebra(n)
    for A in enumerate_all(n):
        saturates = complement_closure(A) == top
        yield saturates == (A == top or is_ultrafilter(A))


def _claim_up_saturation(n: int) -> Iterator[bool]:
    """Upward closure hits the whole algebra exactly at the Boolean
    subalgebras: base 0, so that the bottom of B_n is an element."""
    top = full_algebra(n)
    for A in enumerate_all(n):
        saturates = up_closure(A) == top
        yield saturates == (A.key[0] == 0) == (0 in A._element_masks)


def _closure_theorem(closure: str, n: int) -> Iterator[bool]:
    """Mobius/closure identity for the named closure, all pairs y <= z.  Both
    sides read only y and ``cl(z)``, so each y checks each class once."""
    members = _order(n)[0].members
    return _per_class(closure, n, lambda a, g: eq(*closure_theorem_check(closure, members[a], members[g])))


def _claim_product_formula_vs_oracle(n: int) -> Iterator[bool]:
    """The factorial-product closed form agrees with the oracle on [A, B]."""
    top = full_algebra(n)
    for A in enumerate_all(n):
        yield formulas.mobius_product_formula(A) == mobius_between(A, top)


def _claim_product_formula_printed_sign(n: int) -> Iterator[bool]:
    """The as-printed sign exponent disagrees with the oracle exactly when
    the base rank is odd."""
    top = full_algebra(n)
    for A in enumerate_all(n):
        printed = formulas.mobius_product_formula_printed(A)
        oracle = mobius_between(A, top)
        yield (printed == oracle) == (A.key[0].bit_count() % 2 == 0)


def _claim_corrected_identity(n: int) -> tuple[int, int]:
    """Corrected chain sum equals (-1)^n n!."""
    return formulas.chain_sum_corrected(n), formulas.mu_top_closed_form(n)


def _claim_corrected_vs_oracle(n: int) -> tuple[int, int]:
    """Corrected chain sum equals the oracle mu({1}, B_n)."""
    return formulas.chain_sum_corrected(n), mobius_between(top_only(n), full_algebra(n))


def _claim_printed_value(n: int) -> tuple[int, int]:
    """The as-printed chain sum is pinned to (-1)^n (n-1)!."""
    return formulas.chain_sum_printed(n), (-1) ** n * formulas.factorial(n - 1)


def _claim_product_pairing(n: int) -> Iterator[bool]:
    """Splitting each interval member at the base of A is an order
    isomorphism onto the product of the two factors."""
    top = full_algebra(n)
    for A in enumerate_all(n):
        whole = _slice(A, top)
        p1, p2, iso = product_decomposition(A)
        yield len(whole) == len(p1) * len(p2)
        yield len(set(iso)) == len(whole)
        yield _product_order(p1, p2, iso) == whole.down


def _claim_product_mu(n: int) -> Iterator[bool]:
    """mu multiplies across the factorization."""
    top = full_algebra(n)
    for A in enumerate_all(n):
        p1, p2 = _factors(A)
        whole, mu1, mu2 = (mobius_oracle(P)[P.upper_index] for P in (_slice(A, top), p1, p2))
        yield whole == mu1 * mu2


def _claim_rank_chain_vs_oracle(n: int) -> Iterator[bool]:
    """Rank-restricted chain sums agree with the oracle sums, k = 1..n."""
    for k in range(1, n + 1):
        yield formulas.mu_rank_sum_chain(k, n) == formulas.mu_rank_sum_oracle(k, n)


def _claim_rank_chain_vs_composition(n: int) -> Iterator[bool]:
    """Rank-restricted chain sums agree with the corrected composition form."""
    for k in range(1, n + 1):
        yield formulas.mu_rank_sum_chain(k, n) == formulas.mu_rank_sum_composition(k, n)


def _claim_partition_sum_agreement(n: int) -> Iterator[bool]:
    """Summing partition-lattice Mobius values over k-block partitions
    reproduces the oracle rank sums."""
    for k in range(1, n + 1):
        total = 0
        for part in algebra._set_partitions(tuple(range(n))):
            if len(part) == k:
                total += formulas.partition_mobius([b.bit_count() for b in part])
        yield total == formulas.mu_rank_sum_oracle(k, n)


def _claim_composition_printed(n: int) -> Iterator[bool]:
    """The as-printed composition form overshoots the oracle by k! for every
    k >= 2 (pinned at (k,n) = (2,2) and (2,3)) and matches only at k = 1."""
    pinned = {(2, 2): (2, 1), (2, 3): (-6, -3)}
    for k in range(1, n + 1):
        printed = formulas.mu_rank_sum_composition_printed(k, n)
        oracle = formulas.mu_rank_sum_oracle(k, n)
        if k == 1:
            yield printed == oracle
        else:
            yield printed == formulas.factorial(k) * oracle and printed != oracle
        if (k, n) in pinned:
            yield (printed, oracle) == pinned[(k, n)]


def _claim_enumeration_count(n: int) -> tuple[int, int]:
    """The sublattice count is Bell(n+1)."""
    return len(enumerate_all(n)), formulas.bell(n + 1)


def _claim_closed_set_roundtrip(n: int) -> Iterator[bool]:
    """Over every nonempty subset of B_n: canonicalization succeeds exactly
    for families closed under implication and meet, and round-trips."""
    universe = [algebra.Element(n, m) for m in range(1 << n)]
    for bits in range(1, 1 << (1 << n)):
        fam = {e for e in universe if bits >> e.mask & 1}
        closed = all(
            implies(x, y) in fam and meet(x, y) in fam for x in fam for y in fam
        )
        try:
            A = from_elements(fam, n)
        except algebra.NotClosedError:
            yield not closed
        else:
            yield closed and elements(A) == frozenset(fam)


def _claim_oracle_recursion_identity(n: int) -> Iterator[bool]:
    """Every proper down-set of [{1}, B_n] has Mobius values summing to 0."""
    whole = _order(n)[0]
    mu = mobius_oracle(whole)
    for i in range(len(whole)):
        total = sum(mu[j] for j in _bits(whole.down[i]))
        yield total == (1 if i == whole.lower_index else 0)


def _claim_atom_transposition(n: int) -> Iterator[bool]:
    """Swapping two atoms below the base maps the two atom-filter intervals
    onto each other order-isomorphically."""
    for A in enumerate_all(n):
        atoms = _atoms(A.key[0])
        for i, c1 in enumerate(atoms):
            for c2 in atoms[i + 1 :]:
                lhs, rhs = interval_isomorphism_via_permutation(A, c1, c2)
                yield lhs == rhs


def _claim_subalgebra_relabel(n: int) -> Iterator[bool]:
    """Relabeling a k-atom Boolean subalgebra onto B_k identifies the
    interval below it with the whole order over B_k, so equal-rank
    subalgebras have isomorphic intervals with equal size, maximal chain
    length, and Mobius value."""
    one = top_only(n)
    for C in enumerate_all(n):
        if not is_boolean_subalgebra(C):
            continue
        k = C.w
        below = _slice(one, C)
        images = _contraction(C)
        image = [_interned(k, *D.key, images) for D in below.members]
        yield set(image) == set(enumerate_all(k))
        yield _containment(image) == below.down
        yield len(below) == formulas.bell(k + 1)
        yield maximal_chain_length(below) == k
        yield mobius_oracle(below)[below.upper_index] == formulas.mu_top_closed_form(k)


CLAIMS: tuple[Claim, ...] = (
    Claim("closure.complement.subalgebra", "closures", 0, None, _claim_complement_subalgebra),
    Claim("closure.complement.fixed_points", "closures", 0, None, _claim_complement_fixed_points),
    Claim("closure.complement.axioms", "closures", 0, None, partial(_closure_axioms, "complement")),
    Claim("closure.complement.saturation", "closures", 0, None, _claim_complement_saturation),
    Claim("closure.up.axioms", "closures", 0, None, _claim_up_axioms),
    Claim("closure.up.saturation", "closures", 0, None, _claim_up_saturation),
    Claim("closure.theorem.complement", "closures", 0, None, partial(_closure_theorem, "complement")),
    Claim("closure.theorem.up", "closures", 0, None, partial(_closure_theorem, "up")),
    Claim("method1.formula_vs_oracle", "method1", 0, None, _claim_product_formula_vs_oracle),
    Claim("method1.printed_sign_erratum", "method1", 1, None, _claim_product_formula_printed_sign),
    Claim("method2.corrected_identity", "method2", 1, None, _claim_corrected_identity),
    Claim("method2.corrected_vs_oracle", "method2", 1, None, _claim_corrected_vs_oracle),
    Claim("method2.printed_value_erratum", "method2", 1, None, _claim_printed_value),
    Claim("product.pairing_bijection", "product", 0, None, _claim_product_pairing),
    Claim("product.mu_multiplicative", "product", 0, None, _claim_product_mu),
    Claim("pkb.chain_vs_oracle", "pkb", 1, None, _claim_rank_chain_vs_oracle),
    Claim("pkb.chain_vs_composition", "pkb", 1, None, _claim_rank_chain_vs_composition),
    Claim("pkb.partition_sum_agreement", "pkb", 1, None, _claim_partition_sum_agreement),
    Claim("pkb.rank_one_closed_form", "pkb", 1, None, formulas.rank_one_chain_identity),
    Claim("pkb.printed_composition_erratum", "pkb", 2, None, _claim_composition_printed),
    Claim("core.enumeration_count", "lemmas", 0, None, _claim_enumeration_count),
    Claim("core.closed_set_roundtrip", "lemmas", 0, 3, _claim_closed_set_roundtrip),
    Claim("oracle.recursion_identity", "lemmas", 0, None, _claim_oracle_recursion_identity),
    Claim("iso.atom_transposition", "lemmas", 2, None, _claim_atom_transposition),
    Claim("iso.equal_rank_subalgebras", "lemmas", 1, None, _claim_subalgebra_relabel),
)


def run_claims(ids, n_max: int) -> list[Verdict]:
    """Run the named claims for every applicable n <= n_max."""
    wanted = set(ids)
    unknown = wanted - {c.id for c in CLAIMS}
    if unknown:
        raise ValueError(f"unknown claims: {sorted(unknown)}")
    out = []
    for claim in CLAIMS:
        if claim.id not in wanted:
            continue
        hi = n_max if claim.max_n is None else min(n_max, claim.max_n)
        for n in range(claim.min_n, hi + 1):
            out.append(claim.run(n))
    return out


def run_suite(suite: str, n_max: int) -> list[Verdict]:
    """Run a named suite (or "all") for every applicable n <= n_max."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {('all',) + SUITES}")
    ids = [c.id for c in CLAIMS if suite == "all" or c.suite == suite]
    return run_claims(ids, n_max)


def summarize(verdicts) -> dict:
    passed = sum(v.passed for v in verdicts)
    return {"claims": len(verdicts), "passed": passed, "failed": len(verdicts) - passed}
