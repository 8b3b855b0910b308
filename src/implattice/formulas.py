"""Exact closed forms for the Mobius function of the sublattice order.

Everything here is plain big-integer arithmetic: the sums that carry a
division are evaluated as integer recurrences and divided exactly at the
end, with the quotient asserted integral.  Each formula is
cross-validated elsewhere against the interval oracle; where a customary
printed form of an identity is off by a sign or a normalization, both the
as-printed and the corrected form are exposed, with the corrected one as the
contract-bearing default and the printed one pinned to the value it actually
produces.
"""

from __future__ import annotations

import math
import threading
from operator import mul
from typing import Callable, TypeVar

from .algebra import ImpLattice, full_algebra
from .algebra import _lattice, _set_partitions
from .poset import mobius_between


class NonIntegerResultError(ArithmeticError):
    """An exact-rational evaluation failed to reduce to an integer."""


def factorial(m: int) -> int:
    return math.factorial(m)


_TABLE_LOCK = threading.RLock()
_Row = TypeVar("_Row")


def _table_row(rows: list[_Row], n: int, next_row: Callable[[list[_Row]], _Row]) -> _Row:
    """Row n of a table cached in ``rows``, where ``next_row(rows)`` is the
    row after the last.  Rows are appended complete and under the lock, so
    concurrent callers never see or build a partial row; the lock is
    reentrant, so ``next_row`` may grow another table."""
    if n >= len(rows):
        with _TABLE_LOCK:
            while len(rows) <= n:
                rows.append(next_row(rows))
    return rows[n]


def _next_stirling_row(rows: list[list[int]]) -> list[int]:
    prev = rows[-1] + [0]
    return [0] + [j * prev[j] + prev[j - 1] for j in range(1, len(prev))]


_STIRLING_ROWS: list[list[int]] = [[1]]


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k nonempty blocks.

    Computed by the recurrence S(n,k) = k*S(n-1,k) + S(n-1,k-1).
    """
    if n < 0 or k < 0:
        raise ValueError(f"stirling2 needs n, k >= 0, got ({n}, {k})")
    if k > n:
        return 0
    return _stirling_row(n)[k]


def _stirling_row(n: int) -> list[int]:
    return _table_row(_STIRLING_ROWS, n, _next_stirling_row)


def bell(n: int) -> int:
    """Total number of set partitions: the Stirling row sum."""
    if n < 0:
        raise ValueError(f"bell needs n >= 0, got {n}")
    return sum(stirling2(n, k) for k in range(n + 1))


def partition_mobius(block_sizes: list[int]) -> int:
    """Partition-lattice Mobius value for a partition of the given type:
    the product of (-1)^(m-1) * (m-1)! over block sizes m."""
    value = 1
    for m in block_sizes:
        value *= (-1) ** (m - 1) * factorial(m - 1)
    return value


def _product_formula(A: ImpLattice, sign_exponent: int) -> int:
    value = (-1) ** sign_exponent * factorial(A.key[0].bit_count())
    for b in A.key[1]:
        value *= factorial(b.bit_count() - 1)
    return value


def mobius_product_formula(A: ImpLattice) -> int:
    """Closed form for mu(A, B): (-1)^(n-w) * |a|! * prod (|block|-1)!.

    The sign exponent is n - w(A); a variant with exponent |a| + w(A) - n
    circulates but is wrong whenever |a| is odd (see
    :func:`mobius_product_formula_printed`).
    """
    return _product_formula(A, A.n - A.w)


def mobius_product_formula_printed(A: ImpLattice) -> int:
    """The as-printed variant with sign exponent |a| + w(A) - n; kept so the
    erratum suite can pin the discrepancy (off by (-1)^|a|)."""
    return _product_formula(A, A.key[0].bit_count() + A.w - A.n)


def chain_count(k: int, n: int) -> int:
    """Number of strictly decreasing integer chains n = n_0 > ... > n_p = k:
    one per subset of the n - k - 1 integers strictly between, so 1 for
    n = k and 2^(n-k-1) otherwise.  The chain sums below range over these
    chains, but are evaluated by an O(n^2) recursion, not chain by chain."""
    _check_rank_domain(k, n)
    return 1 if n == k else 2 ** (n - k - 1)


_CHAIN_ROWS: list[list[int]] = [[1]]  # row k: T(k, k), T(k, k+1), ...


def _rank_chain_value(k: int, n: int) -> int:
    # T(k, k) = 1; T(k, m) = -sum_{j=k}^{m-1} S(m,j) T(k, j): the suffix-sum
    # form of sum over chains n = n_0 > ... > n_p = k of (-1)^p prod S(n_{i-1}, n_i),
    # each new entry one dot product of Stirling row m against row k
    row = _table_row(_CHAIN_ROWS, k, lambda rows: [1])
    return _table_row(row, n - k, lambda t: -sum(map(mul, _stirling_row(k + len(t))[k:], t)))


_CORRECTED_ROWS: list[int] = [1]  # f(0), f(1), ...; f(0) meets only S(m, 0) = 0


def _next_corrected(f: list[int]) -> int:
    # f(m) = (-1)^m - sum_{j=1}^{m-1} S(m,j) f(j)
    return (-1) ** len(f) - sum(map(mul, _stirling_row(len(f)), f))


def chain_sum_printed(n: int) -> int:
    """The as-printed chain sum for mu({1}, B_n): the chains from n down to
    1 weighted by (-1)^(p+1) times the Stirling product.

    This form drops the closed-suborder term of the closure identity, so it
    evaluates to (-1)^n (n-1)! rather than (-1)^n n!; it is exposed for the
    erratum suite (the corrected sum is :func:`chain_sum_corrected`).
    """
    if n < 1:
        raise ValueError(f"chain sums need n >= 1, got {n}")
    return -_rank_chain_value(1, n)


def chain_sum_corrected(n: int) -> int:
    """The corrected chain sum: (-1)^n plus the chains from n down to any
    endpoint e with 1 <= e < n, weighted by (-1)^(e+p) times the Stirling
    product; equals mu({1}, B_n) = (-1)^n n!."""
    if n < 1:
        raise ValueError(f"chain sums need n >= 1, got {n}")
    return _table_row(_CORRECTED_ROWS, n, _next_corrected)


def mu_top_closed_form(n: int) -> int:
    """mu({1}, B_n) = (-1)^n n!."""
    if n < 0:
        raise ValueError(f"atom count must be >= 0, got {n}")
    return (-1) ** n * factorial(n)


def _check_rank_domain(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"rank sums need 1 <= k <= n, got k={k}, n={n}")


def mu_rank_sum_oracle(k: int, n: int) -> int:
    """Sum of oracle mu(A, B_n) over Boolean subalgebras A with k atoms."""
    _check_rank_domain(k, n)
    top = full_algebra(n)
    total = 0
    for part in _set_partitions(tuple(range(n))):
        if len(part) != k:
            continue
        total += mobius_between(_lattice(n, (0, part)), top)
    return total


def mu_rank_sum_chain(k: int, n: int) -> int:
    """The same rank-restricted sum as a signed Stirling chain sum: the
    chains from n down to k weighted by (-1)^p times the Stirling product."""
    _check_rank_domain(k, n)
    return _rank_chain_value(k, n)


def _next_composition_row(rows: list[list[int]]) -> list[int]:
    # G[t][j] = t! * sum over compositions of t into j parts of 1/prod(parts);
    # splitting off the last part p gives
    # G[t][j] = sum_p C(t, p) * (p-1)! * G[t-p][j-1], all in integers
    t = len(rows)
    row = [1 if t == 0 else 0] + [0] * t
    for p in range(1, t + 1):
        weight = math.comb(t, p) * factorial(p - 1)
        for j, rest in enumerate(rows[t - p], start=1):
            row[j] += weight * rest
    return row


_COMPOSITION_ROWS: list[list[int]] = [[1]]


def _composition_sum(k: int, n: int, divisor: int) -> int:
    _check_rank_domain(k, n)
    value = (-1) ** (n - k) * _table_row(_COMPOSITION_ROWS, n, _next_composition_row)[k]
    quotient, remainder = divmod(value, divisor)
    if remainder:
        g = math.gcd(value, divisor)  # divisor is k! or 1, so positive
        raise NonIntegerResultError(
            f"composition sum for (k={k}, n={n}) is {value // g}/{divisor // g}"
        )
    return quotient


def mu_rank_sum_composition(k: int, n: int) -> int:
    """The rank-restricted sum as a harmonic-style composition sum:
    (-1)^(n-k) * (n!/k!) * sum over ordered compositions of n into k positive
    parts of 1/(product of parts).

    The 1/k! normalization is the correction: without it the ordered sum
    overcounts set partitions with repeated block sizes (see
    :func:`mu_rank_sum_composition_printed`).  The sum is evaluated exactly
    by an integer recurrence over the last part, not term by term.
    """
    return _composition_sum(k, n, factorial(k))


def mu_rank_sum_composition_printed(k: int, n: int) -> int:
    """The as-printed composition form without the 1/k! factor; differs from
    the oracle by k! for every k >= 2 and is pinned by the erratum suite."""
    return _composition_sum(k, n, 1)


def rank_one_chain_identity(n: int) -> tuple[int, int]:
    """Rank-1 chain sum equals (-1)^(n-1) (n-1)!.

    Returns the two sides ``((-1)^(n-1) (n-1)!, rank-1 chain sum)``; the
    identity holds when they are equal.
    """
    if n < 1:
        raise ValueError(f"identity needs n >= 1, got {n}")
    return (-1) ** (n - 1) * factorial(n - 1), mu_rank_sum_chain(1, n)
