#!/usr/bin/env python3
"""Print the documented discrepancies between the as-printed closed forms
and the values they actually produce, next to the corrected forms.

Usage: python scripts/erratum_report.py [N_MAX]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from implattice.algebra import enumerate_all, full_algebra
from implattice.formulas import (
    chain_sum_corrected,
    chain_sum_printed,
    factorial,
    mobius_product_formula,
    mobius_product_formula_printed,
    mu_rank_sum_composition,
    mu_rank_sum_composition_printed,
    mu_rank_sum_oracle,
)
from implattice.poset import mobius_between


def main(n_max: int) -> None:
    print("== top-interval chain sums ==")
    print(f"{'n':>3} {'corrected':>16} {'(-1)^n n!':>16} {'printed':>16} {'(-1)^n (n-1)!':>16}")
    for n in range(1, n_max + 1):
        corrected = chain_sum_corrected(n)
        printed = chain_sum_printed(n)
        print(
            f"{n:>3} {corrected:>16} {(-1) ** n * factorial(n):>16} "
            f"{printed:>16} {(-1) ** n * factorial(n - 1):>16}"
        )

    print()
    print("== product-formula sign (printed exponent flips when |base| is odd) ==")
    bound = min(n_max, 4)
    for n in range(bound + 1):
        top = full_algebra(n)
        flipped = sum(
            mobius_product_formula_printed(A) != mobius_between(A, top)
            for A in enumerate_all(n)
        )
        odd_base = sum(A.base.rank % 2 for A in enumerate_all(n))
        exact = all(
            mobius_product_formula(A) == mobius_between(A, top) for A in enumerate_all(n)
        )
        print(f"n={n}: corrected exact={exact}, printed wrong on {flipped}/{len(enumerate_all(n))} "
              f"(odd-base count {odd_base})")

    print()
    print("== composition form (printed omits the 1/k! factor) ==")
    print(f"{'n':>3} {'k':>3} {'oracle':>10} {'corrected':>10} {'printed':>10}")
    for n in range(2, min(n_max, 5) + 1):
        for k in range(2, n + 1):
            print(
                f"{n:>3} {k:>3} {mu_rank_sum_oracle(k, n):>10} "
                f"{mu_rank_sum_composition(k, n):>10} {mu_rank_sum_composition_printed(k, n):>10}"
            )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
