"""Exact combinatorics of the order of implication sublattices of B_n.

Core objects: :class:`~implattice.algebra.Element` (a bitmask element of a
finite Boolean algebra) and :class:`~implattice.algebra.ImpLattice` (the
canonical base/blocks form of an implication sublattice).  Intervals of the
sublattice order, the Mobius oracle, and the closed-form/chain-sum formulas
live in :mod:`~implattice.poset` and :mod:`~implattice.formulas`; the
verification suites in :mod:`~implattice.verify`; the CLI in
:mod:`~implattice.cli`.
"""

from .algebra import (
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
    lattice_from_dict,
    lattice_from_json,
    lattice_to_dict,
    lattice_to_json,
    meet,
    principal_ultrafilter,
    top_only,
    up_closure,
)
from .formulas import (
    NonIntegerResultError,
    bell,
    chain_count,
    chain_sum_corrected,
    chain_sum_printed,
    factorial,
    mobius_product_formula,
    mobius_product_formula_printed,
    mu_rank_sum_chain,
    mu_rank_sum_composition,
    mu_rank_sum_composition_printed,
    mu_rank_sum_oracle,
    mu_top_closed_form,
    partition_mobius,
    rank_one_chain_identity,
    stirling2,
)
from .poset import (
    AtomNotBelowBaseError,
    IntervalPoset,
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
)
from .verify import SUITES, run_claims, run_suite, summarize

__version__ = "0.1.0"
