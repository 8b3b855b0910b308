"""Command-line front end.

Subcommands: enumerate, mobius, verify, identity, table, export, each parser
setting its own handler as ``args.run``.  All output is deterministic; JSON is
the machine format and text tables are fixed-width right-aligned integers.
Exit codes: 0 = all checks pass, 1 = a mathematical check failed, 2 = usage
or configuration error, an ``n`` too large for a shift or for the memory, or
a ``verify`` worker that could not be forked or ended without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .algebra import (
    ImpLattice,
    enumerate_all,
    full_algebra,
    lattice_from_dict,
    lattice_to_dict,
    lattice_to_json,
    top_only,
    verdict_to_dict,
    _unique_keys,
)
from .formulas import (
    bell,
    chain_count,
    mu_rank_sum_chain,
    mu_rank_sum_composition,
    mu_rank_sum_oracle,
    mobius_product_formula,
)
from .poset import (
    IntervalPoset,
    NotComparableError,
    _json_items,
    interval,
    interval_to_dot,
    interval_to_json,
    mobius_oracle,
)

POSET_CAP = 8
TABLE_CAP = 100
# the p-table prints its composition column only up to this n; the bound fixes
# the table's output, not a cost, since the sum is a cheap recurrence
COMPOSITION_TABLE_CAP = 16
ORACLE_TABLE_CAP = 5
# verify.SUITES written out: only verify and identity load the claim registry
SUITE_CHOICES = ("all", "closures", "method1", "method2", "product", "pkb", "lemmas")


class UsageError(Exception):
    pass


def _cap_check(value: int, cap: int, what: str, override: bool) -> None:
    if value < 0:
        raise UsageError(f"{what} must be >= 0, got {value}")
    if value > cap and not override:
        raise UsageError(
            f"{what} {value} exceeds the safety cap {cap}; pass --override-cap to force"
        )


def _sum_range_check(top: int, what: str, override: bool) -> None:
    """identity and table build one row per n from 1 up (the chain sums start
    at n = 1); an empty table would pass every check on nothing."""
    if top < 1:
        raise UsageError(f"{what} must be >= 1, got {top}")
    _cap_check(top, TABLE_CAP, what, override)


def _parse_lattice(text: str, what: str, override: bool) -> ImpLattice:
    """Parse an ImpLattice JSON argument, capping its raw ``n`` before any
    element is built: a huge n would allocate its masks first."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
        n = doc.get("n") if isinstance(doc, dict) else None
        if type(n) is int:  # any other n is lattice_from_dict's to reject
            _cap_check(n, POSET_CAP, f"{what} n", override)
        return lattice_from_dict(doc)
    except (ValueError, RecursionError) as exc:  # json.loads recurses per nesting level
        raise UsageError(f"cannot parse {what}: {exc}") from exc


def _resolve_interval(args: argparse.Namespace) -> IntervalPoset:
    """The interval [lower, upper] of mobius/export: --upper defaults to the
    full algebra, and a bare --n means the extreme interval [{1}, B_n]; an --n
    next to them must match their n."""
    lower = _parse_lattice(args.lower, "--lower", args.override_cap) if args.lower else None
    upper = _parse_lattice(args.upper, "--upper", args.override_cap) if args.upper else None
    given = [A.n for A in (lower, upper) if A is not None]
    if not given and args.n is None:
        raise UsageError("need --lower/--upper or --n")
    if len(set(given)) > 1:
        raise UsageError(f"lower has n={lower.n} but upper has n={upper.n}")
    if given:
        n = given[0]
        if args.n is not None and args.n != n:
            raise UsageError(f"--n {args.n} conflicts with n={n} of --lower/--upper")
    else:
        n = args.n
        # checked before a default endpoint is built, which a negative n would crash
        _cap_check(n, POSET_CAP, "interval context n", args.override_cap)
    try:
        return interval(
            top_only(n) if lower is None else lower,
            full_algebra(n) if upper is None else upper,
        )
    except NotComparableError as exc:
        raise UsageError(str(exc)) from exc


def _text_table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return lines


def cmd_enumerate(args: argparse.Namespace) -> tuple[str, int]:
    _cap_check(args.n, POSET_CAP, "n", args.override_cap)
    lattices = enumerate_all(args.n)
    expected = bell(args.n + 1)
    ok = len(lattices) == expected
    if args.fmt == "json":
        doc = {
            "command": "enumerate",
            "n": args.n,
            "count": len(lattices),
            "bell": expected,
            "match": ok,
            "lattices": [lattice_to_dict(A) for A in lattices],
        }
        text = json.dumps(doc, indent=2)
    else:
        lines = [lattice_to_json(A) for A in lattices]
        lines.append(f"count={len(lattices)} bell={expected} {'ok' if ok else 'MISMATCH'}")
        text = "\n".join(lines)
    return text, 0 if ok else 1


def cmd_mobius(args: argparse.Namespace) -> tuple[str, int]:
    poset = _resolve_interval(args)
    lower, upper = poset.lower, poset.upper
    oracle = mobius_oracle(poset)[poset.upper_index]
    closed_form = None
    agree = None
    if upper == full_algebra(upper.n):
        closed_form = mobius_product_formula(lower)
        agree = closed_form == oracle
    if args.fmt == "json":
        doc = {
            "command": "mobius",
            "n": lower.n,
            "lower": lattice_to_dict(lower),
            "upper": lattice_to_dict(upper),
            "mu_oracle": str(oracle),
            "mu_product_formula": None if closed_form is None else str(closed_form),
            "agree": agree,
        }
        text = json.dumps(doc, indent=2)
    else:
        lines = [f"mu_oracle={oracle}"]
        if closed_form is not None:
            lines.append(f"mu_product_formula={closed_form}")
            lines.append(f"agree={'yes' if agree else 'NO'}")
        text = "\n".join(lines)
    return text, 1 if agree is False else 0


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    from .verify import WorkerError, run_suite_parallel, summarize

    _cap_check(args.n_max, POSET_CAP, "n-max", args.override_cap)
    try:
        verdicts = run_suite_parallel(args.suite, args.n_max)
    except WorkerError as exc:
        raise UsageError(str(exc)) from exc
    summary = summarize(verdicts)
    if args.fmt == "json":
        doc = {
            "command": "verify",
            "suite": args.suite,
            "n_max": args.n_max,
            "verdicts": [verdict_to_dict(v) for v in verdicts],
            "summary": summary,
        }
        text = json.dumps(doc, indent=2)
    else:
        lines = []
        for v in verdicts:
            params = " ".join(f"{key}={val}" for key, val in v.params.items())
            lines.append(
                f"{'PASS' if v.passed else 'FAIL'} {v.claim} {params} lhs={v.lhs} rhs={v.rhs}"
            )
        lines.append(
            f"summary: {summary['claims']} claims, {summary['passed']} passed, "
            f"{summary['failed']} failed"
        )
        text = "\n".join(lines)
    return text, 0 if summary["failed"] == 0 else 1


def cmd_identity(args: argparse.Namespace) -> tuple[str, int]:
    from .verify import run_claims

    _sum_range_check(args.n_max, "n-max", args.override_cap)
    # one row per n, the two sides of each method2 claim: the corrected chain
    # sum against (-1)^n n!, and the printed one against (-1)^n (n-1)!
    corrected = run_claims(["method2.corrected_identity"], args.n_max)
    printed = run_claims(["method2.printed_value_erratum"], args.n_max)
    keys = ("n", "closed_form", "corrected", "printed", "printed_expected", "corrected_ok", "printed_ok")
    rows = [  # one tuple of the fields in keys per n
        (c.params["n"], c.rhs, c.lhs, p.lhs, p.rhs, c.passed, p.passed)
        for c, p in zip(corrected, printed, strict=True)
    ]
    all_ok = all(c_ok and p_ok for *_, c_ok, p_ok in rows)
    if args.fmt == "json":
        items = [dict(zip(keys, (n, *map(str, sums), c_ok, p_ok))) for n, *sums, c_ok, p_ok in rows]
        text = json.dumps({"command": "identity", "n_max": args.n_max, "rows": items, "all_ok": all_ok}, indent=2)
    else:
        header = ["n", "closed_form", "corrected", "printed", "printed_expected", "ok"]
        cells = [[str(n), *map(str, sums), "yes" if c_ok and p_ok else "NO"] for n, *sums, c_ok, p_ok in rows]
        text = "\n".join(_text_table(header, cells))
    return text, 0 if all_ok else 1


def _json_sum(value: int | None) -> str:
    return "null" if value is None else f'"{value}"'  # digits need no escapes


def _table_json(rows: list[tuple], all_ok: bool) -> str:
    """``json.dumps({"command": "table", "rows": rows, "all_ok": all_ok}, indent=2)``
    byte for byte, each row an object of the fields of :func:`cmd_table`'s tuple and its
    chain count, one f-string per row: the encoder has no C path for ``indent``."""
    items = [
        f'{{\n      "n": {n},\n      "k": {k},\n      "chain": "{chain}",\n'
        f'      "chain_count": {chain_count(k, n)},\n      "composition": {_json_sum(composition)},\n'
        f'      "oracle": {_json_sum(oracle)},\n      "match": {"true" if ok else "false"}\n    }}'
        for n, k, chain, composition, oracle, ok in rows
    ]
    rows_json = _json_items(items, "  ")
    fields = ['"command": "table"', f'"rows": {rows_json}', f'"all_ok": {str(all_ok).lower()}']
    return _json_items(fields, "", "{}")


def cmd_table(args: argparse.Namespace) -> tuple[str, int]:
    if (args.n is None) == (args.n_max is None):
        raise UsageError("table needs exactly one of --n or --n-max")
    single = args.n is not None
    top = args.n if single else args.n_max
    _sum_range_check(top, "n" if single else "n-max", args.override_cap)
    if args.k is not None and not 1 <= args.k <= top:
        raise UsageError(f"need 1 <= k <= {top} (the largest n), got k={args.k}")
    rows = []  # (n, k, chain, composition, oracle, match); a null cell compares nothing
    all_ok = True
    for n in [top] if single else range(1, top + 1):
        for k in range(1, n + 1) if args.k is None else [args.k]:
            if k > n:
                continue  # an n-max sweep has no (k, n) row until n reaches k
            chain = mu_rank_sum_chain(k, n)
            composition = mu_rank_sum_composition(k, n) if n <= COMPOSITION_TABLE_CAP else None
            oracle = mu_rank_sum_oracle(k, n) if n <= ORACLE_TABLE_CAP else None
            ok = composition in (None, chain) and oracle in (None, chain)
            all_ok = all_ok and ok
            rows.append((n, k, chain, composition, oracle, ok))
    if args.fmt == "json":
        text = _table_json(rows, all_ok)
    else:
        header = ["n", "k", "chain", "composition", "oracle", "ok"]
        cells = [
            [str(n), str(k), str(chain), "-" if c is None else str(c), "-" if o is None else str(o),
             "yes" if ok else "NO"]
            for n, k, chain, c, o, ok in rows
        ]
        text = "\n".join(_text_table(header, cells))
    return text, 0 if all_ok else 1


def cmd_export(args: argparse.Namespace) -> tuple[str, int]:
    poset = _resolve_interval(args)
    if args.fmt == "dot":
        text = interval_to_dot(poset)
    else:
        text = interval_to_json(poset)
    return text, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implattice",
        description=(
            "Exact Mobius-function combinatorics for the order of implication "
            "sublattices of a finite Boolean algebra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, formats=("text", "json")):
        p.set_defaults(run=run)
        p.add_argument("--format", choices=formats, default=formats[0], dest="fmt")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument(
            "--override-cap",
            action="store_true",
            help="bypass the safety caps on n",
        )

    def add_interval(p):  # the options _resolve_interval reads
        p.add_argument("--n", type=int, help="shorthand for the interval [{1}, B_n]")
        p.add_argument("--lower", help="ImpLattice JSON")
        p.add_argument("--upper", help="ImpLattice JSON (default: the full algebra)")

    p = sub.add_parser("enumerate", help="list every sublattice of B_n")
    p.add_argument("--n", type=int, required=True)
    add_common(p, cmd_enumerate)

    p = sub.add_parser("mobius", help="mu(lower, upper) by oracle and closed form")
    add_interval(p)
    add_common(p, cmd_mobius)

    p = sub.add_parser("verify", help="run a verification suite for all n <= n-max")
    p.add_argument("--suite", choices=SUITE_CHOICES, default="all")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    add_common(p, cmd_verify)

    p = sub.add_parser("identity", help="top-interval identity table over n")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    add_common(p, cmd_identity)

    p = sub.add_parser("table", help="rank-restricted Mobius sum table over (k, n)")
    p.add_argument("--n", type=int, help="single-n table")
    p.add_argument("--n-max", type=int, dest="n_max", help="all n up to this bound")
    p.add_argument("--k", type=int, help="restrict to one k")
    add_common(p, cmd_table)

    p = sub.add_parser("export", help="interval Hasse diagram as DOT or JSON")
    add_interval(p)
    add_common(p, cmd_export, formats=("dot", "json"))

    return parser


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # the library builds no reference cycles: a pass could free only the parser
    try:
        args = build_parser().parse_args(argv)
        try:
            text, code = args.run(args)
        except (OverflowError, MemoryError) as exc:  # --override-cap lifts the caps, not the machine's limits
            raise UsageError(f"n is too large: {str(exc) or 'out of memory'}") from exc
        if not text.endswith("\n"):
            text += "\n"
        if args.out is not None:  # --out '' is a path that cannot be opened
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
        else:
            try:
                print(text, end="", flush=True)  # a closed pipe fails here, not at the exit's flush
            except OSError as exc:  # the exit's own flush would fail again: the rest goes to devnull
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, sys.stdout.fileno())
                os.close(null)
                raise UsageError(f"cannot write to stdout: {exc.strerror or exc}") from exc
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        (gc.enable if enabled else gc.disable)()  # the caller's setting
    return code


def entry() -> int:
    """The process entry of ``implattice`` and ``python -m implattice``: the
    shutdown collections ignore ``gc.disable()`` but skip frozen objects."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(entry())
