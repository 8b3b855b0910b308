"""Command-line front end.

Subcommands: enumerate, mobius, verify, identity, table, export.  All output
is deterministic; JSON is the machine format and text tables are fixed-width
right-aligned integers.  Exit codes: 0 = all checks pass, 1 = a mathematical
check failed, 2 = usage or configuration error.
"""

from __future__ import annotations

import argparse
import gc
import json
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
    chain_sum_corrected,
    chain_sum_printed,
    factorial,
    mu_rank_sum_chain,
    mu_rank_sum_composition,
    mu_rank_sum_oracle,
    mu_top_closed_form,
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
from .verify import SUITES, run_suite, summarize

POSET_CAP = 8
TABLE_CAP = 100
# the p-table prints its composition column only up to this n; the bound fixes
# the table's output, not a cost, since the sum is a cheap recurrence
COMPOSITION_TABLE_CAP = 16
ORACLE_TABLE_CAP = 5


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
    _cap_check(args.n_max, POSET_CAP, "n-max", args.override_cap)
    verdicts = run_suite(args.suite, args.n_max)
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
    _sum_range_check(args.n_max, "n-max", args.override_cap)
    rows = []
    all_ok = True
    for n in range(1, args.n_max + 1):
        closed = mu_top_closed_form(n)
        corrected = chain_sum_corrected(n)
        printed = chain_sum_printed(n)
        printed_expected = (-1) ** n * factorial(n - 1)
        corrected_ok = corrected == closed
        printed_ok = printed == printed_expected
        all_ok = all_ok and corrected_ok and printed_ok
        rows.append(
            {
                "n": n,
                "closed_form": str(closed),
                "corrected": str(corrected),
                "printed": str(printed),
                "printed_expected": str(printed_expected),
                "corrected_ok": corrected_ok,
                "printed_ok": printed_ok,
            }
        )
    if args.fmt == "json":
        doc = {"command": "identity", "n_max": args.n_max, "rows": rows, "all_ok": all_ok}
        text = json.dumps(doc, indent=2)
    else:
        header = ["n", "closed_form", "corrected", "printed", "printed_expected", "ok"]
        table_rows = [
            [
                str(r["n"]),
                r["closed_form"],
                r["corrected"],
                r["printed"],
                r["printed_expected"],
                "yes" if r["corrected_ok"] and r["printed_ok"] else "NO",
            ]
            for r in rows
        ]
        text = "\n".join(_text_table(header, table_rows))
    return text, 0 if all_ok else 1


def _json_sum(value: str | None) -> str:
    return "null" if value is None else f'"{value}"'  # digits need no escapes


def _table_json(rows: list[dict], all_ok: bool) -> str:
    """``json.dumps({"command": "table", "rows": rows, "all_ok": all_ok}, indent=2)``
    byte for byte, one f-string per row: the encoder has no C path for ``indent``."""
    items = [
        f'{{\n      "n": {r["n"]},\n      "k": {r["k"]},\n      "chain": "{r["chain"]}",\n'
        f'      "chain_count": {r["chain_count"]},\n      "composition": {_json_sum(r["composition"])},\n'
        f'      "oracle": {_json_sum(r["oracle"])},\n      "match": {str(r["match"]).lower()}\n    }}'
        for r in rows
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
    ns = [top] if single else list(range(1, top + 1))
    if args.k is not None and not 1 <= args.k <= top:
        raise UsageError(f"need 1 <= k <= {top} (the largest n), got k={args.k}")
    rows = []
    all_ok = True
    for n in ns:
        ks = [args.k] if args.k is not None else list(range(1, n + 1))
        for k in ks:
            if k > n:
                continue  # an n-max sweep has no (k, n) row until n reaches k
            chain = mu_rank_sum_chain(k, n)
            composition = (
                mu_rank_sum_composition(k, n) if n <= COMPOSITION_TABLE_CAP else None
            )
            oracle = mu_rank_sum_oracle(k, n) if n <= ORACLE_TABLE_CAP else None
            ok = all(
                other is None or other == chain for other in (composition, oracle)
            )
            all_ok = all_ok and ok
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "chain": str(chain),
                    "chain_count": chain_count(k, n),
                    "composition": None if composition is None else str(composition),
                    "oracle": None if oracle is None else str(oracle),
                    "match": ok,
                }
            )
    if args.fmt == "json":
        text = _table_json(rows, all_ok)
    else:
        header = ["n", "k", "chain", "composition", "oracle", "ok"]
        table_rows = [
            [
                str(r["n"]),
                str(r["k"]),
                r["chain"],
                "-" if r["composition"] is None else r["composition"],
                "-" if r["oracle"] is None else r["oracle"],
                "yes" if r["match"] else "NO",
            ]
            for r in rows
        ]
        text = "\n".join(_text_table(header, table_rows))
    return text, 0 if all_ok else 1


def cmd_export(args: argparse.Namespace) -> tuple[str, int]:
    poset = _resolve_interval(args)
    if args.fmt == "dot":
        text = interval_to_dot(poset)
    else:
        text = interval_to_json(poset)
    return text, 0


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "mobius": cmd_mobius,
    "verify": cmd_verify,
    "identity": cmd_identity,
    "table": cmd_table,
    "export": cmd_export,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implattice",
        description=(
            "Exact Mobius-function combinatorics for the order of implication "
            "sublattices of a finite Boolean algebra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default=formats[0], dest="fmt")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument(
            "--override-cap",
            action="store_true",
            help="bypass the safety caps on n",
        )

    p = sub.add_parser("enumerate", help="list every sublattice of B_n")
    p.add_argument("--n", type=int, required=True)
    add_common(p)

    p = sub.add_parser("mobius", help="mu(lower, upper) by oracle and closed form")
    p.add_argument("--n", type=int, help="shorthand for the interval [{1}, B_n]")
    p.add_argument("--lower", help="ImpLattice JSON")
    p.add_argument("--upper", help="ImpLattice JSON (default: the full algebra)")
    add_common(p)

    p = sub.add_parser("verify", help="run a verification suite for all n <= n-max")
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    add_common(p)

    p = sub.add_parser("identity", help="top-interval identity table over n")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    add_common(p)

    p = sub.add_parser("table", help="rank-restricted Mobius sum table over (k, n)")
    p.add_argument("--n", type=int, help="single-n table")
    p.add_argument("--n-max", type=int, dest="n_max", help="all n up to this bound")
    p.add_argument("--k", type=int, help="restrict to one k")
    add_common(p)

    p = sub.add_parser("export", help="interval Hasse diagram as DOT or JSON")
    p.add_argument("--n", type=int, help="shorthand for the interval [{1}, B_n]")
    p.add_argument("--lower", help="ImpLattice JSON")
    p.add_argument("--upper", help="ImpLattice JSON (default: the full algebra)")
    add_common(p, formats=("dot", "json"))

    return parser


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # the library builds no reference cycles: a pass could free only the parser
    try:
        args = build_parser().parse_args(argv)
        text, code = _COMMANDS[args.command](args)
        if not text.endswith("\n"):
            text += "\n"
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
        else:
            sys.stdout.write(text)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        (gc.enable if enabled else gc.disable)()  # the caller's setting
    return code


if __name__ == "__main__":
    raise SystemExit(main())
