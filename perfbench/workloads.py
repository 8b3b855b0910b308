"""The benchmark's workloads: which CLI commands each one runs, and how each
command's output is checked.

A check takes the command's exit code and standard output and returns a list
of problems; an empty list means the output is correct.  Expected values are
pinned from the library's outputs at the commit that introduced the benchmark.
Only outputs that the library promises to keep byte-identical are pinned by
digest; the table's composition column, which may legitimately fill in for
n > 16 later, is checked for agreement with the chain column instead.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Callable


def digest(obj) -> str:
    """sha256 of the canonical JSON encoding of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# verdicts with n <= 4 and n <= 3 in tests/goldens/verify_all_nmax4.json
GOLDEN_VERDICTS_N4 = "c6a1eab3cf0b52958cf097590b6457cb3cd54273af8693f60ea959d3284b6d08"
GOLDEN_VERDICTS_N3 = "c82ad319aeb4cdd6c3704f6ac258e294d2a7b89dc3baf4ebd30cc62309fa1445"


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str], list[str]]


def _load(code: int, out: str) -> tuple[dict | None, list[str]]:
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        return json.loads(out), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def check_verify(code: int, out: str, *, claims: int, golden_n: int, golden_digest: str) -> list[str]:
    doc, problems = _load(code, out)
    if doc is None:
        return problems
    want = {"claims": claims, "passed": claims, "failed": 0}
    if doc.get("summary") != want:
        problems.append(f"summary {doc.get('summary')} != {want}")
    early = [v for v in doc.get("verdicts", []) if v["params"]["n"] <= golden_n]
    if digest(early) != golden_digest:
        problems.append(f"verdicts with n <= {golden_n} differ from the golden")
    return problems


def check_mobius(code: int, out: str, *, mu: str) -> list[str]:
    doc, problems = _load(code, out)
    if doc is None:
        return problems
    got = (doc.get("mu_oracle"), doc.get("mu_product_formula"), doc.get("agree"))
    if got != (mu, mu, True):
        problems.append(f"(mu_oracle, mu_product_formula, agree) = {got}, want ({mu}, {mu}, True)")
    return problems


def check_export(code: int, out: str, *, members: int, edges: int, sha256: str) -> list[str]:
    doc, problems = _load(code, out)
    if doc is None:
        return problems
    got = (len(doc.get("members", ())), len(doc.get("cover_edges", ())))
    if got != (members, edges):
        problems.append(f"(members, cover edges) = {got}, want {(members, edges)}")
    if hashlib.sha256(out.encode()).hexdigest() != sha256:
        problems.append("stdout sha256 differs from the pinned export")
    return problems


def check_table(code: int, out: str, *, rows: int, chain_digest: str) -> list[str]:
    doc, problems = _load(code, out)
    if doc is None:
        return problems
    table = doc.get("rows", [])
    if doc.get("all_ok") is not True:
        problems.append("all_ok is not true")
    if len(table) != rows:
        problems.append(f"{len(table)} rows, want {rows}")
    for r in table:
        for col in ("composition", "oracle"):
            if r[col] is not None and r[col] != r["chain"]:
                problems.append(f"n={r['n']} k={r['k']}: {col} {r[col]} != chain {r['chain']}")
    if digest([[r["n"], r["k"], r["chain"]] for r in table]) != chain_digest:
        problems.append("(n, k, chain) column digest differs from the pinned one")
    return problems


def verify_command(n_max: int, **expect) -> Command:
    argv = ("verify", "--suite", "all", "--n-max", str(n_max), "--format", "json")
    return Command("verify", argv, functools.partial(check_verify, **expect))


def mobius_command(n: int, **expect) -> Command:
    argv = ("mobius", "--n", str(n), "--format", "json")
    return Command("mobius", argv, functools.partial(check_mobius, **expect))


def export_command(n: int, **expect) -> Command:
    argv = ("export", "--n", str(n), "--format", "json")
    return Command("export", argv, functools.partial(check_export, **expect))


def table_command(n_max: int, **expect) -> Command:
    argv = ("table", "--n-max", str(n_max), "--format", "json")
    return Command("table", argv, functools.partial(check_table, **expect))


WORKLOADS: dict[str, tuple[Command, ...]] = {
    "verify-n5": (
        verify_command(5, claims=135, golden_n=4, golden_digest=GOLDEN_VERDICTS_N4),
    ),
    "interval-n7": (
        mobius_command(7, mu="-5040"),
        export_command(
            7,
            members=4140,
            edges=28337,
            sha256="ca55993c0745c5efe5de3a92996ba93ed915b64550e78272709f8cb694827ea2",
        ),
    ),
    "table-n100": (
        table_command(
            100,
            rows=5050,
            chain_digest="b2e12fae7438ea5e55a39984432e277a3fc1cfbfb6bd85b93e4a7a4cbace80c7",
        ),
    ),
}

# Tiny sizes for perfbench/selftest.py.  broken-n4 expects a wrong value on
# purpose, to show that a wrong output fails the run.
SELFTEST_WORKLOADS: dict[str, tuple[Command, ...]] = {
    "verify-n3": (
        verify_command(3, claims=87, golden_n=3, golden_digest=GOLDEN_VERDICTS_N3),
    ),
    "interval-n4": (
        mobius_command(4, mu="24"),
        export_command(
            4,
            members=52,
            edges=160,
            sha256="2fe137e807c8c35c1b2733f8598fdd3e8f08a7d8ffe135cc588af543d2a0c2c1",
        ),
    ),
    "table-n10": (
        table_command(
            10,
            rows=55,
            chain_digest="5003095f8816b652d5ba45547211356cbbaf4625be631f0424bd66d3f87fb5e2",
        ),
    ),
    "broken-n4": (mobius_command(4, mu="-24"),),
}
