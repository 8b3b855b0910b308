#!/usr/bin/env python3
"""Print a sha256 digest of each deterministic output that refactors keep
byte-identical, one ``sha256  command`` line per output.

The listing is committed as ``scripts/output_digests.txt``.  With ``--check``
the script recomputes it and compares it with the committed file instead of
printing it: it names each line that differs (``-`` committed, ``+``
recomputed) and exits 1 if any does.  A change that means to alter an output
updates its committed line.

    python scripts/output_digests.py --check
    python scripts/output_digests.py > after.txt

Each output comes from a fresh subprocess running the checkout's own
``src``.  The default listing includes ``mobius`` and ``export`` on one
interval of 10 240 members at n = 24, past the cap, whose walk must reach
members only.  With ``--n8`` the listing ends with two more lines, the
digests of ``verify --suite all --n-max 8 --format json``, which takes about
60 s on 2 CPUs, its two processes peaking at about 0.8 GiB together (about
110 s and 670 MiB in one process), and of ``mobius --n 9 --override-cap
--format json``, past the cap, which takes about 4 s and 750 MiB.  Both are
left out by default; the committed file ends with those lines, which
``--check`` compares only with ``--n8``.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
LISTING = ROOT / "scripts" / "output_digests.txt"

# past the cap: a base of 2 atoms and eleven blocks of 2, whose interval up to
# B_24 has 10 240 members
N24_LOWER = '{"n":24,"base":[0,1],"blocks":[[2,3],[4,5],[6,7],[8,9],[10,11],[12,13],[14,15],[16,17],[18,19],[20,21],[22,23]]}'

# argument lists for ``python -m implattice``
CLI_COMMANDS = (
    ("enumerate", "--n", "7"),
    ("enumerate", "--n", "7", "--format", "json"),
    ("verify", "--suite", "all", "--n-max", "5"),
    ("verify", "--suite", "all", "--n-max", "5", "--format", "json"),
    ("verify", "--suite", "all", "--n-max", "6", "--format", "json"),
    ("verify", "--suite", "all", "--n-max", "7", "--format", "json"),
    ("verify", "--suite", "lemmas", "--n-max", "7", "--format", "json"),
    ("mobius", "--n", "7"),
    ("mobius", "--n", "7", "--format", "json"),
    ("mobius", "--n", "8", "--format", "json"),
    ("mobius", "--lower", '{"n":8,"base":[0],"blocks":[[1],[2],[3],[4],[5],[6],[7]]}', "--format", "json"),
    ("mobius", "--lower", N24_LOWER, "--override-cap", "--format", "json"),
    ("export", "--n", "7", "--format", "json"),
    ("export", "--n", "8", "--format", "json"),
    ("export", "--lower", '{"n":6,"base":[0,1,2],"blocks":[[3,4,5]]}', "--format", "json"),
    ("export", "--lower", N24_LOWER, "--override-cap", "--format", "json"),
    ("export", "--n", "4", "--format", "dot"),
    ("table", "--n-max", "100"),
    ("table", "--n-max", "100", "--format", "json"),
    ("table", "--n", "100", "--format", "json"),
    ("table", "--n-max", "30", "--k", "4"),
    ("table", "--n", "12", "--k", "5", "--format", "json"),
    ("identity", "--n-max", "100"),
    ("identity", "--n-max", "100", "--format", "json"),
)

SCRIPT_COMMANDS = (("scripts/erratum_report.py", "10"),)

# opt-in, with --n8
N8_COMMANDS = (
    ("verify", "--suite", "all", "--n-max", "8", "--format", "json"),
    ("mobius", "--n", "9", "--override-cap", "--format", "json"),
)


def listing(n8: bool) -> list[tuple[str, list[str]]]:
    """Each output of the listing, in order, as its label (the text after
    the digest) and the argv of the subprocess that prints it."""

    def cli(args):
        return "implattice " + " ".join(args), [sys.executable, "-m", "implattice", *args]

    rows = [cli(args) for args in CLI_COMMANDS]
    rows += [(" ".join(cmd), [sys.executable, *cmd]) for cmd in SCRIPT_COMMANDS]
    return rows + [cli(args) for args in N8_COMMANDS if n8]


def committed(n8: bool) -> list[str]:
    """The committed listing's lines, without the --n8 lines unless n8."""
    n8_labels = {"implattice " + " ".join(args) for args in N8_COMMANDS}
    lines = LISTING.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if n8 or line.split("  ", 1)[1] not in n8_labels]


def digest(argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=True)
    return hashlib.sha256(proc.stdout).hexdigest()


def main(n8: bool, check: bool) -> int:
    lines = []
    for label, argv in listing(n8):
        lines.append(f"{digest(argv)}  {label}")
        if not check:
            print(lines[-1], flush=True)
    if not check:
        return 0
    want = committed(n8)
    differ = [f"- {line}" for line in want if line not in lines]
    differ += [f"+ {line}" for line in lines if line not in want]
    if lines != want and not differ:
        differ = ["the lines are in another order"]
    for line in differ:
        print(line)
    print(f"{len(lines)} outputs checked against {LISTING.name}, {len(differ)} lines differ")
    return 1 if differ else 0


if __name__ == "__main__":
    flags = sys.argv[1:]
    if not set(flags) <= {"--n8", "--check"} or len(set(flags)) != len(flags):
        raise SystemExit(f"usage: {sys.argv[0]} [--n8] [--check]")
    raise SystemExit(main(n8="--n8" in flags, check="--check" in flags))
