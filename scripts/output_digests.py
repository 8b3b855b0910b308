#!/usr/bin/env python3
"""Print a sha256 digest of each deterministic output that refactors keep
byte-identical, one ``sha256  command`` line per output.

Run it in two checkouts and diff the two listings to see whether a change
altered any of them:

    python scripts/output_digests.py > after.txt

Each output comes from a fresh subprocess running the checkout's own
``src``.  The default listing includes ``mobius`` and ``export`` on one
interval of 10 240 members at n = 24, past the cap, whose walk must reach
members only.  With ``--n8`` the listing ends with one more line, the digest of
``verify --suite all --n-max 8 --format json``, which takes two to three
minutes and 800 MiB on a 2-core machine and is left out by default.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

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
    ("identity", "--n-max", "100"),
    ("identity", "--n-max", "100", "--format", "json"),
)

SCRIPT_COMMANDS = (("scripts/erratum_report.py", "10"),)

# opt-in, with --n8
N8_COMMANDS = (("verify", "--suite", "all", "--n-max", "8", "--format", "json"),)


def digest(argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=True)
    return hashlib.sha256(proc.stdout).hexdigest()


def print_cli_digests(commands) -> None:
    for args in commands:
        print(f"{digest([sys.executable, '-m', 'implattice', *args])}  implattice {' '.join(args)}")


def main(n8: bool) -> None:
    print_cli_digests(CLI_COMMANDS)
    for script, *args in SCRIPT_COMMANDS:
        print(f"{digest([sys.executable, script, *args])}  {' '.join([script, *args])}")
    if n8:
        print_cli_digests(N8_COMMANDS)


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--n8"]):
        raise SystemExit(f"usage: {sys.argv[0]} [--n8]")
    main(n8=len(sys.argv) > 1)
