#!/usr/bin/env python3
"""Regenerate the committed golden outputs under tests/goldens/.

Run after any change that touches claim logic or output formatting, then
review the diff before committing.
"""

import pathlib
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from implattice.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"


def regen():
    GOLDENS.mkdir(parents=True, exist_ok=True)
    target = GOLDENS / "verify_all_nmax4.json"
    code = main(
        ["verify", "--suite", "all", "--n-max", "4", "--format", "json", "--out", str(target)]
    )
    if code != 0:
        raise SystemExit(f"verify suite failed (exit {code}); golden not trusted")
    print(f"wrote {target} ({target.stat().st_size} bytes)")

    target = GOLDENS / "erratum_report_n10.txt"
    report = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "erratum_report.py"), "10"],
        capture_output=True,
        check=True,
    )
    target.write_bytes(report.stdout)
    print(f"wrote {target} ({target.stat().st_size} bytes)")


if __name__ == "__main__":
    regen()
