"""Self-test of the benchmark at tiny sizes (verify n-max 3, n = 4, table
n-max 10).

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs each tiny workload for one second in both modes and checks that the
result line names every metric of BENCHMARK.json with its unit, and that every
per-layer metric is reached by at least one workload.  Then runs a workload
whose expected value is wrong on purpose and checks that the run counts the
failure and exits nonzero.  Also checks that the pinned golden digests are
those of tests/goldens/verify_all_nmax4.json.  Exits 0 when all hold.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import run
from workloads import GOLDEN_VERDICTS_N3, GOLDEN_VERDICTS_N4, SELFTEST_WORKLOADS, digest


def bench(workload: str, trace: int) -> tuple[int, dict]:
    buf = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    with redirect_stdout(buf):
        code = run.main(argv, workloads=SELFTEST_WORKLOADS)
    return code, json.loads(buf.getvalue().splitlines()[-1])


def main() -> int:
    spec = run.load_spec()
    failures = []
    reached: set[str] = set()
    for workload in ("verify-n3", "interval-n4", "table-n10"):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench(workload, trace)
            where = f"{workload} trace={trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{where}: exit {code}, result {result}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                failures.append(f"{where}: metrics/units {got} != {want}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    failures.append(f"{where}: {name} value {m['value']!r} is not a number")
                elif m["value"]:
                    reached.add(name)
    unreached = [m["name"] for m in spec["per_layer"] if m["name"] not in reached]
    if unreached:
        failures.append(f"per-layer metrics never reached: {unreached}")

    code, result = bench("broken-n4", 0)
    if code == 0 or result["correct"] or not result["failed"] or result["metrics"]["ok_rate"]["value"] >= 1:
        failures.append(f"a wrong expected value went unnoticed: exit {code}, result {result}")

    with open(run.ROOT / "tests" / "goldens" / "verify_all_nmax4.json", encoding="utf-8") as fh:
        golden = json.load(fh)["verdicts"]
    for n, pinned in ((4, GOLDEN_VERDICTS_N4), (3, GOLDEN_VERDICTS_N3)):
        if digest([v for v in golden if v["params"]["n"] <= n]) != pinned:
            failures.append(f"pinned digest of the golden's n <= {n} verdicts is stale")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
