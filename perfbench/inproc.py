"""Run one workload command inside this interpreter, traced or not.

Usage: python3 perfbench/inproc.py WORKLOAD INDEX TRACED [SPANS_PATH]

The library must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH).  Prints one JSON object: the command's wall time, the problems
its output check found, and, when TRACED is 1, per-span statistics; the raw
spans go to SPANS_PATH.  Each invocation is a fresh interpreter, so the
library's process-wide caches start empty, as they do for a CLI user.

The verify command is run as ``verify.run_claims([id], n_max)`` for each claim
in registry order -- the same call sequence as ``run_suite("all", n_max)`` --
so that every claim gets its own span.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import nullcontext, redirect_stdout

import tracer as tracing
from workloads import SELFTEST_WORKLOADS, WORKLOADS


def _run_verify(n_max: int, tracer: tracing.Tracer | None) -> tuple[int, str]:
    from implattice import verify
    from implattice.algebra import verdict_to_dict

    verdicts = []
    for claim in verify.CLAIMS:
        with tracer.span(f"verify.claim.{claim.id}") if tracer else nullcontext():
            verdicts += verify.run_claims([claim.id], n_max)
    summary = verify.summarize(verdicts)
    if tracer:
        tracer.count("verify", "cases", sum(v.params.get("cases", 0) for v in verdicts))
    doc = {
        "command": "verify",
        "suite": "all",
        "n_max": n_max,
        "verdicts": [verdict_to_dict(v) for v in verdicts],
        "summary": summary,
    }
    return (0 if summary["failed"] == 0 else 1), json.dumps(doc, indent=2) + "\n"


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from implattice import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def main(argv: list[str]) -> int:
    workload, index, traced = argv[0], int(argv[1]), argv[2] == "1"
    command = {**WORKLOADS, **SELFTEST_WORKLOADS}[workload][index]
    # every module is loaded outside the timed region, and before rebinding
    import implattice.cli  # noqa: F401

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    if command.name == "verify":
        n_max = int(command.argv[command.argv.index("--n-max") + 1])
        code, out = _run_verify(n_max, tracer)
    else:
        code, out = _run_cli(list(command.argv))
    wall = time.perf_counter() - start
    result = {"wall_s": wall, "problems": command.check(code, out)}
    if tracer:
        result["stats"] = tracer.stats()
        if len(argv) > 3:
            with open(argv[3], "w", encoding="utf-8") as fh:
                json.dump({"workload": workload, "command": command.name, "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
