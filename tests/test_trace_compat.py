"""The benchmark's per-layer tracer must still see the library's layers.

``perfbench/tracer.py`` wraps public functions by identity and replaces the
``IntervalPoset.covers`` cached property; a refactor that renames, inlines or
re-wraps them would blind the trace without failing any run.  This runs two
tiny traced workloads through ``perfbench/inproc.py`` as subprocesses.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def traced_run(workload, index):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "inproc.py"), workload, str(index), "1"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_sees_every_poset_layer():
    calls = {}
    for workload, index in [("verify-n3", 0), ("interval-n4", 1)]:
        result = traced_run(workload, index)
        assert result["problems"] == [], (workload, result["problems"])
        for name, stat in result["stats"].items():
            calls[name] = calls.get(name, 0) + stat["calls"]
    for name in ("poset.interval", "poset.mobius_oracle", "poset.closed_suborder", "poset.covers"):
        assert calls.get(name, 0) >= 1, f"{name} recorded no call"
