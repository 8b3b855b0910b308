"""The benchmark's per-layer tracer must still see the library's layers.

``perfbench/tracer.py`` wraps public functions by identity and replaces the
``IntervalPoset.covers`` cached property; a refactor that renames, inlines or
re-wraps them, or moves work out of the calls they wrap, would blind the trace
without failing any run.  This runs the benchmark's tiny traced workloads
through ``perfbench/inproc.py`` as subprocesses and requires every per-layer
metric that ``BENCHMARK.json`` declares to read nonzero.
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


def layer_value(stats, name):
    """``<span>.<stat>`` in merged span statistics, as ``perfbench/run.py``
    reads a per-layer metric; 0 when the span or stat is missing."""
    span, _, stat = name.rpartition(".")
    return stats.get(span, {}).get(stat, 0)


def test_tracer_sees_every_poset_layer():
    stats = {}
    for workload, index in [("verify-n3", 0), ("interval-n4", 0), ("interval-n4", 1), ("table-n10", 0)]:
        result = traced_run(workload, index)
        assert result["problems"] == [], (workload, result["problems"])
        for span, entry in result["stats"].items():
            merged = stats.setdefault(span, {})
            for stat, value in entry.items():
                merged[stat] = merged.get(stat, 0) + value
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # the trace.* metrics compare traced with untraced runs, which run.py times
    names = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]
    assert "poset.covers.edges" in names and "poset.interval.calls" in names
    unreached = [name for name in names if not layer_value(stats, name)]
    assert unreached == [], f"per-layer metrics the tiny traced runs never reach: {unreached}"
