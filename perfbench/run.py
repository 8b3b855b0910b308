"""The implattice benchmark: cold CLI runs, checked, with a separate traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-n5 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every command of the workload runs as a fresh
``python3 -m implattice`` subprocess, in a closed loop: one client, one
command in flight, the next started only after the previous one exited.
Passes over the workload's commands repeat until ``--seconds`` have passed;
the seed only permutes the order of the commands within each pass.  The
fixed program perfbench/reference.py runs as a cold subprocess too, before
the first command and after every command; each command's time is reported
in units of the reference runs around it (see ``normalise``), because the
speed of a shared machine drifts by tens of percent over minutes and a ratio
of neighbouring timings cancels that.  Before the passes, ``import implattice`` is timed in fresh interpreters
(setup_s).

With ``--trace 1`` each command instead runs in a fresh interpreter through
perfbench/inproc.py, once untraced and once traced with the spans of
perfbench/tracer.py; the per-layer metrics come from the traced runs, and
their wall-time difference is the tracing overhead.

Every output is checked (perfbench/workloads.py).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics named in BENCHMARK.json; the lines before it are a readable report,
and the full record goes to .perfbench_out/.  The exit code is 0 when every
output was correct, 1 when one was not, 2 when the checkout cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_SHA256 = "f67cd317ae74b444d199cf04c047fd7253eea9a1f380fd58490383eb7422d96d"
# normalised times are in units of reference.py's wall time, scaled so that
# one run of it counts as this many seconds (about its cold wall time on a
# shared 2-vCPU Xeon with Python 3.11)
REFERENCE_NOMINAL_S = 0.6
SETUP_SAMPLES = 15
# every child is killed once the run has lasted this long; runs must end
# within 180 s
RUN_LIMIT_S = 170.0
# ``import implattice`` in a fresh interpreter, then, in the same interpreter
# right after it, the time of CALIBRATION_ROUNDS rounds of reference.py
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import implattice\n"
    "seconds = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import reference\n"
    "reference.one_round()\n"
    "t = time.perf_counter()\n"
    "for _ in range(int(sys.argv[2])):\n"
    "    reference.one_round()\n"
    "print(seconds, time.perf_counter() - t, implattice.__file__)\n"
)
CALIBRATION_ROUNDS = 4
# setup_s is in units of one in-process reference round, scaled so that one
# round counts as this many seconds (about its time on the same machine)
ROUND_NOMINAL_S = 0.008


class CheckoutError(Exception):
    """The checkout lacks the library or the benchmark specification."""


@dataclass
class Sample:
    wall_s: float
    code: int
    out: str
    maxrss_kib: int


def spawn(argv: list[str], env: dict, deadline: float, stderr) -> Sample:
    """Run one child to completion and time it from spawn to reaping.

    Peak RSS comes from the child's own rusage (os.wait4).  A child still
    running at ``deadline`` is killed and reported with code -9."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr)
    chunks = []
    killed = False
    fd = proc.stdout.fileno()
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not sel.select(left):
                proc.kill()
                killed = True
                break
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = -9 if killed else os.waitstatus_to_exitcode(status)
    return Sample(wall, code, b"".join(chunks).decode("utf-8", "replace"), usage.ru_maxrss)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def load_spec() -> dict:
    spec = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "implattice" / "__init__.py").is_file():
        raise CheckoutError(f"no library source under {ROOT / 'src'}")
    if not spec.is_file():
        raise CheckoutError(f"no {spec.name} at {ROOT}")
    return json.loads(spec.read_text(encoding="utf-8"))


def provenance(args) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD's commit, read from .git without running git; the benchmark also
    runs in checkouts that are not git repositories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it
    (when there are enough samples), max and count."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "max": ordered[-1], "n": len(ordered)}
    if len(ordered) > 10:
        i = len(ordered) - 11
        out[f"p{100 * (i + 1) // len(ordered)}"] = ordered[i]
    return out


class Run:
    """Counters and records shared by both modes of one benchmark run."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.hard_deadline = self.start + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = child_env()
        OUT_DIR.mkdir(exist_ok=True)
        self.stderr = open(OUT_DIR / "stderr.txt", "w", encoding="utf-8")

    def close(self) -> None:
        self.stderr.close()

    def child(self, argv: list[str], timeout: float = RUN_LIMIT_S) -> Sample:
        deadline = min(self.hard_deadline, time.perf_counter() + timeout)
        return spawn(argv, self.env, deadline, self.stderr)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def more(self, pass_times: list[float]) -> bool:
        """Start another pass unless it would likely end more than half a
        pass after the deadline, so that a run lasts about --seconds."""
        if not pass_times:
            return True
        return time.perf_counter() + statistics.mean(pass_times) / 2 < self.deadline


def measure_setup(run: Run) -> tuple[list[float], list[float]]:
    """Time ``import implattice`` in fresh interpreters: the raw times, and
    each normalised by the reference rounds timed right after it in the same
    interpreter.  One untimed import first writes the bytecode caches, as an
    installed package has them."""
    raw, normalised = [], []
    argv = [sys.executable, "-c", IMPORT_PROBE, str(REFERENCE.parent), str(CALIBRATION_ROUNDS)]
    for i in range(SETUP_SAMPLES + 1):
        s = run.child(argv, timeout=30)
        problems = [] if s.code == 0 else [f"exit code {s.code}"]
        if not problems:
            seconds, calibration, path = s.out.split(maxsplit=2)
            if not Path(path.strip()).resolve().is_relative_to(ROOT / "src"):
                problems.append(f"imported implattice from {path.strip()}")
            elif i:
                raw.append(float(seconds))
                round_s = float(calibration) / CALIBRATION_ROUNDS
                normalised.append(normalise(float(seconds), round_s, ROUND_NOMINAL_S))
        run.record("import", problems)
    return raw, normalised


def run_reference(run: Run) -> float:
    """Run reference.py once; its wall time, checked against its pinned
    output (a wrong output counts as a failed invocation)."""
    s = run.child([sys.executable, str(REFERENCE)], timeout=30)
    problems = [] if s.code == 0 else [f"exit code {s.code}"]
    if not problems:
        try:
            doc = json.loads(s.out)
        except ValueError:
            doc = s.out
        if not isinstance(doc, dict) or (doc.get("same"), doc.get("sha256")) != (True, REFERENCE_SHA256):
            problems.append(f"output {doc!r} differs from the pinned one")
    run.record("reference", problems)
    return s.wall_s


def normalise(seconds: float, reference_s: float, nominal_s: float = REFERENCE_NOMINAL_S) -> float:
    """``seconds`` in units of a reference time measured next to it, scaled
    by ``nominal_s``: the time the same work would take on a machine on which
    the reference takes ``nominal_s``."""
    return seconds / reference_s * nominal_s


def run_cold(run: Run, commands: tuple[Command, ...], rng: random.Random) -> dict:
    """The end-to-end loop: passes of cold CLI subprocesses, with a run of
    the reference program before the first command and after every command.
    Each command's time is normalised by the mean of the two reference runs
    around it."""
    imports, setup = measure_setup(run)
    per_command: dict[str, list[float]] = {c.name: [] for c in commands}
    passes: list[float] = []
    references = [run_reference(run)]
    normalised: list[float] = []
    peaks: list[int] = []
    pass_times: list[float] = []
    while run.more(pass_times):
        started = time.perf_counter()
        order = list(commands)
        rng.shuffle(order)
        total = total_normalised = 0.0
        peak_kib = 0
        for cmd in order:
            s = run.child([sys.executable, "-m", "implattice", *cmd.argv])
            run.record(cmd.name, cmd.check(s.code, s.out))
            references.append(run_reference(run))
            per_command[cmd.name].append(s.wall_s)
            peak_kib = max(peak_kib, s.maxrss_kib)
            total += s.wall_s
            total_normalised += normalise(s.wall_s, statistics.mean(references[-2:]))
        passes.append(total)
        peaks.append(peak_kib)
        normalised.append(total_normalised)
        pass_times.append(time.perf_counter() - started)
    ok_rate = (run.attempted - run.failed) / run.attempted
    metrics = {
        "wall_norm_s": statistics.median(normalised),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mib": statistics.median(peaks) / 1024,
        "ok_rate": ok_rate,
    }
    samples = {f"{name}_s": v for name, v in per_command.items()}
    samples.update(wall_s=passes, wall_norm_s=normalised, reference_s=references, import_s=imports, setup_s=setup)
    report = {name: summary(v) for name, v in samples.items() if v}
    return {"metrics": metrics, "report": report, "samples": samples}


def run_traced(run: Run, workload: str, commands: tuple[Command, ...], rng: random.Random) -> dict:
    """The per-layer loop: each command in-process in a fresh interpreter,
    untraced and traced, in an order the seed picks per pass."""
    inproc = str(Path(__file__).resolve().parent / "inproc.py")
    untraced: list[float] = []
    traced: list[float] = []
    layer_passes: list[dict[str, dict[str, float]]] = []
    pass_times: list[float] = []
    while run.more(pass_times):
        started = time.perf_counter()
        order = list(enumerate(commands))
        rng.shuffle(order)
        modes = [0, 1]
        rng.shuffle(modes)
        walls = {0: 0.0, 1: 0.0}
        stats: dict[str, dict[str, float]] = {}
        for index, cmd in order:
            for mode in modes:
                argv = [sys.executable, inproc, workload, str(index), str(mode)]
                if mode:
                    argv.append(str(OUT_DIR / f"spans-{workload}-{cmd.name}.json"))
                s = run.child(argv)
                result = json.loads(s.out) if s.code == 0 else {"problems": [f"exit code {s.code}"]}
                what = f"{cmd.name} ({'traced' if mode else 'untraced'})"
                if not run.record(what, result["problems"]):
                    continue
                walls[mode] += result["wall_s"]
                for span, entry in result.get("stats", {}).items():
                    merged = stats.setdefault(span, {})
                    for stat, value in entry.items():
                        merged[stat] = merged.get(stat, 0) + value
        untraced.append(walls[0])
        traced.append(walls[1])
        layer_passes.append(stats)
        pass_times.append(time.perf_counter() - started)
    stats = {}
    for span in {s for p in layer_passes for s in p}:
        stats[span] = {}
        for k in {k for p in layer_passes for k in p.get(span, {})}:
            # counts repeat exactly from pass to pass; keep them whole
            middle = statistics.median if k.endswith("_s") else statistics.median_low
            stats[span][k] = middle([p.get(span, {}).get(k, 0) for p in layer_passes])
    stats["trace"] = {
        "untraced_s": statistics.median(untraced),
        "traced_s": statistics.median(traced),
        "overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    by_self = sorted(((e.get("self_s", 0.0), s) for s, e in stats.items() if s != "trace"), reverse=True)
    claims = sorted(((e["total_s"], s) for s, e in stats.items() if s.startswith("verify.claim.")), reverse=True)
    report = {
        "passes": len(layer_passes),
        "trace": stats["trace"],
        "largest_self_s": [[s, v] for v, s in by_self[:8]],
        "largest_claim_total_s": [[s, v] for v, s in claims[:3]],
    }
    return {"stats": stats, "report": report}


def layer_metric(stats: dict, name: str) -> float:
    """``<span>.<stat>`` looked up in the merged span statistics; a layer the
    workload never reaches reads 0."""
    span, _, stat = name.rpartition(".")
    return stats.get(span, {}).get(stat, 0.0 if stat.endswith("_s") else 0)


def main(argv: list[str] | None = None, workloads: dict = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    info = provenance(args)
    rng = random.Random(args.seed)
    commands = workloads[args.workload]
    run = Run(args.seconds)
    try:
        if args.trace:
            result = run_traced(run, args.workload, commands, rng)
            wanted = spec["per_layer"]
            metrics = {m["name"]: layer_metric(result["stats"], m["name"]) for m in wanted}
        else:
            result = run_cold(run, commands, rng)
            wanted = spec["end_to_end"]
            metrics = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    finally:
        run.close()

    record = {
        "provenance": info,
        "elapsed_s": time.perf_counter() - run.start,
        "report": result["report"],
        "samples": result.get("samples", {}),
        "problems": run.problems,
    }
    mode = "trace" if args.trace else "cold"
    (OUT_DIR / f"{mode}-{args.workload}-{args.seed}.json").write_text(json.dumps(record, indent=2))
    print(f"# provenance {json.dumps(info)}")
    for key, value in result["report"].items():
        print(f"# {key} {json.dumps(value)}")
    for problem in run.problems[:20]:
        print(f"# FAILED {problem}")
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
