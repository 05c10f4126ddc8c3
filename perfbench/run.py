"""secondguess benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, from the root of a checkout.

Each repetition sets up a workload's seeded inputs, runs its commands
through the ``secondguess`` entry point in a fresh child process
(``rep.py``), and checks every output against an independent recount
(``workloads.py``). Repetitions continue until ``--seconds`` have passed,
with at least three of each kind. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units come from ``BENCHMARK.json``:

- ``--trace 0``: the end-to-end metrics, each the median over repetitions.
  CPU-bound figures are scaled to a reference CPU speed measured in each
  repetition (see ``REFERENCE_CALIBRATION_S``);
- ``--trace 1``: repetitions alternate between untraced and traced, and the
  metrics are the per-layer figures of the traced ones (medians), plus the
  tracing overhead and two end-to-end figures that exist on one workload
  only (``run.overhead_ratio``, ``simulate.trials_per_s``).

See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_REPS = 3
MAX_REPS = 60
CHILD_TIMEOUT_S = 150
# Calibration time (``rep.calibrate``) that defines the reference CPU speed.
# Other tenants of a shared machine change its speed by up to 2x for minutes
# at a time; scaling each repetition by its own calibration cut the spread
# between runs of mock-selective from 19% to 4% on a 2-vCPU VM.
REFERENCE_CALIBRATION_S = 0.010


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run_child(job: dict, job_path: Path) -> dict:
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), str(job_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition process failed:\n{proc.stderr[-3000:]}")
    with open(job["result"], "r", encoding="utf-8") as fh:
        return json.load(fh)


def one_rep(wl, work: Path, traced: bool, spans_path: Path) -> dict:
    """Set up, run and check one repetition."""
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    prep = wl.setup(work)
    try:
        parent_setup_s = time.perf_counter() - t0
        job = {
            "src": str(SRC),
            "trace": traced,
            "commands": prep["commands"],
            "concurrency": wl.concurrency,
            "stub": prep.get("stub"),
            "result": str(work / "result.json"),
            "spans": str(spans_path),
        }
        result = _run_child(job, work / "job.json")
        wl.after(prep)
    finally:
        wl.teardown(prep)
    try:
        attempted, failed, notes = wl.check(work, result, prep)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # An output that is missing or malformed fails every operation.
        attempted = prep["items"] + len(prep["commands"])
        failed, notes = attempted, [f"outputs unreadable: {exc!r}"]
    by_name = {c["name"]: c for c in result["commands"]}
    timed = [by_name[name] for name in wl.timed]
    wall = sum(c["wall_s"] for c in timed)
    # Above 1 when this repetition ran on a slower CPU than the reference.
    slowdown = result["calibration_s"] / REFERENCE_CALIBRATION_S
    raw_items_per_s = prep["items"] / wall
    rep = {
        "traced": traced,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "notes": notes,
        "slowdown": slowdown,
        "raw_items_per_s": raw_items_per_s,
        "setup_s": (parent_setup_s + result["import_s"]) / slowdown,
        "items_per_s": raw_items_per_s * (slowdown if wl.cpu_bound else 1.0),
        "cpu_ms_per_item": 1e3 * sum(c["cpu_s"] for c in timed) / prep["items"] / slowdown,
        "peak_rss_mb": result["peak_rss_mb"],
        "layers": result.get("layers", {}),
    }
    if "stats" in prep:
        rep["run.overhead_ratio"] = wall / (prep["stats"]["injected_s"] / wl.concurrency)
    if "simulate" in by_name:
        rep["simulate.trials_per_s"] = wl.sim_trials / by_name["simulate"]["wall_s"] * slowdown
    shutil.rmtree(work)
    return rep


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one benchmark run and return its result object. ``scale`` shrinks
    the inputs for the self-test."""
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    spec = _spec()
    base = WORK / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    spans_path = WORK / f"spans-{workload}-s{seed}.jsonl"
    wl = WORKLOADS[workload](seed, scale)
    reps: list = []
    deadline = time.perf_counter() + seconds
    try:
        while len(reps) < MAX_REPS:
            traced = trace and len(reps) % 2 == 1
            reps.append(one_rep(wl, base / f"rep{len(reps)}", traced, spans_path))
            plain = sum(1 for r in reps if not r["traced"])
            enough = plain >= MIN_REPS and (not trace or len(reps) - plain >= MIN_REPS)
            if enough and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    if trace:
        values = {
            key: statistics.median(r["layers"].get(key, 0.0) for r in traced_reps)
            for key in traced_reps[0]["layers"]
        }
        values["trace.overhead"] = median(traced_reps, "items_per_s") / median(plain, "items_per_s")
        for key in ("run.overhead_ratio", "simulate.trials_per_s"):
            values[key] = median(plain, key) if key in plain[0] else 0.0
        wanted = spec["per_layer"]
    else:
        values = {key: median(plain, key) for key in ("items_per_s", "cpu_ms_per_item", "peak_rss_mb", "setup_s")}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    failed = sum(r["failed"] for r in reps)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "reps": reps,
    }


def _report(workload: str, seed: int, result: dict, trace: bool) -> None:
    reps = result["reps"]
    traced = sum(1 for r in reps if r["traced"])
    print(f"{workload} seed {seed}: {len(reps)} repetitions ({traced} traced), "
          f"{result['attempted']} operations, {result['failed']} failed "
          f"(failure_share {result['failed'] / result['attempted']:.6f})")
    print(f"  unscaled items_per_s (median) {statistics.median(r['raw_items_per_s'] for r in reps):.6g}, "
          f"CPU slowdown against the reference (median) {statistics.median(r['slowdown'] for r in reps):.3f}")
    for note in sorted({n for r in reps for n in r["notes"]}):
        print(f"  check: {note}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    if trace:
        layers = [m for m in result["metrics"] if m.endswith(".self_s") and m.count(".") == 1]
        total = sum(result["metrics"][m]["value"] for m in layers) or 1.0
        print("  layer self time (traced repetitions, median):")
        for m in sorted(layers, key=lambda m: -result["metrics"][m]["value"]):
            value = result["metrics"][m]["value"]
            print(f"    {m.split('.')[0]:12s} {value:10.4f} s {100 * value / total:6.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="secondguess benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "secondguess" / "cli.py").is_file():
            raise BenchError(f"no secondguess sources under {SRC}")
        sys.path.insert(0, str(SRC))
        compileall.compile_dir(str(SRC), quiet=2)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ImportError, RuntimeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    _report(args.workload, args.seed, result, bool(args.trace))
    result.pop("reps")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
