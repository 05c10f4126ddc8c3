"""Self-test of the benchmark at tiny input sizes.

Run with ``python3 perfbench/selftest.py`` (or ``python3 -m pytest
perfbench/selftest.py``) from the root of a checkout. The file name keeps it
out of the package's own test suite, which collects ``test_*.py``.

It checks that every workload prints each metric named in
``BENCHMARK.json`` with its unit, untraced and traced, with no failure on
the unmodified program; that one flipped ``correct_after`` in the offline
log is caught; and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.02


def _expect_metrics(result: dict, section: str) -> None:
    wanted = {m["name"]: m["unit"] for m in run._spec()[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, (section, sorted(set(got) ^ set(wanted)))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_every_workload_prints_every_metric() -> None:
    for workload in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(workload, seed=3, seconds=0, trace=trace, scale=SCALE)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result["reps"][0]["notes"])
            assert result["attempted"] >= 1
            _expect_metrics(result, section)
            if not trace:
                assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_corrupted_offline_log_raises_failure_share() -> None:
    WORKLOADS["offline-eval"].corrupt = True
    try:
        result = run.measure("offline-eval", seed=3, seconds=0, trace=False, scale=SCALE)
    finally:
        WORKLOADS["offline-eval"].corrupt = False
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_sources() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mock-selective",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
