"""One timed repetition, in a fresh process: ``python3 perfbench/rep.py JOB``.

JOB is a JSON file written by ``run.py``. This process first times a fixed
calibration loop, then imports secondguess from the checkout's ``src``,
optionally installs the tracer, and runs each command of the job through
the ``secondguess`` entry point (``cli.main``), so the timed path is what
users run and interpreter start-up is left out. It writes its figures to
the job's ``result`` path:

- ``calibration_s``: the loop's time, which gives the CPU speed of this
  repetition; it runs before any secondguess code, which cannot affect it;
- ``import_s``: imports and tracer installation, part of set-up time;
- per command: wall and CPU seconds and the exit code;
- ``peak_rss_mb``: peak resident set of this process, which runs nothing
  but the imports and the commands;
- with tracing, the per-layer figures of ``spans.layer_metrics``.
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout


def calibrate() -> float:
    """Seconds for a fixed mix of the interpreter work the harness does:
    substring scans, dict building and JSON encoding."""
    words = [f"word number {i} on the left" for i in range(2000)]
    start = time.perf_counter()
    hits = 0
    for _ in range(12):
        for word in words:
            if "number 1999 on" in word:
                hits += 1
        json.dumps({word: len(word) for word in words})
    return time.perf_counter() - start


def _invoke(cli, argv) -> int:
    """Run one CLI command as the console script would; return its exit code.

    An uncaught exception exits 1, as it would from the console script; its
    traceback goes to the captured output so the check can report it.
    """
    try:
        cli.main.main(args=argv, prog_name="secondguess")
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except Exception:
        traceback.print_exc(file=sys.stdout)
        return 1
    return 0


def main() -> None:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        job = json.load(fh)
    calibration_s = statistics.median(calibrate() for _ in range(3))
    import0 = time.perf_counter()
    sys.path.insert(0, job["src"])
    from secondguess import cli

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import_s = time.perf_counter() - import0

    commands = []
    for argv in job["commands"]:
        out = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with redirect_stdout(out):
            if tracer is None:
                code = _invoke(cli, argv)
            else:
                code = tracer.call(f"cli.{argv[0]}", "cli", _invoke, cli, argv)
        commands.append(
            {
                "name": argv[0],
                "wall_s": time.perf_counter() - wall0,
                "cpu_s": time.process_time() - cpu0,
                "exit": code,
                "stdout": out.getvalue()[-2000:],
            }
        )
    result = {
        "calibration_s": calibration_s,
        "import_s": import_s,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from spans import layer_metrics

        latency_of = None
        stub = job.get("stub")
        if stub:
            from stub import injected_latency_s

            def latency_of(prompt, image):
                return injected_latency_s(
                    stub["seed"], prompt, image, stub["median_ms"], stub["sigma"]
                )

        result["layers"] = layer_metrics(tracer.spans, job["concurrency"], latency_of)
        tracer.dump(job["spans"])
    tmp = job["result"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result"])


if __name__ == "__main__":
    main()
