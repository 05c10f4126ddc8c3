"""Span tracing of the secondguess modules from outside the package.

``Tracer.install`` replaces every public function and public method defined
in each secondguess module with a wrapper that records a span: name, layer
(the module), start, end, parent span and question id. Wrappers go through
module attributes, and names one module imported from another (such as
``pipeline.default_params``) are re-bound to the wrapped function, so calls
through either name are seen. Classes are patched in place, which covers
backends that ``cli`` builds from the class it imported.

Spans stay in memory; ``dump`` writes them out when the run ends and
``layer_metrics`` turns them into the per-layer figures of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time

LAYERS = ("cli", "dataset", "prompts", "backend", "pipeline", "evaluation", "simulator")

# A span record is a list, so worker threads can point at their parent
# without a shared index: [name, layer, start, end, parent, qid, info].
NAME, LAYER, START, END, PARENT, QID, INFO = range(7)


def _qid_of(args):
    for arg in args[:3]:
        request_id = getattr(arg, "request_id", None)
        if isinstance(request_id, str):
            return request_id.split("#", 1)[0]
        if hasattr(arg, "answers") and isinstance(getattr(arg, "id", None), str):
            return arg.id
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, qid):
        stack = self._stack()
        # A pool worker starts with an empty stack; the span that caused its
        # work is the one the submitting (main) thread is blocked in.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        if qid is None and parent is not None:
            qid = parent[QID]
        rec = [name, layer, time.perf_counter(), None, parent, qid, None]
        self.spans.append(rec)
        stack.append(rec)
        return rec, stack

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; used for the root span of a command."""
        rec, stack = self._open(name, layer, None)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, layer: str):
        is_complete = name.endswith(".complete")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec, stack = self._open(name, layer, _qid_of(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[INFO] = {"error": type(exc).__name__}
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if is_complete:
                rec[INFO] = {
                    "role": args[2].role,
                    "prompt": args[1].prompt,
                    "image": args[1].image,
                    "retries": result.retries,
                }
            return result

        return wrapper

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"secondguess.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(obj, f"{layer}.{attr}", layer)
                    setattr(mod, attr, wrapped[obj])
                elif inspect.isclass(obj):
                    self._install_class(obj, layer)
        for layer in LAYERS:
            mod = importlib.import_module(f"secondguess.{layer}")
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def _install_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(member.__func__, name, layer)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(member, name, layer))

    def dump(self, path) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                parent = rec[PARENT]
                row = {
                    "name": rec[NAME],
                    "start": rec[START],
                    "end": rec[END],
                    "parent": None if parent is None else index[id(parent)],
                    "qid": rec[QID],
                }
                fh.write(json.dumps(row) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover.

    Children of one parent may overlap when they ran on pool threads, so the
    covered part is the length of the union of their intervals.
    """
    children: dict = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(id(rec[PARENT]), []).append((rec[START], rec[END]))
    result = []
    for rec in spans:
        covered = 0.0
        cursor = rec[START]
        for start, end in sorted(children.get(id(rec), ())):
            start, end = max(start, cursor), min(end, rec[END])
            if end > start:
                covered += end - start
                cursor = end
        result.append(rec[END] - rec[START] - covered)
    return result


def tail_percentile(n: int) -> float:
    """The highest reported percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def _nearest_rank(ordered, p: float) -> float:
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans, concurrency: int, latency_of=None) -> dict:
    """Per-layer figures of one traced repetition.

    ``latency_of(prompt, image)`` gives the stub's injected latency, so the
    client's own share of an HTTP call can be separated from the wait.
    """
    selfs = self_times(spans)
    by_name: dict = {}
    for rec, own in zip(spans, selfs):
        by_name.setdefault(rec[NAME], []).append((rec, own))

    def durations(name, scale=1.0):
        return [(r[END] - r[START]) * scale for r, _ in by_name.get(name, ())]

    def total_s(*names):
        return sum(sum(durations(n)) for n in names)

    out = {}

    def dist(metric, values):
        ordered = sorted(values)
        out[f"{metric}.p50"] = _nearest_rank(ordered, 50.0)
        out[f"{metric}.tail"] = _nearest_rank(ordered, tail_percentile(len(ordered)))

    completes = [
        r for name in ("backend.MockBackend.complete", "backend.HTTPBackend.complete")
        for r, _ in by_name.get(name, ())
    ]
    for role in ("recomposer", "decomposer"):
        out[f"backend.calls.{role}"] = sum(
            1 for r in completes if r[INFO] and r[INFO].get("role") == role
        )
    dist("backend.mock_complete_us", durations("backend.MockBackend.complete", 1e6))
    dist("backend.http_complete_ms", durations("backend.HTTPBackend.complete", 1e3))
    overhead = []
    if latency_of is not None:
        for r, _ in by_name.get("backend.HTTPBackend.complete", ()):
            if r[INFO] and "prompt" in r[INFO]:
                wait = latency_of(r[INFO]["prompt"], r[INFO]["image"])
                overhead.append((r[END] - r[START] - wait) * 1e3)
    dist("backend.client_overhead_ms", overhead)
    from_payload = durations("backend.InferenceResult.from_payload", 1e6)
    out["backend.from_payload_calls"] = len(from_payload)
    dist("backend.from_payload_us", from_payload)
    out["backend.retries"] = sum(r[INFO].get("retries", 0) for r in completes if r[INFO])
    out["backend.errors"] = sum(1 for r in completes if r[INFO] and "error" in r[INFO])

    renders = [d for name in by_name if name.startswith("prompts.render_") for d in durations(name, 1e6)]
    out["prompts.render_calls"] = len(renders)
    dist("prompts.render_us", renders)

    out["pipeline.run_batch_self_s"] = sum(
        own for name in ("pipeline.run_batch", "pipeline.run") for _, own in by_name.get(name, ())
    )
    run_wall = total_s("cli.run")
    busy = sum(r[END] - r[START] for r in completes)
    out["pipeline.slot_utilization"] = busy / (concurrency * run_wall) if run_wall else 0.0
    out["pipeline.read_episode_log_s"] = total_s("pipeline.read_episode_log")

    is_match = durations("evaluation.is_match", 1e6)
    out["evaluation.is_match_calls"] = len(is_match)
    dist("evaluation.is_match_us", is_match)
    out["evaluation.sweep_s"] = total_s("evaluation.sweep")
    to_tau = durations("evaluation.percentile_to_tau", 1e6)
    out["evaluation.percentile_to_tau_calls"] = len(to_tau)
    dist("evaluation.percentile_to_tau_us", to_tau)
    out["evaluation.compute_report_s"] = total_s("evaluation.compute_report")
    out["evaluation.write_sweep_csv_s"] = total_s("evaluation.write_sweep_csv")

    out["simulator.generate_trials_s"] = total_s("simulator.generate_trials")
    at_tau = durations("simulator.accuracy_at_tau", 1e6)
    out["simulator.accuracy_at_tau_calls"] = len(at_tau)
    dist("simulator.accuracy_at_tau_us", at_tau)

    out["dataset.load_dataset_s"] = total_s("dataset.load_dataset")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for rec, own in zip(spans, selfs):
        layer_self[rec[LAYER]] += own
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    out["trace.spans"] = len(spans)
    return out
