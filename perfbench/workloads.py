"""The three benchmark workloads: seeded inputs, the commands timed, and the
correctness checks.

Every check compares the program's outputs with a recount made here from
the generated inputs, never with the output of the code under test:

- mock-selective: from the scripted specs, the nearest-rank tau, each
  episode's gate and correctness, the call count and the accuracies;
- http-latency: four calls per question on both sides of the wire, no
  failed episode, and the same ``episodes.jsonl`` digest on every repetition
  of one seed;
- offline-eval: ``metrics.json`` and every ``sweep.csv`` point recounted with
  numpy from the trial arrays, and the ``simulate`` curve recounted from the
  same seeded trials.

A workload object lives for one benchmark run. ``setup`` writes a
repetition's inputs and returns what the child process needs; ``check``
returns ``(operations attempted, operations failed, notes)``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import subprocess
import sys
import urllib.request
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

_COLORS = ("red", "blue", "green", "white", "black", "yellow", "brown", "grey")
_NOUNS = ("cup", "dog", "car", "sign", "chair", "kite", "boat", "lamp", "bird", "door")


def _question_text(rng: random.Random, i: int) -> str:
    # The number keeps every prompt distinct; the words after it stop one
    # question's pattern from matching inside another's.
    return f"is the {rng.choice(_COLORS)} {rng.choice(_NOUNS)} number {i} on the left?"


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _read_jsonl(path: Path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b, tol: float = 1e-12) -> bool:
    if a is None or b is None:
        return a is b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


class Workload:
    """Defaults for the hooks around a repetition's child process."""

    concurrency = 1
    # Whether the timed commands' wall time is CPU time of this process, so
    # that it scales with the CPU speed.
    cpu_bound = True

    def after(self, prep: dict) -> None:
        """Collect figures from helpers before they are stopped."""

    def teardown(self, prep: dict) -> None:
        """Stop what ``setup`` started."""


def _exit_failures(result: dict, notes: list) -> int:
    bad = [c for c in result["commands"] if c["exit"] != 0]
    for c in bad:
        notes.append(f"{c['name']} exited {c['exit']}: {c['stdout'][-300:]}")
    return len(bad)


class MockSelective(Workload):
    """``run --mode selective --tau-percentile 50`` on a scripted mock."""

    name = "mock-selective"
    timed = ("run",)
    percentile = 50.0

    def __init__(self, seed: int, scale: float) -> None:
        self.n = max(8, int(1000 * scale))
        rng = random.Random(seed)
        self.specs = []
        for i in range(self.n):
            answer = rng.choice(("yes", "no"))
            wrong = "no" if answer == "yes" else "yes"
            self.specs.append(
                {
                    "id": f"q{i:05d}",
                    "question": _question_text(rng, i),
                    "answer": answer,
                    "initial": answer if rng.random() < 0.6 else wrong,
                    "logprob": math.log(rng.uniform(0.05, 0.99)),
                    "sub_q": f"can you see the thing number {i} there?",
                    "sub_a": rng.choice(("yes", "no")),
                    "final": answer if rng.random() < 0.7 else wrong,
                }
            )
        self._expect()

    def _expect(self) -> None:
        confidences = [math.exp(s["logprob"]) for s in self.specs]
        ordered = sorted(confidences)
        self.tau = ordered[math.ceil(self.percentile / 100.0 * self.n) - 1]
        self.expected = []
        for s, conf in zip(self.specs, confidences):
            gated = conf <= self.tau
            before = s["initial"] == s["answer"]
            after = (s["final"] == s["answer"]) if gated else before
            self.expected.append(("second_guessed" if gated else "kept", before, after))
        self.calls = self.n + 3 * sum(1 for g, _, _ in self.expected if g != "kept")

    def _entries(self):
        # Four entries per question, in the order of the test suite's
        # scripted specs: recompose, sub-answer, initial answer, decompose.
        for s in self.specs:
            main_q = s["question"].rstrip("?")
            sub_q = s["sub_q"].rstrip("?")
            yield (f"Context: {sub_q}? {s['sub_a']}. Question: {main_q}?", "recomposer", s["final"], math.log(0.8))
            yield (f"Question: {s['sub_q']} Short Answer:", "recomposer", s["sub_a"], math.log(0.7))
            yield (f"Question: {s['question']} Short Answer:", "recomposer", s["initial"], s["logprob"])
            yield (f"Reasoning Question: {s['question']} Perception Question:", "decomposer", s["sub_q"], math.log(0.6))

    def setup(self, work: Path) -> dict:
        _write_jsonl(
            work / "dataset.jsonl",
            (
                {"id": s["id"], "image": f"{s['id']}.jpg", "question": s["question"], "answers": [s["answer"]]}
                for s in self.specs
            ),
        )
        _write_jsonl(
            work / "script.jsonl",
            (
                {"match": {"prompt_contains": pattern, "role": role}, "response": {"text": text, "token_logprobs": [lp]}}
                for pattern, role, text, lp in self._entries()
            ),
        )
        argv = [
            "run", "--mode", "selective", "--tau-percentile", str(self.percentile),
            "--concurrency", str(self.concurrency), "--seed", "0",
            "--dataset", str(work / "dataset.jsonl"), "--mock-script", str(work / "script.jsonl"),
            "--out", str(work / "out"),
        ]
        return {"commands": [argv], "items": self.n}

    def check(self, work: Path, result: dict, prep: dict):
        notes: list = []
        failed = _exit_failures(result, notes)
        out = work / "out"
        episodes = _read_jsonl(out / "episodes.jsonl")
        failed += sum(1 for ep in episodes if ep.get("failed"))
        if len(episodes) != self.n:
            notes.append(f"{len(episodes)} episodes, expected {self.n}")
            failed += abs(len(episodes) - self.n)
        bad = 0
        for ep, s, (gate, before, after) in zip(episodes, self.specs, self.expected):
            if (ep["id"], ep["gate"], ep["correct_before"], ep["correct_after"]) != (s["id"], gate, before, after):
                bad += 1
        if bad:
            notes.append(f"{bad} episodes differ from the recount")
        manifest = _read_json(out / "manifest.json")
        metrics = _read_json(out / "metrics.json")
        gated = sum(1 for g, _, _ in self.expected if g != "kept")
        checks = {
            "resolved_tau": (manifest.get("resolved_tau"), self.tau),
            "backend_calls": (manifest.get("backend_calls"), self.calls),
            "accuracy_before": (metrics.get("accuracy_before"), sum(b for _, b, _ in self.expected) / self.n),
            "accuracy_after": (metrics.get("accuracy_after"), sum(a for _, _, a in self.expected) / self.n),
            "eta": (metrics.get("eta"), gated / self.n),
        }
        for key, (got, want) in checks.items():
            if not isinstance(got, (int, float)) or not _close(got, want):
                notes.append(f"{key} {got!r}, recount {want!r}")
                bad += 1
        return self.n + len(result["commands"]), failed + bad, notes


class HttpLatency(Workload):
    """``run --mode decompose_all --concurrency 2`` against the loopback stub."""

    name = "http-latency"
    concurrency = 2
    # Most of the wall time is the stub's injected latency.
    cpu_bound = False
    timed = ("run",)
    median_ms = 5.0
    sigma = 0.35

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.n = max(8, int(80 * scale))
        rng = random.Random(seed)
        self.questions = [
            {"id": f"h{i:05d}", "image": f"img{i:05d}.jpg", "question": _question_text(rng, i),
             "answers": [rng.choice(("yes", "no"))]}
            for i in range(self.n)
        ]
        self.digest = None

    def setup(self, work: Path) -> dict:
        _write_jsonl(work / "dataset.jsonl", self.questions)
        stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--seed", str(self.seed),
             "--median-ms", str(self.median_ms), "--sigma", str(self.sigma)],
            stdout=subprocess.PIPE, text=True,
        )
        prep = {"stub_proc": stub}
        line = stub.stdout.readline()
        if not line.startswith("port "):
            self.teardown(prep)
            raise RuntimeError(f"stub server did not start: {line!r}")
        prep["url"] = f"http://127.0.0.1:{int(line.split()[1])}"
        prep["commands"] = [[
            "run", "--mode", "decompose_all", "--concurrency", str(self.concurrency), "--seed", "0",
            "--dataset", str(work / "dataset.jsonl"), "--recomposer-url", prep["url"],
            "--out", str(work / "out"),
        ]]
        prep["items"] = self.n
        prep["stub"] = {"seed": self.seed, "median_ms": self.median_ms, "sigma": self.sigma}
        return prep

    def after(self, prep: dict) -> None:
        with urllib.request.urlopen(prep["url"] + "/stats", timeout=10) as resp:
            prep["stats"] = json.load(resp)

    def teardown(self, prep: dict) -> None:
        stub = prep["stub_proc"]
        stub.terminate()
        try:
            stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            stub.kill()
            stub.wait()
        stub.stdout.close()

    def check(self, work: Path, result: dict, prep: dict):
        notes: list = []
        failed = _exit_failures(result, notes)
        out = work / "out"
        episodes = _read_jsonl(out / "episodes.jsonl")
        failed += sum(1 for ep in episodes if ep.get("failed"))
        bad = 0
        if [ep["id"] for ep in episodes] != [q["id"] for q in self.questions]:
            notes.append("episode ids differ from the dataset")
            bad += 1
        calls = 4 * self.n
        manifest = _read_json(out / "manifest.json")
        for key, got in (("backend_calls", manifest.get("backend_calls")),
                         ("stub requests", prep["stats"]["requests"])):
            if got != calls:
                notes.append(f"{key} {got!r}, expected {calls}")
                bad += 1
        digest = hashlib.sha256((out / "episodes.jsonl").read_bytes()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            notes.append("episodes.jsonl differs from the first repetition")
            bad += 1
        return self.n + len(result["commands"]), failed + bad, notes


def _episode_line(i: int, conf: float, before: bool, after: bool) -> str:
    return (
        f'{{"id": "sim{i:07d}", "initial": {{"text": "", "confidence": {conf!r}}}, '
        '"gate": "second_guessed", "subquestion": null, "subanswer": null, '
        f'"subanswer_provenance": null, "final": {{"text": "", "confidence": {conf!r}}}, '
        f'"correct_before": {"true" if before else "false"}, '
        f'"correct_after": {"true" if after else "false"}, '
        '"malformed_subquestion": false, "retries": 0}\n'
    )


class OfflineEval(Workload):
    """``metrics``, ``sweep`` over 101 percentiles, then ``simulate``; no
    model calls."""

    name = "offline-eval"
    timed = ("metrics", "sweep")
    acc, ecr, eic = 0.65, 0.3, 0.1
    default_percentiles = [float(p) for p in range(0, 101, 5)]
    percentiles = [float(p) for p in range(101)]
    taus = [i / 20 for i in range(21)]

    # Set by the self-test: flip one ``correct_after`` in the written log.
    corrupt = False

    def __init__(self, seed: int, scale: float) -> None:
        from secondguess import simulator

        self.simulator = simulator
        self.seed = seed
        self.n = max(20, int(8_000 * scale))
        self.sim_trials = max(1000, int(500_000 * scale))
        self.expected = None

    def _trials(self, n: int):
        cfg = self.simulator.SimConfig(
            base_accuracy=self.acc, e_cr=self.ecr, e_ic=self.eic, trials=n, seed=self.seed
        )
        t = self.simulator.generate_trials(cfg)
        return t.confidence, t.correct_before, t.correct_after

    def setup(self, work: Path) -> dict:
        conf, before, after = self._trials(self.n)
        # The log is written in the episode schema directly: the file format,
        # not a helper that builds one dict per episode, is the interface.
        with open(work / "episodes.jsonl", "w", encoding="utf-8") as fh:
            for i, (c, b, a) in enumerate(zip(conf.tolist(), before.tolist(), after.tolist())):
                if self.corrupt and i == 0:
                    a = not a
                fh.write(_episode_line(i, c, b, a))
        if self.expected is None:
            self.expected = self._recount(conf, before, after)
        log = str(work / "episodes.jsonl")
        commands = [
            ["metrics", "--log", log, "--out", str(work / "metrics")],
            ["sweep", "--log", log, "--percentiles", ",".join(f"{p:g}" for p in self.percentiles),
             "--out", str(work / "sweep")],
            ["simulate", "--acc", str(self.acc), "--ecr", str(self.ecr), "--eic", str(self.eic),
             "--trials", str(self.sim_trials), "--seed", str(self.seed), "--out", str(work / "simulate")],
        ]
        return {"commands": commands, "items": self.n}

    @staticmethod
    def _sweep(conf, before, after, percentiles) -> list:
        ordered = np.sort(conf)
        n = conf.size
        rows = []
        for p in percentiles:
            tau = 0.0 if p == 0 else float(ordered[math.ceil(p / 100.0 * n) - 1])
            gated = conf <= tau
            correct = int(np.where(gated, after, before).sum())
            rows.append((p, tau, math.log2(1.0 / tau) if tau > 0 else math.inf,
                         int(gated.sum()) / n, correct / n))
        return rows

    def _recount(self, conf, before, after) -> dict:
        n = conf.size
        wrong, right = ~before, before
        report = {
            "n": n,
            "accuracy_before": int(before.sum()) / n,
            "accuracy_after": int(after.sum()) / n,
            "e_cr_denominator": int(wrong.sum()),
            "e_cr": int((wrong & after).sum()) / int(wrong.sum()),
            "e_ic_denominator": int(right.sum()),
            "e_ic": int((right & ~after).sum()) / int(right.sum()),
            "eta": 1.0,
            "failures": 0,
        }
        sim_conf, sim_before, sim_after = self._trials(self.sim_trials)
        simulated = []
        for tau in self.taus:
            gated = sim_conf <= tau
            eta = int(gated.sum()) / sim_conf.size
            acc = int(np.where(gated, sim_after, sim_before).sum()) / sim_conf.size
            simulated.append((eta * 100.0, tau, math.log2(1.0 / tau) if tau > 0 else math.inf, eta, acc))
        return {
            "report": report,
            "metrics_sweep": self._sweep(conf, before, after, self.default_percentiles),
            "sweep": self._sweep(conf, before, after, self.percentiles),
            "simulated": simulated,
        }

    @staticmethod
    def _compare_csv(path: Path, expected: list, label: str, notes: list) -> int:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != len(expected):
            notes.append(f"{label}: {len(rows)} points, expected {len(expected)}")
            return abs(len(rows) - len(expected)) or 1
        bad = 0
        for row, want in zip(rows, expected):
            if not all(_close(float(g), w) for g, w in zip(row, want)):
                bad += 1
        if bad:
            notes.append(f"{label}: {bad} points differ from the recount")
        return bad

    def check(self, work: Path, result: dict, prep: dict):
        notes: list = []
        failed = _exit_failures(result, notes)
        expected = self.expected
        bad = 0
        report = _read_json(work / "metrics" / "metrics.json")
        for key, want in expected["report"].items():
            got = report.get(key)
            if not isinstance(got, (int, float)) or not _close(got, want):
                notes.append(f"metrics.json {key} {got!r}, recount {want!r}")
                bad += 1
        bad += self._compare_csv(work / "metrics" / "sweep.csv", expected["metrics_sweep"], "metrics sweep.csv", notes)
        bad += self._compare_csv(work / "sweep" / "sweep.csv", expected["sweep"], "sweep.csv", notes)
        bad += self._compare_csv(work / "simulate" / "simulated_sweep.csv", expected["simulated"], "simulated_sweep.csv", notes)
        return self.n + len(result["commands"]), failed + bad, notes


WORKLOADS = {cls.name: cls for cls in (MockSelective, HttpLatency, OfflineEval)}
