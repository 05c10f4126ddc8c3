"""Shared fixtures: scripted mock backends, test-only backend wrappers and
brute-force metric recounts."""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np
import pytest

from secondguess.backend import (
    DEFAULT_RETRY_ATTEMPTS,
    Backend,
    BackendRole,
    InferenceRequest,
    InferenceResult,
    MockBackend,
    MockEntry,
    TransportError,
    _with_retries,
)
from secondguess.dataset import VisualQuestion
from secondguess.simulator import SimTrials


@dataclass
class QSpec:
    """Fully scripted trajectory for one question."""

    qid: str
    question: str
    answer: str  # ground truth
    initial_text: str
    initial_conf: float
    sub_q: str = "is it visible?"
    sub_a: str = "yes"
    final_text: str = "unknown"


def spec_questions(specs: Sequence[QSpec]) -> List[VisualQuestion]:
    return [
        VisualQuestion(
            id=s.qid,
            image=f"{s.qid}.jpg",
            question=s.question,
            answers=(s.answer,),
        )
        for s in specs
    ]


def spec_entries(specs: Sequence[QSpec]) -> List[MockEntry]:
    """Mock script entries covering the full three-call chain per question."""
    entries: List[MockEntry] = []
    for s in specs:
        sub_q = s.sub_q.rstrip("?")
        main_q = s.question.rstrip("?")
        entries.append(
            MockEntry(
                prompt_contains=f"Context: {sub_q}? {s.sub_a}. Question: {main_q}?",
                role="recomposer",
                text=s.final_text,
                token_logprobs=(math.log(0.8),),
            )
        )
        entries.append(
            MockEntry(
                prompt_contains=f"Question: {s.sub_q} Short Answer:",
                role="recomposer",
                text=s.sub_a,
                token_logprobs=(math.log(0.7),),
            )
        )
        entries.append(
            MockEntry(
                prompt_contains=f"Question: {s.question} Short Answer:",
                role="recomposer",
                text=s.initial_text,
                token_logprobs=(math.log(s.initial_conf),),
            )
        )
        entries.append(
            MockEntry(
                prompt_contains=f"Reasoning Question: {s.question} Perception Question:",
                role="decomposer",
                text=s.sub_q,
                token_logprobs=(math.log(0.6),),
            )
        )
    return entries


@dataclass
class FlakyBackend:
    """Fails with transport errors a fixed number of times per request
    before delegating, so retry behavior is exercised without a server."""

    inner: Backend
    failures_before_success: int
    attempts: int = DEFAULT_RETRY_ATTEMPTS
    base_delay: float = 0.0
    _failed: dict = field(default_factory=dict)

    def complete(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        def attempt() -> InferenceResult:
            seen = self._failed.get(request.request_id, 0)
            if seen < self.failures_before_success:
                self._failed[request.request_id] = seen + 1
                raise TransportError("injected transport fault")
            return self.inner.complete(request, role)

        return _with_retries(attempt, self.attempts, self.base_delay, lambda _: None)


class RecordingBackend:
    """Delegates to ``inner`` and records each call as (request_id, role,
    prompt), and the peak number of calls in flight at once."""

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self.call_log: list = []
        self.max_in_flight = 0
        self._in_flight = 0
        self._lock = threading.Lock()

    def complete(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        with self._lock:
            self._in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)
            self.call_log.append((request.request_id, role.role, request.prompt))
        try:
            return self.inner.complete(request, role)
        finally:
            with self._lock:
                self._in_flight -= 1


def spec_backend(specs: Sequence[QSpec]) -> MockBackend:
    return MockBackend(spec_entries(specs))


def write_script(specs: Sequence[QSpec], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in spec_entries(specs):
            fh.write(
                json.dumps(
                    {
                        "match": {
                            "prompt_contains": entry.prompt_contains,
                            "role": entry.role,
                        },
                        "response": {
                            "text": entry.text,
                            "token_logprobs": list(entry.token_logprobs),
                        },
                    }
                )
                + "\n"
            )


# A four-question fixture with one low-confidence wrong answer whose
# recomposition flips it to correct.
FOUR_EPISODE_SPECS = [
    QSpec("q1", "is the sky blue?", "yes", "yes", 0.9, "is it daytime?", "yes", "yes"),
    QSpec("q2", "is it raining?", "no", "no", 0.8, "are there clouds?", "no", "no"),
    QSpec("q3", "is the cat asleep?", "yes", "no", 0.2, "are its eyes shut?", "yes", "yes"),
    QSpec("q4", "is the door open?", "no", "no", 0.7, "is there a gap?", "no", "no"),
]


@pytest.fixture
def four_specs():
    return FOUR_EPISODE_SPECS


# Independent brute-force recounts used as oracles against the evaluation
# module. Deliberately written as plain loops over the raw dicts.

def brute_accuracy(episodes, phase):
    valid = [ep for ep in episodes if not ep.get("failed")]
    return sum(1 for ep in valid if ep[f"correct_{phase}"]) / len(valid)


def brute_ecr(episodes):
    wrong = [
        ep
        for ep in episodes
        if not ep.get("failed")
        and ep["gate"] == "second_guessed"
        and not ep["correct_before"]
    ]
    if not wrong:
        return None
    return sum(1 for ep in wrong if ep["correct_after"]) / len(wrong)


def brute_eic(episodes):
    right = [
        ep
        for ep in episodes
        if not ep.get("failed")
        and ep["gate"] == "second_guessed"
        and ep["correct_before"]
    ]
    if not right:
        return None
    return sum(1 for ep in right if not ep["correct_after"]) / len(right)


def brute_sweep_accuracy(episodes, tau):
    """Gate replay by direct enumeration, independent of evaluation.sweep."""
    valid = [ep for ep in episodes if not ep.get("failed")]
    correct = 0
    for ep in valid:
        if ep["initial"]["confidence"] <= tau:
            correct += ep["correct_after"]
        else:
            correct += ep["correct_before"]
    return correct / len(valid)


# Per-threshold references over the simulator's frozen trials, independent
# of evaluation.replay.

def accuracy_at_tau(trials: SimTrials, tau: float) -> tuple:
    """(accuracy, eta, stderr) when gating the frozen trials at tau."""
    gated = trials.confidence <= tau
    outcome = np.where(gated, trials.correct_after, trials.correct_before)
    n = outcome.size
    acc = float(outcome.mean())
    stderr = math.sqrt(acc * (1.0 - acc) / n)
    return acc, float(gated.mean()), stderr


def trials_to_episodes(trials: SimTrials) -> List[dict]:
    """Express the synthetic population as a decompose-all episode log so
    the evaluation module can replay the gate independently."""
    episodes = []
    for i in range(trials.confidence.size):
        before = bool(trials.correct_before[i])
        after = bool(trials.correct_after[i])
        episodes.append(
            {
                "id": f"sim{i:07d}",
                "initial": {"text": "", "confidence": float(trials.confidence[i])},
                "gate": "second_guessed",
                "subquestion": None,
                "subanswer": None,
                "subanswer_provenance": None,
                "final": {"text": "", "confidence": float(trials.confidence[i])},
                "correct_before": before,
                "correct_after": after,
                "malformed_subquestion": False,
                "retries": 0,
            }
        )
    return episodes
