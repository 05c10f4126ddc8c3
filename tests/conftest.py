"""Shared fixtures: scripted mock backends, test-only backend wrappers, a
pipeline run that returns its records, a loopback generation server,
line-by-line readers of episode logs and mock scripts, brute-force metric
recounts, and a guard on the cyclic collector's state around every test."""

from __future__ import annotations

import gc
import itertools
import json
import math
import tempfile
import threading
from array import array
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
import pytest

from secondguess import pipeline
from secondguess.backend import (
    DEFAULT_RETRY_ATTEMPTS,
    Backend,
    BackendRole,
    InferenceRequest,
    InferenceResult,
    MockBackend,
    MockEntry,
    SamplingParams,
    TransportError,
    _with_retries,
)
from secondguess.dataset import DatasetError, VisualQuestion
from secondguess.evaluation import EpisodeColumns
from secondguess.pipeline import Engine, PipelineConfig, read_episode_log
from secondguess.simulator import SimTrials


# JSON nested far deeper than the decoder's recursion limit: every reader of
# outside input must reject it with its documented error, not a traceback.
# Short enough for hypothesis to print a failing log that holds it.
NESTED_TOO_DEEP = "[" * 20_000
# Two more such inputs. ``raw`` writes NOT_UTF8, a lone surrogate, as the
# byte 0xff, which no UTF-8 text holds; LONG_INTEGER is a JSON integer past
# the interpreter's 4,300-digit int-string conversion limit.
NOT_UTF8 = "\udcff"
LONG_INTEGER = "1" * 5_000


def raw(text: str) -> bytes:
    """The file bytes of JSON ``text`` that holds the inputs above: a quoted
    LONG_INTEGER loses its quotes, and NOT_UTF8 becomes the byte 0xff."""
    return text.replace(f'"{LONG_INTEGER}"', LONG_INTEGER).encode("utf-8", "surrogateescape")


@pytest.fixture(autouse=True)
def collector_state_guard():
    """Fail a test that leaves the cyclic collector disabled or objects
    frozen, as a command whose exit skipped ``cli``'s restore of the
    collector would; the state is restored first, so the next test starts
    clean."""
    yield
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    gc.enable()
    gc.unfreeze()
    assert enabled, "the test left the cyclic collector disabled"
    assert frozen == 0, f"the test left {frozen} objects frozen"


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
    """Fails with transport errors before delegating, so retry behavior is
    exercised without a server: ``failures_before_success`` times for every
    request, or, given a mapping, as many times as it holds for the request
    id (none for an id it lacks). ``injected`` counts faults per request id."""

    inner: Backend
    failures_before_success: Union[int, Mapping[str, int]]
    attempts: int = DEFAULT_RETRY_ATTEMPTS
    base_delay: float = 0.0
    injected: dict = field(default_factory=dict)

    def complete(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        failures = self.failures_before_success
        if not isinstance(failures, int):
            failures = failures.get(request.request_id, 0)

        def attempt() -> InferenceResult:
            seen = self.injected.get(request.request_id, 0)
            if seen < failures:
                self.injected[request.request_id] = seen + 1
                raise TransportError("injected transport fault")
            return self.inner.complete(request, role)

        return _with_retries(attempt, self.attempts, self.base_delay, lambda _: None)


class Call(NamedTuple):
    """One request a RecordingBackend passed on."""

    request_id: str
    role: str
    prompt: str
    image: Optional[str]
    params: SamplingParams


class RecordingBackend:
    """Delegates to ``inner`` and records each call as a Call, and the peak
    number of calls in flight at once."""

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
            self.call_log.append(
                Call(request.request_id, role.role, request.prompt, request.image,
                     request.params)
            )
        try:
            return self.inner.complete(request, role)
        finally:
            with self._lock:
                self._in_flight -= 1


def spec_backend(specs: Sequence[QSpec]) -> MockBackend:
    return MockBackend(spec_entries(specs))


def read_records(path) -> List[dict]:
    """The records of a JSONL episode log, as dicts."""
    return [json.loads(line) for line in Path(path).read_text("utf-8").splitlines()]


def run_records(questions, cfg: PipelineConfig, engine: Engine) -> List[dict]:
    """The records ``pipeline.run`` writes into a fresh sink, as dicts."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "episodes.jsonl"
        pipeline.run(questions, cfg, engine, path)
        return read_records(path)


def run_mode(specs: Sequence[QSpec], mode: str, **cfg_kwargs):
    """Run one mode over scripted questions; returns (episode dicts, engine)
    for accuracy and call-count inspection."""
    backend = spec_backend(specs)
    engine = Engine(recomposer=backend, decomposer=backend)
    cfg = PipelineConfig(mode=mode, **cfg_kwargs)
    return run_records(spec_questions(specs), cfg, engine), engine


def linear_first_match(entries: Sequence[MockEntry], prompt: str, role: str):
    """The first entry of ``role`` whose pattern is in ``prompt``, or None:
    a scan of every entry, the reference for MockBackend's index."""
    for entry in entries:
        if entry.role == role and entry.prompt_contains in prompt:
            return entry
    return None


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


@dataclass(frozen=True)
class Reply:
    """One scripted outcome of a LoopbackServer POST. After waiting ``delay``
    seconds, send ``status`` with ``body`` (a JSON value, or raw bytes) and
    close the socket if ``close``; a ``status`` of None closes it unanswered.
    ``fields`` are (name, value) header fields that replace the server's own
    Content-Type and Content-Length, or join them."""

    status: Optional[int] = 200
    body: object = None
    close: bool = False
    delay: float = 0.0
    fields: Tuple[Tuple[str, str], ...] = ()


class LoopbackServer:
    """A generation endpoint on 127.0.0.1 for HTTPBackend tests.

    POSTs are answered from the ``outcomes`` queue, and once it is empty by
    ``respond(request JSON)``: a Reply, or a payload sent with status 200.
    Each reply goes out in one write on a TCP_NODELAY socket, so Nagle's
    algorithm and delayed ACKs add no latency. ``received`` holds (path,
    content type, raw body) per POST received, and ``fields`` its header
    fields as (name, value) pairs in the order sent; ``connections`` counts
    accepted connections.
    """

    def __init__(self, outcomes: Sequence[Reply] = (), respond: Optional[Callable] = None):
        self.outcomes = list(outcomes)
        self.respond = respond
        self.received: list = []
        self.fields: list = []
        self.connections = 0
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), self._handler())
        self._server.daemon_threads = True
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}"
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.02}
        )
        self._thread.start()

    def _next(self, path: str, headers, raw: bytes) -> Reply:
        with self._lock:
            self.received.append((path, headers["Content-Type"], raw))
            self.fields.append(headers.items())
            if self.outcomes:
                return self.outcomes.pop(0)
        reply = self.respond(json.loads(raw))
        return reply if isinstance(reply, Reply) else Reply(200, reply)

    def _handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def setup(self) -> None:
                super().setup()
                with server._lock:
                    server.connections += 1

            def do_POST(self) -> None:
                raw = self.rfile.read(int(self.headers["Content-Length"]))
                reply = server._next(self.path, self.headers, raw)
                # A stop during the delay ends the exchange unanswered.
                if server._stopped.wait(reply.delay) or reply.status is None:
                    self.close_connection = True
                    return
                body = reply.body
                if not isinstance(body, bytes):
                    body = json.dumps(body).encode("utf-8")
                fields = {
                    "Content-Type": "application/json",
                    "Content-Length": str(len(body)),
                    **dict(reply.fields),
                }
                head = (
                    f"HTTP/1.1 {reply.status} {self.responses[reply.status][0]}\r\n"
                    + "".join(f"{name}: {value}\r\n" for name, value in fields.items())
                    + "\r\n"
                ).encode("ascii")
                self.wfile.write(head + body)
                self.close_connection = reply.close

            def log_message(self, *args) -> None:
                pass

        return Handler

    def stop(self) -> None:
        self._stopped.set()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)


@pytest.fixture
def loopback():
    """Start LoopbackServers with ``loopback(outcomes, respond)``; each is
    stopped when the test ends."""
    servers = []

    def start(outcomes: Sequence[Reply] = (), respond: Optional[Callable] = None):
        servers.append(LoopbackServer(outcomes, respond))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


# Episode logs on disk: the reader every ported evaluation test goes through,
# and its reference.

def log_columns(episodes) -> EpisodeColumns:
    """The episode dicts written as a JSONL log and read back with
    ``read_episode_log``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "episodes.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for ep in episodes:
                fh.write(json.dumps(ep) + "\n")
        return read_episode_log(path)


def episode_problem(episode) -> Optional[str]:
    """Why a log record is no episode the evaluation can read, or None: the
    reference reader's own rules, written apart from the package's."""
    if not isinstance(episode, dict):
        return "expected a JSON object"
    if not isinstance(episode.get("id"), str):
        return "id must be a string"
    failed = episode.get("failed", False)
    if not isinstance(failed, bool):
        return "failed must be true or false"
    initial = episode.get("initial")
    confidence = initial.get("confidence") if isinstance(initial, dict) else None
    # bool is an int subclass, but true/false is no confidence.
    if (
        isinstance(confidence, bool)
        or not isinstance(confidence, (int, float))
        or not 0.0 <= confidence <= 1.0
    ):
        return "initial.confidence must be a number in [0, 1]"
    # Only a failed record's confidence is 0: tau = 0 must gate no answer.
    if confidence == 0.0 and not failed:
        return "initial.confidence must be above 0 unless the episode failed"
    if episode.get("gate") not in ("kept", "second_guessed"):
        return "gate must be 'kept' or 'second_guessed'"
    for key in ("correct_before", "correct_after"):
        if not isinstance(episode.get(key), bool):
            return f"{key} must be true or false"
    return None


# Escapes as a JSON line holds them: unpaired surrogates, which UTF-8 cannot
# encode, and the spellings of \\ud that decode to no unpaired one.
UNPAIRED = ["\\ud800", "\\uDFFF", "\\ude00\\ud83d"]
NOT_UNPAIRED = ["\\ud83d\\ude00", "\\uD83D\\uDE00", "\\\\ud800"]


def read_log_by_line(path) -> EpisodeColumns:
    """``read_episode_log``'s reference: one json.loads and one
    ``episode_problem`` per non-blank line, every dict kept, then a column
    per field. Raises the same DatasetError for the first bad line."""
    episodes, seen = [], set()
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                byte = exc.object[exc.start]
                raise DatasetError(f"{path}:{lineno}: byte {byte:#04x} is not UTF-8") from exc
            if not line.strip():
                continue
            try:
                ep = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            except ValueError as exc:  # an integer past the int-string limit
                raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            except RecursionError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON (nested too deeply)") from exc
            problem = episode_problem(ep)
            if problem is None and ep["id"] in seen:
                problem = f"duplicate id {ep['id']!r}"
            if problem:
                raise DatasetError(f"{path}:{lineno}: {problem}")
            seen.add(ep["id"])
            episodes.append(ep)
    valid = [ep for ep in episodes if not ep.get("failed", False)]
    return EpisodeColumns(
        ids=[ep["id"] for ep in episodes],
        failed=bytes(ep.get("failed", False) for ep in episodes),
        confidence=array("d", [ep["initial"]["confidence"] for ep in episodes]),
        second_guessed=bytes(ep["gate"] == "second_guessed" for ep in episodes),
        correct_before=bytes(ep["correct_before"] for ep in episodes),
        correct_after=bytes(ep["correct_after"] for ep in episodes),
        # The valid confidences of each class, (False, False) to (True, True),
        # each class sorted.
        by_class=array("d", [
            confidence
            for key in itertools.product((False, True), repeat=2)
            for confidence in sorted(
                ep["initial"]["confidence"] for ep in valid
                if (ep["correct_before"], ep["correct_after"]) == key
            )
        ]),
    )


# Mock scripts on disk: the reference reader of MockBackend.from_script.

def script_entry(obj) -> MockEntry:
    """The entry of one parsed mock script line: the reference reader's own
    rules, written apart from the package's, checked in the package's order.
    A broken rule raises KeyError or TypeError (a missing field, a value
    that is no object) or a ValueError, each with the package's message. A
    line has no cumulative log-probability, so no sum rule applies, and an
    integer log-probability is taken as its float."""
    match, response = obj["match"], obj["response"]
    pattern, role = match["prompt_contains"], match["role"]
    logprobs = response["token_logprobs"]
    if not isinstance(pattern, str):
        raise ValueError(f"prompt_contains must be a string, got {pattern!r}")
    if role not in ("decomposer", "recomposer"):
        raise ValueError(f"role must be one of ['decomposer', 'recomposer'], got {role!r}")
    text = response["text"]
    if not isinstance(text, str) or not text:
        raise ValueError(f"generated text must be a non-empty string, got {text!r}")
    if any(0xD800 <= ord(char) <= 0xDFFF for char in text):
        raise ValueError(f"generated text {text!r} is not valid Unicode")
    numbers = "token_logprobs must be a list of numbers, cumulative_logprob a number"
    if not isinstance(logprobs, list) or any(type(x) not in (int, float) for x in logprobs):
        raise ValueError(numbers)
    try:
        floats = [float(x) for x in logprobs]
    except OverflowError:
        raise ValueError("log-probability beyond float range") from None
    if any(x != x for x in floats):
        raise ValueError(numbers)
    if any(x > 0 for x in floats):
        raise ValueError("token log-probability above zero")
    return MockEntry(pattern, role, text, tuple(floats))


def read_script_by_line(path) -> List[MockEntry]:
    """``MockBackend.from_script``'s reference: each line decoded, parsed and
    checked alone, in file order, every entry kept. Raises the same
    DatasetError for the first bad line."""
    entries = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                byte = exc.object[exc.start]
                raise DatasetError(f"{path}:{lineno}: byte {byte:#04x} is not UTF-8") from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line.strip())
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            except ValueError as exc:  # an integer past the int-string limit
                raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            except RecursionError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON (nested too deeply)") from exc
            try:
                entries.append(script_entry(obj))
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from exc
    return entries


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


def brute_report(episodes, qtype_map):
    """Every MetricsReport field but tau and surprisal; ids missing from
    ``qtype_map`` count as "other"."""
    valid = [ep for ep in episodes if not ep.get("failed")]
    decomposed = [ep for ep in valid if ep["gate"] == "second_guessed"]
    before = brute_accuracy(episodes, "before")
    after = brute_accuracy(episodes, "after")
    per_qtype = {}
    for qtype in ("overall", "boolean", "number", "other"):
        subset = [
            ep
            for ep in valid
            if qtype == "overall" or qtype_map.get(ep["id"], "other") == qtype
        ]
        if subset:
            per_qtype[qtype] = {
                "n": len(subset),
                "accuracy_before": brute_accuracy(subset, "before"),
                "accuracy_after": brute_accuracy(subset, "after"),
            }
    return {
        "n": len(valid),
        "accuracy_before": before,
        "accuracy_after": after,
        "net_gain": (after - before) * 100.0,
        "e_cr": brute_ecr(episodes),
        "e_cr_denominator": sum(1 for ep in decomposed if not ep["correct_before"]),
        "e_ic": brute_eic(episodes),
        "e_ic_denominator": sum(1 for ep in decomposed if ep["correct_before"]),
        "eta": len(decomposed) / len(valid),
        "failures": len(episodes) - len(valid),
        "per_qtype": per_qtype,
    }


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
