"""Selective decomposition over a question stream: one chain per question.

Every mode runs the same chain, one task per question: the question is asked
for an initial answer and its confidence, the gate keeps the answer or
second-guesses it, and a second-guessed question gets a decomposition and is
re-answered with it as context. Only a percentile tau waits for every initial
answer before it gates any. The modes differ only in the gate and in where
the sub-QAs come from: ``direct`` keeps every answer; ``decompose_all`` and
``selective`` (confidence at or below tau) use a model-written subquestion
answered by the model; the oracle modes second-guess every question with its
human-written sub-QAs, as given, stripped, scrambled or self-answered. Every
question yields one auditable EpisodeRecord, and the log is written once, at
the end of the run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import evaluation, prompts
from .backend import (
    ANSWER_PARAMS,
    DECOMPOSE_PARAMS,
    Backend,
    BackendError,
    BackendRole,
    InferenceRequest,
    InferenceResult,
    confidence_of,
)
from .dataset import CHUNK_LINES, DatasetError, VisualQuestion, parse_jsonl_lines, read_chunks
from .prompts import DecompositionContext, SubQA

MODES = (
    "direct",
    "decompose_all",
    "selective",
    "oracle_oracle",
    "oracle_self_answer",
    "oracle_no_answer",
    "oracle_scrambled",
)
ORACLE_MODES = MODES[3:]
SCORINGS = ("exact", "vqa_consensus")


class ConfigError(Exception):
    """Invalid pipeline configuration."""


@dataclass
class PipelineConfig:
    mode: str
    tau: Optional[float] = None
    tau_percentile: Optional[float] = None
    seed: int = 0
    concurrency: int = 1
    scoring: str = "exact"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.tau is not None and not (0.0 <= self.tau <= 1.0):
            raise ConfigError("tau must be in [0, 1]")
        if self.tau_percentile is not None and not (0.0 <= self.tau_percentile <= 100.0):
            raise ConfigError("tau_percentile must be in [0, 100]")
        if self.mode == "selective":
            if (self.tau is None) == (self.tau_percentile is None):
                raise ConfigError(
                    "selective mode requires exactly one of tau / tau_percentile"
                )
        elif self.tau is not None or self.tau_percentile is not None:
            raise ConfigError(f"mode {self.mode!r} does not take a threshold")
        if self.concurrency < 1:
            raise ConfigError("concurrency must be positive")
        if self.scoring not in SCORINGS:
            raise ConfigError(f"unknown scoring {self.scoring!r}")


@dataclass(frozen=True)
class AnswerOutcome:
    text: str
    confidence: float


@dataclass(kw_only=True)
class EpisodeRecord:
    id: str
    initial: AnswerOutcome
    gate: str = "kept"  # "kept" | "second_guessed"
    subquestion: Optional[str] = None
    subanswer: Optional[str] = None
    subanswer_provenance: Optional[str] = None  # "oracle" | "model" | None
    final: AnswerOutcome
    correct_before: bool
    correct_after: bool
    malformed_subquestion: bool = False
    failed: bool = False

    def to_json(self) -> str:
        """The record's log line: its fields in order, ``failed`` only when
        true, and each AnswerOutcome as its own fields."""
        return json.dumps(
            {k: v for k, v in vars(self).items() if k != "failed" or v},
            ensure_ascii=False,
            default=vars,
        )


@dataclass
class RunSummary:
    episodes: int = 0
    new_episodes: int = 0
    failures: int = 0
    backend_calls: int = 0
    retries: int = 0
    skipped_missing_oracle: int = 0
    resolved_tau: Optional[float] = None


def _scramble_seed(root_seed: int, question_id: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{question_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


RECOMPOSER = BackendRole("recomposer")
DECOMPOSER = BackendRole("decomposer")


class Engine:
    """Binds decomposer/recomposer backends and issues the per-question
    call chain. Thread-safe; questions may be processed concurrently."""

    def __init__(
        self,
        recomposer: Backend,
        decomposer: Backend,
        decomposer_prompt_style: str = "decompose_default",
    ) -> None:
        self.recomposer = recomposer
        self.decomposer = decomposer
        self.decomposer_prompt_style = decomposer_prompt_style
        self._lock = threading.Lock()
        self.recomposer_calls = 0
        self.decomposer_calls = 0
        self.retries = 0  # transport retries of the calls that returned

    def _call(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        with self._lock:
            if role is RECOMPOSER:
                self.recomposer_calls += 1
            else:
                self.decomposer_calls += 1
        backend = self.recomposer if role is RECOMPOSER else self.decomposer
        result = backend.complete(request, role)
        with self._lock:
            self.retries += result.retries
        return result

    def answer(self, question: VisualQuestion, stage: str, prompt: str) -> AnswerOutcome:
        """One recomposer call about the question's image; ``stage`` is the
        request-id suffix: initial, suba<i> or recompose."""
        request = InferenceRequest(
            prompt=prompt,
            params=ANSWER_PARAMS,
            request_id=f"{question.id}#{stage}",
            image=question.image,
        )
        result = self._call(request, RECOMPOSER)
        return AnswerOutcome(result.text, confidence_of(result))

    def generate_subquestion(self, question: VisualQuestion):
        """Returns (subquestion text, malformed flag). The raw
        generation is truncated at the first newline; empty or
        non-question-shaped output is flagged malformed but still used.
        The decomposer is text-only, so no image is sent."""
        request = InferenceRequest(
            prompt=prompts.render_decompose(
                question.question, self.decomposer_prompt_style
            ),
            params=DECOMPOSE_PARAMS,
            request_id=f"{question.id}#subq",
        )
        result = self._call(request, DECOMPOSER)
        text = result.text.split("\n", 1)[0]
        malformed = not text.strip() or not text.rstrip().endswith("?")
        return text, malformed


def _correct(outcome: AnswerOutcome, question: VisualQuestion, scoring: str) -> bool:
    return evaluation.is_match(outcome.text, list(question.answers), scoring=scoring)


def _failed_episode(question: VisualQuestion) -> EpisodeRecord:
    empty = AnswerOutcome(text="", confidence=0.0)
    return EpisodeRecord(
        id=question.id,
        initial=empty,
        final=empty,
        correct_before=False,
        correct_after=False,
        failed=True,
    )


def _self_answer(engine: Engine, question: VisualQuestion, ctx: DecompositionContext):
    """Answer each subquestion with the recomposer (stage suba<i>)."""
    answered = []
    for index, qa in enumerate(ctx.sub_qas):
        outcome = engine.answer(
            question, f"suba{index}", prompts.render_direct_qa(qa.question)
        )
        answered.append(SubQA(qa.question, outcome.text))
    return DecompositionContext(answered)


def _context(engine: Engine, question: VisualQuestion, cfg: PipelineConfig):
    """(ctx, provenance, malformed) to recompose the question from."""
    if cfg.mode not in ORACLE_MODES:
        subq, malformed = engine.generate_subquestion(question)
        ctx = DecompositionContext([SubQA(subq, None)])
        if not subq.strip():
            # Degenerate generation: skip sub-answering, recompose answerless.
            return ctx, None, malformed
        return _self_answer(engine, question, ctx), "model", malformed
    ctx = DecompositionContext(list(question.oracle_sub_qas))
    if cfg.mode == "oracle_self_answer":
        return _self_answer(engine, question, ctx), "model", False
    if cfg.mode == "oracle_no_answer":
        ctx = prompts.perturb_strip_answers(ctx)
    elif cfg.mode == "oracle_scrambled":
        ctx = prompts.perturb_scramble(ctx, _scramble_seed(cfg.seed, question.id))
    return ctx, "oracle", False


def _episode(
    engine: Engine,
    question: VisualQuestion,
    initial: Optional[AnswerOutcome],
    cfg: PipelineConfig,
    tau: Optional[float],
) -> EpisodeRecord:
    """Gate one initial answer and second-guess it if needed. A backend
    failure anywhere in the question's chain yields a failed record."""
    if initial is None:
        return _failed_episode(question)
    correct_before = _correct(initial, question, cfg.scoring)
    # Gate: keep iff strictly above tau; ties are second-guessed. Oracle
    # modes have no tau and second-guess every question.
    if cfg.mode == "direct" or (tau is not None and initial.confidence > tau):
        return EpisodeRecord(
            id=question.id,
            initial=initial,
            final=initial,
            correct_before=correct_before,
            correct_after=correct_before,
        )
    try:
        ctx, provenance, malformed = _context(engine, question, cfg)
        final = engine.answer(
            question, "recompose", prompts.render_recompose(question.question, ctx)
        )
    except BackendError:
        return _failed_episode(question)
    answers = [qa.answer for qa in ctx.sub_qas]
    return EpisodeRecord(
        id=question.id,
        initial=initial,
        gate="second_guessed",
        subquestion=" | ".join(qa.question for qa in ctx.sub_qas),
        subanswer=None
        if all(a is None for a in answers)
        else " | ".join(a or "" for a in answers),
        subanswer_provenance=provenance,
        final=final,
        correct_before=correct_before,
        correct_after=_correct(final, question, cfg.scoring),
        malformed_subquestion=malformed,
    )


_GATES = ("kept", "second_guessed")


def _chunk_columns(records: list, seen: set):
    """The EpisodeColumns fields of a chunk of parsed log records, as a tuple,
    or the message of the first rule that a record breaks, in the order
    checked below. The last rule is that no id repeats one of the chunk or
    of ``seen``; a chunk that passes adds its ids to ``seen``. Each rule is
    checked over the whole chunk at once, so the message describes a record
    only when the chunk is that one record."""
    if not set(map(type, records)) <= {dict}:
        return "expected a JSON object"
    ids = [r.get("id") for r in records]
    if not set(map(type, ids)) <= {str}:
        return "id must be a string"
    failed = [r.get("failed", False) for r in records]
    if not set(map(type, failed)) <= {bool}:
        return "failed must be true or false"
    out_of_range = "initial.confidence must be a number in [0, 1]"
    initials = [r.get("initial") for r in records]
    if not set(map(type, initials)) <= {dict}:
        return out_of_range
    confidence = [i.get("confidence") for i in initials]
    # bool is an int subclass, but true/false is no confidence.
    if not set(map(type, confidence)) <= {int, float}:
        return out_of_range
    try:
        confidence = np.array(confidence, dtype=float)
    except OverflowError:  # an integer beyond any float, so out of range
        return out_of_range
    # NaN fails both comparisons.
    if not ((confidence >= 0.0) & (confidence <= 1.0)).all():
        return out_of_range
    failed = np.array(failed, dtype=bool)
    # Only a failed record's confidence is 0: tau = 0 must gate no answer.
    if not ((confidence > 0.0) | failed).all():
        return "initial.confidence must be above 0 unless the episode failed"
    gates = [r.get("gate") for r in records]
    if not (set(map(type, gates)) <= {str} and set(gates).issubset(_GATES)):
        return "gate must be 'kept' or 'second_guessed'"
    before = [r.get("correct_before") for r in records]
    after = [r.get("correct_after") for r in records]
    for key, column in (("correct_before", before), ("correct_after", after)):
        if not set(map(type, column)) <= {bool}:
            return f"{key} must be true or false"
    fresh = set(ids)
    if len(fresh) < len(ids) or not seen.isdisjoint(fresh):
        return f"duplicate id {ids[0]!r}"
    seen |= fresh
    return (
        ids,
        failed,
        confidence,
        np.array([gate == "second_guessed" for gate in gates], dtype=bool),
        np.array(before, dtype=bool),
        np.array(after, dtype=bool),
    )


def _read_chunk(path, start: int, lines: List[str], seen: set):
    """``_chunk_columns`` of the log lines numbered from ``start``, their
    non-blank ones parsed by one json.loads (``dataset.CHUNK_LINES`` gives
    the chunk size and why). A chunk that fails is re-read line by line, each
    record checked alone, raising the DatasetError of its first bad line."""
    values = [line for line in lines if not line.isspace()]
    # Bad JSON raises a JSONDecodeError, an integer past the interpreter's
    # int-string conversion limit a plain ValueError.
    try:
        records = json.loads("[" + ",".join(values) + "]")
    except (ValueError, RecursionError):
        records = None
    # A line that holds two values, or a torn line the next one completes,
    # changes the count. (A log crafted to do both at once, into records
    # that pass every check, is read as the records it parses to.)
    if records is not None and len(records) == len(values):
        columns = _chunk_columns(records, seen)
        if not isinstance(columns, str):
            return columns
    line_seen = set(seen)
    for lineno, record in parse_jsonl_lines(path, start, lines):
        problem = _chunk_columns([record], line_seen)
        if isinstance(problem, str):
            raise DatasetError(f"{path}:{lineno}: {problem}")
    raise AssertionError(f"{path}: a chunk failed its check but none of its lines did")


def read_episode_log(path) -> evaluation.EpisodeColumns:
    """The columns of a JSONL episode log, read CHUNK_LINES lines at a time
    with no dict kept per episode. A line that is no JSON object, lacks a
    field the evaluation reads, repeats an id or holds a byte that is not
    UTF-8 raises DatasetError naming ``path:line``, for the first such line
    in the file."""
    seen = set()
    chunks = [_read_chunk(path, start, lines, seen) for start, lines in read_chunks(path, CHUNK_LINES)]
    # An empty chunk types the columns of an empty log.
    ids, *columns = zip(_read_chunk(path, 1, [], seen), *chunks)
    return evaluation.EpisodeColumns(
        list(itertools.chain.from_iterable(ids)), *map(np.concatenate, columns)
    )


def _initial(engine: Engine, question: VisualQuestion) -> Optional[AnswerOutcome]:
    """The question's initial answer, or None if its call failed."""
    try:
        return engine.answer(
            question, "initial", prompts.render_direct_qa(question.question)
        )
    except BackendError:
        return None


def run(
    questions: Sequence[VisualQuestion],
    cfg: PipelineConfig,
    engine: Engine,
    sink_path,
) -> RunSummary:
    """Run one pipeline mode over the questions into a resumable JSONL sink.

    Questions whose ids the sink already holds are skipped, so the finished
    log holds one episode per question; the summary counts the whole log.
    Each pending question's chain is one task, and the new episodes are
    appended in dataset order once the last one is done. Per-episode backend
    failures are isolated into failed records; only dataset/config problems
    abort the run.
    """
    sink_path = Path(sink_path)
    summary = RunSummary()
    if sink_path.exists():
        log = read_episode_log(sink_path)
        summary.episodes, summary.failures = len(log.ids), int(log.failed.sum())
        done = set(log.ids)
        questions = [q for q in questions if q.id not in done]
    if cfg.mode in ORACLE_MODES:
        usable = [q for q in questions if q.oracle_sub_qas]
        summary.skipped_missing_oracle = len(questions) - len(usable)
        questions = usable

    tau = {"decompose_all": 1.0, "selective": cfg.tau}.get(cfg.mode)
    # One pool serves the run: at most `concurrency` worker threads, and an
    # HTTP backend keeps one connection per thread. At concurrency 1 the
    # tasks run inline, cheaper than a thread handoff.
    with ThreadPoolExecutor(max_workers=cfg.concurrency) as pool:
        map_ = pool.map if cfg.concurrency > 1 else map
        if cfg.tau_percentile is None:
            episodes = list(
                map_(lambda q: _episode(engine, q, _initial(engine, q), cfg, tau), questions)
            )
        else:
            # The one barrier: a percentile tau needs every initial confidence.
            # With none, tau stays None and every chain is a failed record.
            initials = list(map_(lambda q: _initial(engine, q), questions))
            confidences = [o.confidence for o in initials if o is not None]
            if confidences:
                tau = evaluation.percentile_to_tau(confidences, cfg.tau_percentile)
            episodes = list(
                map_(lambda q, o: _episode(engine, q, o, cfg, tau), questions, initials)
            )

    summary.resolved_tau = tau
    summary.new_episodes = len(episodes)
    summary.episodes += len(episodes)
    summary.failures += sum(ep.failed for ep in episodes)
    summary.backend_calls = engine.recomposer_calls + engine.decomposer_calls
    summary.retries = engine.retries
    with open(sink_path, "a", encoding="utf-8") as fh:
        for ep in episodes:
            fh.write(ep.to_json() + "\n")
    return summary
