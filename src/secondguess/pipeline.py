"""Selective decomposition over a question stream: one chain per question.

Every mode runs the same chain. Phase 1 asks every question for an initial
answer and its confidence. Phase 2 gates each answer and, if it is
second-guessed, builds a decomposition and re-answers the question with it
as context. The modes differ only in the gate and in where the sub-QAs come
from: ``direct`` keeps every answer; ``decompose_all`` and ``selective``
(confidence at or below tau) use a model-written subquestion answered by the
model; the oracle modes second-guess every question with its human-written
sub-QAs, as given, stripped, scrambled or self-answered. Every question
yields one auditable EpisodeRecord.
"""

from __future__ import annotations

import hashlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from . import evaluation, prompts
from .backend import (
    Backend,
    BackendError,
    BackendRole,
    InferenceRequest,
    InferenceResult,
    confidence_of,
    default_params,
)
from .dataset import DatasetError, VisualQuestion
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
        if self.scoring not in ("exact", "vqa_consensus"):
            raise ConfigError(f"unknown scoring {self.scoring!r}")


@dataclass(frozen=True)
class AnswerOutcome:
    text: str
    confidence: float
    retries: int = 0


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
    retries: int = 0
    failed: bool = False

    def to_obj(self) -> dict:
        obj = {
            "id": self.id,
            "initial": {"text": self.initial.text, "confidence": self.initial.confidence},
            "gate": self.gate,
            "subquestion": self.subquestion,
            "subanswer": self.subanswer,
            "subanswer_provenance": self.subanswer_provenance,
            "final": {"text": self.final.text, "confidence": self.final.confidence},
            "correct_before": self.correct_before,
            "correct_after": self.correct_after,
            "malformed_subquestion": self.malformed_subquestion,
            "retries": self.retries,
        }
        if self.failed:
            obj["failed"] = True
        return obj


@dataclass
class RunSummary:
    episodes: int = 0
    new_episodes: int = 0
    failures: int = 0
    backend_calls: int = 0
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
        decomposer: Optional[Backend] = None,
        decomposer_prompt_style: str = "decompose_default",
    ) -> None:
        self.recomposer = recomposer
        self.decomposer = decomposer
        self.decomposer_prompt_style = decomposer_prompt_style
        self._lock = threading.Lock()
        self.recomposer_calls = 0
        self.decomposer_calls = 0

    def _call(self, backend: Backend, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        with self._lock:
            if role is RECOMPOSER:
                self.recomposer_calls += 1
            else:
                self.decomposer_calls += 1
        return backend.complete(request, role)

    def answer(self, question: VisualQuestion, stage: str, prompt: str) -> AnswerOutcome:
        """One recomposer call about the question's image; ``stage`` is the
        request-id suffix: initial, suba<i> or recompose."""
        request = InferenceRequest(
            prompt=prompt,
            params=default_params("answer"),
            request_id=f"{question.id}#{stage}",
            image=question.image,
        )
        result = self._call(self.recomposer, request, RECOMPOSER)
        return AnswerOutcome(result.text, confidence_of(result), result.retries)

    def generate_subquestion(self, question: VisualQuestion):
        """Returns (subquestion text, malformed flag, retries). The raw
        generation is truncated at the first newline; empty or
        non-question-shaped output is flagged malformed but still used.
        The decomposer is text-only, so no image is sent."""
        if self.decomposer is None:
            raise ConfigError("decomposer backend not configured")
        request = InferenceRequest(
            prompt=prompts.render_decompose(
                question.question, self.decomposer_prompt_style
            ),
            params=default_params("decompose"),
            request_id=f"{question.id}#subq",
        )
        result = self._call(self.decomposer, request, DECOMPOSER)
        text = result.text.split("\n", 1)[0]
        malformed = not text.strip() or not text.rstrip().endswith("?")
        return text, malformed, result.retries


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
    """Answer each subquestion with the recomposer (stage suba<i>).
    Returns (answered ctx, retries)."""
    answered, retries = [], 0
    for index, qa in enumerate(ctx.sub_qas):
        outcome = engine.answer(
            question, f"suba{index}", prompts.render_direct_qa(qa.question)
        )
        retries += outcome.retries
        answered.append(SubQA(qa.question, outcome.text))
    return DecompositionContext(answered), retries


def _context(engine: Engine, question: VisualQuestion, cfg: PipelineConfig):
    """(ctx, provenance, malformed, retries) to recompose the question from."""
    if cfg.mode not in ORACLE_MODES:
        subq, malformed, retries = engine.generate_subquestion(question)
        ctx = DecompositionContext([SubQA(subq, None)])
        if not subq.strip():
            # Degenerate generation: skip sub-answering, recompose answerless.
            return ctx, None, malformed, retries
        ctx, suba_retries = _self_answer(engine, question, ctx)
        return ctx, "model", malformed, retries + suba_retries
    ctx = DecompositionContext(list(question.oracle_sub_qas))
    if cfg.mode == "oracle_self_answer":
        ctx, retries = _self_answer(engine, question, ctx)
        return ctx, "model", False, retries
    if cfg.mode == "oracle_no_answer":
        ctx = prompts.perturb_strip_answers(ctx)
    elif cfg.mode == "oracle_scrambled":
        ctx = prompts.perturb_scramble(ctx, _scramble_seed(cfg.seed, question.id))
    return ctx, "oracle", False, 0


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
            retries=initial.retries,
        )
    try:
        ctx, provenance, malformed, retries = _context(engine, question, cfg)
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
        retries=initial.retries + retries + final.retries,
    )


def _map_concurrent(fn, items: Sequence, concurrency: int) -> List:
    if concurrency <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(fn, items))


def run(
    questions: Sequence[VisualQuestion],
    cfg: PipelineConfig,
    engine: Engine,
    summary: Optional[RunSummary] = None,
) -> List[EpisodeRecord]:
    """Execute one pipeline mode over the questions, in dataset order.

    Per-episode backend failures are isolated into failed records; only
    dataset/config problems abort the run.
    """
    summary = summary if summary is not None else RunSummary()
    if cfg.mode in ORACLE_MODES:
        usable = [q for q in questions if q.oracle_sub_qas]
        summary.skipped_missing_oracle += len(questions) - len(usable)
        questions = usable

    # Phase 1: initial answers for everyone.
    def initial_one(q: VisualQuestion) -> Optional[AnswerOutcome]:
        try:
            return engine.answer(q, "initial", prompts.render_direct_qa(q.question))
        except BackendError:
            return None

    initials = _map_concurrent(initial_one, list(questions), cfg.concurrency)

    tau = {"decompose_all": 1.0, "selective": cfg.tau}.get(cfg.mode)
    if cfg.tau_percentile is not None:
        confidences = [o.confidence for o in initials if o is not None]
        if not confidences:
            raise ConfigError("no successful initial answers to resolve percentile")
        tau = evaluation.percentile_to_tau(confidences, cfg.tau_percentile)
    summary.resolved_tau = tau

    # Phase 2: gate, decompose and recompose.
    episodes = _map_concurrent(
        lambda pair: _episode(engine, pair[0], pair[1], cfg, tau),
        list(zip(questions, initials)),
        cfg.concurrency,
    )

    summary.episodes += len(episodes)
    summary.failures += sum(1 for ep in episodes if ep.failed)
    return episodes


def _episode_problem(episode) -> Optional[str]:
    """Why a log record is no episode the evaluation can read, or None."""
    if not isinstance(episode, dict):
        return "expected a JSON object"
    if not isinstance(episode.get("id"), str):
        return "id must be a string"
    initial = episode.get("initial")
    confidence = initial.get("confidence") if isinstance(initial, dict) else None
    # bool is an int subclass, but true/false is no confidence.
    if (
        isinstance(confidence, bool)
        or not isinstance(confidence, (int, float))
        or not 0.0 <= confidence <= 1.0
    ):
        return "initial.confidence must be a number in [0, 1]"
    if episode.get("gate") not in ("kept", "second_guessed"):
        return "gate must be 'kept' or 'second_guessed'"
    for key in ("correct_before", "correct_after"):
        if not isinstance(episode.get(key), bool):
            return f"{key} must be true or false"
    return None


def read_episode_log(path) -> List[dict]:
    """The episodes of a JSONL log; a line that is no JSON object, or lacks
    a field the evaluation reads, raises DatasetError naming ``path:line``."""
    episodes = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                episode = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            problem = _episode_problem(episode)
            if problem:
                raise DatasetError(f"{path}:{lineno}: {problem}")
            episodes.append(episode)
    return episodes


def run_batch(
    questions: Sequence[VisualQuestion],
    cfg: PipelineConfig,
    engine: Engine,
    sink_path,
) -> RunSummary:
    """Run with a resumable JSONL sink.

    Episodes are written in dataset (question-id) order regardless of
    completion order. On restart, ids already present in the sink are
    skipped, so the finished log holds exactly one episode per question.
    """
    sink_path = Path(sink_path)
    existing = set()
    if sink_path.exists():
        existing = {ep["id"] for ep in read_episode_log(sink_path)}
    pending = [q for q in questions if q.id not in existing]

    summary = RunSummary(episodes=len(existing))
    episodes = run(pending, cfg, engine, summary)
    summary.new_episodes = len(episodes)
    summary.backend_calls = engine.recomposer_calls + engine.decomposer_calls

    order = {q.id: i for i, q in enumerate(questions)}
    episodes.sort(key=lambda ep: order[ep.id])
    with open(sink_path, "a", encoding="utf-8") as fh:
        for ep in episodes:
            fh.write(json.dumps(ep.to_obj(), ensure_ascii=False) + "\n")
    return summary
