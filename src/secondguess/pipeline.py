"""Two-step selective-decomposition orchestration over a question stream.

Per question: solicit an initial answer with its confidence; if the
confidence is at or below the threshold, generate a subquestion, answer it,
and re-answer the main question with the answered subquestion as context.
Oracle modes replace the generated decomposition with human-written sub-QAs
(optionally perturbed). Every question yields one auditable EpisodeRecord.
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
from .dataset import VisualQuestion
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


def _kept_episode(
    question: VisualQuestion, initial: AnswerOutcome, scoring: str
) -> EpisodeRecord:
    correct = _correct(initial, question, scoring)
    return EpisodeRecord(
        id=question.id,
        initial=initial,
        final=initial,
        correct_before=correct,
        correct_after=correct,
        retries=initial.retries,
    )


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


def _second_guess_generated(
    engine: Engine, question: VisualQuestion, initial: AnswerOutcome, scoring: str
) -> EpisodeRecord:
    subq, malformed, subq_retries = engine.generate_subquestion(question)
    retries = initial.retries + subq_retries
    if subq.strip():
        sub_outcome = engine.answer(question, "suba0", prompts.render_direct_qa(subq))
        retries += sub_outcome.retries
        ctx = DecompositionContext([SubQA(subq, sub_outcome.text)])
        subanswer: Optional[str] = sub_outcome.text
    else:
        # Degenerate generation: skip sub-answering, recompose answerless.
        ctx = DecompositionContext([SubQA(subq, None)])
        subanswer = None
    final = engine.answer(
        question, "recompose", prompts.render_recompose(question.question, ctx)
    )
    retries += final.retries
    return EpisodeRecord(
        id=question.id,
        initial=initial,
        gate="second_guessed",
        subquestion=subq,
        subanswer=subanswer,
        subanswer_provenance="model" if subanswer is not None else None,
        final=final,
        correct_before=_correct(initial, question, scoring),
        correct_after=_correct(final, question, scoring),
        malformed_subquestion=malformed,
        retries=retries,
    )


def _oracle_context(
    engine: Engine,
    question: VisualQuestion,
    mode: str,
    seed: int,
):
    """Build the decomposition context for one oracle condition.

    Returns (ctx, provenance, extra retries).
    """
    assert question.oracle_sub_qas
    ctx = DecompositionContext(list(question.oracle_sub_qas))
    retries = 0
    if mode == "oracle_oracle":
        return ctx, "oracle", retries
    if mode == "oracle_no_answer":
        return prompts.perturb_strip_answers(ctx), "oracle", retries
    if mode == "oracle_scrambled":
        scrambled = prompts.perturb_scramble(ctx, _scramble_seed(seed, question.id))
        return scrambled, "oracle", retries
    if mode == "oracle_self_answer":
        answered = []
        for index, qa in enumerate(ctx.sub_qas):
            outcome = engine.answer(
                question, f"suba{index}", prompts.render_direct_qa(qa.question)
            )
            retries += outcome.retries
            answered.append(SubQA(qa.question, outcome.text))
        return DecompositionContext(answered), "model", retries
    raise ConfigError(f"not an oracle mode: {mode!r}")


def _oracle_episode(
    engine: Engine,
    question: VisualQuestion,
    mode: str,
    seed: int,
    scoring: str,
) -> EpisodeRecord:
    initial = engine.answer(
        question, "initial", prompts.render_direct_qa(question.question)
    )
    ctx, provenance, retries = _oracle_context(engine, question, mode, seed)
    final = engine.answer(
        question, "recompose", prompts.render_recompose(question.question, ctx)
    )
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
        correct_before=_correct(initial, question, scoring),
        correct_after=_correct(final, question, scoring),
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
        usable = []
        for q in questions:
            if q.oracle_sub_qas:
                usable.append(q)
            else:
                summary.skipped_missing_oracle += 1

        def oracle_one(q: VisualQuestion) -> EpisodeRecord:
            try:
                return _oracle_episode(engine, q, cfg.mode, cfg.seed, cfg.scoring)
            except BackendError:
                return _failed_episode(q)

        episodes = _map_concurrent(oracle_one, usable, cfg.concurrency)
    else:
        # Phase 1: initial answers for everyone.
        def initial_one(q: VisualQuestion):
            try:
                return engine.answer(q, "initial", prompts.render_direct_qa(q.question))
            except BackendError:
                return None

        initials = _map_concurrent(initial_one, list(questions), cfg.concurrency)

        if cfg.mode == "direct":
            tau: Optional[float] = None
        elif cfg.mode == "decompose_all":
            tau = 1.0
        elif cfg.tau is not None:
            tau = cfg.tau
        else:
            confidences = [o.confidence for o in initials if o is not None]
            if not confidences:
                raise ConfigError("no successful initial answers to resolve percentile")
            tau = evaluation.percentile_to_tau(confidences, cfg.tau_percentile)
        summary.resolved_tau = tau

        def second_one(pair) -> EpisodeRecord:
            q, initial = pair
            if initial is None:
                return _failed_episode(q)
            # Gate: keep iff strictly above tau; ties are second-guessed.
            if cfg.mode == "direct" or initial.confidence > tau:
                return _kept_episode(q, initial, cfg.scoring)
            try:
                return _second_guess_generated(engine, q, initial, cfg.scoring)
            except BackendError:
                return _failed_episode(q)

        episodes = _map_concurrent(
            second_one, list(zip(questions, initials)), cfg.concurrency
        )

    summary.episodes += len(episodes)
    summary.failures += sum(1 for ep in episodes if ep.failed)
    return episodes


def read_episode_log(path) -> List[dict]:
    episodes = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                episodes.append(json.loads(line))
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
