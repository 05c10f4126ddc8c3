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
question yields one auditable EpisodeRecord; ``run`` appends a run's new
records to the log once, at the end of the run, and returns the whole log's
columns.

``read_episode_log`` reads a log back as ``evaluation.EpisodeColumns``
through ``dataset.parse_chunk``, the one parse of JSONL input, with
``_chunk_columns`` as the check of each chunk, and caches the columns in a
file next to the log, keyed by the digest of the log's bytes.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import operator
import os
import threading
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

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
from .dataset import (
    CHUNK_LINES,
    DatasetError,
    VisualQuestion,
    hash_file,
    parse_chunk,
    read_chunks,
)
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
        self.retries = 0  # transport retries of every call, failed or not

    def _call(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        with self._lock:
            if role is RECOMPOSER:
                self.recomposer_calls += 1
            else:
                self.decomposer_calls += 1
        backend = self.recomposer if role is RECOMPOSER else self.decomposer
        try:
            result = backend.complete(request, role)
        except BackendError as exc:
            with self._lock:
                self.retries += exc.retries
            raise
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
# The fields a record must hold, beyond the optional ``failed``.
_REQUIRED = ("id", "initial", "gate", "correct_before", "correct_after")
_required = operator.itemgetter(*_REQUIRED)


def _chunk_columns(records: list, seen: set):
    """The EpisodeColumns fields of a chunk of parsed log records, as a tuple,
    or the message of the first rule that a record breaks, in the order
    checked below. The last rule is that no id repeats one of the chunk or
    of ``seen``; a chunk that passes adds its ids to ``seen``. Each rule is
    checked over the whole chunk at once, so the message describes a record
    only when the chunk is that one record."""
    if not set(map(type, records)) <= {dict}:
        return "expected a JSON object"
    try:
        columns = list(zip(*map(_required, records))) or [()] * len(_REQUIRED)
    except KeyError:  # a missing field reads as None, which its rule rejects
        columns = [[r.get(key) for r in records] for key in _REQUIRED]
    ids, initials, gates, before, after = columns
    if not set(map(type, ids)) <= {str}:
        return "id must be a string"
    failed = [r.get("failed", False) for r in records]
    if not set(map(type, failed)) <= {bool}:
        return "failed must be true or false"
    out_of_range = "initial.confidence must be a number in [0, 1]"
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
    if not (set(map(type, gates)) <= {str} and set(gates).issubset(_GATES)):
        return "gate must be 'kept' or 'second_guessed'"
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


def _joined(chunks) -> evaluation.EpisodeColumns:
    """One EpisodeColumns of ``_chunk_columns`` tuples, in order."""
    # An empty chunk types the columns of no chunks.
    ids, *columns = zip(_chunk_columns([], set()), *chunks)
    return evaluation.EpisodeColumns(
        list(itertools.chain.from_iterable(ids)), *map(np.concatenate, columns)
    )


def _parse_log(path, digest=None) -> evaluation.EpisodeColumns:
    """The columns of a JSONL episode log, read CHUNK_LINES lines at a time
    with no dict kept per episode, each chunk by ``dataset.parse_chunk`` with
    ``_chunk_columns`` as its check; ``digest`` as in
    ``dataset.read_chunks``. The cyclic GC is paused meanwhile: the parse
    makes no reference cycles, and the containers it allocates would set off
    collections, full ones included, that walk all it has kept so far."""
    seen = set()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _joined(
            parse_chunk(path, chunk, lambda records: _chunk_columns(records, seen))
            for chunk in read_chunks(path, CHUNK_LINES, digest)
        )
    finally:
        if enabled:
            gc.enable()


# A log's columns are cached in a file next to it, under a key: this format,
# then the SHA-256 of the log's bytes. Change the format whenever what the
# columns hold, or which logs ``_parse_log`` accepts, changes.
_CACHE_FORMAT = "secondguess-columns-2"
_BOOL_COLUMNS = ("failed", "second_guessed", "correct_before", "correct_after")


def _cache_key(digest) -> bytes:
    return f"{_CACHE_FORMAT} {digest.hexdigest()}".encode("ascii")


def _cached(cache: Path):
    """(key, EpisodeColumns) from a cache file, or None when there is none or
    it is no cache ``_write_cache`` wrote: unreadable, not a zip of arrays
    (a pickle is never loaded), or holding columns of the wrong length or
    dtype."""
    try:
        # Read whole, as np.load leaves a file open when its zip is damaged.
        with np.load(io.BytesIO(cache.read_bytes()), allow_pickle=False) as npz:
            # A zip member that is no .npy file loads as bytes.
            key, ids, confidence, *flags = (
                np.asarray(npz[name]) for name in ("key", "ids", "confidence", *_BOOL_COLUMNS)
            )
        ids = json.loads(ids.tobytes())
    # What a damaged file raises, from zipfile, zlib, numpy or json: a .npy
    # file loads as one array, which is no context manager (TypeError); a
    # damaged zip header can name an unsupported feature (NotImplementedError,
    # a RuntimeError) and deep JSON nesting raises RecursionError (another).
    except (OSError, EOFError, KeyError, TypeError, ValueError, RuntimeError,
            zipfile.BadZipFile, zlib.error):
        return None
    if not (isinstance(ids, list) and set(map(type, ids)) <= {str}):
        return None
    dtypes = [(confidence, np.float64)] + [(flag, np.bool_) for flag in flags]
    if not all(a.dtype == dtype and a.shape == (len(ids),) for a, dtype in dtypes):
        return None
    return key.tobytes(), evaluation.EpisodeColumns(
        ids=ids, confidence=confidence, **dict(zip(_BOOL_COLUMNS, flags))
    )


def _write_cache(cache: Path, key: bytes, log: evaluation.EpisodeColumns) -> None:
    """Write the columns to the cache file through a temporary file, or
    nothing when the directory cannot be written. The ids are stored as the
    bytes of one json.dumps: a numpy string array would drop an id's
    trailing NULs and hold four bytes per character."""
    tmp = cache.with_name(f"{cache.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                key=np.frombuffer(key, dtype=np.uint8),
                ids=np.frombuffer(json.dumps(log.ids).encode("utf-8"), dtype=np.uint8),
                confidence=log.confidence,
                **{name: getattr(log, name) for name in _BOOL_COLUMNS},
            )
        os.replace(tmp, cache)
    except OSError:
        # A read-only file system refuses even to unlink a missing file.
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def read_episode_log(path) -> evaluation.EpisodeColumns:
    """The columns of a JSONL episode log. A line that is no JSON object,
    lacks a field the evaluation reads, repeats an id or holds a byte that is
    not UTF-8 raises DatasetError naming ``path:line``, for the first such
    line in the file.

    The columns of a log that reads without error are cached next to it, in
    ``<log>.columns.npz``, and a later read of the same bytes returns them.
    A log without a matching cache is parsed and hashed in one read, with
    ``read_chunks``; a cache is checked by hashing the log's bytes alone,
    with ``hash_file``. The two digests are equal, as a cache is only
    written for a log that reads, which is UTF-8. A missing, stale or
    broken cache, or a directory that cannot be written, only costs the
    parse."""
    cache = Path(f"{path}.columns.npz")
    cached = _cached(cache)
    if cached is not None:
        digest = hashlib.sha256()
        try:
            hash_file(path, digest)
        except DatasetError:  # the parse below raises it again
            pass
        else:
            key, log = cached
            if key == _cache_key(digest):
                return log
    digest = hashlib.sha256()
    log = _parse_log(path, digest)
    _write_cache(cache, _cache_key(digest), log)
    return log


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
) -> Tuple[RunSummary, evaluation.EpisodeColumns]:
    """Run one pipeline mode over the questions into a resumable JSONL sink.

    Questions whose ids the sink already holds are skipped, so the finished
    log holds one episode per question; the summary counts the whole log.
    Each pending question's chain is one task, and the new episodes are
    appended in dataset order once the last one is done. Per-episode backend
    failures are isolated into failed records; only dataset/config problems
    abort the run. Returns the summary and the whole log's columns: those
    of the log as the run found it, then the new episodes'.
    """
    sink_path = Path(sink_path)
    # The run appends to the log, so its columns are not cached.
    log = _parse_log(sink_path) if sink_path.exists() else _joined([])
    summary = RunSummary(episodes=len(log.ids), failures=int(log.failed.sum()))
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
    new = (
        [ep.id for ep in episodes],
        np.array([ep.failed for ep in episodes], dtype=bool),
        np.array([ep.initial.confidence for ep in episodes], dtype=float),
        np.array([ep.gate == "second_guessed" for ep in episodes], dtype=bool),
        np.array([ep.correct_before for ep in episodes], dtype=bool),
        np.array([ep.correct_after for ep in episodes], dtype=bool),
    )
    # vars holds a dataclass's fields in their order.
    return summary, _joined([vars(log).values(), new])
