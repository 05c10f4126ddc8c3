"""Selective decomposition over a question stream: one chain per question.

Every mode runs the same chain on each question: the question is asked
for an initial answer and its confidence, ``evaluation.gated`` at the mode's
tau keeps the answer or second-guesses it, and a second-guessed question gets
a decomposition and is re-answered with it as context. Only a percentile tau
waits for every initial answer before it gates any. ``run`` has one
scheduler, ``_Scheduler``: inline at concurrency 1, on ``concurrency``
plain threads above it, it keeps at most ``concurrency`` backend calls
and 4 * ``concurrency`` questions in flight, and takes their episodes in
dataset order. The modes differ only in tau and in the sub-QAs:
``direct`` gates at 0, which keeps every answer; ``decompose_all`` (at 1)
and ``selective`` answer a model-written subquestion with the model; the
oracle modes gate at 1 and use the human-written sub-QAs, as given,
stripped, scrambled or self-answered. Every question yields one auditable
episode record, a plain dict with its keys in the log's order. ``run``
checks each chunk of CHUNK_LINES new records with ``_chunk_columns``, the
log reader's rule set, then appends the chunk to the log and flushes it, so
a crash keeps every chunk before the one it stopped; it returns the whole
log's columns. A last log line with no line end, which
a crash mid-write leaves, is cut off just before the first append, and its
question runs again. A percentile tau run refuses a log that holds
episodes while questions are still to run, as a crash leaves it, since it
would resolve tau over those questions alone. ``run`` calls
``before_calls`` once it has read the log, before the first backend call:
there ``cli`` writes the run's manifest, so an output directory that
cannot be written costs no call.

Each line is written by ``_line`` from ``_record``'s fixed layout, the
bytes of ``json.dumps(record, ensure_ascii=False)``; a record off that
layout raises rather than being written. It is faster than json's
generic encoder, much of whose cost is set-up that even an empty dict
pays (CHANGES.md, "Each episode line written from its fixed layout"); a
kept record's final answer is its initial one, so its text is written
once.

``read_episode_log`` reads a log back as ``evaluation.EpisodeColumns``
through ``dataset.read_jsonl``, the one reader of JSONL input, with
``_chunk_columns`` as the check of each chunk, and caches the columns in a
file next to the log, keyed by the digest of the log's bytes.
``_chunk_columns`` takes a record's five required fields in one
``operator.itemgetter`` call; a chunk with a record that lacks one reads
them with ``dict.get``, so that each rule still fails in its order. It
gives a chunk's flags as ``bytes`` and its confidences as an
``array('d')``; ``EpisodeColumns`` sorts the valid confidences by class
once the chunks are joined.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import operator
import sys
import threading
import zlib
from array import array
from json.encoder import encode_basestring as _json_string
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

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
    VisualQuestion,
    hash_file,
    read_jsonl,
    repeated_id,
    replacing,
)
from .prompts import SubQA

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


class _Settings(NamedTuple):
    mode: str
    tau: Optional[float] = None
    tau_percentile: Optional[float] = None
    seed: int = 0
    concurrency: int = 1
    scoring: str = "exact"
    decomposer_prompt_style: str = "decompose_default"


class PipelineConfig(_Settings):
    """Every setting the chain reads, and the one default of each; ``cli``
    checks the mode, scoring and prompt style are known, and construction
    checks the rest."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "PipelineConfig":
        self = super().__new__(cls, *args, **kwargs)
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
        return self


class RunSummary(NamedTuple):
    episodes: int
    new_episodes: int
    failures: int
    backend_calls: int
    retries: int
    skipped_missing_oracle: int
    resolved_tau: Optional[float]


def _scramble_seed(root_seed: int, key: str) -> int:
    """A 64-bit seed of the run's seed and a question or request id."""
    digest = hashlib.sha256(f"{root_seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


RECOMPOSER = BackendRole("recomposer")
DECOMPOSER = BackendRole("decomposer")


class Engine:
    """Binds decomposer/recomposer backends and sends requests whose prompts
    the chain renders. Thread-safe; many threads may run questions at once."""

    def __init__(self, recomposer: Backend, decomposer: Backend) -> None:
        self.recomposer = recomposer
        self.decomposer = decomposer
        self._lock = threading.Lock()
        self.recomposer_calls = 0
        self.decomposer_calls = 0
        self.retries = 0  # transport retries of every call, failed or not

    def _call(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        """One backend call, counted once it ends, whatever the exit."""
        backend = self.recomposer if role is RECOMPOSER else self.decomposer
        retries = 0
        try:
            result = backend.complete(request, role)
            retries = result.retries
        except BackendError as exc:
            retries = exc.retries
            raise
        finally:
            with self._lock:
                if role is RECOMPOSER:
                    self.recomposer_calls += 1
                else:
                    self.decomposer_calls += 1
                self.retries += retries
        return result

    def answer(self, question: VisualQuestion, stage: str, prompt: str) -> dict:
        """One recomposer call about the question's image, as the record's
        ``{"text", "confidence"}`` answer; ``stage`` is the request-id suffix:
        initial, suba<i> or recompose."""
        # Every field given in order, so the named tuple's Python-level
        # __new__, a frame per call, is not run.
        request = tuple.__new__(
            InferenceRequest,
            (prompt, ANSWER_PARAMS, f"{question.id}#{stage}", question.image, None),
        )
        result = self._call(request, RECOMPOSER)
        return {"text": result.text, "confidence": confidence_of(result)}

    def generate_subquestion(self, question: VisualQuestion, prompt: str, seed: int):
        """One decomposer call, as (subquestion text, malformed flag). The raw
        generation is truncated at the first newline; empty or
        non-question-shaped output is flagged malformed but still used.
        The decomposer is text-only, so no image is sent. Its sampling is
        multinomial, so the request carries the seed
        ``_scramble_seed(seed, request_id)`` of the run's ``seed``."""
        request_id = f"{question.id}#subq"
        request = tuple.__new__(
            InferenceRequest,
            (prompt, DECOMPOSE_PARAMS, request_id, None, _scramble_seed(seed, request_id)),
        )
        result = self._call(request, DECOMPOSER)
        text = result.text.split("\n", 1)[0]
        malformed = not text.strip() or not text.rstrip().endswith("?")
        return text, malformed


def _correct(answer: dict, question: VisualQuestion, scoring: str) -> bool:
    return evaluation.is_match(answer["text"], question.answers, scoring=scoring)


def _record(question: VisualQuestion, initial: dict, correct_before: bool, **changes) -> dict:
    """The record of a question that keeps its initial answer, with its keys
    in the log's order. ``changes`` replace values in place, as a dict keeps
    a key where it was first set; ``failed``, which only a failed record
    holds, is the one key they add, last."""
    return {
        "id": question.id,
        "initial": initial,
        "gate": "kept",  # or "second_guessed"
        "subquestion": None,
        "subanswer": None,
        "subanswer_provenance": None,  # "oracle" | "model" | None
        "final": initial,
        "correct_before": correct_before,
        "correct_after": correct_before,
        "malformed_subquestion": False,
        **changes,
    }


def _failed_episode(question: VisualQuestion) -> dict:
    return _record(question, {"text": "", "confidence": 0.0}, False, failed=True)


# ``_record``'s layout: its keys in order, those of a failed record, and
# those of an answer.
_KEYS = (
    "id",
    "initial",
    "gate",
    "subquestion",
    "subanswer",
    "subanswer_provenance",
    "final",
    "correct_before",
    "correct_after",
    "malformed_subquestion",
)
_FAILED_KEYS = _KEYS + ("failed",)
_ANSWER_KEYS = ("text", "confidence")
_fields = operator.itemgetter(*_KEYS)
_answer_fields = operator.itemgetter(*_ANSWER_KEYS)
_BOOLS = ("false", "true")


def _answer_text(answer: dict) -> str:
    if tuple(answer) != _ANSWER_KEYS:
        raise ValueError(f"not an answer's layout: {list(answer)}")
    text, confidence = _answer_fields(answer)
    return f'{{"text": {_json_string(text)}, "confidence": {float.__repr__(confidence)}}}'


def _line(record: dict) -> str:
    """The log line of a record of ``_record``'s layout: the bytes of
    ``json.dumps(record, ensure_ascii=False)``, then a line end. The key text
    is fixed; each value goes through the primitive json.dumps itself uses
    for it: ``encode_basestring`` for a string, ``float.__repr__`` for a
    confidence, a literal for null, true and false. A record or answer whose
    keys are not the layout, in its order, raises ValueError; a value of
    another type than ``_record`` gives it raises TypeError."""
    keys = tuple(record)
    if keys != _KEYS and keys != _FAILED_KEYS:
        raise ValueError(f"not an episode record's layout: {list(keys)}")
    (id_, initial, gate, subquestion, subanswer, provenance, final,
     before, after, malformed) = _fields(record)
    failed = record.get("failed", False)
    if not (type(before) is type(after) is type(malformed) is type(failed) is bool):
        raise TypeError("an episode record's flags must be true or false")
    initial_text = _answer_text(initial)
    final_text = initial_text if final is initial else _answer_text(final)
    line = (
        f'{{"id": {_json_string(id_)}, "initial": {initial_text}, "gate": {_json_string(gate)}, '
        f'"subquestion": {"null" if subquestion is None else _json_string(subquestion)}, '
        f'"subanswer": {"null" if subanswer is None else _json_string(subanswer)}, '
        f'"subanswer_provenance": {"null" if provenance is None else _json_string(provenance)}, '
        f'"final": {final_text}, "correct_before": {_BOOLS[before]}, '
        f'"correct_after": {_BOOLS[after]}, "malformed_subquestion": {_BOOLS[malformed]}'
    )
    if len(keys) == len(_KEYS):
        return line + "}\n"
    return f'{line}, "failed": {_BOOLS[failed]}}}\n'


def _self_answer(engine: Engine, question: VisualQuestion, sub_qas: tuple) -> tuple:
    """Answer each subquestion with the recomposer (stage suba<i>)."""
    answered = []
    for index, qa in enumerate(sub_qas):
        answer = engine.answer(question, f"suba{index}", prompts.render_direct_qa(qa.question))
        answered.append(SubQA(qa.question, answer["text"]))
    return tuple(answered)


def _context(engine: Engine, question: VisualQuestion, cfg: PipelineConfig):
    """(sub_qas, provenance, malformed) to recompose the question from."""
    if cfg.mode not in ORACLE_MODES:
        prompt = prompts.render_decompose(question.question, cfg.decomposer_prompt_style)
        subq, malformed = engine.generate_subquestion(question, prompt, cfg.seed)
        sub_qas = (SubQA(subq),)
        if not subq.strip():
            # Degenerate generation: skip sub-answering, recompose answerless.
            return sub_qas, None, malformed
        return _self_answer(engine, question, sub_qas), "model", malformed
    sub_qas = question.sub_qas
    if cfg.mode == "oracle_self_answer":
        return _self_answer(engine, question, sub_qas), "model", False
    if cfg.mode == "oracle_no_answer":
        sub_qas = prompts.perturb_strip_answers(sub_qas)
    elif cfg.mode == "oracle_scrambled":
        sub_qas = prompts.perturb_scramble(sub_qas, _scramble_seed(cfg.seed, question.id))
    return sub_qas, "oracle", False


def _episode(
    engine: Engine,
    question: VisualQuestion,
    initial: Optional[dict],
    cfg: PipelineConfig,
    tau: Optional[float],
) -> dict:
    """Gate one initial answer and second-guess it if needed. A backend
    failure anywhere in the question's chain yields a failed record."""
    if initial is None:
        return _failed_episode(question)
    correct_before = _correct(initial, question, cfg.scoring)
    # direct's tau = 0 gates no answer: confidence_of floors every one above 0.
    if not evaluation.gated(initial["confidence"], tau):
        return _record(question, initial, correct_before)
    try:
        sub_qas, provenance, malformed = _context(engine, question, cfg)
        final = engine.answer(
            question, "recompose", prompts.render_recompose(question.question, sub_qas)
        )
    except BackendError:
        return _failed_episode(question)
    answers = [qa.answer for qa in sub_qas]
    return _record(
        question,
        initial,
        correct_before,
        gate="second_guessed",
        subquestion=" | ".join(qa.question for qa in sub_qas),
        subanswer=None
        if all(a is None for a in answers)
        else " | ".join(a or "" for a in answers),
        subanswer_provenance=provenance,
        final=final,
        correct_after=_correct(final, question, cfg.scoring),
        malformed_subquestion=malformed,
    )


_GATES = ("kept", "second_guessed")
# The fields a record must hold, beyond the optional ``failed``.
_REQUIRED = ("id", "initial", "gate", "correct_before", "correct_after")
_required = operator.itemgetter(*_REQUIRED)


def _chunk_columns(records: list, seen: set):
    """The columns of a chunk of parsed log records, a tuple in the order of
    EpisodeColumns' fields before ``by_class``, or the message of the first
    rule that a record breaks, in the order checked below. The last rule is
    that no id repeats one of the chunk or of ``seen``; a chunk that passes
    adds its ids to ``seen``. Each rule is checked over the whole chunk at
    once, so the message describes a record only when the chunk is that one
    record."""
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
    # min and max compare an int with a float exactly, so no integer beyond a
    # float's range reaches array(); they skip a NaN that is not first, which
    # makes the sum NaN, and NaN fails every comparison.
    low = min(confidence, default=1.0)
    if not (0.0 <= low and max(confidence, default=0.0) <= 1.0 and sum(confidence) >= 0.0):
        return out_of_range
    # Only a failed record's confidence is 0: tau = 0 must gate no answer.
    if low == 0.0 and not all(c or f for c, f in zip(confidence, failed)):
        return "initial.confidence must be above 0 unless the episode failed"
    if not (set(map(type, gates)) <= {str} and set(gates).issubset(_GATES)):
        return "gate must be 'kept' or 'second_guessed'"
    for key, column in (("correct_before", before), ("correct_after", after)):
        if not set(map(type, column)) <= {bool}:
            return f"{key} must be true or false"
    return repeated_id(ids, seen) or (
        ids,
        bytes(failed),
        array("d", confidence),
        bytes(map("second_guessed".__eq__, gates)),
        bytes(before),
        bytes(after),
    )


def _joined(chunks) -> evaluation.EpisodeColumns:
    """One EpisodeColumns of ``_chunk_columns`` tuples, in order."""
    # An empty chunk types the columns of no chunks.
    ids, *columns = zip(_chunk_columns([], set()), *chunks)
    ids = list(itertools.chain.from_iterable(ids))
    failed, confidence, *flags = map(b"".join, columns)
    # Drop the chunks' columns before EpisodeColumns sorts the joined ones.
    del columns
    confidence = array("d", confidence)
    return evaluation.EpisodeColumns(ids, failed, confidence, *flags)


def _parse_log(path, digest=None, torn=None) -> evaluation.EpisodeColumns:
    """The columns of a JSONL episode log, read a chunk at a time by
    ``dataset.read_jsonl`` with no dict kept per episode, ``_chunk_columns``
    each chunk's check, and the bytes parsed hashed into ``digest``; a list
    ``torn`` takes a torn last line's offset instead of its record."""
    seen = set()
    return _joined(read_jsonl(
        path, lambda records: _chunk_columns(records, seen), digest=digest, torn=torn
    ))


# A log's columns are cached in a file next to it, under a key: this format,
# then the SHA-256 of the log's bytes. Change the format whenever what the
# columns hold, or which logs ``_parse_log`` accepts, changes. The doubles are
# stored in this machine's byte order, which the format names.
_CACHE_FORMAT = f"secondguess-columns-3-{sys.byteorder}"
_FLAGS = ("failed", "second_guessed", "correct_before", "correct_after")


def _cache_key(digest) -> bytes:
    return f"{_CACHE_FORMAT} {digest.hexdigest()}".encode("ascii")


def _cached(blob: bytes, key: bytes) -> Optional[evaluation.EpisodeColumns]:
    """The EpisodeColumns in the bytes of a cache file, or None when they are
    not what ``_write_cache`` wrote under ``key``: another key, a CRC-32 that
    does not match, ids that are no JSON list of strings, a flag byte other
    than 0 or 1, or a length that does not fit the ids and flags."""
    if not blob.startswith(key + b"\n"):
        return None
    if zlib.crc32(memoryview(blob)[:-4]).to_bytes(4, "little") != blob[-4:]:
        return None
    start = len(key) + 1
    end = blob.find(b"\n", start)
    try:
        ids = json.loads(blob[start:end]) if end > 0 else None
    except (ValueError, RecursionError):  # no JSON, or nested past the recursion limit
        return None
    if not (isinstance(ids, list) and set(map(type, ids)) <= {str}):
        return None
    n = len(ids)
    columns = memoryview(blob)[end + 1 : -4]
    flags = columns[8 * n : 12 * n].tobytes()
    if len(flags) != 4 * n or flags.translate(None, b"\x00\x01"):
        return None
    failed, *rest = (flags[i * n : (i + 1) * n] for i in range(4))
    if len(columns) != 12 * n + 8 * failed.count(0):
        return None
    confidence, by_class = array("d"), array("d")
    confidence.frombytes(columns[: 8 * n])
    by_class.frombytes(columns[12 * n :])
    return evaluation.EpisodeColumns(ids, failed, confidence, *rest, by_class=by_class)


def _write_cache(cache: Path, key: bytes, log: evaluation.EpisodeColumns) -> None:
    """Write the columns to the cache file through ``replacing``, or nothing
    when the directory cannot be written: the key and the ids as JSON, a line
    each (a newline in an id is escaped), the confidences, the flags a byte
    each in _FLAGS order, ``by_class``, and the CRC-32 of all that."""
    parts = [
        key + b"\n",
        json.dumps(log.ids).encode("ascii") + b"\n",
        log.confidence,
        *(getattr(log, name) for name in _FLAGS),
        log.by_class,
    ]
    with contextlib.suppress(OSError), replacing(cache, binary=True) as fh:
        crc = 0
        for part in parts:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(crc.to_bytes(4, "little"))


def read_episode_log(path) -> evaluation.EpisodeColumns:
    """The columns of a JSONL episode log. A line that is no JSON object,
    lacks a field the evaluation reads, repeats an id or holds a byte that is
    not UTF-8 raises DatasetError naming ``path:line``, for the first such
    line in the file.

    The columns of a log that reads without error are cached next to it, in
    ``<log>.columns``, and a later read of the same bytes returns them. A
    log without a matching cache is parsed and hashed in one read, so the
    key is that of the bytes parsed; a cache is checked by hashing the log's
    bytes alone, with ``hash_file``. The two digests are equal, as a cache
    is only written for a log that reads, which is UTF-8. A missing, stale
    or broken cache, or a directory that cannot be written, only costs the
    parse."""
    cache = Path(f"{path}.columns")
    blob = b""
    with contextlib.suppress(OSError):
        blob = cache.read_bytes()
    if blob:
        digest = hashlib.sha256()
        hash_file(path, digest)
        log = _cached(blob, _cache_key(digest))
        if log is not None:
            return log
    digest = hashlib.sha256()
    log = _parse_log(path, digest)
    _write_cache(cache, _cache_key(digest), log)
    return log


def _initial(engine: Engine, question: VisualQuestion) -> Optional[dict]:
    """The question's initial answer, or None if its call failed."""
    try:
        return engine.answer(
            question, "initial", prompts.render_direct_qa(question.question)
        )
    except BackendError:
        return None


class _Scheduler:
    """Maps a function over a list in order. At concurrency 1 the calling
    thread runs each item inline and no thread is started; above it,
    ``concurrency`` threads, which the first ``ordered`` starts, run the
    items while the calling thread waits for each result in turn. The
    threads serve every ``ordered`` of the scheduler, so an HTTP backend
    keeps one connection per thread across the percentile barrier. Leaving
    the ``with`` block, however it is left, stops the threads' intake and
    joins them once their items end."""

    def __init__(self, concurrency: int) -> None:
        self._concurrency = concurrency
        self._cond = threading.Condition(threading.Lock())
        self._threads = []
        self._closed = False
        # The current ``ordered``: its function and items, the outcomes not
        # yet given, the next item to begin, the end of its intake and the
        # next item to give.
        self._fn = None
        self._items = []
        self._results = {}
        self._begun = self._stop = self._given = 0

    def __enter__(self) -> "_Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()

    def _work(self) -> None:
        """Run items until the scheduler closes, and file each outcome. An
        item may begin before the end of intake and within 4 * concurrency
        of the next item to give; one that raises, whatever it raises, ends
        the intake after it."""
        cond = self._cond
        while True:
            with cond:
                while not self._closed and self._begun >= min(
                    self._stop, self._given + 4 * self._concurrency
                ):
                    cond.wait()
                if self._closed:
                    return
                index = self._begun
                self._begun = index + 1
                fn, item = self._fn, self._items[index]
            try:
                outcome = (True, fn(item))
            except BaseException as exc:
                outcome = (False, exc)
            with cond:
                self._results[index] = outcome
                if not outcome[0]:
                    self._stop = min(self._stop, index + 1)
                cond.notify_all()

    def ordered(self, fn, items: list):
        """``fn`` of each item, in order, with at most 4 * concurrency items
        begun and not yet given. An exception from ``fn`` is raised in its
        item's place, after the results before it; no later item begins."""
        if self._concurrency == 1:
            # Inline, which is that order and bound, without the lock's
            # cost per item.
            yield from map(fn, items)
            return
        with self._cond:
            self._fn, self._items, self._results = fn, items, {}
            self._begun = self._given = 0
            self._stop = len(items)
            self._cond.notify_all()
        while len(self._threads) < self._concurrency:
            thread = threading.Thread(target=self._work)
            thread.start()
            self._threads.append(thread)
        results = self._results
        for index in range(len(items)):
            with self._cond:
                while index not in results:
                    self._cond.wait()
                ok, value = results.pop(index)
                self._given = index + 1
                self._cond.notify_all()
            if not ok:
                raise value
            yield value


def run(
    questions: Sequence[VisualQuestion],
    cfg: PipelineConfig,
    engine: Engine,
    sink_path,
    before_calls: Callable[[], None] = lambda: None,
) -> Tuple[RunSummary, evaluation.EpisodeColumns]:
    """Run one pipeline mode over the questions into a resumable JSONL sink.

    Questions whose ids the sink already holds are skipped, so the finished
    log holds one episode per question; the summary counts the whole log. A
    last sink line with no line end is a record that a crash cut short: it
    is left out of the log and cut off just before the first append, and
    its question runs again. A ``tau_percentile`` run resumes only a log
    that holds no episode or every question, and raises ConfigError,
    before any call, on one that holds some of them. ``before_calls()`` is called once the sink has
    been read, before the first backend call. At most ``concurrency``
    backend calls and 4 * ``concurrency`` questions are in flight at once.
    Per-episode backend failures are isolated into failed records; only
    dataset/config problems abort the run. Each CHUNK_LINES new records, in
    dataset order, pass ``_chunk_columns``, the rule set the log is read
    with, and are then appended after the last episode and flushed, and
    kept only as their columns; a record that breaks a rule is a bug and
    raises AssertionError before its chunk is written. Any other exception,
    or a KeyboardInterrupt, stops the intake of questions: the run raises it
    once the calls in flight have ended, and the log keeps every chunk
    appended before. A run that ends with no new episode still leaves a
    log, empty if there was none; one stopped before its first chunk
    creates none. Returns the summary and the whole log's columns: those of
    the log as the run found it, then the new episodes'.
    """
    sink_path = Path(sink_path)
    torn = []
    # The run appends to the log, so its columns are not cached.
    log = _parse_log(sink_path, torn=torn) if sink_path.exists() else _joined([])
    done = set(log.ids)
    questions = [q for q in questions if q.id not in done]
    skipped = 0
    if cfg.mode in ORACLE_MODES:
        usable = [q for q in questions if q.sub_qas]
        skipped = len(questions) - len(usable)
        questions = usable
    if cfg.tau_percentile is not None and log.ids and questions:
        # Its tau would come from the new initial answers alone, not from
        # every question's, and the log would hold records gated at two taus.
        raise ConfigError(
            f"{sink_path} holds {len(log.ids)} episodes: a tau_percentile run cannot resume "
            f"it with {len(questions)} questions still to run; remove it to run them all again"
        )

    before_calls()
    tau = {"direct": 0.0, "selective": cfg.tau}.get(cfg.mode, 1.0)
    chunks = [(log.ids, log.failed, log.confidence, log.second_guessed, log.correct_before,
               log.correct_after)]
    with _Scheduler(cfg.concurrency) as scheduler:
        if cfg.tau_percentile is None:
            episodes = scheduler.ordered(
                lambda q: _episode(engine, q, _initial(engine, q), cfg, tau), questions)
        else:
            # The one barrier: a percentile tau needs every initial
            # confidence. With none, tau stays None and every chain is a
            # failed record.
            initials = list(scheduler.ordered(lambda q: _initial(engine, q), questions))
            confidences = [a["confidence"] for a in initials if a is not None]
            if confidences:
                tau = evaluation.percentile_to_tau(confidences, cfg.tau_percentile)
            episodes = scheduler.ordered(lambda qa: _episode(engine, *qa, cfg, tau),
                                         list(zip(questions, initials)))
        # A last, empty chunk leaves a log, with no torn line, when no
        # episode is new.
        new_chunks = iter(lambda: list(itertools.islice(episodes, CHUNK_LINES)), [])
        for chunk in itertools.chain(new_chunks, [[]]):
            columns = _chunk_columns(chunk, done)
            if isinstance(columns, str):
                raise AssertionError(f"run built a record the log reader rejects: {columns}")
            chunks.append(columns)
            # Closing the file flushes the chunk; the first append cuts off
            # a torn last line.
            with open(sink_path, "a", encoding="utf-8") as fh:
                if torn:
                    fh.truncate(torn.pop())
                fh.write("".join(map(_line, chunk)))
    whole = _joined(chunks)
    return RunSummary(
        episodes=len(whole.ids),
        new_episodes=len(whole.ids) - len(log.ids),
        failures=whole.failed.count(1),
        backend_calls=engine.recomposer_calls + engine.decomposer_calls,
        retries=engine.retries,
        skipped_missing_oracle=skipped,
        resolved_tau=tau if cfg.mode in ("decompose_all", "selective") else None,
    ), whole
