"""Selective decomposition over a question stream: one chain per question.

Every mode runs the same chain on each question: the question is asked
for an initial answer and its confidence, ``evaluation.gated`` at the mode's
tau keeps the answer or second-guesses it, and a second-guessed question gets
a decomposition and is re-answered with it as context. Only a percentile tau
waits for every initial answer before it gates any. ``run`` keeps at most
``concurrency`` backend calls and 4 * ``concurrency`` questions in flight,
and takes their episodes in dataset order. The modes differ only in
tau and in the sub-QAs: ``direct`` gates at 0, which keeps every answer;
``decompose_all`` (at 1) and ``selective`` answer a model-written subquestion
with the model; the oracle modes gate at 1 and use the human-written sub-QAs,
as given, stripped, scrambled or self-answered. Every
question yields one auditable episode record, a plain dict with its keys in
the log's order. ``run`` checks each chunk of new records with
``_chunk_columns``, the log reader's rule set, before it writes any byte,
appends them to the log once, at the end of the run, and returns the whole
log's columns. A last log line with no line end, which a crash mid-write
leaves, is cut off before the append, and its question runs again.

Each line is written by ``_line`` from ``_record``'s fixed layout, the
bytes of ``json.dumps(record, ensure_ascii=False)``; a record off that
layout raises rather than being written. On a 2-vCPU VM with Python 3.11
(best of 3 x 200,000 calls) a kept record's line took 1.8 us and a
second-guessed one's 2.6 us, against 4.2-4.3 us through json's generic
encoder, which spends 1 us setting up even an empty dict; a kept record's
final answer is its initial one, so its text is written once.

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

import collections
import contextlib
import functools
import hashlib
import itertools
import json
import operator
import sys
import threading
import zlib
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from json.encoder import encode_basestring as _json_string
from pathlib import Path
from typing import Optional, Sequence, Tuple

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


@dataclass
class PipelineConfig:
    """Every setting the chain reads, and the one default of each; ``cli``
    checks the mode, scoring and prompt style are known."""

    mode: str
    tau: Optional[float] = None
    tau_percentile: Optional[float] = None
    seed: int = 0
    concurrency: int = 1
    scoring: str = "exact"
    decomposer_prompt_style: str = "decompose_default"

    def __post_init__(self) -> None:
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
    """Binds decomposer/recomposer backends and sends requests whose prompts
    the chain renders. Thread-safe; questions may be processed concurrently."""

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
        request = InferenceRequest(
            prompt=prompt,
            params=ANSWER_PARAMS,
            request_id=f"{question.id}#{stage}",
            image=question.image,
        )
        result = self._call(request, RECOMPOSER)
        return {"text": result.text, "confidence": confidence_of(result)}

    def generate_subquestion(self, question: VisualQuestion, prompt: str):
        """One decomposer call, as (subquestion text, malformed flag). The raw
        generation is truncated at the first newline; empty or
        non-question-shaped output is flagged malformed but still used.
        The decomposer is text-only, so no image is sent."""
        request = InferenceRequest(
            prompt=prompt,
            params=DECOMPOSE_PARAMS,
            request_id=f"{question.id}#subq",
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
        subq, malformed = engine.generate_subquestion(question, prompt)
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


def _windowed(pool, fn, items, window: int):
    """``fn`` of each item, in order, run by ``pool`` with at most ``window``
    items submitted and not yet yielded. The tasks not yet begun are
    cancelled when the generator ends before the items do: by an exception
    from ``fn``, or when it is closed."""
    items = iter(items)
    pending = collections.deque(pool.submit(fn, item) for item in itertools.islice(items, window))
    try:
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in itertools.islice(items, 1))
            yield result
    finally:
        for future in pending:
            future.cancel()


def run(
    questions: Sequence[VisualQuestion],
    cfg: PipelineConfig,
    engine: Engine,
    sink_path,
) -> Tuple[RunSummary, evaluation.EpisodeColumns]:
    """Run one pipeline mode over the questions into a resumable JSONL sink.

    Questions whose ids the sink already holds are skipped, so the finished
    log holds one episode per question; the summary counts the whole log. A
    last sink line with no line end is a record that a crash cut short: it
    is left out of the log and cut off before the append, and its question
    runs again. At most ``concurrency`` backend calls and 4 * ``concurrency``
    questions are in flight at once. Per-episode backend failures are
    isolated into failed records; only dataset/config problems abort the
    run. Each CHUNK_LINES new records, in dataset order, pass
    ``_chunk_columns``, the rule set the log is read with, and are kept only
    as their columns and encoded lines, appended after the last episode; a
    record that breaks a rule is a bug and raises AssertionError before any
    byte is written. Returns the summary and the whole log's columns: those
    of the log as the run found it, then the new episodes'.
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

    tau = {"direct": 0.0, "selective": cfg.tau}.get(cfg.mode, 1.0)
    chunks = [(log.ids, log.failed, log.confidence, log.second_guessed, log.correct_before,
               log.correct_after)]
    lines = []
    # One pool serves the run: at most `concurrency` worker threads, and
    # an HTTP backend keeps one connection per thread. The window of
    # 4 * concurrency questions keeps every worker busy while the
    # episodes are taken in order, and bounds what is held in flight;
    # at concurrency 1 the tasks run inline, cheaper than a thread handoff.
    with ThreadPoolExecutor(max_workers=cfg.concurrency) as pool:
        map_ = map
        if cfg.concurrency > 1:
            map_ = functools.partial(_windowed, pool, window=4 * cfg.concurrency)
        if cfg.tau_percentile is None:
            episodes = map_(lambda q: _episode(engine, q, _initial(engine, q), cfg, tau),
                            questions)
        else:
            # The one barrier: a percentile tau needs every initial
            # confidence. With none, tau stays None and every chain is a
            # failed record.
            initials = list(map_(lambda q: _initial(engine, q), questions))
            confidences = [a["confidence"] for a in initials if a is not None]
            if confidences:
                tau = evaluation.percentile_to_tau(confidences, cfg.tau_percentile)
            episodes = map_(lambda qa: _episode(engine, *qa, cfg, tau),
                            zip(questions, initials))
        for chunk in iter(lambda: list(itertools.islice(episodes, CHUNK_LINES)), []):
            columns = _chunk_columns(chunk, done)
            if isinstance(columns, str):
                raise AssertionError(f"run built a record the log reader rejects: {columns}")
            chunks.append(columns)
            lines.append("".join(map(_line, chunk)))

    with open(sink_path, "a", encoding="utf-8") as fh:
        if torn:
            fh.truncate(torn[0])
        fh.writelines(lines)
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
