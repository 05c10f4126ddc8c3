"""Dataset ingestion and conversion into the canonical question stream, and
the one reader and parser of input files.

Canonical format is JSONL, one object per line:
{"id", "image", "question", "answers", "qtype"?, "sub_qas"?}.
"""

from __future__ import annotations

import bisect
import itertools
import json
import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import orjson

from .evaluation import normalize_answer
from .prompts import SubQA

logger = logging.getLogger(__name__)

QTYPES = ("boolean", "number", "other")


class DatasetError(Exception):
    """Raised for malformed or inconsistent dataset files."""


@dataclass(frozen=True)
class VisualQuestion:
    id: str
    image: str
    question: str
    answers: tuple
    qtype: str = "other"
    oracle_sub_qas: Optional[tuple] = None

    def __post_init__(self) -> None:
        if not self.answers:
            raise DatasetError(f"question {self.id!r} has no ground-truth answers")
        if self.qtype not in QTYPES:
            raise DatasetError(f"question {self.id!r} has unknown qtype {self.qtype!r}")
        if self.qtype == "boolean":
            for ans in self.answers:
                if normalize_answer(ans) not in ("yes", "no"):
                    raise DatasetError(
                        f"boolean question {self.id!r} has non-boolean answer {ans!r}"
                    )


def _is_sub_qa(pair) -> bool:
    return (
        isinstance(pair, list)
        and len(pair) == 2
        and isinstance(pair[0], str)
        and pair[0] != ""
        and (pair[1] is None or isinstance(pair[1], str))
    )


def _question_from_obj(obj) -> VisualQuestion:
    if not isinstance(obj, dict):
        raise DatasetError("expected a JSON object")
    for key in ("id", "image", "question", "answers"):
        if key not in obj:
            raise DatasetError(f"missing field {key!r}")
        if key != "answers" and not isinstance(obj[key], str):
            raise DatasetError(f"field {key!r} must be a string")
    if not obj["question"]:
        raise DatasetError("field 'question' must not be empty")
    answers = obj["answers"]
    if not (isinstance(answers, list) and all(isinstance(a, str) for a in answers)):
        raise DatasetError("'answers' must be a list of strings")
    sub_qas = obj.get("sub_qas")
    if sub_qas is not None:
        if not (isinstance(sub_qas, list) and all(map(_is_sub_qa, sub_qas))):
            raise DatasetError(
                "'sub_qas' must be a list of [question, answer] pairs"
                " with a non-empty question"
            )
        sub_qas = tuple(SubQA(question=q, answer=a) for q, a in sub_qas)
    return VisualQuestion(
        id=obj["id"],
        image=obj["image"],
        question=obj["question"],
        answers=tuple(answers),
        qtype=obj.get("qtype", "other"),
        oracle_sub_qas=sub_qas,
    )


# Lines per chunk of every JSONL reader. While a chunk is checked it holds
# about three dicts per episode-log line. At 4,096 lines that many set off a
# full (gen-2) garbage collection in a cold process; at 256 they are freed
# before the cyclic GC promotes them. On a 2-vCPU VM with Python 3.11, two
# cold reads of an 8,000-line log, parsing each chunk with one json.loads
# call, took a median 33 ms at 256 lines and 49 ms at 4,096 (128 to 1,024
# lines: 33 to 41 ms). The per-line orjson parse of ``parse_chunk`` was not
# timed at other sizes.
CHUNK_LINES = 256


def read_chunks(path, size: int, digest=None) -> Iterator[Tuple[int, List[str]]]:
    """(first line's number, lines) for each run of ``size`` lines of a file,
    the last run partly full: the one reader of input files. Each line keeps
    its end as the file holds it: LF, CR LF or CR. A strict decode runs
    ahead of the lines it returns and cannot name a line, so each run is
    checked once, by encoding it. A byte that is not UTF-8 raises DatasetError
    naming ``path:line`` once the lines before it are yielded, for a reader
    to name an earlier bad line first. A ``digest`` (a hashlib object) is
    updated with each run's encoded bytes before the run is yielded: at the
    end of a file it holds the digest of the file's bytes, as ``hash_file``
    does. An OSError from opening or reading is raised as a DatasetError."""
    try:
        # newline="" splits lines as text mode does but keeps their ends, so
        # a run's encoded bytes are the file's.
        with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            for start in itertools.count(1, size):
                lines = list(itertools.islice(fh, size))
                if not lines:
                    return
                text = "".join(lines)
                try:
                    data = text.encode("utf-8")
                except UnicodeEncodeError as exc:
                    ends = list(itertools.accumulate(map(len, lines)))
                    bad = bisect.bisect_right(ends, exc.start)
                    # surrogateescape decodes the byte b as the code point U+DC00 + b.
                    problem = f"byte {ord(text[exc.start]) - 0xDC00:#04x} is not UTF-8"
                    yield start, lines[:bad]
                    raise DatasetError(f"{path}:{start + bad}: {problem}") from exc
                if digest is not None:
                    digest.update(data)
                yield start, lines
    except OSError as exc:
        raise DatasetError(str(exc)) from exc


def hash_file(path, digest) -> None:
    """Update ``digest`` (a hashlib object) with the bytes of the file at
    ``path``, read in blocks with no decode: for a file that is UTF-8, the
    digest ``read_chunks`` gives it. An OSError raises DatasetError."""
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                digest.update(block)
    except OSError as exc:
        raise DatasetError(str(exc)) from exc


def read_json(path):
    """The value of a JSON file, read by ``read_chunks``. A file that is no
    JSON, nests too deep or holds an integer past the int-string conversion
    limit raises DatasetError with the decoder's message."""
    chunks = read_chunks(path, CHUNK_LINES)
    text = "".join(itertools.chain.from_iterable(lines for _, lines in chunks))
    try:
        # Line ends as text mode reads them, which the message's positions count.
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except (ValueError, RecursionError) as exc:
        raise DatasetError(str(exc)) from exc


# orjson parses a JSON line to the value json.loads gives, or rejects it,
# except in two cases, whose lines go to json.loads instead:
# - It reads an integer past 64 bits as a float, and every such integer has
#   19 digits or more. A run of digits after a "." is a fraction, which
#   orjson reads as json.loads does, however long.
# - It parses nesting on the C stack, up to 164 bytes a level: some 51,000
#   levels of objects overflow an 8 MiB stack and kill the process. A line
#   of at most _ORJSON_LINE characters nests deep enough for under 0.3 MiB.
# Balanced nesting past the recursion limit, where json.loads raises
# RecursionError, parses.
_ORJSON_LINE = 8192
_DIGIT_RUN = b"0" * 19
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")


def _orjson_agrees(lines: List[str]) -> bool:
    """Whether orjson parses each of ``lines`` to json.loads's value or
    rejects it: no line is long, and no integer has 19 digits."""
    if max(map(len, lines), default=0) > _ORJSON_LINE:
        return False
    digits = "".join(lines).encode("utf-8").translate(_DIGITS_TO_ZERO)
    at = digits.find(_DIGIT_RUN)
    # A run found after a digit is the end of one found before.
    while at > 0 and digits[at - 1] in b".0":
        at = digits.find(_DIGIT_RUN, at + 1)
    return at == -1


def _orjson_or_json(line: str):
    """json.loads(line) for a line that ``_orjson_agrees`` with."""
    try:
        return orjson.loads(line)
    except orjson.JSONDecodeError:  # so the error, or the value, is json's
        return json.loads(line)


def _load(line: str):
    """json.loads(line), by orjson where it agrees."""
    return _orjson_or_json(line) if _orjson_agrees([line]) else json.loads(line)


def parse_chunk(path, start: int, lines: List[str], check):
    """``check(values)`` of the values of the non-blank JSONL ``lines`` read
    from ``path`` and numbered from ``start``, each line parsed on its own to
    the value json.loads gives it. ``check`` returns a result, or a problem
    as a string; it raises only RecursionError, on a value nested too deep
    for it. On a problem, as when a line is no JSON, each line is parsed and
    checked alone, in order, and the first bad one raises DatasetError
    naming ``path:line``."""
    values = [line for line in lines if line and not line.isspace()]
    load = _orjson_or_json if _orjson_agrees(values) else _load
    # Bad JSON raises a JSONDecodeError, an integer past the interpreter's
    # int-string conversion limit a plain ValueError, and deep nesting
    # RecursionError, from json.loads or from a check that walks the value.
    try:
        result = check([load(value) for value in values])
    except (ValueError, RecursionError):
        result = ""
    if not isinstance(result, str):
        return result
    for lineno, line in enumerate(lines, start):
        if not line or line.isspace():
            continue
        try:
            problem = check([_load(line)])
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        except ValueError as exc:  # an integer past the int-string conversion limit
            raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        except RecursionError as exc:
            raise DatasetError(f"{path}:{lineno}: invalid JSON (nested too deeply)") from exc
        if isinstance(problem, str):
            raise DatasetError(f"{path}:{lineno}: {problem}")
    raise AssertionError(f"{path}: a chunk failed its check but none of its lines did")


def _no_unpaired_surrogate(values) -> None:
    """JSON may escape an unpaired surrogate, which a UTF-8 file written from
    ``values`` cannot hold: a string that holds one raises DatasetError."""
    try:
        # Raises on any surrogate, but also on an integer past 64 bits and
        # on nesting past 254 levels, which json.dumps then tells apart.
        orjson.dumps(values)
    except orjson.JSONEncodeError:
        try:
            json.dumps(values, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            problem = f"a string holds the unpaired surrogate {exc.object[exc.start]!r}"
            raise DatasetError(problem) from exc


def _questions(values: list, seen: set):
    """The questions of parsed dataset lines, or the problem of the first
    rule one breaks: no unpaired surrogate, a question's fields, no id
    repeated here or from ``seen``, which then takes the new ids."""
    try:
        _no_unpaired_surrogate(values)
        questions = [_question_from_obj(obj) for obj in values]
    except DatasetError as exc:
        return str(exc)
    ids = [q.id for q in questions]
    fresh = set(ids)
    if len(fresh) < len(ids) or not seen.isdisjoint(fresh):
        return f"duplicate id {ids[0]!r}"
    seen |= fresh
    return questions


def load_dataset(path) -> List[VisualQuestion]:
    """Load a canonical JSONL dataset.

    Parse failures name the offending line; duplicate ids and empty answer
    lists are rejected.
    """
    questions: List[VisualQuestion] = []
    seen = set()
    for start, lines in read_chunks(path, CHUNK_LINES):
        questions += parse_chunk(path, start, lines, lambda values: _questions(values, seen))
    return questions


def question_to_obj(q: VisualQuestion) -> dict:
    obj = {
        "id": q.id,
        "image": q.image,
        "question": q.question,
        "answers": list(q.answers),
        "qtype": q.qtype,
    }
    if q.oracle_sub_qas is not None:
        obj["sub_qas"] = [[qa.question, qa.answer] for qa in q.oracle_sub_qas]
    return obj


def save_dataset(questions: Iterable[VisualQuestion], path) -> None:
    """Write questions as canonical JSONL, fields in canonical order."""
    with open(path, "w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps(question_to_obj(q), ensure_ascii=False) + "\n")


def convert_winoground(records: list):
    """Reformulate caption-matching records as boolean VQA.

    Each record contributes four questions: every (image, caption) pairing
    is asked 'does "<caption>" describe the image?', labeled "yes" when the
    indices match and "no" otherwise. Records whose two captions are
    identical get contradictory labels; they are kept but counted as
    warnings so dataset arithmetic stays intact. Every record is checked
    before any is converted, so a list that raises DatasetError logs no
    warning.
    """
    for record in records:
        if not isinstance(record, dict):
            raise DatasetError("winoground record must be a JSON object")
        for key in ("id", "image_0", "image_1", "caption_0", "caption_1"):
            if key not in record:
                raise DatasetError(f"winoground record missing field {key!r}")
            if not isinstance(record[key], str):
                raise DatasetError(f"winoground field {key!r} must be a string")
    questions: List[VisualQuestion] = []
    warnings = 0
    for record in records:
        if record["caption_0"] == record["caption_1"]:
            warnings += 1
            logger.warning(
                "winoground record %s has identical captions; labels conflict",
                record["id"],
            )
        for img_idx in (0, 1):
            for cap_idx in (0, 1):
                caption = record[f"caption_{cap_idx}"]
                questions.append(
                    VisualQuestion(
                        id=f"{record['id']}_i{img_idx}_c{cap_idx}",
                        image=record[f"image_{img_idx}"],
                        question=f'does "{caption}" describe the image?',
                        answers=("yes",) if img_idx == cap_idx else ("no",),
                        qtype="boolean",
                    )
                )
    return questions, warnings


def winoground_chunk(values: list):
    """``convert_winoground`` of parsed caption-matching lines, with no
    unpaired surrogate, or the problem of the first bad one."""
    try:
        _no_unpaired_surrogate(values)
        return convert_winoground(values)
    except DatasetError as exc:
        return str(exc)


def stats(questions: List[VisualQuestion]) -> dict:
    """Item and distinct-image counts plus the mean whitespace-token
    question length (None without questions)."""
    words = [len(q.question.split()) for q in questions]
    return {
        "items": len(questions),
        "images": len({q.image for q in questions}),
        "avg_question_length": sum(words) / len(words) if words else None,
    }
