"""Dataset ingestion and conversion into the canonical question stream, the
one reader and parser of input files, and the one writer of output files.
JSONL input is read by ``read_jsonl``; how a file is chunked stays here.

Canonical format is JSONL, one object per line, the fields of a
``VisualQuestion`` that are not None: {"id", "image", "question", "answers",
"qtype"?, "sub_qas"?}, with each ``prompts.SubQA`` a [question, answer] pair.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Optional

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
    sub_qas: Optional[tuple] = None  # of prompts.SubQA


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
        sub_qas = tuple(SubQA(q, a) for q, a in sub_qas)
    qid, qtype = obj["id"], obj.get("qtype", "other")
    if not answers:
        raise DatasetError(f"question {qid!r} has no ground-truth answers")
    if qtype not in QTYPES:
        raise DatasetError(f"question {qid!r} has unknown qtype {qtype!r}")
    if qtype == "boolean":
        for ans in answers:
            if normalize_answer(ans) not in ("yes", "no"):
                raise DatasetError(f"boolean question {qid!r} has non-boolean answer {ans!r}")
    return VisualQuestion(
        id=qid,
        image=obj["image"],
        question=obj["question"],
        answers=tuple(answers),
        qtype=qtype,
        sub_qas=sub_qas,
    )


# Lines per chunk of every JSONL reader: a chunk's bytes and parsed lines,
# about three dicts per episode-log line, are freed before the next chunk
# is read, so a larger chunk holds more memory. On the offline-eval
# benchmark (2-vCPU VM, Python 3.11, 6 alternating pairs), 1,024 lines read
# a median 1.7 % fewer episodes a second than 256, within the runs' spread,
# at a 0.8 MiB higher peak RSS in every pair.
CHUNK_LINES = 256


class Chunk(NamedTuple):
    """A run of lines that ``read_chunks`` read: the first line's number,
    the lines as bytes, each with its end as the file holds it, and their
    bytes joined."""

    start: int
    lines: List[bytes]
    data: bytes


def read_chunks(path, digest=None, torn=None) -> Iterator[Chunk]:
    """The Chunk of each run of CHUNK_LINES lines of a file, the last run
    partly full: the one reader of input files. The file is read as bytes,
    split into lines as text mode with ``newline=""`` splits them: at LF, CR
    LF or a lone CR. A run holds CHUNK_LINES LF-ended stretches of the file, so
    a lone CR adds a line to its run, and a file whose lines all end in a
    lone CR is one run. Each run is checked for UTF-8 once, by ``isascii``
    or a decode, and yielded as bytes, which the parser takes undecoded. A
    byte that is not UTF-8 raises DatasetError naming ``path:line`` once the
    lines before it are yielded, for a reader to name an earlier bad line
    first. A ``digest`` (a hashlib object) is updated with each run's bytes
    before the run is yielded: at the end of a file it holds the digest of
    the file's bytes, as ``hash_file`` does. Given a list ``torn``, a last
    line with no line end, as a write cut short leaves it, is not checked,
    hashed or yielded: ``torn`` takes its offset in the file. An OSError
    from opening or reading is raised as a DatasetError."""
    try:
        with open(path, "rb") as fh:
            start, offset = 1, 0
            # A binary file splits lines at LF alone.
            while lines := list(itertools.islice(fh, CHUNK_LINES)):
                data = b"".join(lines)
                if b"\r" in data:
                    lines = data.splitlines(keepends=True)
                # Only the file's last line can end in neither.
                if torn is not None and not lines[-1].endswith((b"\n", b"\r")):
                    data = data[: -len(lines.pop())]
                    torn.append(offset + len(data))
                    if not lines:
                        return
                if not data.isascii():
                    try:
                        data.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        ends = list(itertools.accumulate(map(len, lines)))
                        bad = bisect.bisect_right(ends, exc.start)
                        yield Chunk(start, lines[:bad], b"".join(lines[:bad]))
                        problem = f"byte {data[exc.start]:#04x} is not UTF-8"
                        raise DatasetError(f"{path}:{start + bad}: {problem}") from exc
                if digest is not None:
                    digest.update(data)
                yield Chunk(start, lines, data)
                start += len(lines)
                offset += len(data)
    except OSError as exc:
        raise DatasetError(str(exc)) from exc


def hash_file(path, digest) -> None:
    """Update ``digest`` (a hashlib object) with the bytes of the file at
    ``path``, read in blocks: the digest ``read_chunks`` gives a file that
    is UTF-8. An OSError raises DatasetError."""
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
    text = b"".join(chunk.data for chunk in read_chunks(path)).decode("utf-8")
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


def _orjson_agrees(lines: List[bytes], data: bytes) -> bool:
    """Whether orjson parses each of ``lines`` to json.loads's value or
    rejects it: no line is long, and no integer in ``data``, the lines'
    bytes, has 19 digits."""
    # The limit counts characters, which a line's bytes never fall short of.
    if max(map(len, lines), default=0) > _ORJSON_LINE and any(
        len(line.decode("utf-8")) > _ORJSON_LINE for line in lines
    ):
        return False
    digits = data.translate(_DIGITS_TO_ZERO)
    at = digits.find(_DIGIT_RUN)
    # A run found after a digit is the end of one found before.
    while at > 0 and digits[at - 1] in b".0":
        at = digits.find(_DIGIT_RUN, at + 1)
    return at == -1


def _load(line: str):
    """json.loads(line), by orjson where it agrees. json.loads takes what
    orjson rejects, such as NaN, Infinity, a number beyond float range and an
    unpaired-surrogate escape, and gives the error of a line that is no
    JSON."""
    data = line.encode("utf-8")
    if _orjson_agrees([data], data):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:  # so the error, or the value, is json's
            pass
    return json.loads(line)


def parse_chunk(path, chunk: Chunk, check, strip: bool = False):
    """``check(values)`` of the values of the non-blank JSONL lines of a
    chunk read from ``path``, each line parsed on its own to the value
    json.loads gives its text, with the whitespace that str.strip removes
    taken off first if ``strip``. ``check`` returns a result, or a problem
    as a string; it raises only RecursionError, on a value nested too deep
    for it. On a problem, as when a line is no JSON, each line is parsed and
    checked alone, in order, and the first bad one raises DatasetError
    naming ``path:line``.

    orjson parses the lines' bytes, JSON whitespace (space, tab, CR, LF)
    around a value and all, and takes a line only if it holds one value.
    A chunk it cannot take goes to the text of its lines, each parsed by
    ``_load``: one where it rejects a line, ``_orjson_agrees`` does not
    hold, a line is blank only by str.isspace (such as "\x1c" or U+3000),
    or the check returns a problem."""
    values = [line for line in chunk.lines if not line.isspace()]
    if _orjson_agrees(values, chunk.data):
        # Bad JSON raises orjson.JSONDecodeError, a ValueError, and deep
        # nesting RecursionError, from a check that walks the value.
        try:
            result = check(list(map(orjson.loads, values)))
        except (ValueError, RecursionError):
            result = ""
        if not isinstance(result, str):
            return result
    lines = [line.decode("utf-8") for line in chunk.lines]
    if strip:
        lines = [line.strip() for line in lines]
    values = [line for line in lines if line and not line.isspace()]
    # Bad JSON raises a JSONDecodeError, an integer past the interpreter's
    # int-string conversion limit a plain ValueError, and deep nesting
    # RecursionError, from json.loads or from a check that walks the value.
    try:
        result = check(list(map(_load, values)))
    except (ValueError, RecursionError):
        result = ""
    if not isinstance(result, str):
        return result
    for lineno, line in enumerate(lines, chunk.start):
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


def read_jsonl(path, check, strip: bool = False, digest=None, torn=None) -> Iterator:
    """``parse_chunk(path, chunk, check, strip)`` of each chunk that
    ``read_chunks(path, digest, torn)`` reads: how all JSONL input is read.
    A caller flattens or joins the results as they come, so memory holds
    one chunk's bytes and values at a time."""
    for chunk in read_chunks(path, digest, torn):
        yield parse_chunk(path, chunk, check, strip)


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


def repeated_id(ids: list, seen: set) -> Optional[str]:
    """The problem of ``ids`` if one repeats another or one of ``seen``, else
    None once ``seen`` takes them: every reader's rule against a repeated id."""
    fresh = set(ids)
    if len(fresh) < len(ids) or not seen.isdisjoint(fresh):
        return f"duplicate id {ids[0]!r}"
    seen |= fresh
    return None


def _questions(values: list, seen: set):
    """The questions of parsed dataset lines, or the problem of the first
    rule one breaks: no unpaired surrogate, a question's fields, no id
    repeated here or from ``seen``, which then takes the new ids."""
    try:
        _no_unpaired_surrogate(values)
        questions = [_question_from_obj(obj) for obj in values]
    except DatasetError as exc:
        return str(exc)
    return repeated_id([q.id for q in questions], seen) or questions


def load_dataset(path) -> List[VisualQuestion]:
    """Load a canonical JSONL dataset.

    Parse failures name the offending line; repeated ids and empty answer
    lists are rejected.
    """
    seen = set()
    return list(itertools.chain.from_iterable(
        read_jsonl(path, lambda values: _questions(values, seen))
    ))


@contextlib.contextmanager
def replacing(path, binary: bool = False):
    """An open file that replaces the file at ``path`` whole when the block
    ends. It is ``<name>.<pid>.tmp`` in the directory of ``path``, made with
    its parents, opened as binary or as UTF-8 text with ``newline=""``, and
    moved onto ``path`` by ``os.replace``. A block that raises leaves ``path``
    as it was and no temporary file; an OSError past the parents names it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        # A read-only file system refuses even to unlink a missing file.
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        # A write names no file, and an open or os.replace the temporary one.
        if isinstance(exc, OSError) and exc.filename in (None, str(tmp)):
            exc.filename, exc.filename2 = str(path), None
        raise


def save_dataset(questions: Iterable[VisualQuestion], path) -> None:
    """Write questions as canonical JSONL, fields in canonical order."""
    with replacing(path) as fh:
        for q in questions:
            obj = {key: value for key, value in vars(q).items() if value is not None}
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def convert_winoground(records: list):
    """Reformulate caption-matching records as boolean VQA.

    Each record contributes four questions: every (image, caption) pairing
    is asked 'does "<caption>" describe the image?', labeled "yes" when the
    indices match and "no" otherwise. Records whose two captions are
    identical get contradictory labels; they are kept but counted as
    warnings so dataset arithmetic stays intact. The records are those
    ``winoground_records`` has passed.
    """
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


def winoground_records(values: list, seen: set):
    """Parsed caption-matching lines, or the problem of the first rule one
    breaks: no unpaired surrogate; each a JSON object whose id, images and
    captions are strings; no id repeated here or from ``seen``, which then
    takes the new ids. A repeated record id would repeat the ids of its four
    questions."""
    try:
        _no_unpaired_surrogate(values)
    except DatasetError as exc:
        return str(exc)
    for record in values:
        if not isinstance(record, dict):
            return "winoground record must be a JSON object"
        for key in ("id", "image_0", "image_1", "caption_0", "caption_1"):
            if key not in record:
                return f"winoground record missing field {key!r}"
            if not isinstance(record[key], str):
                return f"winoground field {key!r} must be a string"
    return repeated_id([record["id"] for record in values], seen) or values


def stats(questions: List[VisualQuestion]) -> dict:
    """Item and distinct-image counts plus the mean whitespace-token
    question length (None without questions)."""
    words = [len(q.question.split()) for q in questions]
    return {
        "items": len(questions),
        "images": len({q.image for q in questions}),
        "avg_question_length": sum(words) / len(words) if words else None,
    }
