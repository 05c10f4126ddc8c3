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
import os
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Optional

import orjson

from .evaluation import normalize_answer
from .prompts import SubQA

QTYPES = ("boolean", "number", "other")


class DatasetError(Exception):
    """Raised for malformed or inconsistent dataset files."""


class VisualQuestion(NamedTuple):
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


# The fields every dataset line holds, each checked in this order.
_FIELDS = ("id", "image", "question", "answers")


def _question_columns(values: list):
    """The questions of parsed dataset lines, or the problem of the first
    rule that a line breaks, each rule checked over all the lines at once in
    the order below, so the message describes a line only when the lines are
    that one line."""
    if not set(map(type, values)) <= {dict}:
        return "expected a JSON object"
    columns = []
    for key in _FIELDS:
        try:
            column = [obj[key] for obj in values]
        except KeyError:
            return f"missing field {key!r}"
        if key != "answers" and not set(map(type, column)) <= {str}:
            return f"field {key!r} must be a string"
        columns.append(column)
    ids, images, texts, answers = columns
    if not all(texts):
        return "field 'question' must not be empty"
    if not (
        set(map(type, answers)) <= {list}
        and set(map(type, itertools.chain.from_iterable(answers))) <= {str}
    ):
        return "'answers' must be a list of strings"
    sub_qas = [obj.get("sub_qas") for obj in values]
    for index, pairs in enumerate(sub_qas):
        if pairs is None:
            continue
        if not (isinstance(pairs, list) and all(map(_is_sub_qa, pairs))):
            return "'sub_qas' must be a list of [question, answer] pairs with a non-empty question"
        sub_qas[index] = tuple(SubQA(q, a) for q, a in pairs)
    if not all(answers):
        return f"question {ids[answers.index([])]!r} has no ground-truth answers"
    qtypes = [obj.get("qtype", "other") for obj in values]
    # list.count compares with ==, as `in QTYPES` does, and hashes nothing.
    if sum(map(qtypes.count, QTYPES)) != len(qtypes):
        qid, qtype = next((i, t) for i, t in zip(ids, qtypes) if t not in QTYPES)
        return f"question {qid!r} has unknown qtype {qtype!r}"
    if "boolean" in qtypes:
        for qid, qtype, row in zip(ids, qtypes, answers):
            for ans in row if qtype == "boolean" else ():
                if normalize_answer(ans) not in ("yes", "no"):
                    return f"boolean question {qid!r} has non-boolean answer {ans!r}"
    return [*map(tuple.__new__, itertools.repeat(VisualQuestion),
                 zip(ids, images, texts, map(tuple, answers), qtypes, sub_qas))]


# Lines per chunk of every JSONL reader: a chunk's bytes and parsed lines,
# about three dicts per episode-log line, are freed before the next chunk
# is read, so a larger chunk holds more memory. A larger chunk read no
# faster and peaked higher (CHANGES.md, "Offline evaluation in one pass").
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


# orjson parses nesting on the C stack, up to 164 bytes a level: some 51,000
# levels of objects overflow an 8 MiB stack and kill the process. A line of
# at most _ORJSON_LINE characters nests deep enough for under 0.3 MiB, so
# only such a line goes to orjson; json.loads reads every other line, and
# each line orjson rejects.
_ORJSON_LINE = 8192


def _orjson_takes(lines: List[bytes]) -> bool:
    """Whether each of ``lines`` is short enough for orjson."""
    # The limit counts characters, which a line's bytes never fall short of.
    return max(map(len, lines), default=0) <= _ORJSON_LINE or all(
        len(line.decode("utf-8")) <= _ORJSON_LINE for line in lines
    )


def _load(line: str):
    """The value of a JSON line: orjson's, if it takes the line, else
    json.loads's, which takes NaN, Infinity, a number beyond float range
    and an unpaired-surrogate escape, and gives the error of a line that is
    no JSON."""
    data = line.encode("utf-8")
    if _orjson_takes([data]):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:  # so the error, or the value, is json's
            pass
    return json.loads(line)


def parse_chunk(path, chunk: Chunk, check, strip: bool = False):
    """``check(values)`` of the values of the non-blank JSONL lines of a
    chunk read from ``path``, each line parsed on its own, with the
    whitespace that str.strip removes taken off first if ``strip``.
    ``check`` returns a result, or a problem as a string; it raises only
    RecursionError, on a value nested too deep for it. On a problem, as when
    a line is no JSON, each line is parsed and checked alone, in order, and
    the first bad one raises DatasetError naming ``path:line``. A line has
    the value orjson gives it, where orjson takes it, or else json.loads's,
    so an integer outside [-2**63, 2**64) that orjson reads arrives as its
    ``float()`` (``test_parse_chunk_gives_json_loads_values_and_errors``).

    orjson parses the lines' bytes, JSON whitespace (space, tab, CR, LF)
    around a value and all, and takes a line only if it holds one value.
    A chunk it cannot take goes to the text of its lines, each parsed by
    ``_load``: one where it rejects a line, a line is too long for it or
    blank only by str.isspace (such as "\x1c" or U+3000), or the check
    returns a problem."""
    values = [line for line in chunk.lines if not line.isspace()]
    if _orjson_takes(values):
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
    rule one breaks: no unpaired surrogate, a question's fields
    (``_question_columns``), no id repeated here or from ``seen``, which
    then takes the new ids."""
    try:
        _no_unpaired_surrogate(values)
    except DatasetError as exc:
        return str(exc)
    questions = _question_columns(values)
    if isinstance(questions, str):
        return questions
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
            obj = {key: value for key, value in q._asdict().items() if value is not None}
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
            import logging  # its only use, so that no other command loads it

            warnings += 1
            logging.getLogger(__name__).warning(
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
