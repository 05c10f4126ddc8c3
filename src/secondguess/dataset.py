"""Dataset ingestion and conversion into the canonical question stream.

Canonical format is JSONL, one object per line:
{"id", "image", "question", "answers", "qtype"?, "sub_qas"?}.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

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


def _question_from_obj(obj, where: str) -> VisualQuestion:
    if not isinstance(obj, dict):
        raise DatasetError(f"{where}: expected a JSON object")
    for key in ("id", "image", "question", "answers"):
        if key not in obj:
            raise DatasetError(f"{where}: missing field {key!r}")
        if key != "answers" and not isinstance(obj[key], str):
            raise DatasetError(f"{where}: field {key!r} must be a string")
    if not obj["question"]:
        raise DatasetError(f"{where}: field 'question' must not be empty")
    answers = obj["answers"]
    if not (isinstance(answers, list) and all(isinstance(a, str) for a in answers)):
        raise DatasetError(f"{where}: 'answers' must be a list of strings")
    sub_qas = obj.get("sub_qas")
    if sub_qas is not None:
        if not (isinstance(sub_qas, list) and all(map(_is_sub_qa, sub_qas))):
            raise DatasetError(
                f"{where}: 'sub_qas' must be a list of [question, answer] pairs"
                " with a non-empty question"
            )
        sub_qas = tuple(SubQA(question=q, answer=a) for q, a in sub_qas)
    try:
        return VisualQuestion(
            id=obj["id"],
            image=obj["image"],
            question=obj["question"],
            answers=tuple(answers),
            qtype=obj.get("qtype", "other"),
            oracle_sub_qas=sub_qas,
        )
    except DatasetError as exc:
        raise DatasetError(f"{where}: {exc}") from exc


# Lines per chunk of every JSONL reader. The episode-log reader parses a
# chunk with one json.loads call, and while it checks the chunk holds about
# three dicts per line. At 4,096 lines that many set off a full (gen-2)
# garbage collection in a cold process; at 256 they stay in cache and are
# freed before the cyclic GC promotes them. On a 2-vCPU VM with Python 3.11,
# two cold reads of an 8,000-line log took a median 33 ms at 256 lines and
# 49 ms at 4,096 (128 to 1,024 lines: 33 to 41 ms).
CHUNK_LINES = 256


def read_chunks(path, size: int) -> Iterator[Tuple[int, List[str]]]:
    """(first line's number, lines) for each run of ``size`` lines of a file,
    the last run partly full: the one reader of input files. A strict decode
    runs ahead of the lines it returns and cannot name a line, so each run
    is checked once. A byte that is not UTF-8 raises DatasetError naming
    ``path:line`` once the lines before it are yielded, for a reader to name
    an earlier bad line first."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for start in itertools.count(1, size):
            lines = list(itertools.islice(fh, size))
            if not lines:
                return
            text = "".join(lines)
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                bad = text.count("\n", 0, exc.start)
                # surrogateescape decodes the byte b as the code point U+DC00 + b.
                problem = f"byte {ord(text[exc.start]) - 0xDC00:#04x} is not UTF-8"
                yield start, lines[:bad]
                raise DatasetError(f"{path}:{start + bad}: {problem}") from exc
            yield start, lines


def read_json(path):
    """The value of a JSON file, read by ``read_chunks``. A file that is no
    JSON, nests too deep or holds an integer past the int-string conversion
    limit raises DatasetError with the decoder's message."""
    lines = itertools.chain.from_iterable(lines for _, lines in read_chunks(path, CHUNK_LINES))
    try:
        return json.loads("".join(lines))
    except (ValueError, RecursionError) as exc:
        raise DatasetError(str(exc)) from exc


def read_jsonl(path) -> Iterator[Tuple[int, object]]:
    """Yield (line number, parsed value) for each non-blank line of a JSONL
    file; a line that is no JSON, nests too deep to parse, holds a string
    that UTF-8 cannot encode or a byte that is not UTF-8 raises DatasetError
    naming ``path:line``."""
    for start, lines in read_chunks(path, CHUNK_LINES):
        # JSON may escape an unpaired surrogate, which a UTF-8 file written
        # from the value cannot hold. Only a \ud escape decodes to one.
        escaped = any("\\ud" in line or "\\uD" in line for line in lines)
        for lineno, obj in parse_jsonl_lines(path, start, lines):
            if escaped:
                try:
                    json.dumps(obj, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise DatasetError(
                        f"{path}:{lineno}: a string holds the unpaired surrogate"
                        f" {exc.object[exc.start]!r}"
                    ) from exc
            yield lineno, obj


def parse_jsonl_lines(path, start: int, lines: Iterable[str]) -> Iterator[Tuple[int, object]]:
    """(line number, parsed value) for each non-blank line of ``lines``, read
    from ``path`` and numbered from ``start``. A line that is no JSON, nests
    too deep to parse or holds an integer past the interpreter's int-string
    conversion limit raises DatasetError naming ``path:line``."""
    for lineno, line in enumerate(lines, start):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        except ValueError as exc:  # an integer past the int-string conversion limit
            raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        except RecursionError as exc:
            raise DatasetError(f"{path}:{lineno}: invalid JSON (nested too deeply)") from exc
        yield lineno, obj


def load_dataset(path) -> List[VisualQuestion]:
    """Load a canonical JSONL dataset.

    Parse failures name the offending line; duplicate ids and empty answer
    lists are rejected.
    """
    questions: List[VisualQuestion] = []
    seen = set()
    for lineno, obj in read_jsonl(path):
        q = _question_from_obj(obj, f"{path}:{lineno}")
        if q.id in seen:
            raise DatasetError(f"{path}:{lineno}: duplicate id {q.id!r}")
        seen.add(q.id)
        questions.append(q)
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


def convert_winoground(records: Iterable[dict]):
    """Reformulate caption-matching records as boolean VQA.

    Each record contributes four questions: every (image, caption) pairing
    is asked 'does "<caption>" describe the image?', labeled "yes" when the
    indices match and "no" otherwise. Records whose two captions are
    identical get contradictory labels; they are kept but counted as
    warnings so dataset arithmetic stays intact.
    """
    questions: List[VisualQuestion] = []
    warnings = 0
    for record in records:
        if not isinstance(record, dict):
            raise DatasetError("winoground record must be a JSON object")
        for key in ("id", "image_0", "image_1", "caption_0", "caption_1"):
            if key not in record:
                raise DatasetError(f"winoground record missing field {key!r}")
            if not isinstance(record[key], str):
                raise DatasetError(f"winoground field {key!r} must be a string")
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


def stats(questions: List[VisualQuestion]) -> dict:
    """Item and distinct-image counts plus the mean whitespace-token
    question length (None without questions)."""
    words = [len(q.question.split()) for q in questions]
    return {
        "items": len(questions),
        "images": len({q.image for q in questions}),
        "avg_question_length": sum(words) / len(words) if words else None,
    }
