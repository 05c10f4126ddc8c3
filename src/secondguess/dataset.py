"""Dataset ingestion and conversion into the canonical question stream.

Canonical format is JSONL, one object per line:
{"id", "image", "question", "answers", "qtype"?, "sub_qas"?}.
"""

from __future__ import annotations

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


def read_jsonl(path) -> Iterator[Tuple[int, object]]:
    """Yield (line number, parsed value) for each non-blank line of a JSONL
    file; a line that is no JSON, nests too deep to parse, holds a string
    that UTF-8 cannot encode or a byte that is not UTF-8 raises DatasetError
    naming ``path:line``."""
    yield from parse_jsonl_lines(path, _encodable_lines(path, _numbered_lines(path)))


def _numbered_lines(path) -> Iterator[Tuple[int, str]]:
    """The (line number, line) pairs of a UTF-8 file. A byte that is not
    UTF-8 raises DatasetError naming its line, once every line before it is
    yielded."""
    done = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for done, line in enumerate(fh, start=1):
                yield done, line
        return
    except UnicodeDecodeError:
        pass
    lines, problem = utf8_prefix(path)
    yield from enumerate(lines[done:], start=done + 1)
    raise DatasetError(f"{path}:{len(lines) + 1}: {problem}")


def utf8_prefix(path) -> Tuple[List[str], str]:
    """The lines of ``path`` before the first one with a byte that is not
    UTF-8, and what is wrong with that line, number ``len(lines) + 1``.

    A file opened as UTF-8 decodes ahead of the line it returns, so its
    UnicodeDecodeError cannot name the line: readers call this on that
    error path.
    """
    lines = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                # surrogateescape decodes the byte b as the code point U+DC00 + b.
                return lines, f"byte {ord(line[exc.start]) - 0xDC00:#04x} is not UTF-8"
            lines.append(line)
    raise AssertionError(f"{path}: a decode failed but every line is UTF-8")


def _encodable_lines(path, numbered_lines) -> Iterator[Tuple[int, str]]:
    """The (line number, line) pairs, raising DatasetError naming
    ``path:line`` for a line with a string that holds an unpaired surrogate:
    JSON may escape one, but a UTF-8 file written from it cannot hold it.
    Only a \\ud escape decodes to a surrogate, so only a line holding one
    is parsed here; one that is no JSON is left to ``parse_jsonl_lines``."""
    for lineno, line in numbered_lines:
        if "\\ud" in line or "\\uD" in line:
            try:
                json.dumps(json.loads(line), ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise DatasetError(
                    f"{path}:{lineno}: a string holds the unpaired surrogate"
                    f" {exc.object[exc.start]!r}"
                ) from exc
            except (ValueError, RecursionError):
                pass
        yield lineno, line


def parse_jsonl_lines(path, numbered_lines) -> Iterator[Tuple[int, object]]:
    """``read_jsonl`` over (line number, line) pairs already read from
    ``path``, less its surrogate check."""
    for lineno, line in numbered_lines:
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
