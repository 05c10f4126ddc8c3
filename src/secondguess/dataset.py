"""Dataset ingestion and conversion into the canonical question stream.

Canonical format is JSONL, one object per line:
{"id", "image", "question", "answers", "qtype"?, "sub_qas"?}.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import IO, Iterable, List, Optional, Union

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


@dataclass
class DatasetManifest:
    name: str
    items: int = 0
    avg_question_length: Optional[float] = None


def _is_sub_qa(pair) -> bool:
    return (
        isinstance(pair, list)
        and len(pair) == 2
        and isinstance(pair[0], str)
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
    answers = obj["answers"]
    if not (isinstance(answers, list) and all(isinstance(a, str) for a in answers)):
        raise DatasetError(f"{where}: 'answers' must be a list of strings")
    sub_qas = obj.get("sub_qas")
    if sub_qas is not None:
        if not (isinstance(sub_qas, list) and all(map(_is_sub_qa, sub_qas))):
            raise DatasetError(
                f"{where}: 'sub_qas' must be a list of [question, answer] pairs"
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


def load_dataset(path, name: Optional[str] = None):
    """Load a canonical JSONL dataset.

    Returns (questions, manifest). Parse failures name the offending line;
    duplicate ids and empty answer lists are rejected.
    """
    questions: List[VisualQuestion] = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{where}: invalid JSON ({exc.msg})") from exc
            q = _question_from_obj(obj, where)
            if q.id in seen:
                raise DatasetError(f"{where}: duplicate id {q.id!r}")
            seen.add(q.id)
            questions.append(q)
    return questions, DatasetManifest(name=name or str(path), items=len(questions))


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


def save_dataset(questions: Iterable[VisualQuestion], sink: Union[str, IO]) -> int:
    """Serialize questions in canonical field order; returns the item count."""
    own = isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__")
    fh = open(sink, "w", encoding="utf-8") if own else sink
    count = 0
    try:
        for q in questions:
            fh.write(json.dumps(question_to_obj(q), ensure_ascii=False) + "\n")
            count += 1
    finally:
        if own:
            fh.close()
    return count


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
        for key in ("id", "image_0", "image_1", "caption_0", "caption_1"):
            if key not in record:
                raise DatasetError(f"winoground record missing field {key!r}")
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


def extract_introspect(records: Iterable[dict]):
    """Extract reasoning questions with their human-written perception
    sub-QAs. Records with zero sub-QAs are skipped and tallied.

    When a subquestion carries multiple annotator answers, the first listed
    answer is used.
    """
    questions: List[VisualQuestion] = []
    skipped = 0
    for record in records:
        sub_qas = record.get("sub_qas") or []
        if not sub_qas:
            skipped += 1
            continue
        collapsed = []
        for pair in sub_qas:
            sub_q, sub_a = pair[0], pair[1]
            if isinstance(sub_a, (list, tuple)):
                sub_a = sub_a[0] if sub_a else None
            collapsed.append(SubQA(question=sub_q, answer=sub_a))
        questions.append(
            VisualQuestion(
                id=record["id"],
                image=record["image"],
                question=record["question"],
                answers=tuple(record["answers"]),
                qtype=record.get("qtype", "other"),
                oracle_sub_qas=tuple(collapsed),
            )
        )
    return questions, skipped


def stats(questions: List[VisualQuestion], name: str = "dataset") -> DatasetManifest:
    """Item count plus mean whitespace-token question length."""
    manifest = DatasetManifest(name=name, items=len(questions))
    if questions:
        manifest.avg_question_length = sum(
            len(q.question.split()) for q in questions
        ) / len(questions)
    return manifest
