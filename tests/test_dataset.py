import json

import pytest

from conftest import NOT_UNPAIRED, NOT_UTF8, UNPAIRED, raw
from secondguess import dataset
from secondguess.dataset import DatasetError, VisualQuestion
from secondguess.evaluation import is_match


def write_lines(path, lines):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))


GOOD = {"id": "q1", "image": "img.jpg", "question": "is it raining?", "answers": ["no"]}


def test_load_single_item(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [GOOD])
    questions = dataset.load_dataset(path)
    assert len(questions) == 1
    assert questions[0].id == "q1"
    assert questions[0].answers == ("no",)
    assert questions[0].qtype == "other"


def test_missing_answers_names_line(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [{"id": "q1", "image": "i.jpg", "question": "x?"}])
    with pytest.raises(DatasetError, match=":1"):
        dataset.load_dataset(path)


def test_invalid_json_names_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(GOOD) + "\n{not json\n")
    with pytest.raises(DatasetError, match=":2"):
        dataset.load_dataset(path)


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [GOOD, GOOD])
    with pytest.raises(DatasetError, match="duplicate id"):
        dataset.load_dataset(path)


def test_empty_answers_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [{**GOOD, "answers": []}])
    with pytest.raises(DatasetError):
        dataset.load_dataset(path)


@pytest.mark.parametrize(
    "line",
    [
        {**GOOD, "id": "q2", "answers": "yes"},
        5,
        ["q2", "img.jpg"],
        {**GOOD, "id": "q2", "sub_qas": [["is it wet"]]},
        {**GOOD, "id": "q2", "sub_qas": "is it wet"},
        {**GOOD, "id": "q2", "question": 7},
    ],
    ids=["answers_string", "number", "array", "short_sub_qa", "sub_qas_string", "question_number"],
)
def test_malformed_record_names_line(tmp_path, line):
    path = tmp_path / "data.jsonl"
    write_lines(path, [GOOD, line])
    with pytest.raises(DatasetError, match=":2"):
        dataset.load_dataset(path)


def test_byte_not_utf8_is_named_after_every_line_before_it(tmp_path):
    """The file decodes ahead of the lines a chunk takes, and the byte's line
    is found by counting newlines: on the first and the last line of a
    chunk, and on a last line with no newline. A bad line before the byte's
    line, in its chunk or the one before, is still named first."""
    path = tmp_path / "data.jsonl"
    for position in (1, 31, 256, 257, 300):
        lines = [json.dumps({**GOOD, "id": f"q{i}"}) for i in range(300)]
        lines[position - 1] = lines[position - 1].replace("raining", "rain" + NOT_UTF8)
        end = "\n" if position < len(lines) else ""
        path.write_bytes(raw("\n".join(lines) + end))
        with pytest.raises(DatasetError, match=rf"data.jsonl:{position}: byte 0xff is not UTF-8$"):
            dataset.load_dataset(path)
        if position > 1:
            lines[position - 2] = "{not json"
            path.write_bytes(raw("\n".join(lines) + end))
            with pytest.raises(DatasetError, match=rf"data.jsonl:{position - 1}: invalid JSON \("):
                dataset.load_dataset(path)


@pytest.mark.parametrize("escape", UNPAIRED)
@pytest.mark.parametrize("field", ["id", "question", "answers"])
def test_unpaired_surrogate_names_line(tmp_path, field, escape):
    path = tmp_path / "data.jsonl"
    record = {**GOOD, "id": "q2", field: ["MARK"] if field == "answers" else "MARK"}
    line = json.dumps(record).replace("MARK", f"x{escape}")
    path.write_text(json.dumps(GOOD) + "\n" + line + "\n")
    with pytest.raises(DatasetError, match=r":2: a string holds the unpaired surrogate"):
        dataset.load_dataset(path)


@pytest.mark.parametrize("escape", NOT_UNPAIRED)
def test_paired_surrogates_and_escaped_backslash_load(tmp_path, escape):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(GOOD).replace('"q1"', f'"q{escape}"') + "\n")
    (question,) = dataset.load_dataset(path)
    assert question.id == json.loads(f'"q{escape}"')
    question.id.encode("utf-8")


def test_boolean_qtype_requires_yes_no():
    with pytest.raises(DatasetError):
        VisualQuestion(
            id="q", image="i.jpg", question="x?", answers=("blue",), qtype="boolean"
        )
    # "Yes." normalizes to yes, so it is acceptable.
    VisualQuestion(
        id="q", image="i.jpg", question="x?", answers=("Yes.",), qtype="boolean"
    )


def test_roundtrip_is_stable(tmp_path):
    original = tmp_path / "a.jsonl"
    write_lines(
        original,
        [
            {**GOOD, "qtype": "other", "sub_qas": [["is the sky blue", "no"]]},
            {**GOOD, "id": "q2", "qtype": "other"},
        ],
    )
    questions = dataset.load_dataset(original)
    first = tmp_path / "b.jsonl"
    second = tmp_path / "c.jsonl"
    dataset.save_dataset(questions, first)
    reloaded = dataset.load_dataset(first)
    dataset.save_dataset(reloaded, second)
    assert first.read_bytes() == second.read_bytes()


WINOGROUND = [
    {
        "id": "w0",
        "image_0": "w0_0.png",
        "image_1": "w0_1.png",
        "caption_0": "a dog chases a cat",
        "caption_1": "a cat chases a dog",
    },
    {
        "id": "w1",
        "image_0": "w1_0.png",
        "image_1": "w1_1.png",
        "caption_0": "an empty full glass",
        "caption_1": "a full empty glass",
    },
]


def test_convert_winoground_counts_and_balance():
    questions, warnings = dataset.convert_winoground(WINOGROUND)
    assert len(questions) == 8
    assert warnings == 0
    assert len({q.image for q in questions}) == 4
    labels = [q.answers[0] for q in questions]
    assert labels.count("yes") == 4
    assert labels.count("no") == 4
    assert all(q.qtype == "boolean" for q in questions)
    assert questions[0].question == 'does "a dog chases a cat" describe the image?'


def test_convert_winoground_constant_yes_scores_half():
    questions, _ = dataset.convert_winoground(WINOGROUND)
    score = sum(is_match("yes", list(q.answers)) for q in questions) / len(questions)
    assert score == 0.5


def test_convert_winoground_identical_captions_warn_but_keep():
    record = dict(WINOGROUND[0], caption_1=WINOGROUND[0]["caption_0"])
    questions, warnings = dataset.convert_winoground([record])
    assert len(questions) == 4
    assert warnings == 1
    # Labels still follow index matching even though captions collide.
    assert sorted(q.answers[0] for q in questions) == ["no", "no", "yes", "yes"]


def test_convert_winoground_missing_field():
    with pytest.raises(DatasetError, match="caption_1"):
        dataset.convert_winoground([{k: v for k, v in WINOGROUND[0].items() if k != "caption_1"}])


@pytest.mark.parametrize(
    "record, problem",
    [(5, "JSON object"), (["w0"], "JSON object"), (dict(WINOGROUND[0], image_0=7), "'image_0'"),
     (dict(WINOGROUND[0], id=None), "'id'"), (dict(WINOGROUND[0], caption_1=[]), "'caption_1'")],
)
def test_convert_winoground_rejects_mistyped_record(record, problem):
    with pytest.raises(DatasetError, match=problem):
        dataset.convert_winoground([record])


def test_stats_mean_question_length():
    questions = [
        VisualQuestion(id="a", image="i", question="a b", answers=("x",)),
        VisualQuestion(id="b", image="i", question="a b c d", answers=("x",)),
    ]
    assert dataset.stats(questions) == {"items": 2, "images": 1, "avg_question_length": 3.0}


def test_stats_empty_stream():
    assert dataset.stats([]) == {"items": 0, "images": 0, "avg_question_length": None}
