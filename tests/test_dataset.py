import hashlib
import json
import re
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("field_at, json_at", [(2, 5), (256, 257)], ids=["one_chunk", "two_chunks"])
def test_field_error_is_named_before_later_bad_json(tmp_path, field_at, json_at):
    """A record with a bad field is named before a later line that is no
    JSON: in one chunk, and on the last line of a chunk before the next
    chunk's first."""
    path = tmp_path / "data.jsonl"
    lines = [json.dumps({**GOOD, "id": f"q{i}"}) for i in range(300)]
    lines[field_at - 1] = json.dumps({**GOOD, "id": "bad", "answers": "yes"})
    lines[json_at - 1] = "{not json"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(
        DatasetError, match=rf"data.jsonl:{field_at}: 'answers' must be a list of strings$"
    ):
        dataset.load_dataset(path)


def test_nesting_near_the_recursion_limit_loads_or_is_named(tmp_path):
    """A value nested up to and past what the interpreter can parse or
    encode back loads, or is named as nested too deeply: it never ends in a
    RecursionError."""
    path = tmp_path / "data.jsonl"
    limit = sys.getrecursionlimit()
    for depth in range(limit // 2, limit + 5):
        nested = "[" * depth + "]" * depth
        path.write_text(json.dumps(GOOD)[:-1] + f', "x": {nested}}}\n')
        try:
            dataset.load_dataset(path)
        except DatasetError as exc:
            assert str(exc) == f"{path}:1: invalid JSON (nested too deeply)"


# JSON text that parsers read differently or that is easy to get wrong:
# integers past 64 bits, constants json.loads takes that JSON lacks, floats
# beyond float range or past 19 digits, in repr, %.17g and exponent forms,
# unpaired and paired surrogate escapes, and objects with repeated keys.
NUMBERS = st.one_of(
    st.integers(-(10 ** 25), 10 ** 25).map(str),
    st.integers(2 ** 64 - 2, 2 ** 64 + 2).map(str),
    st.integers(-(2 ** 63) - 2, -(2 ** 63) + 2).map(str),
    st.sampled_from([
        "-0", "9" * 19, "NaN", "Infinity", "-Infinity", "1e400", "-1e400",
        "1e-400", "4.9e-324", "1.7976931348623159e308", "0.1000000000000000055511151231257827",
    ]),
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda x: st.sampled_from([repr(x), "%.17g" % x, "%.20e" % x, "%E" % x])
    ),
)
STRINGS = st.lists(
    st.one_of(
        st.text(max_size=4).map(lambda text: json.dumps(text, ensure_ascii=False)[1:-1]),
        st.sampled_from(UNPAIRED + NOT_UNPAIRED + ["\\u00e9", "\\n", "12345678901234567890"]),
    ),
    max_size=3,
).map(lambda parts: '"' + "".join(parts) + '"')
VALUES = st.recursive(
    st.one_of(st.sampled_from(["null", "true", "false"]), NUMBERS, STRINGS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda items: "[" + ", ".join(items) + "]"),
        st.lists(st.tuples(st.sampled_from(['"a"', '"b"', '"\\u0061"']), inner), max_size=4).map(
            lambda pairs: "{" + ", ".join(f"{key}: {value}" for key, value in pairs) + "}"
        ),
    ),
    max_leaves=10,
)
# A good line, a value with JSON whitespace around it, and an odd one: one
# with a byte order mark or other text around its value, torn, or blank.
GOOD_LINES = st.tuples(
    st.sampled_from(["", " ", "\t", "\r"]), VALUES, st.sampled_from(["", " \t"])
).map("".join)
ODD_LINES = st.one_of(
    st.tuples(st.sampled_from(["\ufeff", "\x0c", "\u3000"]), VALUES).map("".join),
    st.tuples(VALUES, st.sampled_from([" 1", "]"])).map("".join),
    VALUES.filter(lambda text: len(text) > 1).flatmap(
        lambda text: st.integers(1, len(text) - 1).map(lambda cut: text[:cut])
    ),
    st.sampled_from(["", " ", "\u3000\x1f"]),
)


@st.composite
def jsonl_chunks(draw) -> list:
    """Up to eight good lines with up to two odd ones among them, each
    ending in LF, CR LF or nothing."""
    lines = draw(st.lists(GOOD_LINES, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(ODD_LINES))
    return [line + draw(st.sampled_from(["\n", "\r\n", ""])) for line in lines]


def same(a, b) -> bool:
    """Equal, and of one type all through: floats to the bit and dicts in
    key order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(map(same, a.values(), b.values()))
    return a == b


def json_loads_lines(path, lines) -> list:
    """json.loads of each non-blank line, or the DatasetError that
    ``parse_chunk`` names the first bad one with."""
    values = []
    for lineno, line in enumerate(lines, 1):
        if not line or line.isspace():
            continue
        try:
            values.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
    return values


@settings(max_examples=300, deadline=None)
@given(jsonl_chunks())
def test_parse_chunk_gives_json_loads_values_and_errors(lines):
    encoded = [line.encode("utf-8") for line in lines]
    chunk = dataset.Chunk(1, encoded, b"".join(encoded))
    try:
        expected = json_loads_lines("chunk", lines)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as raised:
            dataset.parse_chunk("chunk", chunk, lambda values: values)
        assert str(raised.value) == str(exc)
    else:
        assert same(dataset.parse_chunk("chunk", chunk, lambda values: values), expected)


# Line ends, and line texts: JSON, text with blanks that only str.isspace
# calls blank (\x1c, U+3000), multi-byte UTF-8, and bytes that are not
# UTF-8 (a lone 0xff, a sequence cut short, an encoded surrogate).
LINE_ENDS = [b"\n", b"\r\n", b"\r"]
LINE_TEXTS = [b'{"a": 1}', b"", b" ", "\x1c".encode(), "\u3000".encode(), "\u00e9t\u00e9".encode()]
NOT_UTF8_BYTES = [b"\xff", b"\xe2\x82", b"\xed\xa0\x80"]


@st.composite
def byte_files(draw) -> bytes:
    """Up to 600 lines, each ending in LF, CR LF or CR (the last maybe in
    nothing); perhaps a lone CR at the end of line 256, so that a line is
    split at a 256-line chunk boundary, and perhaps a byte that is not UTF-8
    in some line."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.sampled_from([0, 1, 255, 256, 257, 520, rng.randint(2, 600)]))
    lines = [rng.choice(LINE_TEXTS) + rng.choice(LINE_ENDS) for _ in range(n)]
    if n >= 257 and draw(st.booleans()):
        lines[255] = b'{"a": 1}\r'
    if n and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip(b"\r\n")
    if n and draw(st.booleans()):
        at = draw(st.sampled_from([0, n - 1, rng.randrange(n)]))
        lines[at] = draw(st.sampled_from(NOT_UTF8_BYTES)) + lines[at]
    return b"".join(lines)


@settings(max_examples=150, deadline=None)
@given(byte_files(), st.sampled_from([1, 3, 256]))
def test_read_chunks_splits_and_names_bytes_as_text_mode(tmp_path_factory, data, size):
    """``read_chunks`` gives the lines, numbers and first bad byte that
    reading the file in text mode gives, and the file's SHA-256."""
    path = tmp_path_factory.mktemp("read") / "data.jsonl"
    path.write_bytes(data)
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        text_lines = list(fh)
    expected, problem = [], None
    for lineno, line in enumerate(text_lines, 1):
        # surrogateescape reads the byte b as the code point U+DC00 + b.
        bad = [ord(c) - 0xDC00 for c in line if 0xDC80 <= ord(c) <= 0xDCFF]
        if bad:
            problem = f"{path}:{lineno}: byte {bad[0]:#04x} is not UTF-8"
            break
        expected.append((lineno, line.encode("utf-8")))
    digest = hashlib.sha256()
    got = []
    try:
        for chunk in dataset.read_chunks(path, size, digest):
            assert chunk.data == b"".join(chunk.lines)
            got += enumerate(chunk.lines, chunk.start)
    except DatasetError as exc:
        assert str(exc) == problem
    else:
        assert problem is None
        assert digest.digest() == hashlib.sha256(data).digest()
    assert got == expected


def test_read_json_counts_positions_as_text_mode_reads_line_ends(tmp_path):
    path = tmp_path / "config.json"
    for end in ("\r\n", "\r"):
        path.write_bytes(f'{{{end}"a": 1,{end}"b": x{end}}}'.encode("utf-8"))
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads('{\n"a": 1,\n"b": x\n}')
        with pytest.raises(DatasetError, match=f"^{re.escape(str(expected.value))}$"):
            dataset.read_json(path)


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


def test_boolean_qtype_requires_yes_no(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [{**GOOD, "answers": ["blue"], "qtype": "boolean"}])
    with pytest.raises(DatasetError, match="non-boolean answer 'blue'"):
        dataset.load_dataset(path)
    # "Yes." normalizes to yes, so it is acceptable.
    write_lines(path, [{**GOOD, "answers": ["Yes."], "qtype": "boolean"}])
    assert dataset.load_dataset(path)[0].answers == ("Yes.",)


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
