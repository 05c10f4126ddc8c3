import json
import math
import random
import re
import socket
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import closing
from pathlib import Path
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FlakyBackend,
    NESTED_TOO_DEEP,
    NOT_UTF8,
    QSpec,
    RecordingBackend,
    Reply,
    linear_first_match,
    raw,
    read_script_by_line,
    run_records,
    spec_entries,
    spec_questions,
)
from secondguess.backend import (
    ANSWER_PARAMS,
    DECOMPOSE_PARAMS,
    ROLES,
    BackendRole,
    HTTPBackend,
    InferenceRequest,
    InferenceResult,
    MockBackend,
    MockEntry,
    ProtocolError,
    ScriptMissError,
    TransportError,
    confidence_of,
)
from secondguess.dataset import DatasetError
from secondguess.pipeline import Engine, PipelineConfig

RECOMPOSER = BackendRole("recomposer")


def request(prompt="hello", request_id="r1"):
    return InferenceRequest(
        prompt=prompt, params=ANSWER_PARAMS, request_id=request_id
    )


def test_mock_scripted_echo():
    backend = MockBackend(
        [MockEntry("hello", "recomposer", "yes", (-0.105,))]
    )
    result = backend.complete(request(), RECOMPOSER)
    assert result.text == "yes"
    assert result.cumulative_logprob == pytest.approx(-0.105)
    assert confidence_of(result) == pytest.approx(0.9003, abs=1e-4)


def test_mock_first_match_wins():
    backend = MockBackend(
        [
            MockEntry("hel", "recomposer", "first", (-0.1,)),
            MockEntry("hello", "recomposer", "second", (-0.1,)),
        ]
    )
    assert backend.complete(request(), RECOMPOSER).text == "first"


def test_mock_role_respected():
    backend = MockBackend([MockEntry("hello", "decomposer", "sub?", (-0.1,))])
    with pytest.raises(ScriptMissError):
        backend.complete(request(), RECOMPOSER)
    assert backend.complete(request(), BackendRole("decomposer")).text == "sub?"


def test_empty_text_is_protocol_violation():
    with pytest.raises(ProtocolError):
        InferenceResult.from_payload(
            {"text": "", "token_logprobs": [-0.1], "cumulative_logprob": -0.1}
        )


def test_cumulative_sum_mismatch_is_protocol_violation():
    with pytest.raises(ProtocolError):
        InferenceResult.from_payload(
            {"text": "yes", "token_logprobs": [-0.2, -0.3], "cumulative_logprob": -0.6}
        )


def test_positive_logprob_is_protocol_violation():
    with pytest.raises(ProtocolError):
        InferenceResult.from_payload(
            {"text": "yes", "token_logprobs": [0.1], "cumulative_logprob": 0.1}
        )


@pytest.mark.parametrize(
    "fields",
    [{"text": 5}, {"text": None}, {"token_logprobs": ["-0.1"]}, {"token_logprobs": [False]},
     {"token_logprobs": {}}, {"cumulative_logprob": "-0.1"}, {"cumulative_logprob": math.nan}],
    ids=["text_number", "text_null", "logprob_string", "logprob_bool", "logprobs_object",
         "cumulative_string", "cumulative_nan"],
)
def test_mistyped_payload_is_protocol_violation(fields):
    payload = {"text": "yes", "token_logprobs": [-0.1], "cumulative_logprob": -0.1}
    with pytest.raises(ProtocolError):
        InferenceResult.from_payload({**payload, **fields})


def test_unpaired_surrogate_text_is_protocol_violation():
    # json.loads turns the escape "ye\\ud800s" into this text.
    payload = {"text": "ye\ud800s", "token_logprobs": [-0.1], "cumulative_logprob": -0.1}
    with pytest.raises(ProtocolError, match="not valid Unicode"):
        InferenceResult.from_payload(payload)
    paired = json.loads('"\\ud83d\\ude00"')
    assert InferenceResult.from_payload({**payload, "text": paired}).text == paired


def test_confidence_edge_values():
    zero = InferenceResult("a", (), 0.0)
    assert confidence_of(zero) == 1.0
    half = InferenceResult("a", (math.log(0.5),), math.log(0.5))
    assert confidence_of(half) == pytest.approx(0.5)


def test_confidence_matches_surprisal_threshold():
    # exp(-8.13 * ln 2) has surprisal 8.13 bits.
    result = InferenceResult("a", (-8.13 * math.log(2),), -8.13 * math.log(2))
    assert math.log2(1 / confidence_of(result)) == pytest.approx(8.13, abs=1e-9)


@given(
    st.floats(min_value=-30, max_value=0, allow_nan=False),
    st.floats(min_value=-30, max_value=0, allow_nan=False),
)
def test_confidence_order_preserving(a, b):
    # Monotone up to float flatness: exp() can round adjacent log-probs to
    # the same confidence, so the ordering is non-strict.
    ra = InferenceResult("x", (a,), a)
    rb = InferenceResult("x", (b,), b)
    if a >= b:
        assert confidence_of(ra) >= confidence_of(rb)


def test_decompose_params():
    params = DECOMPOSE_PARAMS
    assert params.mode == "multinomial_beam"
    assert params.num_beams == 5
    assert params.top_p == 0.95
    assert params.temperature == 1.0
    assert params.length_penalty == 1.0
    assert params.repetition_penalty == 1.0


def test_answer_params():
    params = ANSWER_PARAMS
    assert params.mode == "deterministic_beam"
    assert params.num_beams == 5
    assert params.max_new_tokens == 10
    assert params.min_new_tokens == 1
    assert params.length_penalty == -1.0


def test_flaky_backend_retries_then_succeeds():
    inner = MockBackend([MockEntry("hello", "recomposer", "yes", (-0.1,))])
    flaky = FlakyBackend(inner=inner, failures_before_success=2, attempts=3)
    result = flaky.complete(request(), RECOMPOSER)
    assert result.text == "yes"
    assert result.retries == 2


def test_flaky_backend_exhausts_budget():
    inner = MockBackend([MockEntry("hello", "recomposer", "yes", (-0.1,))])
    flaky = FlakyBackend(inner=inner, failures_before_success=5, attempts=3)
    with pytest.raises(TransportError):
        flaky.complete(request(), RECOMPOSER)


def http_backend(url, **kwargs):
    """An HTTPBackend that does not sleep between retries, closed on leaving
    the ``with`` block: an unclosed socket would fail the test."""
    return closing(HTTPBackend(url, sleep=lambda _: None, **kwargs))


GOOD_PAYLOAD = {"text": "yes", "token_logprobs": [-0.1, -0.2], "cumulative_logprob": -0.3}


def test_http_backend_success_and_wire_format(loopback):
    server = loopback([Reply(200, GOOD_PAYLOAD)])
    with http_backend(server.url) as backend:
        result = backend.complete(request(prompt="Question: x Short Answer:"), RECOMPOSER)
    assert result.text == "yes"
    path, content_type, raw = server.received[0]
    assert path == "/v1/generate"
    assert content_type == "application/json"
    body = json.loads(raw)
    assert set(body) == {"prompt", "image", "params"}
    assert set(body["params"]) == {
        "mode",
        "num_beams",
        "top_p",
        "temperature",
        "length_penalty",
        "repetition_penalty",
        "max_new_tokens",
        "min_new_tokens",
    }


def test_http_backend_wire_bytes_and_path_prefix(loopback):
    server = loopback([Reply(200, GOOD_PAYLOAD)])
    req = InferenceRequest(
        prompt="Question: is the café open? Short Answer:",
        params=DECOMPOSE_PARAMS,
        request_id="q1#initial",
        image="aW1n",
    )
    with http_backend(server.url + "/api/") as backend:
        backend.complete(req, RECOMPOSER)
    path, _, raw = server.received[0]
    assert path == "/api/v1/generate"
    body = {"prompt": req.prompt, "image": req.image, "params": asdict(req.params)}
    assert raw == json.dumps(body, allow_nan=False).encode("utf-8")


def test_http_backend_retries_transport_faults(loopback):
    server = loopback([Reply(None), Reply(503), Reply(200, GOOD_PAYLOAD)])
    with http_backend(server.url) as backend:
        result = backend.complete(request(), RECOMPOSER)
    assert result.text == "yes"
    assert result.retries == 2


def test_http_backend_retries_503_then_succeeds(loopback):
    server = loopback([Reply(503), Reply(200, GOOD_PAYLOAD)])
    with http_backend(server.url) as backend:
        result = backend.complete(request(), RECOMPOSER)
    assert result.retries == 1
    assert len(server.received) == 2
    assert server.connections == 1


def test_http_backend_gives_up_after_budget(loopback):
    server = loopback([Reply(500)] * 3)
    with http_backend(server.url, attempts=3) as backend:
        with pytest.raises(TransportError):
            backend.complete(request(), RECOMPOSER)
    assert len(server.received) == 3


def test_http_backend_connection_refused_uses_every_attempt():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    delays = []
    backend = HTTPBackend(
        f"http://127.0.0.1:{port}", attempts=3, base_delay=0.5, sleep=delays.append
    )
    with closing(backend):
        with pytest.raises(TransportError, match="ConnectionRefusedError"):
            backend.complete(request(), RECOMPOSER)
    assert delays == [0.5, 1.0]


def test_http_backend_protocol_error_not_retried(loopback):
    server = loopback([Reply(400), Reply(200, GOOD_PAYLOAD)])
    with http_backend(server.url) as backend:
        with pytest.raises(ProtocolError):
            backend.complete(request(), RECOMPOSER)
    assert len(server.received) == 1


@pytest.mark.parametrize("status", [302, 404, 422])
def test_http_backend_non_200_is_protocol_error(loopback, status):
    server = loopback([Reply(status, {}), Reply(200, GOOD_PAYLOAD)])
    with http_backend(server.url) as backend:
        with pytest.raises(ProtocolError, match=f"unexpected status {status}"):
            backend.complete(request(), RECOMPOSER)
    assert len(server.received) == 1


def test_http_backend_malformed_body_not_retried(loopback):
    for body in (b"not json", NESTED_TOO_DEEP.encode("ascii")):
        server = loopback([Reply(200, body), Reply(200, GOOD_PAYLOAD)])
        with http_backend(server.url) as backend:
            with pytest.raises(ProtocolError, match="not valid JSON"):
                backend.complete(request(), RECOMPOSER)
        assert len(server.received) == 1


def test_http_backend_logprob_beyond_float_not_retried(loopback):
    # JSON holds a 400-digit integer, under the int-string conversion limit,
    # that no float can.
    huge = -(10 ** 399)
    body = {"text": "yes", "token_logprobs": [huge], "cumulative_logprob": huge}
    server = loopback([Reply(200, body), Reply(200, GOOD_PAYLOAD)])
    with http_backend(server.url) as backend:
        with pytest.raises(ProtocolError, match="beyond float range"):
            backend.complete(request(), RECOMPOSER)
    assert len(server.received) == 1


def test_http_backend_reopens_dropped_keepalive_once(loopback):
    server = loopback(
        [
            Reply(200, GOOD_PAYLOAD),
            Reply(200, GOOD_PAYLOAD, close=True),
            Reply(200, GOOD_PAYLOAD),
            Reply(200, GOOD_PAYLOAD, close=True),
            Reply(None),
            Reply(200, GOOD_PAYLOAD),
        ]
    )
    with http_backend(server.url) as backend:
        backend.complete(request(), RECOMPOSER)
        backend.complete(request(), RECOMPOSER)
        assert server.connections == 1  # kept alive
        # The server closed the socket after its last reply: reopened, no retry.
        assert backend.complete(request(), RECOMPOSER).retries == 0
        assert server.connections == 2
        backend.complete(request(), RECOMPOSER)
        # Reopened once more, and the new connection fails too: that is a
        # transport fault, retried on a fourth connection.
        assert backend.complete(request(), RECOMPOSER).retries == 1
        assert server.connections == 4
    assert len(server.received) == 6


def test_http_backend_read_timeout_is_transport_error(loopback):
    server = loopback([Reply(200, GOOD_PAYLOAD, delay=10.0)])
    with http_backend(server.url, attempts=1, timeout=0.2) as backend:
        start = time.perf_counter()
        with pytest.raises(TransportError, match="TimeoutError"):
            backend.complete(request(), RECOMPOSER)
    assert time.perf_counter() - start < 5.0


def test_http_backend_keeps_one_connection_per_thread(loopback):
    threads, calls = 8, 5
    server = loopback([Reply(200, GOOD_PAYLOAD)] * (threads * calls))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with http_backend(server.url) as backend:
            start = threading.Barrier(threads)

            def work():
                start.wait(timeout=10)
                results.extend(backend.complete(request(), RECOMPOSER) for _ in range(calls))

            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=10)
            assert not any(worker.is_alive() for worker in workers)
            opened = list(backend._opened)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == threads * calls and all(r.retries == 0 for r in results)
    assert server.connections == len(opened) == threads
    assert all(conn.sock is None for conn in opened)


def test_mock_script_roundtrip(tmp_path):
    script = tmp_path / "script.jsonl"
    script.write_text(
        '{"match": {"prompt_contains": "hello", "role": "recomposer"}, '
        '"response": {"text": "yes", "token_logprobs": [-0.105]}}\n'
    )
    backend = MockBackend.from_script(script)
    result = backend.complete(request(), RECOMPOSER)
    assert result.text == "yes"
    assert result.cumulative_logprob == pytest.approx(-0.105)


def test_mock_script_byte_not_utf8_is_named_after_every_line_before_it(tmp_path):
    """The file decodes ahead of the lines a chunk takes, and the byte's line
    is found by counting newlines: on the first and the last line of a
    chunk, and on a last line with no newline. A bad line before the byte's
    line, in its chunk or the one before, is still named first."""
    line = (
        '{"match": {"prompt_contains": "hello", "role": "recomposer"}, '
        '"response": {"text": "yes", "token_logprobs": [-0.105]}}'
    )
    script = tmp_path / "script.jsonl"
    for position in (1, 31, 256, 257, 300):
        lines = [line] * 300
        lines[position - 1] = line.replace("yes", "yes" + NOT_UTF8)
        end = "\n" if position < len(lines) else ""
        script.write_bytes(raw("\n".join(lines) + end))
        where = re.escape(f"{script}:{position}: ")
        with pytest.raises(DatasetError, match=f"^{where}byte 0xff is not UTF-8$"):
            MockBackend.from_script(script)
        if position > 1:
            lines[position - 2] = "{not json"
            script.write_bytes(raw("\n".join(lines) + end))
            where = re.escape(f"{script}:{position - 1}: ")
            with pytest.raises(DatasetError, match=f"^{where}invalid JSON \\("):
                MockBackend.from_script(script)


GOOD_LINE = (
    '{"match": {"prompt_contains": "hello", "role": "recomposer"}, '
    '"response": {"text": "yes", "token_logprobs": [-0.105]}}'
)
TOO_FAR = -(2 ** 53 + 1)  # rounds to a float 1 away
# Script lines, as the file holds them once ``raw`` has written them, that
# the chunked reader must read as the line-by-line reference does. Those
# named in GOOD_EDGES are good lines, the others bad.
SCRIPT_LINE_EDGES = {
    "bom": "\ufeff" + GOOD_LINE,
    "nan": GOOD_LINE.replace("[-0.105]", "[NaN]"),
    "infinity": GOOD_LINE.replace("[-0.105]", "[Infinity]"),
    "logprob_true": GOOD_LINE.replace("[-0.105]", "[true]"),
    "logprob_positive": GOOD_LINE.replace("[-0.105]", "[-0.5, 0.25]"),
    "logprobs_scalar": GOOD_LINE.replace("[-0.105]", "-0.105"),
    "int_400_digits": GOOD_LINE.replace("[-0.105]", f"[{-(10 ** 399)}]"),
    "int_4301_digits": GOOD_LINE.replace("[-0.105]", "[-" + "1" * 4301 + "]"),
    "int_sum_off_by_4": GOOD_LINE.replace("[-0.105]", f"[{TOO_FAR}, {TOO_FAR}, {TOO_FAR}]"),
    "float_plus_int_beyond_float": GOOD_LINE.replace("[-0.105]", f"[-1e308, {-(10 ** 399)}]"),
    "nested_too_deep": NESTED_TOO_DEEP,
    "surrogate_escape": GOOD_LINE.replace('"yes"', '"ye\\ud800s"'),
    "text_empty": GOOD_LINE.replace('"yes"', '""'),
    "role_unknown": GOOD_LINE.replace('"recomposer"', '"recomposr"'),
    "role_list": GOOD_LINE.replace('"recomposer"', '["recomposer"]'),
    "pattern_number": GOOD_LINE.replace('"hello"', "5"),
    "no_response": '{"match": {"prompt_contains": "hello", "role": "recomposer"}}',
    "not_object": "[1, 2]",
    "extra_data": GOOD_LINE + " x",
    "two_objects": GOOD_LINE + GOOD_LINE,
    "not_utf8": GOOD_LINE.replace("yes", "yes" + NOT_UTF8),
    "ints": GOOD_LINE.replace("[-0.105]", "[0, -3]"),
    "minus_infinity": GOOD_LINE.replace("[-0.105]", "[-Infinity, -1e308]"),
    "floats_to_minus_infinity": GOOD_LINE.replace("[-0.105]", "[-1e308, -1e308]"),
}
GOOD_EDGES = {"ints", "minus_infinity", "floats_to_minus_infinity"}
BLANK_LINES = ["", "  ", "\t", " \u3000\x1f "]


def random_script_line(rng: random.Random, ints: bool) -> str:
    """A good script line, or a blank one: patterns with whitespace inside
    and at the ends, texts outside ASCII, log-probabilities of -0.0 and of
    sums that overflow to -inf, and integers only if ``ints``."""
    if rng.random() < 0.1:
        return rng.choice(BLANK_LINES)
    words = ["is", "the", "red", "cup", "\u00e9t\u00e9", "?", "\t", " "]
    pattern = "".join(rng.choice(words) + rng.choice(["", " "]) for _ in range(rng.randint(0, 6)))
    choices = [-0.0, -1e-300, -0.105, -2.5, -1e308] + ([0, -3] if ints else [])
    logprobs = [rng.choice(choices) for _ in range(rng.randint(0, 3))]
    entry = {
        "match": {"prompt_contains": pattern, "role": rng.choice(ROLES)},
        "response": {"text": rng.choice(["yes", "no", "a cup", "\U0001f600"]),
                     "token_logprobs": logprobs},
    }
    if rng.random() < 0.1:
        entry["match"]["note"] = "ignored"
    line = json.dumps(entry, ensure_ascii=rng.random() < 0.5)
    return rng.choice(["", " ", "\u3000"]) + line + rng.choice(["", " \t"])


def read_both(lines):
    """(from_script's entries or DatasetError message, the reference's) for a
    script of ``lines``, written with ``raw``. Each entry comes with the repr
    of its log-probabilities, which tells 0 from 0.0 and from -0.0."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "script.jsonl"
        path.write_bytes(raw("".join(line + "\n" for line in lines)))
        outcomes = []
        for read in (lambda p: MockBackend.from_script(p).entries, read_script_by_line):
            try:
                outcomes.append([(e, repr(e.token_logprobs)) for e in read(path)])
            except DatasetError as exc:
                outcomes.append(str(exc))
    return outcomes


@pytest.mark.parametrize("name", SCRIPT_LINE_EDGES)
def test_mock_script_edge_line_reads_as_by_line(name):
    rng = random.Random(0)
    lines = [random_script_line(rng, ints=False) for _ in range(300)]
    # The first line of the first and of the second chunk, and the last
    # line of each.
    for position in (1, 256, 257, 300):
        script = lines[: position - 1] + [SCRIPT_LINE_EDGES[name]] + lines[position:]
        chunked, by_line = read_both(script)
        assert chunked == by_line
        if name not in GOOD_EDGES:
            assert chunked.partition(": ")[0].endswith(f"script.jsonl:{position}")


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 600), st.integers(0, 2 ** 32), st.booleans(), st.data())
def test_mock_script_reads_as_by_line(n, seed, ints, data):
    """Scripts of up to 600 lines, blank lines among them, with up to two
    edge lines at chunk boundaries, the last line or anywhere. The good
    lines come from a seeded generator, since hypothesis draws too little
    data for one example to draw 600 lines one by one."""
    rng = random.Random(seed)
    lines = [random_script_line(rng, ints) for _ in range(n)]
    positions = st.one_of(st.sampled_from([1, 256, 257, n]), st.integers(1, n))
    for _ in range(data.draw(st.integers(0, 2))):
        position = min(data.draw(positions), n)
        lines[position - 1] = data.draw(st.sampled_from(list(SCRIPT_LINE_EDGES.values())))
    chunked, by_line = read_both(lines)
    assert chunked == by_line


def test_mock_script_memory_per_entry(tmp_path):
    """4,000 script lines, each with a 1,000-character field that the reader
    ignores, peak below 900 traced bytes per entry: the entries take about
    580 and building their index about 90 more. Holding every line of the
    file would take over 1,000 more. The load before tracing keeps one-time
    imports out of the count."""
    script = tmp_path / "script.jsonl"
    with open(script, "w", encoding="utf-8") as fh:
        for i in range(4_000):
            pattern = f"Question: is the red door number {i} on the left? Short Answer:"
            entry = {"comment": "x" * 1_000,
                     "match": {"prompt_contains": pattern, "role": ROLES[i % 2]},
                     "response": {"text": "yes", "token_logprobs": [-0.1 * (i % 7)]}}
            fh.write(json.dumps(entry) + "\n")
    MockBackend.from_script(script)
    tracemalloc.start()
    try:
        backend = MockBackend.from_script(script)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(backend.entries) == 4_000
    assert peak / 4_000 < 900


def test_mock_entries_are_immutable():
    backend = MockBackend([MockEntry("hello", "recomposer", "yes", (-0.1,))])
    assert isinstance(backend.entries, tuple)


# Alphabets with no whitespace test only the unindexed path of MockBackend;
# the others put runs of spaces, tabs and the non-ASCII whitespace that
# str.split also splits on inside, around and at the ends of patterns.
MOCK_ALPHABETS = ["ab", "abc", "abcd", "a ", "ab ", "ab \t", "a\u3000b\x1f", "ab \t\u3000\x1f"]


@st.composite
def mock_scripts(draw):
    """(entries, [(prompt, role)]) over a small alphabet: patterns of length
    0..20, with duplicates and overlaps, and prompts stitched from random
    text and patterns."""
    alphabet = draw(st.sampled_from(MOCK_ALPHABETS))
    base = draw(st.lists(st.text(alphabet, max_size=20), min_size=1, max_size=6))
    pieces = st.builds(lambda s, i, n: s[i : i + n], st.sampled_from(base),
                       st.integers(0, 20), st.integers(0, 20))
    patterns = base + draw(
        st.lists(st.one_of(st.sampled_from(base), pieces), max_size=10)
    )
    patterns = draw(st.permutations(patterns))
    roles = st.sampled_from(ROLES)
    entries = [
        MockEntry(pattern, draw(roles), f"entry {i}", (-0.1,))
        for i, pattern in enumerate(patterns)
    ]
    prompt = st.lists(
        st.one_of(st.text(alphabet, max_size=12), st.sampled_from(patterns)),
        min_size=1,
        max_size=5,
    ).map("".join).filter(bool)
    calls = draw(st.lists(st.tuples(prompt, roles), min_size=1, max_size=5))
    return entries, calls


@settings(max_examples=300, deadline=None)
@given(mock_scripts())
def test_mock_index_matches_linear_scan(script):
    entries, calls = script
    for prompt, role in calls:
        # Check the whole script, then drop each first match in turn: a short
        # pattern early in the script would otherwise hide every later one.
        remaining = entries
        while True:
            backend = MockBackend(remaining)
            expected = linear_first_match(remaining, prompt, role)
            if expected is None:
                with pytest.raises(ScriptMissError):
                    backend.complete(request(prompt), BackendRole(role))
                break
            result = backend.complete(request(prompt), BackendRole(role))
            assert result.text == expected.text
            remaining = [entry for entry in remaining if entry is not expected]


@pytest.mark.parametrize(
    "patterns, prompt, expected",
    [
        # The pattern is not in the prompt, which holds a word from inside
        # it only inside a longer token, or only as a token elsewhere.
        (["a red cup"], "a reddish cup", None),
        (["a red cup"], "red a redcup", None),
        (["a red cup"], "a red mug", None),
        # The first and last words may sit inside longer prompt tokens.
        (["ing the red"], "seeing the red light", "ing the red"),
        (["the re"], "is the red cup?", "the re"),
        (["\tthe\u3000red\x1f"], "x\tthe\u3000red\x1fy", "\tthe\u3000red\x1f"),
        # At the very start and the very end of the prompt, and the whole of it.
        ([" is the"], " is the red cup", " is the"),
        (["red cup\t"], "is the red cup\t", "red cup\t"),
        (["\tred\t"], "\tred\t", "\tred\t"),
        # First match wins among duplicates, unindexed before anchored and
        # anchored before unindexed.
        (["the red cup", "the red cup"], "is the red cup?", "the red cup"),
        (["red", "the red cup"], "is the red cup?", "red"),
        (["the red cup", "red"], "is the red cup?", "the red cup"),
        (["the blue cup", "the red cup", "red"], "is the red cup?", "the red cup"),
        (["a red cup", "the red cup"], "is the red cup?", "the red cup"),
    ],
)
def test_mock_index_edges(patterns, prompt, expected):
    entries = [MockEntry(p, "recomposer", str(i), (-0.1,)) for i, p in enumerate(patterns)]
    reference = linear_first_match(entries, prompt, "recomposer")
    assert (reference and reference.prompt_contains) == expected
    if expected is None:
        with pytest.raises(ScriptMissError):
            MockBackend(entries).complete(request(prompt), RECOMPOSER)
    else:
        result = MockBackend(entries).complete(request(prompt), RECOMPOSER)
        assert result.text == reference.text


def test_mock_call_cost_does_not_grow_with_script_size():
    specs = [
        QSpec(f"q{i}", f"is thing {i} red?", "yes", "yes", 0.5, f"is thing {i} lit?")
        for i in range(25)
    ]
    base = spec_entries(specs)
    recorder = RecordingBackend(MockBackend(base))
    engine = Engine(recomposer=recorder, decomposer=recorder)
    run_records(spec_questions(specs), PipelineConfig(mode="decompose_all"), engine)
    calls = [(request(call.prompt), BackendRole(call.role)) for call in recorder.call_log]
    # Non-matching filler ahead of the script: a scan passes all of it.
    filler = [
        MockEntry(f"no prompt holds filler line {i:05d}", ROLES[i % 2], "x", (-0.1,))
        for i in range(16 * len(base))
    ]
    small, large = MockBackend(base), MockBackend(filler + base)

    def per_call(backend):
        start = time.perf_counter()
        for _ in range(5):
            for req, role in calls:
                backend.complete(req, role)
        return time.perf_counter() - start

    # Interleaved, best of seven, so a slow phase of the machine hits both.
    timings = [(per_call(small), per_call(large)) for _ in range(7)]
    small_s = min(t for t, _ in timings)
    large_s = min(t for _, t in timings)
    assert large_s < 3 * small_s, (small_s, large_s)
