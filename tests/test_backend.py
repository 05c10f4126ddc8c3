import http.client
import json
import math
import random
import re
import socket
import ssl
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import closing, suppress
from pathlib import Path
from unittest import mock
from urllib.parse import urlsplit

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    FOUR_EPISODE_SPECS,
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
from secondguess import pipeline, prompts
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
    _read_reply,
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


DROP = object()


def payload(**fields):
    """A response payload with ``fields`` replaced; a field set to DROP is
    left out."""
    base = {"text": "yes", "token_logprobs": [-0.1], "cumulative_logprob": -0.1}
    return {k: v for k, v in {**base, **fields}.items() if v is not DROP}


NUMBERS = "token_logprobs must be a list of numbers, cumulative_logprob a number"
HUGE = -(10 ** 399)  # a JSON integer under the int-string limit, beyond any float
# Each rule of a wire-protocol response, with the exact message it raises.
PAYLOAD_RULES = {
    "missing_key": (payload(cumulative_logprob=DROP),
                    "malformed response payload: 'cumulative_logprob'"),
    "not_object": (["yes", [-0.1], -0.1],
                   "malformed response payload: list indices must be integers or slices, not str"),
    "text_empty": (payload(text=""), "generated text must be a non-empty string, got ''"),
    "text_number": (payload(text=5), "generated text must be a non-empty string, got 5"),
    "text_null": (payload(text=None), "generated text must be a non-empty string, got None"),
    "text_surrogate": (payload(text="ye\ud800s"),
                       "generated text 'ye\\ud800s' is not valid Unicode"),
    "logprob_string": (payload(token_logprobs=["-0.1"]), NUMBERS),
    "logprob_bool": (payload(token_logprobs=[False]), NUMBERS),
    "logprobs_object": (payload(token_logprobs={}), NUMBERS),
    "logprobs_scalar": (payload(token_logprobs=-0.1), NUMBERS),
    "cumulative_string": (payload(cumulative_logprob="-0.1"), NUMBERS),
    "logprob_nan": (payload(token_logprobs=[math.nan]), NUMBERS),
    "cumulative_nan": (payload(cumulative_logprob=math.nan), NUMBERS),
    "logprob_positive": (payload(token_logprobs=[0.1], cumulative_logprob=0.1),
                         "token log-probability above zero"),
    "cumulative_positive": (payload(cumulative_logprob=0.1),
                            "cumulative log-probability above zero"),
    "sum_mismatch": (payload(token_logprobs=[-0.2, -0.3], cumulative_logprob=-0.6),
                     "cumulative_logprob does not match the sum of token_logprobs"),
    "logprob_beyond_float": (payload(token_logprobs=[HUGE], cumulative_logprob=HUGE),
                             "log-probability beyond float range"),
    "cumulative_beyond_float": (payload(cumulative_logprob=HUGE),
                                "log-probability beyond float range"),
}


@pytest.mark.parametrize("body, message", PAYLOAD_RULES.values(), ids=PAYLOAD_RULES.keys())
def test_mistyped_payload_is_protocol_violation(body, message):
    with pytest.raises(ProtocolError) as raised:
        InferenceResult.from_payload(body)
    assert str(raised.value) == message


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
    body = {"prompt": req.prompt, "image": req.image, "params": req.params._asdict()}
    assert raw == json.dumps(body, allow_nan=False).encode("utf-8")


def test_a_decompose_request_carries_its_seed(loopback, tmp_path):
    """A live decomposer samples (multinomial beam search), so each
    decompose call sends the seed of the run's seed and its request id, and
    one config sends the same bodies on every run; an answer call sends
    none."""
    payload = {"text": "is it?", "token_logprobs": [-0.1], "cumulative_logprob": -0.1}
    server = loopback(respond=lambda body: payload)
    runs = []
    for i in range(2):
        with http_backend(server.url) as backend:
            engine = Engine(recomposer=backend, decomposer=backend)
            cfg = PipelineConfig(mode="decompose_all", seed=11)
            pipeline.run(spec_questions(FOUR_EPISODE_SPECS), cfg, engine, tmp_path / f"{i}.jsonl")
        runs.append([raw for _, _, raw in server.received])
        server.received.clear()
    assert runs[0] == runs[1]
    # At concurrency 1, q1's calls come first: initial, subq, suba0, recompose.
    q1 = {
        "prompt": prompts.render_decompose("is the sky blue?", "decompose_default"),
        "image": None,
        "params": DECOMPOSE_PARAMS._asdict(),
        "seed": 10878247613124875259,
    }
    assert runs[0][1] == json.dumps(q1).encode("utf-8")
    bodies = [json.loads(raw) for raw in runs[0]]
    seeds = {b["seed"] for b in bodies if b["params"] == DECOMPOSE_PARAMS._asdict()}
    assert seeds == {pipeline._scramble_seed(11, f"q{i}#subq") for i in range(1, 5)}
    answers = [b for b in bodies if b["params"] == ANSWER_PARAMS._asdict()]
    assert len(answers) == 12 and all(set(b) == {"prompt", "image", "params"} for b in answers)


@pytest.mark.parametrize("suffix", ["", "/api/"])
def test_http_backend_request_head(loopback, suffix):
    """The head carries http.client's header fields and values, and no other."""
    server = loopback([Reply(200, GOOD_PAYLOAD)])
    with http_backend(server.url + suffix) as backend:
        backend.complete(request(), RECOMPOSER)
    (fields,) = server.fields
    port = server.url.rpartition(":")[2]
    assert sorted(fields) == [
        ("Accept-Encoding", "identity"),
        ("Content-Length", str(len(server.received[0][2]))),
        ("Content-Type", "application/json"),
        ("Host", f"127.0.0.1:{port}"),
    ]


@pytest.mark.parametrize(
    "url, address",
    [("http://[::1]/x", ("::1", 80)), ("https://[::1]", ("::1", 443)),
     ("http://[::1]:8080", ("::1", 8080)),
     ("http://[fe80::1%25eth0]:8080/", ("fe80::1%eth0", 8080))],
)
def test_http_backend_dials_an_ipv6_host_at_its_port(url, address):
    # Given no port, http.client would take ::1 as host ':' and port 1. A
    # zone is %25-encoded in a URL (RFC 6874) and dialled decoded.
    with http_backend(url) as backend:
        conn = backend._connection()
        assert (conn.host, conn.port) == address


@pytest.mark.parametrize(
    "url",
    ["http://127.0.0.1:8000", "http://127.0.0.1:8000/api/", "http://example.com:80/x",
     "https://example.com", "http://[::1]:8080", "http://[fe80::1%25eth0]:8080",
     "http://bücher.example/v2"],
)
def test_http_backend_head_is_http_clients(url):
    """The head up to Content-Length is what http.client's putrequest,
    putheader("Content-Type", ...) and endheaders send."""
    split = urlsplit(url)
    default_port = 443 if split.scheme == "https" else 80
    conn = http.client.HTTPConnection(split.hostname, split.port or default_port)
    conn.default_port = default_port
    sent = []
    conn.send = sent.append
    conn.putrequest("POST", split.path.rstrip("/") + "/v1/generate")
    conn.putheader("Content-Type", "application/json")
    conn.endheaders()
    with http_backend(url) as backend:
        assert backend._head + b"\r\n" == sent[0]


def _over_socketpair(raw: bytes, close: bool, read):
    """``read`` of a socket whose peer sent ``raw``, then shut its side
    if ``close``; a read that waits for more bytes times out."""
    peer, sock = socket.socketpair()

    def write():
        with suppress(BrokenPipeError):  # the reader stopped before the end
            peer.sendall(raw)
            if close:
                peer.shutdown(socket.SHUT_WR)

    with peer, sock:
        sock.settimeout(2.0)
        writer = threading.Thread(target=write)
        writer.start()
        try:
            return read(sock)
        finally:
            sock.shutdown(socket.SHUT_RD)  # ends a sendall left unread
            writer.join(timeout=10)
            assert not writer.is_alive()


def _http_client_reply(sock):
    with closing(http.client.HTTPResponse(sock, method="POST")) as response:
        response.begin()
        return response.status, response.read(), response.will_close


def _read_reply_of(sock):
    with sock.makefile("rb") as file:
        return _read_reply(file)


def _fields(count: int) -> bytes:
    return b"".join(b"X-Field-%d: %d\r\n" % (i, i) for i in range(count))


OK_HEAD = b"HTTP/1.1 200 OK\r\n"
# (raw reply, whether the server closes after it): a row that it does not
# close must be read without waiting for more bytes.
RAW_REPLIES = {
    "content_length": (OK_HEAD + b"Content-Length: 5\r\n\r\nhello", False),
    "chunked": (
        OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\n"
        b"5;name=value\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n",
        False,
    ),
    "close_delimited": (OK_HEAD + b"Content-Type: application/json\r\n\r\n{}", True),
    "http10": (b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", False),
    "http10_keep_alive": (
        b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok", False
    ),
    "connection_close": (OK_HEAD + b"Connection: close\r\nContent-Length: 2\r\n\r\nok", False),
    "continue_then_200": (
        b"HTTP/1.1 100 Continue\r\n\r\n" + OK_HEAD + b"Content-Length: 2\r\n\r\nok", False
    ),
    "no_content": (b"HTTP/1.1 204 No Content\r\n\r\n", False),
    "not_modified": (b"HTTP/1.1 304 Not Modified\r\n\r\n", False),
    "truncated_body": (OK_HEAD + b"Content-Length: 10\r\n\r\nhello", True),
    "truncated_chunk": (OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\na\r\nhello", True),
    "bad_chunk_size": (OK_HEAD + b"Transfer-Encoding: chunked\r\n\r\nzz\r\nhello", True),
    "garbage_status": (b"garbage\r\n\r\n", True),
    "unknown_protocol": (b"HTTP/2.0 200 OK\r\nContent-Length: 2\r\n\r\nok", True),
    "header_line_65536": (
        OK_HEAD + b"X-Long: " + b"a" * (65536 - 10) + b"\r\nContent-Length: 2\r\n\r\nok", False
    ),
    "header_line_65537": (
        OK_HEAD + b"X-Long: " + b"a" * (65537 - 10) + b"\r\nContent-Length: 2\r\n\r\nok", True
    ),
    "header_fields_99": (OK_HEAD + _fields(98) + b"Content-Length: 2\r\n\r\nok", False),
    "header_fields_101": (OK_HEAD + _fields(100) + b"Content-Length: 2\r\n\r\nok", True),
    "folded_content_length": (OK_HEAD + b"Content-Length:\r\n 2\r\n\r\nok", False),
    "chunked_trailing_whitespace": (
        OK_HEAD + b"Transfer-Encoding: chunked \r\n\r\n5\r\nhello\r\n0\r\n\r\n", True
    ),
}
# Where _read_reply differs from http.client on purpose, its reading: RFC
# 9110 §5.5 leaves the whitespace around a field value out of the value,
# which http.client keeps, and so reads the body to the close.
DIFFERENCES = {"chunked_trailing_whitespace": (200, b"hello", False)}


@pytest.mark.parametrize("name", RAW_REPLIES)
def test_read_reply_agrees_with_http_client(name):
    """_read_reply gives http.client.HTTPResponse's (status, body,
    will_close) for each reply, and a TransportError wherever it raises,
    but for the named differences."""
    raw, close = RAW_REPLIES[name]
    if name in DIFFERENCES:
        assert _over_socketpair(raw, close, _http_client_reply) != DIFFERENCES[name]
        assert _over_socketpair(raw, close, _read_reply_of) == DIFFERENCES[name]
        return
    try:
        expected = _over_socketpair(raw, close, _http_client_reply)
    except http.client.HTTPException:
        with pytest.raises(TransportError):
            _over_socketpair(raw, close, _read_reply_of)
    else:
        assert _over_socketpair(raw, close, _read_reply_of) == expected


class CountingSocket:
    """A socket that counts the writes made on it."""

    def __init__(self, sock) -> None:
        self.sock = sock
        self.writes = 0

    def send(self, data) -> int:
        self.writes += 1
        return self.sock.send(data)

    def sendall(self, data) -> None:
        self.writes += 1
        self.sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_http_backend_writes_each_request_once(loopback):
    server = loopback(respond=lambda body: GOOD_PAYLOAD)
    with http_backend(server.url) as backend:
        backend.complete(request(), RECOMPOSER)  # opens this thread's connection
        conn = backend._connection()
        conn.sock = counting = CountingSocket(conn.sock)
        for calls in range(1, 4):
            backend.complete(request(), RECOMPOSER)
            assert counting.writes == calls
    assert server.connections == 1


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


def test_http_backend_reads_a_reply_of_no_numeric_length_to_the_close(loopback):
    """A Content-Length that is no number is no length: the body is read to
    the close, as http.client reads it, and the next call reconnects."""
    server = loopback([
        Reply(200, GOOD_PAYLOAD, close=True, fields=(("Content-Length", "many"),)),
        Reply(200, GOOD_PAYLOAD),
    ])
    with http_backend(server.url) as backend:
        for connections in (1, 2):
            result = backend.complete(request(), RECOMPOSER)
            assert (result.text, result.retries) == ("yes", 0)
            assert server.connections == connections


def test_http_backend_closes_on_connection_close(loopback):
    """A reply that says ``Connection: close`` closes the client's socket,
    though the server keeps its end open: the next call reconnects rather
    than write to it."""
    server = loopback([
        Reply(200, GOOD_PAYLOAD, fields=(("Connection", "close"),)),
        Reply(200, GOOD_PAYLOAD),
        Reply(200, GOOD_PAYLOAD),
    ])
    with http_backend(server.url) as backend:
        for connections in (1, 2, 2):
            assert backend.complete(request(), RECOMPOSER).retries == 0
            assert server.connections == connections
    assert len(server.received) == 3


def test_http_backend_read_timeout_is_transport_error(loopback):
    server = loopback([Reply(200, GOOD_PAYLOAD, delay=10.0)])
    with http_backend(server.url, attempts=1, timeout=0.2) as backend:
        start = time.perf_counter()
        with pytest.raises(TransportError, match="TimeoutError"):
            backend.complete(request(), RECOMPOSER)
    assert time.perf_counter() - start < 5.0


def test_https_backend_on_plain_server_is_transport_error(loopback):
    # The plain-HTTP server answers no TLS handshake: it times out, or fails
    # on the server's 400 reply to the ClientHello read as a request line.
    server = loopback()
    url = server.url.replace("http://", "https://")
    with http_backend(url, attempts=2, timeout=0.5) as backend:
        with pytest.raises(TransportError) as failure:
            backend.complete(request(), RECOMPOSER)
        opened = list(backend._opened)
    assert failure.value.retries == 1
    assert server.received == []
    assert len(opened) == 1 and opened[0].sock is None
    assert opened[0].context is backend._context is not None


def test_https_backend_loads_the_ca_store_once(loopback, monkeypatch):
    """One SSL context per backend: its threads' connections share it, so the
    system CA store is loaded once, not once per thread (29 ms each)."""
    loads = []
    load = ssl.SSLContext.load_default_certs
    monkeypatch.setattr(
        ssl.SSLContext, "load_default_certs",
        lambda self, *args, **kwargs: loads.append(self) or load(self, *args, **kwargs),
    )
    server = loopback()
    errors = []
    with http_backend(server.url.replace("http://", "https://"), attempts=1, timeout=0.5) as backend:

        def work():
            try:
                backend.complete(request(), RECOMPOSER)
            except TransportError as exc:
                errors.append(exc)

        workers = [threading.Thread(target=work) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)
        opened = list(backend._opened)
    assert len(errors) == len(opened) == 4
    assert all(conn.context is backend._context for conn in opened)
    assert len(loads) == 1


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
    "pattern_nested_too_deep": GOOD_LINE.replace('"hello"', "[" * 2_000 + "]" * 2_000),
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
GOOD_EDGES = {"ints", "int_sum_off_by_4", "minus_infinity", "floats_to_minus_infinity"}
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


def line_payload(line: str):
    """The wire-protocol payload of a script line's response, its cumulative
    log-probability the sum of its log-probabilities as floats, or None for
    a line that is no JSON, has no response or breaks a rule of its match."""
    try:
        obj = json.loads(line.strip())
        match, response = obj["match"], obj["response"]
        text, logprobs = response["text"], response["token_logprobs"]
    except (ValueError, RecursionError, KeyError, TypeError):
        return None
    if not isinstance(match["prompt_contains"], str) or match["role"] not in ROLES:
        return None
    try:
        cumulative = sum(map(float, logprobs))
    except (TypeError, ValueError, OverflowError):
        cumulative = 0.0  # the log-probabilities themselves break a rule
    return {"text": text, "token_logprobs": logprobs, "cumulative_logprob": cumulative}


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.sampled_from(list(SCRIPT_LINE_EDGES.values())),
    st.integers(0, 2 ** 32).map(lambda seed: random_script_line(random.Random(seed), ints=True)),
))
def test_script_line_reads_as_http_payload(line):
    """One rule set for a response: the mock script reads a line iff the HTTP
    client accepts its response, to the same log-probabilities."""
    body = line_payload(line)
    assume(body is not None)
    try:
        expected = repr(InferenceResult.from_payload(body).token_logprobs)
    except ProtocolError:
        expected = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "script.jsonl"
        path.write_bytes(raw(line + "\n"))
        try:
            (entry,) = MockBackend.from_script(path).entries
            read = repr(entry.token_logprobs)
        except DatasetError:
            read = None
    assert read == expected


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


# Each record a mock run builds per script line or per call: its fields in
# order, and its defaults.
PER_CALL_RECORDS = {
    MockEntry: (("prompt_contains", "role", "text", "token_logprobs"), {}),
    InferenceRequest: (("prompt", "params", "request_id", "image", "seed"),
                       {"image": None, "seed": None}),
    InferenceResult: (("text", "token_logprobs", "cumulative_logprob", "retries"), {"retries": 0}),
}


def test_per_call_records_are_tuples():
    """A MockEntry per script line, an InferenceRequest and an
    InferenceResult per call: each is a named tuple, cheaper to build than
    a frozen dataclass, and no field or new attribute can be set on one."""
    for cls, (names, defaults) in PER_CALL_RECORDS.items():
        assert issubclass(cls, tuple), cls
        assert cls._fields == names and cls._field_defaults == defaults, cls
        record = cls(*range(len(names)))
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


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


@settings(max_examples=300, deadline=None)
@given(mock_scripts())
def test_mock_index_matches_linear_scan_across_chunks(script):
    """The index files CHUNK_LINES entries at a time with the counts of every
    chunk so far; at 2 a chunk, the drawn scripts cross chunk boundaries
    and their patterns are filed under counts that grow between chunks.
    ``backend`` imports the name, so it is patched there."""
    entries, calls = script
    with mock.patch("secondguess.backend.CHUNK_LINES", 2):
        for prompt, role in calls:
            remaining = entries
            while True:
                backend = MockBackend(remaining)
                expected = linear_first_match(remaining, prompt, role)
                if expected is None:
                    with pytest.raises(ScriptMissError):
                        backend.complete(request(prompt), BackendRole(role))
                    break
                assert backend.complete(request(prompt), BackendRole(role)).text == expected.text
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


def test_mock_buckets_stay_small_on_templated_scripts():
    """4,000 entries shaped as the benchmark's mock script: four template
    patterns per question, in its order, which share "Question:", "Short
    Answer:" and the decompose exemplar. Each pattern is filed under a word
    of its own question, so no bucket holds more than a question's
    entries, and a call checks at most that many patterns."""
    colors = ("red", "blue", "green", "white", "black", "yellow", "brown", "grey")
    nouns = ("cup", "dog", "car", "sign", "chair", "kite", "boat", "lamp", "bird", "door")
    entries = []
    for i in range(1_000):
        question = f"is the {colors[i % 8]} {nouns[i % 10]} number {i} on the left?"
        sub_q = f"can you see the thing number {i} there?"
        entries += [
            MockEntry(f"Context: {sub_q} yes. Question: {question}", "recomposer", "yes", (-0.2,)),
            MockEntry(prompts.render_direct_qa(sub_q), "recomposer", "yes", (-0.3,)),
            MockEntry(prompts.render_direct_qa(question), "recomposer", "no", (-0.1,)),
            MockEntry(prompts.render_decompose(question, "decompose_default"), "decomposer",
                      sub_q, (-0.4,)),
        ]
    backend = MockBackend(entries)
    buckets = [bucket for _, table in backend._by_role.values() for bucket in table.values()]
    assert sum(map(len, buckets)) == len(entries)
    assert max(map(len, buckets)) <= 4
