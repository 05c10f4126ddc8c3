import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FlakyBackend,
    QSpec,
    RecordingBackend,
    linear_first_match,
    spec_entries,
    spec_questions,
)
from secondguess import pipeline
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
    SamplingParams,
    ScriptMissError,
    TransportError,
    confidence_of,
)
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


def test_sampling_params_validation():
    with pytest.raises(ValueError):
        SamplingParams(mode="greedy")
    with pytest.raises(ValueError):
        SamplingParams(mode="deterministic_beam", min_new_tokens=5, max_new_tokens=2)
    with pytest.raises(ValueError):
        SamplingParams(mode="multinomial_beam", top_p=0.0)


def test_empty_prompt_rejected():
    with pytest.raises(ValueError):
        InferenceRequest(prompt="", params=ANSWER_PARAMS, request_id="x")


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


class FakeResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    """Replays a queue of responses/exceptions for HTTPBackend tests."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, timeout=None):
        self.requests.append((url, json))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def http_backend(outcomes, attempts=3):
    return HTTPBackend(
        "http://model:8000",
        attempts=attempts,
        session=FakeSession(outcomes),
        sleep=lambda _: None,
    )


GOOD_PAYLOAD = {"text": "yes", "token_logprobs": [-0.1, -0.2], "cumulative_logprob": -0.3}


def test_http_backend_success_and_wire_format():
    backend = http_backend([FakeResponse(200, GOOD_PAYLOAD)])
    result = backend.complete(request(prompt="Question: x Short Answer:"), RECOMPOSER)
    assert result.text == "yes"
    url, body = backend._session.requests[0]
    assert url == "http://model:8000/v1/generate"
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


def test_http_backend_retries_transport_faults():
    import requests as requests_lib

    backend = http_backend(
        [
            requests_lib.ConnectionError("down"),
            FakeResponse(503),
            FakeResponse(200, GOOD_PAYLOAD),
        ]
    )
    result = backend.complete(request(), RECOMPOSER)
    assert result.text == "yes"
    assert result.retries == 2


def test_http_backend_gives_up_after_budget():
    backend = http_backend([FakeResponse(500)] * 3, attempts=3)
    with pytest.raises(TransportError):
        backend.complete(request(), RECOMPOSER)
    assert len(backend._session.requests) == 3


def test_http_backend_protocol_error_not_retried():
    backend = http_backend([FakeResponse(400), FakeResponse(200, GOOD_PAYLOAD)])
    with pytest.raises(ProtocolError):
        backend.complete(request(), RECOMPOSER)
    assert len(backend._session.requests) == 1


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


def test_mock_entries_are_immutable():
    backend = MockBackend([MockEntry("hello", "recomposer", "yes", (-0.1,))])
    assert isinstance(backend.entries, tuple)


@st.composite
def mock_scripts(draw):
    """(entries, [(prompt, role)]) over a 2-4 letter alphabet: patterns of
    length 0..20 on both sides of ANCHOR, with duplicates and overlaps, and
    prompts stitched from random text and patterns."""
    alphabet = draw(st.sampled_from(["ab", "abc", "abcd"]))
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
    backend = MockBackend(entries)
    for prompt, role in calls:
        expected = linear_first_match(entries, prompt, role)
        if expected is None:
            with pytest.raises(ScriptMissError):
                backend.complete(request(prompt), BackendRole(role))
        else:
            result = backend.complete(request(prompt), BackendRole(role))
            assert result.text == expected.text


def test_mock_call_cost_does_not_grow_with_script_size():
    specs = [
        QSpec(f"q{i}", f"is thing {i} red?", "yes", "yes", 0.5, f"is thing {i} lit?")
        for i in range(25)
    ]
    base = spec_entries(specs)
    recorder = RecordingBackend(MockBackend(base))
    engine = Engine(recomposer=recorder, decomposer=recorder)
    pipeline.run(spec_questions(specs), PipelineConfig(mode="decompose_all"), engine)
    calls = [(request(prompt), BackendRole(role)) for _, role, prompt in recorder.call_log]
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
