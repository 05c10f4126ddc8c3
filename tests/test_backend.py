import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FlakyBackend
from secondguess.backend import (
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
    default_params,
)

RECOMPOSER = BackendRole("recomposer")


def request(prompt="hello", request_id="r1"):
    return InferenceRequest(
        prompt=prompt, params=default_params("answer"), request_id=request_id
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


def test_default_params_decompose():
    params = default_params("decompose")
    assert params.mode == "multinomial_beam"
    assert params.num_beams == 5
    assert params.top_p == 0.95
    assert params.temperature == 1.0
    assert params.length_penalty == 1.0
    assert params.repetition_penalty == 1.0


def test_default_params_answer():
    params = default_params("answer")
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
        InferenceRequest(prompt="", params=default_params("answer"), request_id="x")


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
