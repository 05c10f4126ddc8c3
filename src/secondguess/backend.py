"""Generation backends: canonical HTTP protocol client and a scripted mock.

Both backends return generated text plus token-level log-probabilities of
the selected beam. The confidence used by the selective gate is the raw
joint sequence probability exp(sum of token log-probs), with no length
normalization.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Protocol, Sequence

import requests

LOGPROB_SUM_TOLERANCE = 1e-6
DEFAULT_RETRY_ATTEMPTS = 3


class BackendError(Exception):
    """Base class for backend failures."""


class TransportError(BackendError):
    """Retryable failure reaching the endpoint (network, 5xx, timeout)."""


class ProtocolError(BackendError):
    """Non-retryable contract violation in a response."""


class ScriptMissError(BackendError):
    """No mock script entry matched the request; a test misconfiguration."""


@dataclass(frozen=True)
class SamplingParams:
    mode: str  # "multinomial_beam" | "deterministic_beam"
    num_beams: int = 5
    top_p: float = 1.0
    temperature: float = 1.0
    length_penalty: float = 1.0
    repetition_penalty: float = 1.0
    max_new_tokens: int = 50
    min_new_tokens: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("multinomial_beam", "deterministic_beam"):
            raise ValueError(f"unknown sampling mode: {self.mode!r}")
        if self.num_beams < 1:
            raise ValueError("num_beams must be positive")
        if not (0.0 < self.top_p <= 1.0):
            raise ValueError("top_p must be in (0, 1]")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.repetition_penalty <= 0:
            raise ValueError("repetition_penalty must be positive")
        if self.max_new_tokens < 1 or self.min_new_tokens < 1:
            raise ValueError("token limits must be positive")
        if self.min_new_tokens > self.max_new_tokens:
            raise ValueError("min_new_tokens must not exceed max_new_tokens")


def default_params(purpose: str) -> SamplingParams:
    """Sampling defaults for the two call purposes.

    ``decompose``: multinomial beam search, 5 beams, top-p 0.95.
    ``answer``: deterministic beam search, 5 beams, answers capped at
    10 tokens with a length penalty of -1.
    """
    if purpose == "decompose":
        return SamplingParams(mode="multinomial_beam", top_p=0.95)
    if purpose == "answer":
        return SamplingParams(
            mode="deterministic_beam", length_penalty=-1.0, max_new_tokens=10
        )
    raise ValueError(f"unknown purpose: {purpose!r}")


@dataclass(frozen=True)
class InferenceRequest:
    prompt: str
    params: SamplingParams
    request_id: str
    image: Optional[str] = None  # base64 payload or URL, opaque here

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")


@dataclass(frozen=True)
class InferenceResult:
    text: str
    token_logprobs: tuple
    cumulative_logprob: float
    retries: int = 0

    @classmethod
    def from_payload(cls, payload: dict, retries: int = 0) -> "InferenceResult":
        try:
            text = payload["text"]
            token_logprobs = tuple(float(x) for x in payload["token_logprobs"])
            cumulative = float(payload["cumulative_logprob"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed response payload: {exc}") from exc
        if not text:
            raise ProtocolError("empty generated text")
        if any(lp > 0 for lp in token_logprobs):
            raise ProtocolError("token log-probability above zero")
        if cumulative > 0:
            raise ProtocolError("cumulative log-probability above zero")
        if abs(cumulative - sum(token_logprobs)) > LOGPROB_SUM_TOLERANCE:
            raise ProtocolError(
                "cumulative_logprob does not match the sum of token_logprobs"
            )
        return cls(
            text=text,
            token_logprobs=token_logprobs,
            cumulative_logprob=cumulative,
            retries=retries,
        )


def confidence_of(result: InferenceResult) -> float:
    """Joint sequence probability exp(cumulative log-prob), in (0, 1]."""
    return math.exp(result.cumulative_logprob)


@dataclass(frozen=True)
class BackendRole:
    role: str  # "decomposer" | "recomposer"

    def __post_init__(self) -> None:
        if self.role not in ("decomposer", "recomposer"):
            raise ValueError(f"unknown role: {self.role!r}")


class Backend(Protocol):
    def complete(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        ...


def _with_retries(
    fn: Callable[[], InferenceResult],
    attempts: int,
    base_delay: float,
    sleep: Callable[[float], None],
) -> InferenceResult:
    last: Optional[TransportError] = None
    for attempt in range(attempts):
        try:
            result = fn()
            return replace(result, retries=attempt) if attempt else result
        except TransportError as exc:
            last = exc
            if attempt + 1 < attempts:
                sleep(base_delay * (2 ** attempt))
    assert last is not None
    raise last


class HTTPBackend:
    """Client for the canonical JSON-over-HTTP generation protocol.

    POST {base_url}/v1/generate with {"prompt", "image", "params"};
    transport faults are retried with bounded exponential backoff,
    protocol violations are surfaced immediately.
    """

    def __init__(
        self,
        base_url: str,
        attempts: int = DEFAULT_RETRY_ATTEMPTS,
        base_delay: float = 0.5,
        timeout: float = 120.0,
        session: Optional[requests.Session] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.attempts = max(1, attempts)
        self.base_delay = base_delay
        self.timeout = timeout
        self._session = session or requests.Session()
        self._sleep = sleep

    def complete(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        body = {
            "prompt": request.prompt,
            "image": request.image,
            "params": asdict(request.params),
        }

        def attempt() -> InferenceResult:
            try:
                resp = self._session.post(
                    f"{self.base_url}/v1/generate", json=body, timeout=self.timeout
                )
            except (requests.ConnectionError, requests.Timeout) as exc:
                raise TransportError(str(exc)) from exc
            if resp.status_code >= 500:
                raise TransportError(f"server error {resp.status_code}")
            if resp.status_code != 200:
                raise ProtocolError(f"unexpected status {resp.status_code}")
            try:
                payload = resp.json()
            except ValueError as exc:
                raise ProtocolError("response is not valid JSON") from exc
            return InferenceResult.from_payload(payload)

        return _with_retries(attempt, self.attempts, self.base_delay, self._sleep)


@dataclass(frozen=True)
class MockEntry:
    prompt_contains: str
    role: str
    text: str
    token_logprobs: tuple


class MockBackend:
    """Deterministic scripted backend for tests and desk-scale runs.

    The script is a JSONL file of {"match": {"prompt_contains", "role"},
    "response": {"text", "token_logprobs"}} entries, applied
    first-match-wins in file order. ``complete`` only reads the entries, so
    concurrent calls need no lock.
    """

    def __init__(self, entries: Sequence[MockEntry]) -> None:
        self.entries = list(entries)

    @classmethod
    def from_script(cls, path) -> "MockBackend":
        entries = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    match = obj["match"]
                    response = obj["response"]
                    entries.append(
                        MockEntry(
                            prompt_contains=match["prompt_contains"],
                            role=match["role"],
                            text=response["text"],
                            token_logprobs=tuple(
                                float(x) for x in response["token_logprobs"]
                            ),
                        )
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"bad mock script line {lineno}: {exc}") from exc
        return cls(entries)

    def complete(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        for entry in self.entries:
            if entry.role == role.role and entry.prompt_contains in request.prompt:
                return InferenceResult.from_payload(
                    {
                        "text": entry.text,
                        "token_logprobs": list(entry.token_logprobs),
                        "cumulative_logprob": sum(entry.token_logprobs),
                    }
                )
        raise ScriptMissError(
            f"no mock entry for role={role.role!r} request_id={request.request_id!r}"
        )

