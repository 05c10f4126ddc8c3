"""Generation backends: canonical HTTP protocol client and a scripted mock.

Both backends return generated text plus token-level log-probabilities of
the selected beam. The confidence used by the selective gate is the raw
joint sequence probability exp(sum of token log-probs), with no length
normalization.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple
from urllib.parse import urlsplit

from .dataset import CHUNK_LINES, parse_chunk, read_chunks

LOGPROB_SUM_TOLERANCE = 1e-6
DEFAULT_RETRY_ATTEMPTS = 3
ROLES = ("decomposer", "recomposer")
_JSON_HEADERS = {"Content-Type": "application/json"}


class BackendError(Exception):
    """Base class for backend failures."""

    retries = 0  # the failed call's transport retries before it raised


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


# Decompose calls: multinomial beam search, 5 beams, top-p 0.95.
DECOMPOSE_PARAMS = SamplingParams(mode="multinomial_beam", top_p=0.95)
# Answer calls: deterministic beam search, 5 beams, answers capped at 10
# tokens with a length penalty of -1.
ANSWER_PARAMS = SamplingParams(
    mode="deterministic_beam", length_penalty=-1.0, max_new_tokens=10
)


@dataclass(frozen=True)
class InferenceRequest:
    prompt: str
    params: SamplingParams
    request_id: str
    image: Optional[str] = None  # base64 payload or URL, opaque here


@dataclass(frozen=True)
class InferenceResult:
    text: str
    token_logprobs: tuple
    cumulative_logprob: float
    retries: int = 0

    @classmethod
    def from_payload(cls, payload: dict) -> "InferenceResult":
        try:
            text, logprobs = payload["text"], payload["token_logprobs"]
            cumulative = payload["cumulative_logprob"]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed response payload: {exc}") from exc
        if not isinstance(text, str) or not text:
            raise ProtocolError(f"generated text must be a non-empty string, got {text!r}")
        # JSON may escape an unpaired surrogate, which the UTF-8 log cannot hold.
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ProtocolError(f"generated text {text!r} is not valid Unicode") from exc
        # bool is an int subclass, but true/false is no log-probability.
        numbers = "token_logprobs must be a list of numbers, cumulative_logprob a number"
        if not isinstance(logprobs, list) or any(
            isinstance(x, bool) or not isinstance(x, (int, float))
            for x in (*logprobs, cumulative)
        ):
            raise ProtocolError(numbers)
        try:
            token_logprobs = tuple(float(x) for x in logprobs)
            cumulative = float(cumulative)
        except OverflowError as exc:  # an integer of hundreds of digits
            raise ProtocolError("log-probability beyond float range") from exc
        # A NaN would pass every check below and reach the episode log.
        if any(math.isnan(x) for x in (*token_logprobs, cumulative)):
            raise ProtocolError(numbers)
        if any(lp > 0 for lp in token_logprobs):
            raise ProtocolError("token log-probability above zero")
        if cumulative > 0:
            raise ProtocolError("cumulative log-probability above zero")
        if abs(cumulative - sum(token_logprobs)) > LOGPROB_SUM_TOLERANCE:
            raise ProtocolError(
                "cumulative_logprob does not match the sum of token_logprobs"
            )
        return cls(text=text, token_logprobs=token_logprobs, cumulative_logprob=cumulative)


def confidence_of(result: InferenceResult) -> float:
    """Joint sequence probability exp(cumulative log-prob), in (0, 1].

    A log-prob below about -745 underflows exp to 0.0; it is floored at the
    smallest normal float, so that tau = 0 still gates no answer.
    """
    return max(math.exp(result.cumulative_logprob), sys.float_info.min)


@dataclass(frozen=True)
class BackendRole:
    role: str  # "decomposer" | "recomposer"


class Backend(Protocol):
    def complete(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        ...


def _with_retries(
    fn: Callable[[], InferenceResult],
    attempts: int,
    base_delay: float,
    sleep: Callable[[float], None],
) -> InferenceResult:
    for attempt in itertools.count():
        try:
            result = fn()
            return replace(result, retries=attempt) if attempt else result
        except BackendError as exc:
            exc.retries = attempt
            if not isinstance(exc, TransportError) or attempt + 1 >= attempts:
                raise
            sleep(base_delay * (2 ** attempt))


class HTTPBackend:
    """Client for the canonical JSON-over-HTTP generation protocol.

    POST {base_url}/v1/generate with {"prompt", "image", "params"};
    transport faults are retried with bounded exponential backoff,
    protocol violations are surfaced immediately.

    Each calling thread keeps one connection open and reuses it across
    calls. A reused connection that the server has dropped is reopened
    once, and that is no retry. ``close`` closes every connection opened.
    """

    def __init__(
        self,
        base_url: str,
        attempts: int = DEFAULT_RETRY_ATTEMPTS,
        base_delay: float = 0.5,
        timeout: float = 120.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        url = urlsplit(base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"backend URL {base_url!r} needs an http or https scheme and a host")
        # The client sends no credentials, and the manifest records the URL.
        if url.username is not None:
            raise ValueError(f"backend URL {base_url!r} must not hold credentials")
        self.base_url = base_url.rstrip("/")
        self.attempts = attempts
        self.base_delay = base_delay
        self.timeout = timeout
        self._sleep = sleep
        try:
            self._address = (url.hostname, url.port)
        except ValueError as exc:  # a port that is no number in range
            raise ValueError(f"backend URL {base_url!r}: {exc}") from exc
        self._connection_class = HTTPSConnection if url.scheme == "https" else HTTPConnection
        self._path = url.path.rstrip("/") + "/v1/generate"
        self._local = threading.local()
        self._opened: List[HTTPConnection] = []
        self._lock = threading.Lock()

    def _connection(self) -> HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connection_class(*self._address, timeout=self.timeout)
            with self._lock:
                self._opened.append(conn)
            self._local.conn = conn
        return conn

    def _exchange(self, conn: HTTPConnection, data: bytes) -> Tuple[int, bytes]:
        conn.request("POST", self._path, body=data, headers=_JSON_HEADERS)
        response = conn.getresponse()
        return response.status, response.read()

    def _post(self, data: bytes) -> Tuple[int, bytes]:
        """(status, body) of one POST on this thread's connection."""
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                return self._exchange(conn, data)
            # RemoteDisconnected is a ConnectionResetError: the server closed
            # an idle keep-alive socket before or while this request used it.
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                conn.close()
                return self._exchange(conn, data)
        except (OSError, HTTPException) as exc:  # timeouts are OSErrors
            # A half-read exchange leaves the connection unusable.
            conn.close()
            raise TransportError(f"{self.base_url}: {exc!r}") from exc

    def complete(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        body = {
            "prompt": request.prompt,
            "image": request.image,
            "params": asdict(request.params),
        }
        data = json.dumps(body, allow_nan=False).encode("utf-8")

        def attempt() -> InferenceResult:
            status, raw = self._post(data)
            if status >= 500:
                raise TransportError(f"server error {status}")
            if status != 200:
                raise ProtocolError(f"unexpected status {status}")
            try:
                payload = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                raise ProtocolError("response is not valid JSON") from exc
            return InferenceResult.from_payload(payload)

        return _with_retries(attempt, self.attempts, self.base_delay, self._sleep)

    def close(self) -> None:
        """Close every connection opened; a later call opens its thread's anew."""
        with self._lock:
            for conn in self._opened:
                conn.close()


@dataclass(frozen=True)
class MockEntry:
    prompt_contains: str
    role: str
    text: str
    token_logprobs: tuple


def _interior_words(pattern: str) -> List[str]:
    """The tokens of ``pattern.split()`` with whitespace on both sides inside
    ``pattern``. A prompt that holds ``pattern`` holds each of them as a whole
    token of ``prompt.split()``: split and isspace share one whitespace test."""
    words = pattern.split()
    return words[0 if pattern[:1].isspace() else 1 : None if pattern[-1:].isspace() else -1]


class MockBackend:
    """Deterministic scripted backend for tests and desk-scale runs.

    The script is a JSONL file of {"match": {"prompt_contains", "role"},
    "response": {"text", "token_logprobs"}} entries, applied
    first-match-wins in file order. ``from_script`` checks each response
    once, as a backend response; entries built directly are taken as they
    are. ``entries`` is a tuple, indexed once at construction by whole
    words, so a call costs one lookup per whitespace token of the prompt
    rather than O(entries); ``complete`` only reads the index, so
    concurrent calls need no lock.
    """

    def __init__(self, entries: Sequence[MockEntry]) -> None:
        self.entries = tuple(entries)
        # Per role: the indices of patterns with no interior word, scanned in
        # order, and {word: indices} for the rest, each filed in file order
        # under its interior word that is rarest among the distinct patterns.
        self._unanchored: Dict[str, List[int]] = {}
        self._anchored: Dict[str, Dict[str, List[int]]] = {}
        counts = Counter(
            itertools.chain.from_iterable(
                map(_interior_words, {entry.prompt_contains for entry in self.entries})
            )
        )
        for index, entry in enumerate(self.entries):
            words = _interior_words(entry.prompt_contains)
            if not words:
                self._unanchored.setdefault(entry.role, []).append(index)
                continue
            table = self._anchored.setdefault(entry.role, {})
            table.setdefault(min(words, key=counts.__getitem__), []).append(index)

    @classmethod
    def from_script(cls, path) -> "MockBackend":
        """The backend of the script at ``path``, read CHUNK_LINES lines at a
        time, so that memory grows with the entries, not with the file. Each
        chunk goes through ``dataset.parse_chunk`` with ``_chunk_entries`` as
        its check, which raises the DatasetError of the first bad
        ``path:line``. The lines are passed stripped, so a line may hold any
        whitespace that str.strip removes around its JSON."""
        entries: List[MockEntry] = []
        for start, lines in read_chunks(path, CHUNK_LINES):
            entries += parse_chunk(path, start, [line.strip() for line in lines], _chunk_entries)
        return cls(entries)

    def _first_match(self, prompt: str, role: str) -> Optional[MockEntry]:
        """The lowest-indexed entry of ``role`` whose pattern is in ``prompt``."""
        entries = self.entries
        best = len(entries)
        for index in self._unanchored.get(role, ()):
            if entries[index].prompt_contains in prompt:
                best = index
                break
        table = self._anchored.get(role)
        if table:
            # Buckets are in file order, so the first verified entry is the
            # lowest in its bucket; the words come in no particular order.
            for word in table.keys() & prompt.split():
                for index in table[word]:
                    if index >= best:
                        break
                    if entries[index].prompt_contains in prompt:
                        best = index
                        break
        return entries[best] if best < len(entries) else None

    def complete(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        entry = self._first_match(request.prompt, role.role)
        if entry is None:
            raise ScriptMissError(
                f"no mock entry for role={role.role!r} request_id={request.request_id!r}"
            )
        return InferenceResult(entry.text, entry.token_logprobs, sum(entry.token_logprobs))


def _float_entries(objs: list) -> Optional[List[MockEntry]]:
    """The entries of parsed script lines, or None. Each field is checked
    over all the lines at once, with the checks of ``_script_entry`` except
    that a log-probability must be a float: integers, which ``sum`` adds
    exactly before it rounds, are left to ``_script_entry``'s sum check. So
    lines accepted here give the entries that ``_script_entry`` gives."""
    try:
        matches = [obj["match"] for obj in objs]
        responses = [obj["response"] for obj in objs]
        patterns = [match["prompt_contains"] for match in matches]
        roles = [match["role"] for match in matches]
        texts = [response["text"] for response in responses]
        logprobs = [response["token_logprobs"] for response in responses]
    except (KeyError, TypeError):
        return None
    if not (
        set(map(type, patterns)) <= {str}
        # list.count compares with ==, as `in ROLES` does, and hashes nothing.
        and sum(map(roles.count, ROLES)) == len(roles)
        and set(map(type, texts)) <= {str}
        and all(texts)
        and set(map(type, logprobs)) <= {list}
    ):
        return None
    values = list(itertools.chain.from_iterable(logprobs))
    # 0.0 >= x is false for a NaN and for a log-probability above zero.
    if not (set(map(type, values)) <= {float} and all(map((0.0).__ge__, values))):
        return None
    # JSON may escape an unpaired surrogate, which the UTF-8 log cannot hold.
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        return None
    return list(map(MockEntry, patterns, roles, texts, map(tuple, logprobs)))


def _chunk_entries(objs: list):
    """``from_script``'s check: the entries of parsed script lines, from
    ``_float_entries`` or else from ``_script_entry`` line by line, or the
    problem (a string) of the first line that ``_script_entry`` rejects."""
    try:
        return _float_entries(objs) or [_script_entry(o["match"], o["response"]) for o in objs]
    except (KeyError, TypeError, ValueError) as exc:
        return str(exc)


def _script_entry(match: dict, response: dict) -> MockEntry:
    """One script line's entry. The response must pass the checks of a
    backend response; a field of the wrong type or value raises ValueError."""
    pattern, role = match["prompt_contains"], match["role"]
    logprobs = response["token_logprobs"]
    if not isinstance(pattern, str):
        raise ValueError(f"prompt_contains must be a string, got {pattern!r}")
    if role not in ROLES:
        raise ValueError(f"role must be one of {list(ROLES)}, got {role!r}")
    try:
        total = sum(logprobs)
    except OverflowError as exc:  # a float plus an integer beyond float range
        raise ValueError("log-probability beyond float range") from exc
    try:
        result = InferenceResult.from_payload(
            {"text": response["text"], "token_logprobs": logprobs, "cumulative_logprob": total}
        )
    except ProtocolError as exc:
        raise ValueError(str(exc)) from exc
    return MockEntry(pattern, role, result.text, result.token_logprobs)
