"""Generation backends: canonical HTTP protocol client and a scripted mock.

Both backends return generated text plus token-level log-probabilities of
the selected beam. The confidence used by the selective gate is the raw
joint sequence probability exp(sum of token log-probs), with no length
normalization.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Protocol, Sequence, Tuple
from urllib.parse import urlsplit

from .dataset import CHUNK_LINES, parse_chunk, read_chunks

LOGPROB_SUM_TOLERANCE = 1e-6
DEFAULT_RETRY_ATTEMPTS = 3
ROLES = ("decomposer", "recomposer")


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


class InferenceRequest(NamedTuple):
    prompt: str
    params: SamplingParams
    request_id: str
    image: Optional[str] = None  # base64 payload or URL, opaque here


class InferenceResult(NamedTuple):
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
        rows = _responses([text], [logprobs], [cumulative])
        if isinstance(rows, str):
            raise ProtocolError(rows)
        return cls(text=text, token_logprobs=rows[0], cumulative_logprob=float(cumulative))


def _responses(texts: list, logprobs: list, cumulatives: Optional[list] = None):
    """Each response's token log-probabilities as a tuple of floats, or the
    message of the first rule that a response breaks, each rule checked over
    the whole column in the order below. An integer is taken as its float.
    ``cumulatives``, given for HTTP responses only, pass the number rules
    and must each match its row's sum within LOGPROB_SUM_TOLERANCE."""
    if not (set(map(type, texts)) <= {str} and all(texts)):
        text = next(t for t in texts if type(t) is not str or not t)
        return f"generated text must be a non-empty string, got {text!r}"
    # JSON may escape an unpaired surrogate, which the UTF-8 log cannot hold.
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        text = next(t for t in texts if t.encode("utf-8", "replace").decode("utf-8") != t)
        return f"generated text {text!r} is not valid Unicode"
    numbers = "token_logprobs must be a list of numbers, cumulative_logprob a number"
    if not set(map(type, logprobs)) <= {list}:
        return numbers
    values = [*itertools.chain.from_iterable(logprobs), *(cumulatives or ())]
    types = set(map(type, values))
    # bool is an int subclass, but true/false is no log-probability.
    if not types <= {float, int}:
        return numbers
    rows = [*map(tuple, logprobs)]
    try:
        if int in types:  # converting floats too would double the check's time
            rows = [tuple(map(float, row)) for row in rows]
        totals = list(map(float, cumulatives or ()))
    except OverflowError:  # an integer of hundreds of digits
        return "log-probability beyond float range"
    # 0.0 >= x is false for a NaN and for a log-probability above zero; a
    # NaN would pass every check below and reach the episode log.
    if not all(map((0.0).__ge__, values)):
        if any(x != x for x in values):
            return numbers
        if any(x > 0 for x in itertools.chain.from_iterable(rows)):
            return "token log-probability above zero"
        return "cumulative log-probability above zero"
    if any(abs(total - sum(row)) > LOGPROB_SUM_TOLERANCE for total, row in zip(totals, rows)):
        return "cumulative_logprob does not match the sum of token_logprobs"
    return rows


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
            return result._replace(retries=attempt) if attempt else result
        except BackendError as exc:
            exc.retries = attempt
            if not isinstance(exc, TransportError) or attempt + 1 >= attempts:
                raise
            sleep(base_delay * (2 ** attempt))


# The body's dict of a SamplingParams, built once per value (the chain sends
# only ANSWER_PARAMS and DECOMPOSE_PARAMS): a frozen dataclass is hashable,
# and json.dumps leaves the dict as it is.
_params_dict = functools.cache(asdict)


class HTTPBackend:
    """Client for the canonical JSON-over-HTTP generation protocol.

    POST {base_url}/v1/generate with {"prompt", "image", "params"};
    transport faults are retried with bounded exponential backoff,
    protocol violations are surfaced immediately.

    Each calling thread keeps one connection open and reuses it across
    calls. A reused connection that the server has dropped is reopened
    once, and that is no retry. ``close`` closes every connection opened.

    ``http.client`` (which loads ``ssl`` and ``email``) is imported here
    rather than with the module, so a process that builds no HTTPBackend
    never loads it. Its connection opens the socket and its response parser
    reads the reply; the request goes out in one write, a head that its
    ``putrequest`` derived once, then Content-Length and the body.
    """

    def __init__(
        self,
        base_url: str,
        attempts: int = DEFAULT_RETRY_ATTEMPTS,
        base_delay: float = 0.5,
        timeout: float = 120.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        import http.client

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
        self._connection_class = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        default_port = self._connection_class.default_port
        try:
            # The port is always given: without one, http.client reads the
            # last ':' of an IPv6 host such as ::1 as the start of a port.
            self._address = (url.hostname, default_port if url.port is None else url.port)
        except ValueError as exc:  # a port that is no number in range
            raise ValueError(f"backend URL {base_url!r}: {exc}") from exc
        self._response_class = http.client.HTTPResponse
        self._faults = (OSError, http.client.HTTPException)  # timeouts are OSErrors
        # The head that http.client's request() sends, built once by a plain
        # connection that sends into a list: the request line, Host (with
        # the port unless it is the scheme's default) and Accept-Encoding,
        # then Content-Type. An HTTPSConnection would load the CA store,
        # about 30 ms, to build the same head. The CRLF that ends the head is
        # cut off; _exchange adds Content-Length and the body.
        probe = http.client.HTTPConnection(*self._address)
        probe.default_port = default_port
        sent: List[bytes] = []
        probe.send = sent.append
        try:
            probe.putrequest("POST", url.path.rstrip("/") + "/v1/generate")
            probe.putheader("Content-Type", "application/json")
            probe.endheaders()
        except (http.client.HTTPException, UnicodeError) as exc:  # a path it cannot send
            raise ValueError(f"backend URL {base_url!r}: {exc}") from exc
        self._head = sent[0][: -len(b"\r\n")]
        self._local = threading.local()
        self._opened: list = []
        self._lock = threading.Lock()

    def _connection(self):
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connection_class(*self._address, timeout=self.timeout)
            with self._lock:
                self._opened.append(conn)
            self._local.conn = conn
        return conn

    def _exchange(self, conn, data: bytes) -> Tuple[int, bytes]:
        if conn.sock is None:
            conn.connect()
        conn.sock.sendall(b"%sContent-Length: %d\r\n\r\n%s" % (self._head, len(data), data))
        response = self._response_class(conn.sock, method="POST")
        try:
            response.begin()
            body = response.read()
        finally:
            response.close()
        if response.will_close:
            conn.close()
        return response.status, body

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
        except self._faults as exc:
            # A half-read exchange leaves the connection unusable.
            conn.close()
            raise TransportError(f"{self.base_url}: {exc!r}") from exc

    def complete(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        body = {
            "prompt": request.prompt,
            "image": request.image,
            "params": _params_dict(request.params),
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


class MockEntry(NamedTuple):
    prompt_contains: str
    role: str
    text: str
    token_logprobs: tuple


class MockBackend:
    """Deterministic scripted backend for tests and desk-scale runs.

    The script is a JSONL file of {"match": {"prompt_contains", "role"},
    "response": {"text", "token_logprobs"}} entries, applied
    first-match-wins in file order. ``from_script`` checks each response
    once by an HTTP response's rules (``_responses``) save the sum rule, as
    a line has no cumulative log-probability; entries built directly are
    taken as they are. ``entries`` is a tuple of MockEntry tuples, indexed
    once at construction by whole words, so a call costs one lookup per
    whitespace token of the prompt rather than O(entries); ``complete`` only
    reads the index, so concurrent calls need no lock.

    A pattern's interior words are the tokens of ``pattern.split()`` with
    whitespace on both sides inside the pattern: a prompt that holds the
    pattern holds each of them as a whole token of ``prompt.split()``, as
    split and isspace share one whitespace test. Each pattern is filed under
    the interior word that is rarest among all whitespace tokens of the
    distinct patterns, end tokens included; a pattern with none is scanned.
    """

    def __init__(self, entries: Sequence[MockEntry]) -> None:
        self.entries = tuple(entries)
        # Per role: the indices of patterns with no interior word, scanned in
        # order, and {word: indices} for the rest, each in file order.
        self._unanchored: Dict[str, List[int]] = {}
        self._anchored: Dict[str, Dict[str, List[int]]] = {}
        # One join and split per CHUNK_LINES distinct patterns, so that one
        # run's tokens are held at a time; the space between two patterns
        # ends a token as any whitespace does.
        patterns = [*{entry.prompt_contains for entry in self.entries}]
        counts = Counter(itertools.chain.from_iterable(
            " ".join(patterns[start : start + CHUNK_LINES]).split()
            for start in range(0, len(patterns), CHUNK_LINES)
        ))
        for index, (pattern, role, _, _) in enumerate(self.entries):
            words = pattern.split()
            words = words[0 if pattern[:1].isspace() else 1 : None if pattern[-1:].isspace() else -1]
            if not words:
                self._unanchored.setdefault(role, []).append(index)
                continue
            table = self._anchored.setdefault(role, {})
            table.setdefault(min(words, key=counts.__getitem__), []).append(index)

    @classmethod
    def from_script(cls, path) -> "MockBackend":
        """The backend of the script at ``path``, read CHUNK_LINES lines at a
        time, so that memory grows with the entries, not with the file. Each
        chunk goes through ``dataset.parse_chunk`` with ``_chunk_entries`` as
        its check, which raises the DatasetError of the first bad
        ``path:line``. The lines are parsed stripped, so a line may hold any
        whitespace that str.strip removes around its JSON."""
        entries: List[MockEntry] = []
        for chunk in read_chunks(path, CHUNK_LINES):
            entries += parse_chunk(path, chunk, _chunk_entries, strip=True)
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


def _chunk_entries(objs: list):
    """``from_script``'s check: the entries of parsed script lines, or the
    problem (a string) of the first rule that a line breaks, each field
    checked over all the lines at once, the responses by ``_responses``."""
    try:
        matches = [obj["match"] for obj in objs]
        responses = [obj["response"] for obj in objs]
        patterns = [match["prompt_contains"] for match in matches]
        roles = [match["role"] for match in matches]
        logprobs = [response["token_logprobs"] for response in responses]
        if not set(map(type, patterns)) <= {str}:
            pattern = next(p for p in patterns if type(p) is not str)
            return f"prompt_contains must be a string, got {pattern!r}"
        # list.count compares with ==, as `in ROLES` does, and hashes nothing.
        if sum(map(roles.count, ROLES)) != len(roles):
            role = next(r for r in roles if r not in ROLES)
            return f"role must be one of {list(ROLES)}, got {role!r}"
        texts = [response["text"] for response in responses]
    except (KeyError, TypeError) as exc:
        return str(exc)
    rows = _responses(texts, logprobs)
    if isinstance(rows, str):
        return rows
    return list(map(MockEntry, patterns, roles, texts, rows))
