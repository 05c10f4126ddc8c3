"""Generation backends: canonical HTTP protocol client and a scripted mock.

Both backends return generated text plus token-level log-probabilities of
the selected beam. The confidence used by the selective gate is the raw
joint sequence probability exp(sum of token log-probs), with no length
normalization.

``HTTPBackend`` speaks HTTP/1.1 on a socket, not through ``http.client``,
which would bring its ``email`` header parser. ``socket`` is imported when
an ``HTTPBackend`` opens its first connection, and ``ssl`` when one is built
for an https URL, so a process that builds none, as the offline commands
and a run on a mock script, loads neither.
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
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Protocol, Tuple
from urllib.parse import unquote, urlsplit

from .dataset import CHUNK_LINES, read_jsonl

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


class SamplingParams(NamedTuple):
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
    seed: Optional[int] = None  # a multinomial call's sampling seed, sent if set


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


class BackendRole(NamedTuple):
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
# only ANSWER_PARAMS and DECOMPOSE_PARAMS): a named tuple is hashable, and
# json.dumps leaves the dict as it is.
_params_dict = functools.cache(SamplingParams._asdict)


def _line(file) -> bytes:
    line = file.readline(65537)
    if len(line) > 65536:  # http.client's limit
        raise TransportError("reply line longer than 65536 bytes")
    return line


def _read_reply(file) -> Tuple[int, bytes, bool]:
    """(status, body, will_close) of one HTTP/1.x reply read from ``file``,
    as http.client.HTTPResponse reads it, save that every 1xx head is
    skipped and that a field value is read as RFC 9110 §5.5 and RFC 9112
    §5.2 give it: each fold a space, no whitespace at its ends. A reply that
    http.client would refuse is a TransportError."""
    status = 0
    while status < 200:
        line = _line(file)
        if not line:  # as http.client's RemoteDisconnected
            raise ConnectionResetError("remote end closed connection without response")
        try:
            version, status = line.split(None, 2)[:2]
            status = int(status)
        except ValueError:
            version = b""
        if not (version.startswith(b"HTTP/") and 100 <= status <= 999):
            raise TransportError(f"bad status line {line!r}")
        fields: Dict[bytes, bytes] = {}
        last = None  # the field of the line before, if that line set it
        for _ in range(100):  # http.client's limit on the lines of a head
            line = _line(file)
            if line in (b"\r\n", b"\n", b""):
                break
            if line[0] in b" \t":  # obs-fold: the line before goes on, after one space
                if last is not None:
                    fields[last] = (fields[last] + b" " + line.strip()).strip()
                continue
            name, _, value = line.partition(b":")
            name = name.lower()
            last = None if name in fields else name  # the first of a repeated field holds
            fields.setdefault(name, value.strip())
        else:
            raise TransportError("more than 100 header lines")
    connection = fields.get(b"connection", b"").lower()
    if version in (b"HTTP/1.0", b"HTTP/0.9"):
        keep_alive = b"%s,%s" % (connection, fields.get(b"proxy-connection", b"").lower())
        will_close = not (fields.get(b"keep-alive") or b"keep-alive" in keep_alive)
    elif version.startswith(b"HTTP/1."):
        will_close = b"close" in connection
    else:
        raise TransportError(f"unknown protocol {version!r}")
    if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        chunks = []
        try:  # a chunk cut short ends the stream: the next size is b""
            while size := int(_line(file).partition(b";")[0], 16):
                chunks.append(file.read(size + 2)[:-2])  # the chunk and its CRLF
        except ValueError:
            raise TransportError("bad or missing chunk size") from None
        while _line(file) not in (b"\r\n", b"\n", b""):  # the trailer
            pass
        return status, b"".join(chunks), will_close
    try:
        length = 0 if status in (204, 304) else int(fields.get(b"content-length") or -1)
    except ValueError:
        length = -1
    body = file.read(length)  # to the close if there is no length
    if len(body) < length:
        raise TransportError(f"reply ended {length - len(body)} bytes short")
    return status, body, will_close or length < 0


class _Connection:
    """One thread's connection to a backend: while open, ``sock`` and its
    buffered reader ``file``; both None while closed."""

    sock = file = None

    def __init__(self, host: str, port: int, timeout: float, context, name: bytes) -> None:
        # context is the backend's SSL context for https, else None. name is
        # the host as ASCII or IDNA bytes, which getaddrinfo takes without
        # loading the idna codec that a str host costs; TLS checks the str.
        self.host, self.port, self.timeout, self.context = host, port, timeout, context
        self.name = name

    def connect(self) -> None:
        import socket

        # close() closes the socket if a step below fails.
        self.sock = socket.create_connection((self.name, self.port), self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.context is not None:
            self.sock = self.context.wrap_socket(self.sock, server_hostname=self.host)
        self.file = self.sock.makefile("rb")

    def close(self) -> None:
        for part in (self.file, self.sock):
            if part is not None:
                part.close()
        self.sock = self.file = None


class HTTPBackend:
    """Client for the canonical JSON-over-HTTP generation protocol.

    POST {base_url}/v1/generate with {"prompt", "image", "params"}, and
    "seed" when the request has one;
    transport faults are retried with bounded exponential backoff,
    protocol violations are surfaced immediately.

    Each calling thread keeps one connection open and reuses it across
    calls. A reused connection that the server has dropped is reopened
    once, and that is no retry. ``close`` closes every connection opened.

    It speaks HTTP/1.1 on a socket, ``ssl``-wrapped for https by one context
    per backend. Each request goes out in one write: the head that
    ``http.client`` would send, built once, then Content-Length and the body.
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
        default_port = 443 if url.scheme == "https" else 80
        host = unquote(url.hostname)  # an IPv6 zone is written %25 (RFC 6874)
        target = url.path.rstrip("/") + "/v1/generate"
        try:
            port = default_port if url.port is None else url.port
            if " " in target + host or not (target + host).isprintable():
                raise ValueError("a control character or space in the path or host")
            target = target.encode("ascii")
            name = host.encode("ascii") if host.isascii() else host.encode("idna")
            # The idna codec's rule, which a host dialled as bytes skips.
            *labels, last = name.split(b".")
            if not all(0 < len(label) < 64 for label in labels) or len(last) > 63:
                raise ValueError("a host label is empty or too long")
        except ValueError as exc:  # a bad port, or a path or host it cannot send
            raise ValueError(f"backend URL {base_url!r}: {exc}") from exc
        self._address = (host, port)
        self._name = name
        # The Host field as http.client derives it: an IPv6 literal bracketed
        # without its zone, and the port unless it is the scheme's default.
        if ":" in host:
            name = b"[%s]" % name.partition(b"%")[0]
        if port != default_port:
            name += b":%d" % port
        self._head = (
            b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n"
            b"Content-Type: application/json\r\n" % (target, name)
        )
        self._context = None
        if url.scheme == "https":
            import ssl

            # Configured as Python 3.11's HTTPSConnection configures its own.
            self._context = ssl._create_default_https_context()
            self._context.set_alpn_protocols(["http/1.1"])
            if self._context.post_handshake_auth is not None:
                self._context.post_handshake_auth = True
        self._local = threading.local()
        self._opened: List[_Connection] = []
        self._lock = threading.Lock()

    def _connection(self) -> _Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = _Connection(*self._address, self.timeout, self._context, self._name)
            with self._lock:
                self._opened.append(conn)
            self._local.conn = conn
        return conn

    def _exchange(self, conn: _Connection, data: bytes) -> Tuple[int, bytes]:
        if conn.sock is None:
            conn.connect()
        conn.sock.sendall(b"%sContent-Length: %d\r\n\r\n%s" % (self._head, len(data), data))
        status, body, will_close = _read_reply(conn.file)
        if will_close:
            conn.close()
        return status, body

    def _post(self, data: bytes) -> Tuple[int, bytes]:
        """(status, body) of one POST on this thread's connection."""
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                return self._exchange(conn, data)
            # The server closed an idle keep-alive socket before or while
            # this request used it.
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                conn.close()
                return self._exchange(conn, data)
        except (OSError, TransportError) as exc:  # timeouts are OSErrors
            # A half-read exchange leaves the connection unusable.
            conn.close()
            raise TransportError(f"{self.base_url}: {exc!r}") from exc

    def complete(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        body = {
            "prompt": request.prompt,
            "image": request.image,
            "params": _params_dict(request.params),
        }
        if request.seed is not None:
            body["seed"] = request.seed
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
    reads the index, so calls from many threads need no lock.

    A pattern's interior words are the tokens of ``pattern.split()`` with
    whitespace on both sides inside the pattern: a prompt that holds the
    pattern holds each of them as a whole token of ``prompt.split()``, as
    split and isspace share one whitespace test. The entries are indexed
    CHUNK_LINES at a time, in file order, each pattern split once. A pattern
    is filed under its interior word that is rarest among the interior
    words of the patterns of every entry so far, its own chunk included,
    ties to the earlier word; a pattern with none is scanned.
    """

    def __init__(self, entries: Iterable[MockEntry]) -> None:
        self.entries = tuple(entries)
        # Per role: the indices of patterns with no interior word, scanned in
        # order, and {word: indices} for the rest, each in file order.
        self._by_role: Dict[str, Tuple[List[int], Dict[str, List[int]]]] = {}
        by_role = self._by_role
        counts: Counter = Counter()
        for start in range(0, len(self.entries), CHUNK_LINES):
            chunk = self.entries[start : start + CHUNK_LINES]
            # A non-space character at each end joins the first and last
            # tokens to it, so the slice drops exactly the tokens that a
            # prompt may hold inside longer ones.
            words = [f"\0{entry.prompt_contains}\0".split()[1:-1] for entry in chunk]
            # Counting hashes each word once; the lookups below reuse it.
            counts.update(itertools.chain.from_iterable(words))
            rarity = counts.__getitem__
            for index, (_, role, _, _), interior in zip(itertools.count(start), chunk, words):
                unanchored, table = by_role.get(role) or by_role.setdefault(role, ([], {}))
                if not interior:
                    unanchored.append(index)
                    continue
                anchor = min(interior, key=rarity)
                if anchor in table:
                    table[anchor].append(index)
                else:
                    table[anchor] = [index]

    @classmethod
    def from_script(cls, path) -> "MockBackend":
        """The backend of the script at ``path``, read by
        ``dataset.read_jsonl`` a chunk at a time, so that memory grows with
        the entries, not with the file. ``_chunk_entries`` is each chunk's
        check, and the DatasetError of the first bad line names
        ``path:line``. The lines are parsed stripped, so a line may hold any
        whitespace that str.strip removes around its JSON."""
        chunks = read_jsonl(path, _chunk_entries, strip=True)
        return cls(itertools.chain.from_iterable(chunks))

    def complete(self, request: InferenceRequest, role: BackendRole) -> InferenceResult:
        """The response of the lowest-indexed entry of the role whose
        pattern is in the prompt."""
        prompt = request.prompt
        unanchored, table = self._by_role.get(role.role, _NO_ENTRIES)
        entries = self.entries
        best = len(entries)
        for index in unanchored:
            if entries[index].prompt_contains in prompt:
                best = index
                break
        # Buckets are in file order, so the first verified entry is the
        # lowest in its bucket; the words come in no particular order.
        for word in table.keys() & prompt.split():
            for index in table[word]:
                if index >= best:
                    break
                if entries[index].prompt_contains in prompt:
                    best = index
                    break
        if best == len(entries):
            raise ScriptMissError(
                f"no mock entry for role={role.role!r} request_id={request.request_id!r}"
            )
        _, _, text, logprobs = entries[best]
        # Every field given, so the named tuple's Python-level __new__ is skipped.
        return tuple.__new__(InferenceResult, (text, logprobs, sum(logprobs), 0))


_NO_ENTRIES: Tuple[tuple, dict] = ((), {})


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
    return [*map(tuple.__new__, itertools.repeat(MockEntry), zip(patterns, roles, texts, rows))]
