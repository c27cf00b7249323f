"""Chat-completion backends and the client that wraps them.

Three interchangeable backends sit behind one `complete()` call: a real
OpenAI-compatible HTTP endpoint, a scripted mock (a plain function from
request to response text), and a record/replay store that makes any recorded
run re-executable with zero network calls. The client layers call ledgering,
budget enforcement, and JSON-repair retries on top.

A backend says in `waits` whether its calls can wait on something outside
the process, a network or a test's event; `can_wait` reads the answer, and
`Runtime.fan_out` runs calls side by side only where they can.
"""

from __future__ import annotations

import base64
import copy
import hashlib
import http.client
import json
import logging
import math
import os
import random
import re
import selectors
import threading
import time
import urllib.parse
import urllib.request
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple, Protocol

from .model import compact_json, json_number
from .store import RunLedger, append_line, read_rows

logger = logging.getLogger(__name__)


class Purpose(str, Enum):
    FORWARD = "Forward"
    GRAD_LOSS = "GradLoss"
    GRAD_CALL = "GradCall"
    GRAD_WORKFLOW = "GradWorkflow"
    OPTIM_CALL = "OptimCall"
    OPTIM_WORKFLOW = "OptimWorkflow"
    INIT_EXECUTOR = "InitExecutor"
    BOOTSTRAP = "Bootstrap"


ROLES = ("system", "user")


class Message(NamedTuple):
    """One chat message. A named tuple, so it compares and hashes equal to
    the plain (role, content) pair: replay matches a live request against
    the pairs it reads from a store without converting either."""

    role: str
    content: str


@dataclass(frozen=True)
class ChatRequest:
    model_id: str
    messages: tuple[Message, ...]
    temperature: float
    max_output_tokens: int
    purpose: Purpose

    def __post_init__(self):
        if not self.messages:
            raise ValueError("messages must be nonempty")
        # A system prompt, when present, leads the conversation; a bad role
        # anywhere is reported first.
        misplaced_system = False
        for i, (role, _) in enumerate(self.messages):
            if role not in ROLES:
                raise ValueError(f"bad role {role!r}")
            if role == "system" and i:
                misplaced_system = True
        if misplaced_system:
            raise ValueError("system message must come first")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")


@dataclass(frozen=True)
class ChatResponse:
    content: str
    input_tokens: int = 0
    output_tokens: int = 0
    latency_s: float = 0.0


def request_replay_key(request: ChatRequest) -> str:
    """The SHA-256 of the request's identity, which names a replay miss.

    max_output_tokens is deliberately excluded so tuning the token cap does
    not invalidate existing replay stores.
    """
    payload = compact_json([request.model_id, [[m.role, m.content] for m in request.messages],
                            request.temperature])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _identity(model_id: str, messages: tuple[tuple[str, str], ...], temperature) -> tuple:
    """What a replay matches a call by: the replay key's fields, with type
    and repr telling 0, 0.0 and -0.0 apart, as the key does. A request's
    `Message`s and a store row's (role, content) pairs make equal identities."""
    return (model_id, messages, type(temperature), repr(temperature))


def _token_count(value) -> int:
    """A booked token count: a whole number >= 0, given as a JSON integer or
    as a float such as 12.0. Anything else, a bool included, is a ValueError."""
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int or value < 0:
        raise ValueError(f"token count must be a whole number >= 0, got {value!r}")
    return value


class Backend(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


def can_wait(backend) -> bool:
    """Whether calls to `backend` can wait, so that running them side by
    side pays. A backend with a `waits` attribute says so itself; a wrapper
    without one, with the backend it wraps in `inner`, is seen through;
    any other backend is taken to wait."""
    if hasattr(backend, "waits"):
        return backend.waits
    inner = getattr(backend, "inner", None)
    return True if inner is None else can_wait(inner)


class TransportError(RuntimeError):
    """HTTP call failed after all retry attempts."""


class ReplayMissError(RuntimeError):
    def __init__(self, request: ChatRequest, answered: int):
        self.request = request
        self.answered = answered
        super().__init__(f"no recorded response for request hash {request_replay_key(request)} "
                         f"({request.purpose.value} call, after {answered} "
                         f"call{'' if answered == 1 else 's'})")


# ---------------------------------------------------------------------------
# Ordered fan-out commits
# ---------------------------------------------------------------------------

# The actions deferred to the commit of the pool item being run (see
# `Runtime.fan_out`); None elsewhere, in an inline item too.
DEFERRED: ContextVar[list[Callable[[], None]] | None] = ContextVar("flowtune_deferred",
                                                                 default=None)


def at_commit(action: Callable[[], None]) -> None:
    """Run `action` when the calling pool item is committed, in item order,
    on the thread that runs the fan-out; at once anywhere else."""
    deferred = DEFERRED.get()
    if deferred is None:
        action()
    else:
        deferred.append(action)


# ---------------------------------------------------------------------------
# Scripted mock
# ---------------------------------------------------------------------------

def _count_tokens(text: str) -> int:
    return len(text.split())


def echo_script(request: ChatRequest) -> str:
    """Return the last user message verbatim."""
    for m in reversed(request.messages):
        if m.role == "user":
            return m.content
    return request.messages[-1].content


class ScriptedMockBackend:
    """Deterministic backend driven by a plain function of the request.

    Token counts are whitespace word counts, so ledgers stay meaningful and
    reproducible under mocks. Its calls count as waiting, because a test's
    script may block on events to exercise the fan-out's thread pool.
    """

    waits = True

    def __init__(self, script: Callable[[ChatRequest], str] = echo_script):
        self.script = script

    def complete(self, request: ChatRequest) -> ChatResponse:
        content = self.script(request)
        if not isinstance(content, str):
            raise TypeError("script must return str")
        in_tok = sum(_count_tokens(m.content) for m in request.messages)
        return ChatResponse(content=content, input_tokens=in_tok,
                            output_tokens=_count_tokens(content), latency_s=0.0)


# ---------------------------------------------------------------------------
# HTTP (OpenAI-compatible chat completions)
# ---------------------------------------------------------------------------

# Statuses a later attempt can succeed on; any other 4xx or 5xx fails at once.
RETRYABLE_STATUSES = frozenset({408, 429, 500, 502, 503, 504})
# Draws the retry waits. The OS seeds it, so that threads and processes do
# not retry in step; no artifact holds a wait's length.
_RETRY_JITTER = random.Random()


class HttpBackend:
    """An OpenAI-compatible chat-completions endpoint.

    Each thread that calls `complete` keeps one kept-alive connection,
    opened on its first call, so the workers of a fan-out each reuse their
    own. The standard library's `http.client` opens it: TCP_NODELAY, a
    proxy's CONNECT tunnel, and TLS with certificates checked against the
    system CA store. The backend then writes each POST in one call and reads
    the response itself (`_read_response`). The endpoint, the proxy and the
    request's header block are worked out once, in the constructor, which
    does no I/O and refuses what `http.client` would refuse to send. The
    proxy comes from the environment (`https_proxy`, `http_proxy`,
    `no_proxy` and their upper-case forms) and is spoken to in plain HTTP:
    an https endpoint is tunnelled through it with CONNECT, and an http
    request goes to it with the absolute URI.

    A failure to send or receive closes the connection, and the next attempt
    opens a new one. So does a server closing an idle connection, which is
    noticed before the connection is used again.

    Such a failure, or a status in `RETRYABLE_STATUSES`, is retried. Retry n
    waits a uniform draw from [0, backoff_base_s * 2**(n-1)], except the
    last, which waits out the rest of backoff_base_s * (2**(max_attempts-1)
    - 1); so a call that fails every attempt sleeps that total.
    """

    waits = True

    def __init__(self, endpoint: str, api_key_env: str = "", timeout_s: float = 60.0,
                 max_attempts: int = 3, backoff_base_s: float = 0.5,
                 sleep: Callable[[float], None] = time.sleep):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        # A socket refuses a timeout past its clock's range, about 292 years.
        if timeout_s > threading.TIMEOUT_MAX:
            raise ValueError(f"timeout_s must be at most {threading.TIMEOUT_MAX:g}")
        if backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        url = urllib.parse.urlsplit(endpoint.rstrip("/"))
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL, got {endpoint!r}")
        host = url.netloc.rpartition("@")[2]
        if not host.isascii():
            host = host.encode("idna").decode("ascii")
        target = f"{url.path}/chat/completions"
        if _URL_FORBIDDEN.search(host + target) or not target.isascii():
            raise ValueError("endpoint must hold no space or control character, and its path "
                             f"only ASCII, got {endpoint!r}")
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self._sleep = sleep
        headers = {"Host": host, "Accept-Encoding": "identity",
                   "Content-Type": "application/json"}
        api_key = os.environ.get(api_key_env, "") if api_key_env else ""
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
            if not _is_header_value(headers["Authorization"]):
                raise ValueError(f"api_key_env: the value of ${api_key_env} "
                                 "is not a valid HTTP header value")
        self._connection_class = (http.client.HTTPSConnection if url.scheme == "https"
                                  else http.client.HTTPConnection)
        self._address = (url.hostname, url.port)
        self._tunnel = None
        proxy = _environment_proxy(url.scheme, url.hostname)
        if proxy:
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            self._address = (proxy_url.hostname, proxy_url.port or 80)
            proxy_headers = {}
            if proxy_url.username:
                credentials = (f"{urllib.parse.unquote(proxy_url.username)}:"
                               f"{urllib.parse.unquote(proxy_url.password or '')}")
                proxy_headers["Proxy-Authorization"] = \
                    "Basic " + base64.b64encode(credentials.encode()).decode()
            if url.scheme == "https":
                self._tunnel = (url.hostname, url.port, proxy_headers)
            else:
                headers.update(proxy_headers)
                target = f"http://{host}{target}"
        # Each call appends its body's length, a blank line and the body.
        self._head = "".join([f"POST {target} HTTP/1.1\r\n",
                              *(f"{name}: {value}\r\n" for name, value in headers.items()),
                              "Content-Length: "]).encode("latin-1")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[_Connection] = []

    def _connection(self) -> _Connection:
        """The calling thread's connection, made on its first call."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            opener = self._connection_class(*self._address, timeout=self.timeout_s)
            if self._tunnel is not None:
                opener.set_tunnel(*self._tunnel)
            conn = self._local.conn = _Connection(opener)
            with self._lock:
                self._connections.append(conn)
        return conn

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One POST; the status and the whole body, read on every status so
        that the connection stays usable."""
        conn = self._connection()
        try:
            conn.socket().sendall(b"%s%d\r\n\r\n%s" % (self._head, len(body), body))
            status, data, keep_alive = _read_response(conn.reader)
        except BaseException:
            conn.close()
            raise
        if not keep_alive:
            conn.close()
        return status, data

    def close(self) -> None:
        """Close every thread's connection; a later call opens a new one.
        Call it while no call is in flight."""
        with self._lock:
            for conn in self._connections:
                conn.close()

    def complete(self, request: ChatRequest) -> ChatResponse:
        body = json.dumps({
            "model": request.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }).encode()
        last_error: Exception | None = None
        slept = 0.0
        for attempt in range(self.max_attempts):
            if attempt:
                if attempt < self.max_attempts - 1:
                    wait = _RETRY_JITTER.uniform(0.0, self.backoff_base_s * 2 ** (attempt - 1))
                else:
                    wait = self.backoff_base_s * (2 ** attempt - 1) - slept
                slept += wait
                self._sleep(wait)
            start = time.monotonic()
            try:
                status, raw = self._post(body)
            except (OSError, http.client.HTTPException) as e:  # failures to send or receive
                last_error = e
                continue
            if status in RETRYABLE_STATUSES:
                last_error = TransportError(f"HTTP {status}")
                continue
            if status >= 300:
                raise TransportError(f"chat completion failed with HTTP {status}; not retried")
            try:
                data = json.loads(raw)
                usage = data.get("usage", {})
                content = data["choices"][0]["message"]["content"]
                if type(content) is not str:  # null for a refusal or a tool call
                    raise TypeError(f"content is not a string: {content!r}")
                return ChatResponse(
                    content=content,
                    input_tokens=_token_count(usage.get("prompt_tokens", 0)),
                    output_tokens=_token_count(usage.get("completion_tokens", 0)),
                    latency_s=time.monotonic() - start,
                )
            except (ValueError, LookupError, TypeError, AttributeError, RecursionError) as e:
                raise TransportError(f"unreadable chat completion response: {e!r}") from e
        raise TransportError(f"chat completion failed after {self.max_attempts} attempts: {last_error}")


def _environment_proxy(scheme: str, host: str) -> str | None:
    """The proxy the environment names for scheme, or None if it names none
    or `no_proxy` covers host.

    These are the environment variables `urllib.request.getproxies` reads,
    with its precedence: the lower-case name wins, even when empty, and a CGI
    request's `HTTP_PROXY` is not taken. Only they are looked up, because
    `getproxies` decodes the whole environment: about 0.2 ms with 80
    variables on a 2-vCPU VM, a tenth of the set-up of a small run.
    """
    name = f"{scheme}_proxy"
    proxy = os.environ.get(name)
    if proxy is None and not (scheme == "http" and "REQUEST_METHOD" in os.environ):
        proxy = os.environ.get(name.upper())
    no_proxy = os.environ.get("no_proxy", os.environ.get("NO_PROXY", ""))
    if not proxy or urllib.request.proxy_bypass_environment(host, {"no": no_proxy}):
        return None
    return proxy


# `http.client`'s checks: characters no request target or host may hold, and
# a line break in a header value that does not fold it, which would end it.
_URL_FORBIDDEN = re.compile("[\x00-\x20\x7f]")
_ILLEGAL_HEADER_VALUE = re.compile(rb"\n(?![ \t])|\r(?![ \t\n])")
# `http.client`'s limits on a response: bytes in a line, and header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# A body is read 1 MiB at a time, so a size it does not honour ends at EOF.
_MAX_READ = 1 << 20
_BLANK_LINES = (b"\r\n", b"\n", b"")
# The framing headers a reply may repeat only with one value.
_SINGLE_HEADERS = {b"content-length": "Content-Length", b"transfer-encoding": "Transfer-Encoding"}


def _is_header_value(value: str) -> bool:
    try:
        return not _ILLEGAL_HEADER_VALUE.search(value.encode("latin-1"))
    except UnicodeEncodeError:
        return False


class _Connection:
    """One thread's kept-alive connection. `opener`, an `http.client`
    connection, opens the socket; one buffered reader reads every response
    on it. A selector, registered when it opens, tells before each reuse
    whether the server closed it while it was idle: every response is read
    whole, so anything to read then is the close."""

    def __init__(self, opener: http.client.HTTPConnection):
        self.opener = opener
        self.reader = None
        self.selector = None

    def socket(self):
        """The open socket; opened anew if it is closed or the server closed it."""
        if self.reader is not None and self.selector.select(0):
            self.close()
        if self.reader is None:
            self.opener.connect()
            sock = self.opener.sock
            self.reader = sock.makefile("rb")
            self.selector = selectors.DefaultSelector()
            self.selector.register(sock, selectors.EVENT_READ)
        return self.opener.sock

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.selector.close()
            self.reader = self.selector = None
        self.opener.close()


def _read_line(reader, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong(what)
    return line


def _read_exactly(reader, n: int) -> bytes:
    pieces = []
    while n:
        piece = reader.read(min(n, _MAX_READ))
        if not piece:
            raise http.client.IncompleteRead(b"".join(pieces), n)
        pieces.append(piece)
        n -= len(piece)
    return b"".join(pieces)


def _read_response(reader) -> tuple[int, bytes, bool]:
    """Read one response: its final status, past any 1xx reply; its whole
    body, chunked, by `Content-Length` or up to the close; and whether the
    connection stays open, which it does unless the reply is HTTP/1.0, says
    `Connection: close` or ends with the close. Input `http.client` would
    refuse raises its exception, and so do differing `Content-Length`s or
    `Transfer-Encoding`s, which `http.client` would read by the first and
    this reader by the last."""
    status = 100
    while status < 200:
        line = _read_line(reader, "status line")
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        version, _, rest = line.partition(b" ")
        try:
            status = int(rest.split(None, 1)[0])
        except (IndexError, ValueError):
            status = 0
        if not version.startswith(b"HTTP/") or not 100 <= status <= 999:
            raise http.client.BadStatusLine(str(line, "iso-8859-1"))
        headers = {}
        for _ in range(_MAX_HEADERS):
            line = _read_line(reader, "header line")
            if line in _BLANK_LINES:
                break
            name, _, value = line.partition(b":")
            name, value = name.strip().lower(), value.strip()
            if name in _SINGLE_HEADERS and headers.get(name, value) != value:
                raise http.client.HTTPException(f"differing {_SINGLE_HEADERS[name]} values")
            headers[name] = value
        else:
            raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")
    keep_alive = (version != b"HTTP/1.0"
                  and b"close" not in headers.get(b"connection", b"").lower())
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, _read_chunked(reader), keep_alive
    try:
        length = 0 if status in (204, 304) else int(headers[b"content-length"])
    except (KeyError, ValueError):
        length = -1
    if length < 0:
        return status, reader.read(), False
    return status, _read_exactly(reader, length), keep_alive


def _read_chunked(reader) -> bytes:
    chunks = []
    while True:
        line = _read_line(reader, "chunk size")
        try:
            size = int(line.partition(b";")[0], 16)
        except ValueError:
            size = -1
        if size < 0:
            raise http.client.IncompleteRead(b"".join(chunks))
        if not size:
            break
        chunks.append(_read_exactly(reader, size))
        _read_exactly(reader, 2)  # the line end after the chunk
    while _read_line(reader, "trailer line") not in _BLANK_LINES:
        pass
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# Record / replay
# ---------------------------------------------------------------------------

RECORD = "record"
REPLAY = "replay"


def _store_row(row) -> tuple[int, ChatResponse | str]:
    """A store row's identity hash and entry, its response or its recorded
    error's message; no request is kept. A value of the wrong kind, such as
    an array or object in the identity, raises a BAD_ROW error."""
    resp = row.get("response")
    text = row["error"] if resp is None else resp["content"]
    if type(text) is not str:
        raise TypeError(f"content is not a string: {text!r}")
    entry = text if resp is None else ChatResponse(
        content=text,
        input_tokens=_token_count(resp.get("input_tokens", 0)),
        output_tokens=_token_count(resp.get("output_tokens", 0)),
        latency_s=json_number(resp.get("latency_s", 0.0), "latency_s"),
    )
    req = row["request"]
    if type(req["messages"]) is not list:
        raise TypeError(f"messages is not a list: {req['messages']!r}")
    messages = tuple([(m["role"], m["content"]) for m in req["messages"]])
    # An array or object in the identity is unhashable.
    return hash(_identity(req["model_id"], messages, req["temperature"])), entry


class ReplayBackend:
    """Record mode persists (request, outcome) rows; replay mode serves them.

    A call is identified by its request (`_identity`). Replay serves rows in
    file order while each call's identity hashes as the next row's does;
    from the first that does not, or past the last row, it indexes the rows
    it loaded by their identity hashes and serves by hash, so a store
    written out of serial order still replays. By hash, repeated identical
    requests replay in recorded order, sticking at the last recorded
    response once exhausted, and an absent one fails loudly
    (`ReplayMissError`). The hash is 64 bits: a request that differs from
    the next row still matches it with odds of about 2**-64 per call, and
    two requests whose hashes collide, with odds of about n**2 / 2**65
    among n stored requests, share their rows. A call that failed with a
    `TransportError` is recorded with its "error" in place of a response,
    and replays as the same failure, in its place. The store is read once,
    when replay starts; a missing store is an empty one, and the `key` that
    earlier versions wrote in each row is ignored.

    Both modes keep the serial order. Record mode writes each call's row
    before the call's ledger row (see `RunDirectory`): an inline call's at
    once, a pool item's when the item is committed. It waits as its inner
    backend does. Replay mode answers from memory and never waits, so
    fan-outs over it run inline, in serial order, and its cursors need no lock.
    """

    def __init__(self, store_path: str | Path, mode: str, inner: Backend | None = None):
        if mode not in (RECORD, REPLAY):
            raise ValueError(f"mode must be {RECORD!r} or {REPLAY!r}")
        if mode == RECORD and inner is None:
            raise ValueError("record mode needs an inner backend")
        self.store_path = Path(store_path)
        self.mode = mode
        self.inner = inner
        # (identity hash, entry) per row in file order; an entry is a
        # response, or the message of a recorded TransportError.
        self._rows: list[tuple[int, ChatResponse | str]] = []
        self._answered = 0  # the next row's index, while served by position
        self._responses: dict[int, list[ChatResponse | str]] | None = None  # by hash
        self._cursors: Counter[int] = Counter()
        if mode == REPLAY:
            self._load()

    @property
    def waits(self) -> bool:
        return self.mode == RECORD and can_wait(self.inner)

    def _load(self) -> None:
        """Keep each row's `_store_row`; an unreadable row is a ValueError
        naming the store and the line."""
        if self.store_path.exists():
            self._rows = [row for _, row in read_rows(
                self.store_path, _store_row,
                lambda line, reason: ValueError(f"replay store {self.store_path}, "
                                                f"line {line}: {reason}"))]

    def _by_identity(self, key: int, request: ChatRequest) -> ChatResponse | str:
        """The entry of the identity hashing to `key`; the first call indexes
        the loaded rows by hash, cursors where serving by position left them."""
        if self._responses is None:
            self._responses = {}
            for row_key, entry in self._rows:
                self._responses.setdefault(row_key, []).append(entry)
            self._cursors.update([row_key for row_key, _ in self._rows[:self._answered]])
        recorded = self._responses.get(key)
        if not recorded:
            raise ReplayMissError(request, self._answered)
        cursor = self._cursors[key]
        self._cursors[key] = cursor + 1
        return recorded[min(cursor, len(recorded) - 1)]

    def complete(self, request: ChatRequest) -> ChatResponse:
        if self.mode == REPLAY:
            i = self._answered
            key = hash(_identity(request.model_id, request.messages, request.temperature))
            if self._responses is None and i < len(self._rows) and self._rows[i][0] == key:
                entry = self._rows[i][1]
            else:
                entry = self._by_identity(key, request)
            self._answered = i + 1
            if isinstance(entry, str):
                raise TransportError(entry)
            return entry
        try:
            response = self.inner.complete(request)
        except TransportError as e:
            self._record(request, error=str(e))
            raise
        self._record(request, response={
            "content": response.content,
            "input_tokens": response.input_tokens,
            "output_tokens": response.output_tokens,
            "latency_s": response.latency_s,
        })
        return response

    def _record(self, request: ChatRequest, **outcome) -> None:
        """Write the row of one call, with its response or error, at commit."""
        row = {
            "request": {
                "model_id": request.model_id,
                "messages": [{"role": m.role, "content": m.content} for m in request.messages],
                "temperature": request.temperature,
                "max_output_tokens": request.max_output_tokens,
                "purpose": request.purpose.value,
            },
            **outcome,
        }
        at_commit(lambda line=compact_json(row): append_line(self.store_path, line))

    def close(self) -> None:
        """Close the recorded backend's connections, if it keeps any."""
        getattr(self.inner, "close", lambda: None)()


# ---------------------------------------------------------------------------
# JSON extraction
# ---------------------------------------------------------------------------

class JsonExtractError(ValueError):
    pass


_FENCE_OPEN_RE = re.compile(r"```json\s*\n\s*")
_FENCE_CLOSE_RE = re.compile(r"\s*```")
_decode_at = json.JSONDecoder().raw_decode


def extract_json(content: str):
    """Parse the first well-formed fenced ```json block, else the whole body.

    One JSON value must fill a block, so backticks inside a JSON string do
    not end it. Content with neither is a JsonExtractError. JSON nested past
    the parser's recursion limit counts as not well-formed.
    """
    for match in _FENCE_OPEN_RE.finditer(content):
        try:
            value, end = _decode_at(content, match.end())
        except (json.JSONDecodeError, RecursionError):
            continue
        if _FENCE_CLOSE_RE.match(content, end):
            return value
    # str.strip also drops the Unicode spaces that json.loads would refuse.
    try:
        return json.loads(content.strip())
    except (json.JSONDecodeError, RecursionError):
        raise JsonExtractError("no well-formed JSON in the reply") from None


def render_fenced(value) -> str:
    return f"```json\n{json.dumps(value, ensure_ascii=False, indent=2)}\n```"


# ---------------------------------------------------------------------------
# Budget and client
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Budget:
    max_calls: int | None = None
    max_cost_usd: float | None = None

    def __post_init__(self):
        if self.max_calls is not None and self.max_calls <= 0:
            raise ValueError("max_calls must be positive when set")
        if self.max_cost_usd is not None and self.max_cost_usd <= 0:
            raise ValueError("max_cost_usd must be positive when set")
        if self.max_cost_usd is not None and not self.max_cost_usd * 1_000_000 < math.inf:
            raise ValueError(f"max_cost_usd must be a finite number of micro-dollars, "
                             f"got {self.max_cost_usd}")


class BudgetExceeded(RuntimeError):
    pass


class JsonRetryExhausted(RuntimeError):
    pass


REPAIR_INSTRUCTION = (
    "Your previous reply was not valid JSON. Respond again with a single fenced "
    "```json block and nothing else."
)

JSON_RETRY_LIMIT = 3


class _BudgetState:
    """Calls issued and cost spent, shared by a client and its task views.

    A call is reserved before it is issued, so `max_calls` holds at any
    concurrency; the cost of a call counts once it returns, so each call in
    flight can overshoot `max_cost_usd`.
    """

    def __init__(self, budget: Budget | None, issued: int, spent_micro: int):
        self._lock = threading.Lock()
        self._budget = budget or Budget()
        self._max_cost_micro = (None if self._budget.max_cost_usd is None
                                else int(round(self._budget.max_cost_usd * 1_000_000)))
        self._issued = issued
        self._spent_micro = spent_micro

    def reserve(self) -> None:
        with self._lock:
            max_calls = self._budget.max_calls
            if max_calls is not None and self._issued + 1 > max_calls:
                raise BudgetExceeded(f"call budget {max_calls} reached")
            if self._max_cost_micro is not None and self._spent_micro >= self._max_cost_micro:
                raise BudgetExceeded(f"cost budget ${self._budget.max_cost_usd} reached")
            self._issued += 1

    def release(self) -> None:
        """Return the reservation of a call that failed."""
        with self._lock:
            self._issued -= 1

    def spend(self, cost_micro: int) -> None:
        with self._lock:
            self._spent_micro += cost_micro


class ChatClient:
    """One completion surface for the whole engine.

    Every successful call appends exactly one ledger row, tagged with the
    call's purpose. When a budget is set, each call reserves its place in
    the call budget before it is issued and adds its cost when it returns.
    So the call cap is never exceeded, and the cost cap is overshot by at
    most the calls in flight: one in a serial run, up to `Runtime.concurrency`
    in a fan-out.
    """

    def __init__(self, backend: Backend, ledger: RunLedger, budget: Budget | None = None):
        self.backend = backend
        self.ledger = ledger
        self.budget = budget
        self._usage = _BudgetState(budget, ledger.call_count, ledger.total_cost_micro)

    def with_ledger(self, ledger: RunLedger) -> "ChatClient":
        """A view that records into `ledger` and shares this client's backend
        and budget."""
        view = copy.copy(self)
        view.ledger = ledger
        return view

    def complete(self, request: ChatRequest) -> ChatResponse:
        self._usage.reserve()
        try:
            response = self.backend.complete(request)
        except BaseException:
            self._usage.release()
            raise
        row = self.ledger.record_call(request.purpose.value, request.model_id,
                                      response.input_tokens, response.output_tokens)
        self._usage.spend(row.cost_micro)
        return response

    def complete_json(self, request: ChatRequest):
        """complete() plus JSON extraction, re-asking with a repair line on
        failure, up to JSON_RETRY_LIMIT times."""
        req = request
        for attempt in range(JSON_RETRY_LIMIT + 1):
            response = self.complete(req)
            try:
                return extract_json(response.content)
            except JsonExtractError:
                logger.warning("malformed JSON from %s call (attempt %d/%d)",
                               request.purpose.value, attempt + 1, JSON_RETRY_LIMIT + 1)
                req = replace(req, messages=req.messages + (Message("user", REPAIR_INSTRUCTION),))
        raise JsonRetryExhausted(f"no valid JSON after {JSON_RETRY_LIMIT + 1} attempts")
