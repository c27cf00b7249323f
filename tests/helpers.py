"""Shared test scaffolding: scripted backends, tiny states, runtime builders."""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

import pytest

from flowtune.backend import (
    Budget,
    ChatClient,
    ChatRequest,
    Purpose,
    ScriptedMockBackend,
    TransportError,
)
from flowtune.model import (
    LLM_EXECUTOR,
    TOOL_EXECUTOR,
    ExecutionTrace,
    ExecutorSpec,
    Sequential,
    StepSpec,
    Violation,
    WorkflowState,
)
from flowtune.runtime import ModelSettings, Runtime
from flowtune.store import LogicalClock, PriceTable, RunLedger
from flowtune.templates import load_templates
from flowtune.tools import ToolRegistry


def fenced(obj) -> str:
    return f"```json\n{json.dumps(obj)}\n```"


# Well-formed JSON nested deeper than `json` can read, whatever the recursion
# limit: a reader of outside bytes must refuse it in its documented way, not
# with a RecursionError.
nested_too_deep = pytest.mark.parametrize("deep", [
    pytest.param("[" * 100_000 + "]" * 100_000, id="array"),
    pytest.param('{"a": ' * 100_000 + "1" + "}" * 100_000, id="object"),
])


class PurposeScript:
    """Dispatch scripted responses by purpose tag; records every request."""

    def __init__(self, handlers: dict[Purpose, Callable[[ChatRequest], str]] | None = None,
                 default: Callable[[ChatRequest], str] | None = None):
        self.handlers = dict(handlers or {})
        self.default = default
        self.calls: list[ChatRequest] = []

    def __call__(self, request: ChatRequest) -> str:
        self.calls.append(request)
        handler = self.handlers.get(request.purpose, self.default)
        if handler is None:
            raise AssertionError(f"no script for purpose {request.purpose}")
        return handler(request)

    def count(self, purpose: Purpose) -> int:
        return sum(1 for r in self.calls if r.purpose == purpose)


def drop_connection(request: ChatRequest) -> str:
    raise TransportError("connection dropped")


def user_content(request: ChatRequest) -> str:
    for m in reversed(request.messages):
        if m.role == "user":
            return m.content
    raise AssertionError("no user message")


def system_content(request: ChatRequest) -> str:
    return request.messages[0].content if request.messages[0].role == "system" else ""


# The packaged templates, read once: a library is read-only, so runtimes share it.
TEMPLATES = load_templates()


def make_runtime(script, tools: ToolRegistry | None = None,
                 prices: PriceTable | None = None, budget: Budget | None = None,
                 settings: ModelSettings | None = None, ledger_sink=None) -> Runtime:
    clock = LogicalClock()
    ledger = RunLedger(prices=prices or PriceTable(), clock=clock, sink_path=ledger_sink)
    client = ChatClient(ScriptedMockBackend(script), ledger, budget=budget)
    return Runtime(
        client=client,
        settings=settings or ModelSettings(),
        templates=TEMPLATES,
        tools=tools or ToolRegistry(),
        clock=clock,
    )


def llm_executor(name: str, prompt: str | None = None, description: str = "") -> ExecutorSpec:
    return ExecutorSpec(
        name=name,
        kind=LLM_EXECUTOR,
        description=description or f"{name} step",
        prompt=prompt or f"{name} prompt",
    )


def tool_executor(name: str, tool_names: tuple[str, ...], prompt: str | None = None) -> ExecutorSpec:
    return ExecutorSpec(
        name=name,
        kind=TOOL_EXECUTOR,
        description=f"{name} step",
        prompt=prompt or f"{name} prompt",
        tool_names=tool_names,
    )


def chain_state(k: int, revision: int = 0) -> WorkflowState:
    """K sequential LLM steps, one executor each, prompts 'step-1 prompt' etc."""
    executors = {}
    sketch = []
    for i in range(1, k + 1):
        exe = llm_executor(f"step_{i}", prompt=f"step-{i} prompt")
        executors[exe.name] = exe
        sketch.append(StepSpec(step_id=i, description=f"step {i}", executor_name=exe.name,
                               control=Sequential()))
    return WorkflowState(sketch=tuple(sketch), executors=executors, revision=revision)


def validate_trace(trace: ExecutionTrace) -> list[Violation]:
    """A trace's chain property: each step's input holds the previous
    step's output, and the final output is the last step's."""
    out: list[Violation] = []
    if not trace.records:
        out.append(Violation("EmptyTrace", trace.sample_id))
        return out
    if trace.final_output != trace.records[-1].output_text:
        out.append(Violation("FinalOutputMismatch", trace.sample_id))
    for prev, cur in zip(trace.records, trace.records[1:]):
        if prev.output_text not in cur.input_text:
            out.append(Violation(
                "BrokenChain",
                f"step {cur.step_id} input does not contain step {prev.step_id} output",
            ))
    return out


class FakeSample:
    def __init__(self, sample_id: str, question: str, answer: str = ""):
        self.id = sample_id
        self.question = question
        self.answer = answer


# ---------------------------------------------------------------------------
# Loopback OpenAI-shaped chat-completions server
# ---------------------------------------------------------------------------

DROP = object()    # close the connection without a reply
CLOSE = object()   # reply 200 with "Connection: close", then close
HANGUP = object()  # reply 200 as if kept alive, then close
BROKEN = object()  # reply 200 with a body that is not JSON
SLOW = object()    # reply 200 after half a second
CHUNKED = object()      # reply 200 in two chunks, then a trailer
EARLY_HINTS = object()  # reply 103 Early Hints, then 200
UNTIL_CLOSE = object()  # reply 200 with no Content-Length, ending the body by closing
HTTP_1_0 = object()     # reply 200 as HTTP/1.0, and keep the connection open
LONG_HEADER = object()  # reply 200 with a header line over 65,536 bytes
REFUSAL = object()      # reply 200 with "content": null and a refusal, as OpenAI does


class Usage(dict):
    """An outcome: reply 200 with this "usage" object in place of the word counts."""


class Raw(bytes):
    """An outcome: send these bytes as the whole reply, then close."""


_CHUNKED_HEAD = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
NEGATIVE_CHUNK = Raw(_CHUNKED_HEAD + b"-5\r\nhello\r\n0\r\n\r\n")
OVERFLOWING_CHUNK = Raw(_CHUNKED_HEAD + b"ffffffffffffffffff\r\nhello\r\n0\r\n\r\n")
HUGE_CHUNK = Raw(_CHUNKED_HEAD + b"ffffffffffff\r\nhello\r\n0\r\n\r\n")
HUGE_LENGTH = Raw(b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999\r\n\r\nhello")
DIFFERING_LENGTHS = Raw(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello")


def words(text: str) -> int:
    return len(text.split())


class ChatStub(ThreadingHTTPServer):
    """Answers `POST .../chat/completions` on 127.0.0.1, kept alive.

    Each chat request takes the next outcome of `script`: an HTTP status or
    one of the replies named above; once the script runs out, 200. A
    200 carries `reply(body)` as its content and whitespace-word token
    usage. Every request, a proxy's CONNECT included, is logged in
    `requests`; `connections` counts accepted connections and `hung_up` is
    set when the server has closed one.
    """

    daemon_threads = True

    def __init__(self, reply: Callable[[dict], str] = lambda body: "stubbed reply text"):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.reply = reply
        self.script: list = []
        self.requests: list[dict] = []
        self.connections = 0
        self.hung_up = threading.Event()
        self.lock = threading.Lock()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}"

    def handle_error(self, request, client_address) -> None:
        # A client that stopped waiting (a timeout test) is expected.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        self.hung_up.set()


class _ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ChatStub

    def setup(self):
        super().setup()
        # Headers and body go out in two writes; without this, the second
        # waits for the client's delayed ACK.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.server.lock:
            self.server.connections += 1

    def _log(self, body=None):
        with self.server.lock:
            self.server.requests.append({"method": self.command, "path": self.path,
                                         "headers": dict(self.headers), "body": body})
            return self.server.script.pop(0) if self.server.script else 200

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        outcome = self._log(body)
        if isinstance(outcome, Raw):
            self.wfile.write(outcome)
            self.close_connection = True
            return
        if outcome is DROP:
            self.close_connection = True
            return
        if outcome is SLOW:
            time.sleep(0.5)
        if outcome is EARLY_HINTS:
            self.wfile.write(b"HTTP/1.1 103 Early Hints\r\nLink: </hint>; rel=preload\r\n\r\n")
        status = outcome if isinstance(outcome, int) else 200
        payload = {"error": {"message": "scripted failure"}}
        if outcome is REFUSAL:
            payload = {"choices": [{"message": {"role": "assistant", "content": None,
                                                "refusal": "I can't help with that."}}]}
        elif status == 200:
            content = self.server.reply(body)
            payload = {"choices": [{"message": {"role": "assistant", "content": content}}],
                       "usage": {"prompt_tokens": sum(words(m["content"])
                                                      for m in body["messages"]),
                                 "completion_tokens": words(content)}}
            if isinstance(outcome, Usage):
                payload["usage"] = outcome
        data = b"<html>not json</html>" if outcome is BROKEN else json.dumps(payload).encode()
        if outcome is HTTP_1_0:
            self.wfile.write(b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                             % (len(data), data))
            return
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if outcome is CHUNKED:
            self.send_header("Transfer-Encoding", "chunked")
            half = len(data) // 2
            data = b"".join(b"%x;part\r\n%s\r\n" % (len(chunk), chunk)
                            for chunk in (data[:half], data[half:]))
            data += b"0\r\nX-Trailer: end\r\n\r\n"
        elif outcome is not UNTIL_CLOSE:
            self.send_header("Content-Length", str(len(data)))
        if outcome is CLOSE:
            self.send_header("Connection", "close")
        if outcome is LONG_HEADER:
            self.send_header("X-Padding", "x" * 65536)
        self.end_headers()
        self.wfile.write(data)
        if outcome is HANGUP or outcome is UNTIL_CLOSE:
            self.close_connection = True

    def do_CONNECT(self):
        self._log()
        self.send_error(502, "no tunnels here")

    def log_message(self, *args):
        pass


@contextmanager
def chat_stub(**kwargs):
    """A running ChatStub(**kwargs), shut down on exit."""
    server = ChatStub(**kwargs)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def clear_proxy_env(monkeypatch) -> None:
    """Unset every proxy variable, so HTTP backends built afterwards connect
    directly."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
