import json
import sys
import threading
from decimal import Decimal
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtune.backend import (
    Budget,
    BudgetExceeded,
    ChatClient,
    ChatRequest,
    HttpBackend,
    JsonRetryExhausted,
    MalformedJson,
    Message,
    NoJsonFound,
    Purpose,
    RECORD,
    REPLAY,
    ReplayBackend,
    ReplayMissError,
    ScriptedMockBackend,
    TransportError,
    echo_script,
    extract_json,
    render_fenced,
    request_replay_key,
)
from flowtune.store import LogicalClock, Price, PriceTable, RunLedger

from .helpers import fenced


def req(content: str, purpose: Purpose = Purpose.FORWARD, system: str | None = "sys",
        temperature: float = 0.0) -> ChatRequest:
    messages = []
    if system is not None:
        messages.append(Message("system", system))
    messages.append(Message("user", content))
    return ChatRequest(
        model_id="m",
        messages=tuple(messages),
        temperature=temperature,
        max_output_tokens=64,
        purpose=purpose,
    )


def test_request_invariants():
    with pytest.raises(ValueError):
        ChatRequest("m", (), 0.0, 10, Purpose.FORWARD)
    with pytest.raises(ValueError):
        ChatRequest("m", (Message("user", "x"), Message("system", "s")), 0.0, 10, Purpose.FORWARD)
    with pytest.raises(ValueError):
        ChatRequest("m", (Message("user", "x"),), -1.0, 10, Purpose.FORWARD)


def test_echo_mock():
    backend = ScriptedMockBackend(echo_script)
    response = backend.complete(req("hello"))
    assert response.content == "hello"
    assert response.input_tokens == 2  # "sys" + "hello"
    assert response.output_tokens == 1


# ---------------------------------------------------------------------------
# extract_json
# ---------------------------------------------------------------------------

def test_extract_bare_object():
    assert extract_json('{"text_gradient": "x"}') == {"text_gradient": "x"}


def test_extract_fenced_block_with_prose():
    content = "Here is my plan.\n" + fenced({"should_update": True}) + "\nDone."
    assert extract_json(content) == {"should_update": True}


def test_extract_prefers_first_wellformed_block():
    content = "```json\n{broken\n```\n" + fenced({"ok": 1})
    assert extract_json(content) == {"ok": 1}


def test_extract_no_json():
    with pytest.raises(NoJsonFound) as e:
        extract_json("no json here")
    assert e.value.content == "no json here"


def test_extract_malformed():
    with pytest.raises(MalformedJson):
        extract_json('{"unterminated": ')
    with pytest.raises(MalformedJson):
        extract_json("```json\n{nope}\n```")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(value=json_values)
def test_extract_inverts_render_fenced(value):
    assert extract_json(render_fenced(value)) == value


# ---------------------------------------------------------------------------
# Client: ledger rows, budget, JSON retries
# ---------------------------------------------------------------------------

def make_client(script, budget=None, prices=None):
    ledger = RunLedger(prices=prices or PriceTable(), clock=LogicalClock())
    return ChatClient(ScriptedMockBackend(script), ledger, budget=budget), ledger


def test_every_complete_appends_one_ledger_row():
    client, ledger = make_client(echo_script)
    for i in range(5):
        client.complete(req(f"msg {i}", purpose=Purpose.GRAD_LOSS))
    assert ledger.call_count == 5
    assert ledger.purposes_in_order() == ["GradLoss"] * 5
    assert [r.idx for r in ledger.rows] == [0, 1, 2, 3, 4]


def test_json_retry_appends_repair_instruction_then_succeeds():
    seen = []

    def script(request):
        seen.append(request)
        if len(seen) < 3:
            return "not json"
        return fenced({"fine": True})

    client, ledger = make_client(script)
    obj = client.complete_json(req("go"))
    assert obj == {"fine": True}
    assert ledger.call_count == 3
    # Second and third attempts carry the repair instruction.
    assert "not valid JSON" in seen[1].messages[-1].content
    assert len(seen[2].messages) == len(seen[0].messages) + 2


def test_json_retry_exhausts_after_four_attempts():
    client, ledger = make_client(lambda r: "still not json")
    with pytest.raises(JsonRetryExhausted):
        client.complete_json(req("go"))
    assert ledger.call_count == 4


def test_call_budget_blocks_before_the_call():
    client, ledger = make_client(echo_script, budget=Budget(max_calls=2))
    client.complete(req("a"))
    client.complete(req("b"))
    with pytest.raises(BudgetExceeded):
        client.complete(req("c"))
    assert ledger.call_count == 2


@pytest.mark.parametrize("bad", [{"max_calls": 0}, {"max_calls": -3},
                                 {"max_cost_usd": 0}, {"max_cost_usd": -1}])
def test_budget_rejects_nonpositive_caps(bad):
    with pytest.raises(ValueError, match="must be positive"):
        Budget(**bad)


def test_cost_budget_allows_single_overshoot():
    prices = PriceTable({"m": Price(Decimal("1000000"), Decimal("0"))})
    client, ledger = make_client(echo_script, budget=Budget(max_cost_usd=1.0), prices=prices)
    client.complete(req("one two three"))  # 4 input tokens incl system -> $4, over budget after
    with pytest.raises(BudgetExceeded):
        client.complete(req("again"))
    assert ledger.call_count == 1


# ---------------------------------------------------------------------------
# Record / replay
# ---------------------------------------------------------------------------

def test_record_then_replay_byte_identical(tmp_path):
    store = tmp_path / "store.jsonl"
    calls = {"n": 0}

    def script(request):
        calls["n"] += 1
        return f"reply to: {request.messages[-1].content}"

    recorder = ReplayBackend(store, RECORD, inner=ScriptedMockBackend(script))
    first = recorder.complete(req("hello"))
    assert calls["n"] == 1

    replayer = ReplayBackend(store, REPLAY)
    second = replayer.complete(req("hello"))
    assert second.content == first.content
    assert second.input_tokens == first.input_tokens
    assert calls["n"] == 1  # no inner call on replay


def test_replay_miss_is_fatal_and_names_the_hash(tmp_path):
    store = tmp_path / "store.jsonl"
    store.write_text("")
    replayer = ReplayBackend(store, REPLAY)
    request = req("never recorded")
    with pytest.raises(ReplayMissError) as e:
        replayer.complete(request)
    assert request_replay_key(request) in str(e.value)


def test_replay_key_ignores_max_output_tokens():
    a = req("same")
    b = ChatRequest(a.model_id, a.messages, a.temperature, 999, a.purpose)
    assert request_replay_key(a) == request_replay_key(b)
    c = req("same", temperature=0.5)
    assert request_replay_key(a) != request_replay_key(c)


def test_repeated_identical_requests_replay_in_recorded_order(tmp_path):
    store = tmp_path / "store.jsonl"
    counter = {"n": 0}

    def script(request):
        counter["n"] += 1
        return f"call {counter['n']}"

    recorder = ReplayBackend(store, RECORD, inner=ScriptedMockBackend(script))
    assert recorder.complete(req("x")).content == "call 1"
    assert recorder.complete(req("x")).content == "call 2"

    replayer = ReplayBackend(store, REPLAY)
    assert replayer.complete(req("x")).content == "call 1"
    assert replayer.complete(req("x")).content == "call 2"
    assert replayer.complete(req("x")).content == "call 2"  # sticks at last


# ---------------------------------------------------------------------------
# HTTP backend against a local stub server
# ---------------------------------------------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    fail_times = 0
    seen_bodies: list[dict] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen_bodies.append({"path": self.path, "body": body,
                                       "auth": self.headers.get("Authorization")})
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(503)
            self.end_headers()
            return
        payload = {
            "choices": [{"message": {"role": "assistant", "content": "stubbed reply"}}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 3},
        }
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.fail_times = 0
    _StubHandler.seen_bodies = []
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def test_http_backend_parses_openai_shape(stub_server, monkeypatch):
    monkeypatch.setenv("STUB_KEY", "secret-token")
    backend = HttpBackend(stub_server, api_key_env="STUB_KEY", sleep=lambda s: None)
    response = backend.complete(req("ping"))
    assert response.content == "stubbed reply"
    assert (response.input_tokens, response.output_tokens) == (7, 3)
    call = _StubHandler.seen_bodies[0]
    assert call["path"] == "/chat/completions"
    assert call["auth"] == "Bearer secret-token"
    assert call["body"]["messages"][0]["role"] == "system"
    assert call["body"]["max_tokens"] == 64


def test_http_backend_retries_then_succeeds(stub_server):
    _StubHandler.fail_times = 2
    backend = HttpBackend(stub_server, max_attempts=3, sleep=lambda s: None)
    assert backend.complete(req("ping")).content == "stubbed reply"
    assert len(_StubHandler.seen_bodies) == 3


def test_http_backend_surfaces_after_attempts(stub_server):
    _StubHandler.fail_times = 5
    backend = HttpBackend(stub_server, max_attempts=2, sleep=lambda s: None)
    with pytest.raises(TransportError):
        backend.complete(req("ping"))


# ---------------------------------------------------------------------------
# HTTP retry policy and kept-alive connections
# ---------------------------------------------------------------------------

class FakeResponse:
    def __init__(self, status_code: int):
        self.status_code = status_code

    def json(self):
        return {"choices": [{"message": {"content": "fake reply"}}], "usage": {}}


class FakeRequests:
    """Stands in for the requests module; each post takes the next outcome,
    a status code or an exception to raise."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.posts = 0

    def Session(self):  # noqa: N802 - mirrors requests.Session
        return self

    def post(self, url, **kwargs):
        outcome = self.outcomes[min(self.posts, len(self.outcomes) - 1)]
        self.posts += 1
        if isinstance(outcome, Exception):
            raise outcome
        return FakeResponse(outcome)


def fake_http(monkeypatch, outcomes):
    fake = FakeRequests(outcomes)
    monkeypatch.setitem(sys.modules, "requests", fake)
    return HttpBackend("http://fake", max_attempts=3, sleep=lambda s: None), fake


@pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
def test_http_client_errors_fail_after_one_attempt(monkeypatch, status):
    backend, fake = fake_http(monkeypatch, [status])
    with pytest.raises(TransportError, match=str(status)):
        backend.complete(req("ping"))
    assert fake.posts == 1


@pytest.mark.parametrize("failure", [408, 429, 500, 502, 503, 504, ConnectionError("reset")])
def test_http_transient_failures_are_retried(monkeypatch, failure):
    backend, fake = fake_http(monkeypatch, [failure, failure, 200])
    assert backend.complete(req("ping")).content == "fake reply"
    assert fake.posts == 3


class _CountingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    connections = 0

    def setup(self):
        super().setup()
        type(self).connections += 1  # one handler per accepted connection

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        data = json.dumps({"choices": [{"message": {"content": "kept"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def counting_server():
    _CountingHandler.connections = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def test_http_backend_keeps_one_connection_alive(counting_server):
    backend = HttpBackend(counting_server, sleep=lambda s: None)
    for i in range(20):
        assert backend.complete(req(f"ping {i}")).content == "kept"
    assert _CountingHandler.connections == 1
