"""Ordered fan-out: artifacts are byte-identical at every concurrency, a
replay runs inline in item order, and budgets hold under a thread pool."""

import hashlib
import json
import re
import sys
import threading
import time
from decimal import Decimal
from pathlib import Path

import pytest

from flowtune import runtime as runtime_module
from flowtune.backend import (
    RECORD,
    REPLAY,
    Budget,
    BudgetExceeded,
    ChatClient,
    ChatRequest,
    Purpose,
    ReplayBackend,
    ScriptedMockBackend,
    TransportError,
)
from flowtune.evaluation import Sample, exact_match, metric_info
from flowtune.forward import parse_envelope
from flowtune.optimizer import bootstrap_workflow
from flowtune.runtime import Runtime
from flowtune.store import LogicalClock, Price, PriceTable, RunDirectory, RunLedger
from flowtune.trainer import (
    MODE_FULL,
    MODE_NO_BILEVEL,
    MODE_PROMPT_ONLY,
    MODES,
    TrainConfig,
    evaluate,
    make_batches,
    train,
)

from .helpers import chain_state, fenced, user_content

PRICES = PriceTable({
    "executor": Price(Decimal("0.40"), Decimal("1.60")),
    "meta": Price(Decimal("2.50"), Decimal("10.00")),
})


def digest_of(request: ChatRequest) -> str:
    text = "\x00".join(f"{m.role}:{m.content}" for m in request.messages)
    return hashlib.sha256(text.encode()).hexdigest()


def plan_reply(user: str, digest: str) -> str:
    """Grow the workflow by one new step until it has three."""
    names = re.findall(r"^  Executor: (\S+) \(", user, re.M)
    if len(names) >= 3:
        return fenced({"reasoning": "fine", "should_update": False,
                       "updated_execution_plan": []})
    plan = [{"step_id": i, "description": f"stage {i}", "tools": [], "executor_type": "reuse",
             "executor_name": name, "generation_guideline": ""}
            for i, name in enumerate(names, 1)]
    plan.append({"step_id": len(names) + 1, "description": f"check {digest[:6]}", "tools": [],
                 "executor_type": "new", "executor_name": f"Check{len(names)}",
                 "generation_guideline": "verify the previous answer",
                 "prompt": f"verify {digest[:6]}"})
    return fenced({"reasoning": "grow", "should_update": True, "updated_execution_plan": plan})


def pure_script(request: ChatRequest) -> str:
    """Every reply is a function of the request alone. Replies differ per
    request, a share of first meta replies is broken JSON, and a share of
    workflow gradients is unusable, so any reordering shows in the files."""
    digest = digest_of(request)
    time.sleep(int(digest[3], 16) / 20_000)  # up to 0.75 ms, so items interleave
    user = user_content(request)
    purpose = request.purpose
    if purpose == Purpose.BOOTSTRAP:
        return f"guess {digest[:6]}"
    if purpose == Purpose.FORWARD:
        question, previous = parse_envelope(user)
        if int(digest[0], 16) < 5:
            return question.upper()
        return f"{previous or question} {digest[:4]}"
    if len(request.messages) == 2 and int(digest[1], 16) < 3:
        return "```json\n{broken\n```"
    if purpose == Purpose.GRAD_WORKFLOW and int(digest[2], 16) < 2:
        return fenced({"reasoning": "no gradient key"})
    if purpose == Purpose.OPTIM_WORKFLOW:
        return plan_reply(request.messages[1].content, digest)
    if purpose == Purpose.INIT_EXECUTOR:
        return fenced({"name": "Checker", "description": "checks",
                       "prompt": f"check {digest[:6]}"})
    if purpose == Purpose.OPTIM_CALL:
        names = re.findall(r"^### (\S+) \(", request.messages[1].content, re.M)
        return fenced({"updated_prompt": f"tuned {digest[:6]}", "changes_made": ["c"],
                       "updates": {name: f"tuned {digest[:6]}" for name in names}})
    return fenced({"text_gradient": f"g {digest[:6]}", "reasoning": "r",
                   "gradients": {str(i): f"g{i} {digest[:6]}" for i in range(1, 4)}})


def dataset(n: int, prefix: str) -> list[Sample]:
    return [Sample(id=f"{prefix}{i}", question=f"question {prefix} {i}",
                   answer=f"QUESTION {prefix.upper()} {i}") for i in range(n)]


def run(backend, root: Path, concurrency: int, mode: str = "full") -> Path:
    run_dir = RunDirectory(root)
    clock = LogicalClock()
    ledger = RunLedger(prices=PRICES, clock=clock, sink_path=run_dir.ledger_path)
    rt = Runtime(client=ChatClient(backend, ledger), clock=clock, concurrency=concurrency)
    config = TrainConfig(batch_size=3, inner_steps_per_round=2, seed=5, mode=mode,
                         keep_traces=True)
    train_set, val_set = dataset(6, "t"), dataset(3, "v")
    state0 = bootstrap_workflow(rt, make_batches(train_set, config)[0], exact_match,
                                metric_info("exact_match"))
    train(rt, config, train_set, val_set, state0, "exact_match", run_dir=run_dir)
    ledger.close()
    return root


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "store.jsonl"}


@pytest.mark.parametrize("mode", MODES)
def test_artifacts_byte_identical_at_every_concurrency(tmp_path, mode):
    runs = {c: files(run(ScriptedMockBackend(pure_script), tmp_path / f"c{c}", c, mode))
            for c in (1, 2, 8)}
    assert any(name.startswith("traces/") for name in runs[1])
    assert len(runs[1]["ledger.jsonl"].splitlines()) > 50
    assert runs[2] == runs[1]
    assert runs[8] == runs[1]


def drop_first_forwards(script, dropped: set[str]):
    """`script`, with the first arrival of a share of forward requests
    dropped, so some traces end in a backend failure and are forwarded again.
    A request's fate depends on the request alone, whatever the order."""
    lock = threading.Lock()

    def wrapped(request: ChatRequest) -> str:
        digest = digest_of(request)
        if request.purpose == Purpose.FORWARD and int(digest[5], 16) < 3:
            with lock:
                first = digest not in dropped
                dropped.add(digest)
            if first:
                raise TransportError("connection dropped")
        return script(request)

    return wrapped


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_NO_BILEVEL])
def test_reused_and_reforwarded_samples_keep_artifacts_identical(tmp_path, mode):
    runs, dropped = {}, {}
    for c in (1, 8):
        dropped[c] = set()
        backend = ScriptedMockBackend(drop_first_forwards(pure_script, dropped[c]))
        runs[c] = files(run(backend, tmp_path / f"c{c}", c, mode))
    assert dropped[1] and dropped[8] == dropped[1]
    assert runs[8] == runs[1]


@pytest.mark.parametrize("recorded_at, replayed_at", [(8, 1), (1, 8)])
def test_recording_replays_at_another_concurrency(tmp_path, recorded_at, replayed_at):
    store = tmp_path / "store.jsonl"
    recorded = run(ReplayBackend(store, RECORD, inner=ScriptedMockBackend(pure_script)),
                   tmp_path / "record", recorded_at)
    replayed = run(ReplayBackend(store, REPLAY), tmp_path / "replay", replayed_at)
    assert files(replayed) == files(recorded)


def test_inline_fan_outs_run_in_place_with_the_artifacts_of_the_pool(tmp_path, monkeypatch):
    pooled = files(run(ScriptedMockBackend(pure_script), tmp_path / "c8", 8))

    def no_task(rt):
        raise AssertionError("an inline fan-out item made a task")

    monkeypatch.setattr(runtime_module, "_Task", no_task)
    store = tmp_path / "store.jsonl"
    recorded = run(ReplayBackend(store, RECORD, inner=ScriptedMockBackend(pure_script)),
                   tmp_path / "record", 1)
    replayed = run(ReplayBackend(store, REPLAY), tmp_path / "replay", 8)
    for name in ("ledger.jsonl", "records.jsonl", "best.json"):
        assert (recorded / name).read_bytes() == pooled[name]
        assert (replayed / name).read_bytes() == pooled[name]


def test_a_samples_gradients_start_while_another_sample_is_still_forwarded(tmp_path):
    held_question = make_batches(dataset(6, "t"), TrainConfig(batch_size=3, seed=5))[0][0].question
    gradient_started, lock, held, waited = threading.Event(), threading.Lock(), [], []

    def script(request):
        """Hold the first sample's first forward until a loss gradient is asked for."""
        if request.purpose == Purpose.GRAD_LOSS:
            gradient_started.set()
        elif request.purpose == Purpose.FORWARD:
            question, previous = parse_envelope(user_content(request))
            with lock:
                hold = question == held_question and not previous and not held
                held.append(hold)
            if hold:
                waited.append(gradient_started.wait(timeout=2))
        return pure_script(request)

    pooled = files(run(ScriptedMockBackend(script), tmp_path / "c8", 8, MODE_PROMPT_ONLY))
    assert waited == [True]
    assert pooled == files(run(ScriptedMockBackend(pure_script), tmp_path / "c1", 1,
                               MODE_PROMPT_ONLY))


class StoreFirstSink:
    """A ledger sink that notes every write which would leave the ledger
    with more rows than the store holds."""

    def __init__(self, sink, store: Path):
        self.sink = sink
        self.store = store
        self.rows = 0
        self.ahead: list[tuple[int, int]] = []

    def write(self, data: bytes):
        self.rows += data.count(b"\n")
        stored = self.store.read_bytes().count(b"\n") if self.store.exists() else 0
        if stored < self.rows:
            self.ahead.append((self.rows, stored))
        return self.sink.write(data)

    def __getattr__(self, name):
        return getattr(self.sink, name)


def test_record_store_rows_follow_serial_order(tmp_path, monkeypatch):
    stores, sinks = {}, []
    open_sink = RunLedger.open_sink

    def checked_open_sink(ledger, path):
        open_sink(ledger, path)
        ledger._sink = StoreFirstSink(ledger._sink, store)
        sinks.append(ledger._sink)

    monkeypatch.setattr(RunLedger, "open_sink", checked_open_sink)
    for c in (1, 8):
        store = stores[c] = tmp_path / f"store{c}.jsonl"
        root = run(ReplayBackend(store, RECORD, inner=ScriptedMockBackend(pure_script)),
                   tmp_path / f"record{c}", c)
        # Each call's store row lands before its ledger row, inline and on the pool.
        assert sinks[-1].ahead == []
        rows = [json.loads(line) for line in store.read_text().splitlines()]
        assert [(row["request"]["purpose"], row["request"]["model_id"],
                 row["response"]["input_tokens"], row["response"]["output_tokens"])
                for row in rows if "response" in row] == [
            (row["purpose"], row["model"], row["in_tok"], row["out_tok"])
            for row in map(json.loads, (root / "ledger.jsonl").read_text().splitlines())]
    assert stores[8].read_bytes() == stores[1].read_bytes()


class DelayFirstArrival:
    """Holds back the first request of each key, so that, on a thread pool,
    an identical request from a later item would reach the inner backend
    first. Notes the thread of every call."""

    def __init__(self, inner, delay_s: float = 0.01):
        self.inner = inner
        self.delay_s = delay_s
        self.threads: list[threading.Thread] = []
        self._seen: set[str] = set()
        self._lock = threading.Lock()

    def complete(self, request):
        key = digest_of(request)
        with self._lock:
            first = key not in self._seen
            self._seen.add(key)
            self.threads.append(threading.current_thread())
        if first:
            time.sleep(self.delay_s)
        return self.inner.complete(request)


def test_a_replay_fans_out_inline_at_any_concurrency(tmp_path):
    counter = iter(range(1000))

    def numbered(request):
        return f"reply {next(counter)}"

    # Two samples with one question issue identical requests at every step.
    samples = [Sample("a", "same question", "x"), Sample("b", "same question", "x"),
               Sample("c", "other question", "x")]
    state = chain_state(2)
    store = tmp_path / "store.jsonl"

    def outputs(backend, concurrency):
        clock = LogicalClock()
        rt = Runtime(client=ChatClient(backend, RunLedger(clock=clock)), clock=clock,
                     concurrency=concurrency)
        summary = evaluate(rt, state, samples, "exact_match")
        return rt, [p.prediction for p in summary.per_sample]

    _, serial = outputs(ReplayBackend(store, RECORD, inner=ScriptedMockBackend(numbered)), 1)
    assert serial[0] != serial[1]  # distinct recorded replies for one key
    # The wrapper has no `waits` of its own; the replay under it cannot wait.
    delayed = DelayFirstArrival(ReplayBackend(store, REPLAY))
    rt, replayed = outputs(delayed, 8)
    assert delayed.threads == [threading.current_thread()] * 6  # 3 samples, 2 steps
    assert rt._pool is None
    assert replayed == serial


def test_only_a_backend_that_can_wait_fans_out_on_the_pool(tmp_path):
    def threads(backend) -> list[threading.Thread]:
        clock = LogicalClock()
        rt = Runtime(client=ChatClient(backend, RunLedger(clock=clock)), clock=clock)

        def item(view, n):
            ask(view, "same")
            return threading.current_thread()

        try:
            return rt.fan_out(item, range(4))
        finally:
            rt.close()

    store = tmp_path / "store.jsonl"
    here = threading.current_thread()
    assert here not in threads(ScriptedMockBackend())
    assert here not in threads(ReplayBackend(store, RECORD, inner=ScriptedMockBackend()))
    assert threads(ReplayBackend(store, REPLAY)) == [here] * 4


# ---------------------------------------------------------------------------
# The fan-out primitive
# ---------------------------------------------------------------------------

@pytest.fixture()
def fast_switching():
    """Switch threads every 10 us, so that a race shows within a short test."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def runtime(script, concurrency=8, budget=None, prices=None):
    clock = LogicalClock()
    ledger = RunLedger(prices=prices or PriceTable(), clock=clock)
    return Runtime(client=ChatClient(ScriptedMockBackend(script), ledger, budget=budget),
                   clock=clock, concurrency=concurrency)


def ask(rt: Runtime, text: str):
    return rt.client.complete(rt.executor_request("system", text))


def test_results_and_ledger_rows_come_in_item_order(fast_switching):
    def script(request):
        n = int(user_content(request).split()[1])
        time.sleep(0.001 * (10 - n))  # later items finish first
        return f"done {n}"

    rt = runtime(script)

    def item(view, n):
        view.clock.now()
        return [ask(view, f"item {n} call {j}").content for j in range(2)]

    results = rt.fan_out(item, range(10))
    assert results == [[f"done {n}"] * 2 for n in range(10)]
    rows = rt.client.ledger.rows
    assert [r.idx for r in rows] == list(range(20))
    # Each item read the clock once before its two calls: ticks 2, 3, then 5, 6, ...
    assert [r.ts for r in rows] == [t for n in range(10) for t in (3 * n + 2, 3 * n + 3)]
    assert rt.clock.now() == 31


def test_runtime_reads_its_ledgers_clock():
    ledger = RunLedger(clock=LogicalClock(start=100))
    client = ChatClient(ScriptedMockBackend(lambda r: "ok"), ledger)
    with pytest.raises(ValueError, match="ledger's clock"):
        Runtime(client=client, clock=LogicalClock())
    rt = Runtime(client=client)
    assert rt.clock is ledger.clock
    assert Runtime(client=client, clock=ledger.clock).clock is ledger.clock
    # The fan-out's views read and stamp from forks of that one clock.
    ends = rt.fan_out(lambda view, n: [view.clock.now(), ask(view, str(n)).content], range(3))
    assert ends == [[1, "ok"]] * 3
    assert [r.ts for r in ledger.rows] == [102, 104, 106]
    assert rt.clock.now() == 107


def test_failure_is_raised_after_every_completed_call_commits():
    issued = []
    rt = runtime(lambda r: issued.append(r) or "ok")

    def item(view, n):
        ask(view, f"item {n}")
        if n in (3, 5):
            raise KeyError(n)
        return n

    with pytest.raises(KeyError) as e:
        rt.fan_out(item, range(8))
    assert e.value.args == (3,)  # the earliest failing item, whichever failed first
    # Items 0-3 ran; later ones may have. Every call made is in the ledger.
    assert rt.client.ledger.call_count == len(issued) >= 4
    assert [r.idx for r in rt.client.ledger.rows] == list(range(len(issued)))


def words(n: int) -> str:
    return " ".join(["w"] * n)  # with "system", n + 1 input tokens tell the calls apart


@pytest.mark.parametrize("concurrency", [1, 8])
def test_a_staged_fan_out_commits_in_stage_then_item_order(concurrency, fast_switching):
    def script(request):
        n = len(user_content(request).split())
        time.sleep(0.001 * (n % 7))  # items finish their stages out of order
        return str(n)

    rt = runtime(script, concurrency=concurrency)

    def forward(view, n):
        return ask(view, words(n)).content

    def backward(view, n, first):
        view.clock.now()
        return first + "/" + ask(view, words(20 + n)).content

    assert rt.fan_out(forward, range(5), then=backward) == [f"{n}/{20 + n}" for n in range(5)]
    rows = rt.client.ledger.rows
    assert [r.in_tok for r in rows] == [n + 1 for n in range(5)] + [21 + n for n in range(5)]
    # Stage 1 read the clock once before each call: ticks 1-5, then 7, 9, ...
    assert [(r.idx, r.ts) for r in rows] == [(i, i + 1) for i in range(5)] + [
        (5 + n, 7 + 2 * n) for n in range(5)]


def test_a_staged_fan_out_raises_the_earliest_failing_stage_and_item(fast_switching):
    def script(request):
        n = len(user_content(request).split())
        time.sleep(0.002 if n == 2 else 0)  # item 2's first stage ends last
        return "ok"

    rt = runtime(script)
    all_started = threading.Barrier(5)

    def forward(view, n):
        all_started.wait(timeout=5)  # so that no item is dropped unstarted
        ask(view, words(n))
        if n == 2:
            raise KeyError("stage 0", n)
        return n

    def backward(view, n, first):
        ask(view, words(20 + n))
        if n == 1:
            raise KeyError("stage 1", n)
        return first

    with pytest.raises(KeyError) as e:
        rt.fan_out(forward, range(5), then=backward)
    # Item 1's second stage failed first, but (0, 2) precedes (1, 1).
    assert e.value.args == ("stage 0", 2)
    # Every item started; item 2 made no second call.
    assert [r.in_tok for r in rt.client.ledger.rows] == [1, 2, 3, 4, 5, 21, 22, 24, 25]
    assert [r.idx for r in rt.client.ledger.rows] == list(range(9))


def test_concurrency_one_runs_inline_and_stops_at_the_failure():
    seen = []
    rt = runtime(lambda r: "ok", concurrency=1)

    def item(view, n):
        seen.append(threading.current_thread())
        ask(view, f"item {n}")
        if n == 1:
            raise ValueError("stop")

    with pytest.raises(ValueError):
        rt.fan_out(item, range(4))
    assert seen == [threading.current_thread()] * 2
    assert rt.client.ledger.call_count == 2


def test_an_inline_item_runs_on_the_runtime_itself():
    rt = runtime(lambda r: "ok", concurrency=1)
    assert rt.fan_out(lambda view, n: view is rt, range(3)) == [True] * 3
    # A single item runs inline at any concurrency.
    assert runtime(lambda r: "ok").fan_out(lambda view, n: view.concurrency, [0]) == [8]


def test_an_inline_item_that_raises_leaves_its_calls_in_the_ledger(tmp_path):
    rt = runtime(lambda r: "ok", concurrency=1)
    ledger = rt.client.ledger
    ledger.open_sink(tmp_path / "ledger.jsonl")

    def item(view, n):
        for j in range(3):
            ask(view, " ".join(["w"] * (10 * n + j)))  # in_tok tells the calls apart
        if n == 1:
            raise ValueError("stop")

    with pytest.raises(ValueError):
        rt.fan_out(item, range(3))
    ledger.close()
    rows = ledger.rows
    assert [r.in_tok for r in rows] == [1, 2, 3, 11, 12, 13]  # "system" counts one
    assert [(r.idx, r.ts) for r in rows] == [(i, i + 1) for i in range(6)]
    sink = (tmp_path / "ledger.jsonl").read_text().splitlines()
    assert sink == [r.to_line() for r in rows]


def test_nested_fan_out_runs_inline_in_the_item():
    rt = runtime(lambda r: user_content(r))

    def outer(view, n):
        return view.fan_out(lambda inner, j: ask(inner, f"{n}.{j}").content, range(3))

    assert rt.fan_out(outer, range(4)) == [[f"{n}.{j}" for j in range(3)] for n in range(4)]
    assert [r.ts for r in rt.client.ledger.rows] == list(range(1, 13))


def test_a_view_holds_no_pool_and_fans_out_inline():
    rt = runtime(lambda r: user_content(r))
    try:
        rt.fan_out(lambda view, n: ask(view, str(n)), range(2))
        assert rt._pool is not None  # the views below are made after it started

        def item(view, n):
            here = threading.current_thread()
            threads = view.fan_out(lambda inner, j: threading.current_thread(), range(3))
            return view._pool, view.concurrency, threads == [here] * 3

        assert rt.fan_out(item, range(4)) == [(None, 1, True)] * 4
    finally:
        rt.close()


def test_concurrency_must_be_positive():
    with pytest.raises(ValueError):
        runtime(lambda r: "", concurrency=0)


# ---------------------------------------------------------------------------
# Budgets under the pool
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("max_calls", [1, 7, 10])
def test_call_budget_issues_exactly_max_calls_with_eight_workers(max_calls, fast_switching):
    issued = []

    def script(request):
        issued.append(request)
        time.sleep(0.002)
        return "ok"

    rt = runtime(script, budget=Budget(max_calls=max_calls))
    with pytest.raises(BudgetExceeded):
        rt.fan_out(lambda view, n: [ask(view, f"{n}.{j}") for j in range(3)], range(16))
    assert len(issued) == max_calls
    assert rt.client.ledger.call_count == max_calls
    assert [r.idx for r in rt.client.ledger.rows] == list(range(max_calls))


def test_cost_overshoot_is_bounded_by_calls_in_flight(fast_switching):
    prices = PriceTable({"executor": Price(Decimal("1000000"), Decimal("0"))})

    def script(request):
        time.sleep(0.002)
        return "ok"

    rt = runtime(script, budget=Budget(max_cost_usd=5.0), prices=prices)
    with pytest.raises(BudgetExceeded):
        rt.fan_out(lambda view, n: [ask(view, "x") for _ in range(4)], range(16))
    per_call = rt.client.ledger.rows[0].cost_micro
    assert rt.client.ledger.total_cost_micro < 5_000_000 + rt.concurrency * per_call
