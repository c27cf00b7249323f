"""The three workloads: set-up, the timed work, and the correctness checks.

Each workload drives the public library API from outside. `setup` covers the
program calls made before the timed work (runtime and ledger build, template
and dataset loading, the replay store load, corpus load and index build);
`work` is the fixed work that `run_s` times; `check` decides whether the
outputs are correct without trusting the code under test.
"""

from __future__ import annotations

import json
import re
import time
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

from flowtune.backend import RECORD, REPLAY, Budget, ChatClient, HttpBackend, ReplayBackend, \
    ScriptedMockBackend
from flowtune.evaluation import get_metric, load_dataset, metric_info
from flowtune.optimizer import bootstrap_workflow
from flowtune.runtime import Runtime
from flowtune.store import LogicalClock, PriceTable, RunDirectory, RunLedger, load_checkpoint
from flowtune.templates import TEMPLATE_NAMES, load_templates
from flowtune.tools import CorpusIndex, ToolRegistry, load_corpus, make_corpus_search_tool
from flowtune.trainer import TrainConfig, evaluate, make_batches, train

import inputs

METRIC = "exact_match"
OUTPUT_FILES = ("ledger.jsonl", "records.jsonl", "best.json")


class LoggedBackend:
    """Pass-through backend that logs when each answered call starts and ends,
    and counts calls that raised."""

    def __init__(self, inner):
        self.inner = inner
        self.intervals: list[tuple[int, int]] = []
        self.failures = 0

    def complete(self, request):
        start = time.perf_counter_ns()
        try:
            response = self.inner.complete(request)
        except Exception:
            self.failures += 1
            raise
        self.intervals.append((start, time.perf_counter_ns()))
        return response


def system_prompts(library=None) -> dict[str, str]:
    library = library or load_templates()
    return {name: library.get(name).system for name in TEMPLATE_NAMES}


def _runtime(backend, run_dir: RunDirectory, budget: Budget | None = None, tools=None) -> Runtime:
    clock = LogicalClock()
    ledger = RunLedger(prices=PriceTable.from_config(inputs.PRICES), clock=clock,
                       sink_path=run_dir.ledger_path)
    return Runtime(client=ChatClient(backend, ledger, budget=budget),
                   templates=load_templates(), tools=tools or ToolRegistry(), clock=clock)


def _train_and_validate(rt: Runtime, shape: dict, train_set, val_set, run_dir: RunDirectory):
    config = TrainConfig(batch_size=shape["batch_size"])  # the default schedule
    metric = get_metric(METRIC)
    state0 = bootstrap_workflow(rt, make_batches(train_set, config)[0], metric,
                                metric_info(METRIC))
    return train(rt, config, train_set, val_set, state0, METRIC, run_dir=run_dir)


def reference_run(workload: str, seed: int, out: Path) -> None:
    """Runs the training schedule on the in-process scripted mock with a
    logical clock. For `train_http` this is the reference the HTTP run must
    match byte for byte; for `replay_budgeted` it is the recorded run."""
    shape = inputs.TRAIN_HTTP if workload == "train_http" else inputs.REPLAY_BUDGETED
    mock = inputs.MockModel(seed, system_prompts(), steps=shape["steps"])
    backend = ScriptedMockBackend(inputs.scripted(mock))
    budget = None
    if workload == "replay_budgeted":
        backend = ReplayBackend(out / "store.jsonl", RECORD, inner=backend)
        budget = Budget(**inputs.REPLAY_BUDGET)
    run_dir = RunDirectory(out / "expected")
    rt = _runtime(backend, run_dir, budget)
    try:
        _train_and_validate(rt, shape, load_dataset(out / "train.jsonl"),
                            load_dataset(out / "val.jsonl"), run_dir)
    finally:
        rt.client.ledger.close()


# ---------------------------------------------------------------------------
# Set-up and work
# ---------------------------------------------------------------------------

class Prepared:
    """What set-up produced for one repetition."""

    def __init__(self, rt: Runtime, logged: LoggedBackend, run_dir: RunDirectory, **data):
        self.rt = rt
        self.logged = logged
        self.run_dir = run_dir
        self.data = data

    def close(self) -> None:
        self.rt.client.ledger.close()


def setup(workload: str, seed: int, inputs_dir: Path, rep_dir: Path,
          endpoint: str | None = None) -> Prepared:
    run_dir = RunDirectory(rep_dir)
    if workload == "train_http":
        # A small backoff keeps the injected 503 retries a fixed, bounded sleep.
        http = HttpBackend(endpoint, timeout_s=30.0, max_attempts=3, backoff_base_s=0.005)
        logged = LoggedBackend(ReplayBackend(rep_dir / "store.jsonl", RECORD, inner=http))
        rt = _runtime(logged, run_dir)
        return Prepared(rt, logged, run_dir, train=load_dataset(inputs_dir / "train.jsonl"),
                        val=load_dataset(inputs_dir / "val.jsonl"))
    if workload == "replay_budgeted":
        logged = LoggedBackend(ReplayBackend(inputs_dir / "store.jsonl", REPLAY))
        rt = _runtime(logged, run_dir, Budget(**inputs.REPLAY_BUDGET))
        return Prepared(rt, logged, run_dir, train=load_dataset(inputs_dir / "train.jsonl"),
                        val=load_dataset(inputs_dir / "val.jsonl"))
    index = CorpusIndex(load_corpus(inputs_dir / "corpus.jsonl"))
    tools = ToolRegistry()
    tools.register(*make_corpus_search_tool(index, name=inputs.TOOL_NAME,
                                            default_k=inputs.TOOL_EVAL["top_k"]))
    library = load_templates()
    mock = inputs.MockModel(seed, system_prompts(library))
    logged = LoggedBackend(ScriptedMockBackend(inputs.scripted(mock)))
    rt = _runtime(logged, run_dir, tools=tools)
    return Prepared(rt, logged, run_dir, state=load_checkpoint(inputs_dir / "workflow.json"),
                    questions=load_dataset(inputs_dir / "questions.jsonl"))


def work(workload: str, prep: Prepared):
    """The timed part. Returns what the check needs."""
    if workload == "tool_eval":
        traces = []
        summary = evaluate(prep.rt, prep.data["state"], prep.data["questions"], METRIC,
                           trace_sink=traces.append)
        return {"summary": summary, "traces": traces}
    shape = inputs.TRAIN_HTTP if workload == "train_http" else inputs.REPLAY_BUDGETED
    result = _train_and_validate(prep.rt, shape, prep.data["train"], prep.data["val"],
                                 prep.run_dir)
    return {"result": result}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

_HIT_RE = re.compile(r"^\d+\. \[([^\]]+)\]", re.M)
_MICRO = Decimal("0.000001")


def ledger_totals(path: Path) -> dict:
    """Parses the ledger file and re-prices every row with the benchmark's
    own price table. Raises ValueError on a row whose cost is not exact."""
    prices = {m: (Decimal(p["input_per_1m"]), Decimal(p["output_per_1m"]))
              for m, p in inputs.PRICES.items()}
    calls, tokens_in, tokens_out, cost = 0, 0, 0, Decimal(0)
    purposes: dict[str, int] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            row = json.loads(line, parse_float=Decimal)
            p_in, p_out = prices[row["model"]]
            expected = ((row["in_tok"] * p_in + row["out_tok"] * p_out) / Decimal(1_000_000)
                        ).quantize(_MICRO, rounding=ROUND_HALF_EVEN)
            if row["cost_usd"] != expected or row["idx"] != calls:
                raise ValueError(f"ledger row {calls} is not exact: {line.strip()}")
            calls += 1
            tokens_in += row["in_tok"]
            tokens_out += row["out_tok"]
            cost += expected
            purposes[row["purpose"]] = purposes.get(row["purpose"], 0) + 1
    return {"calls": calls, "tokens_in": tokens_in, "tokens_out": tokens_out,
            "cost_usd": cost, "purposes": purposes}


def _same_files(expected_dir: Path, actual_dir: Path) -> list[str]:
    return [name for name in OUTPUT_FILES
            if (expected_dir / name).read_bytes() != (actual_dir / name).read_bytes()]


def check(workload: str, inputs_dir: Path, prep: Prepared, outputs: dict) -> list[str]:
    """Problems found in one repetition's outputs; empty when correct."""
    problems = []
    if workload != "tool_eval":
        problems += [f"{name} differs from the reference run"
                     for name in _same_files(inputs_dir / "expected", prep.run_dir.root)]
        if workload == "train_http":
            with open(prep.run_dir.root / "store.jsonl", encoding="utf-8") as f:
                recorded = sum(1 for _ in f)
            if recorded != len(prep.logged.intervals):
                problems.append(f"record store holds {recorded} rows for "
                                f"{len(prep.logged.intervals)} calls")
        return problems
    answers = json.loads((inputs_dir / "answers.json").read_text(encoding="utf-8"))
    expected_searches = sum(1 + i % 2 + 1 + (i // 2) % 2
                            for i in range(len(prep.data["questions"])))
    searches = 0
    for trace in outputs["traces"]:
        for record in trace.records:
            for inv in record.tool_invocations:
                searches += 1
                query = json.loads(inv.query).get("query")
                got = _HIT_RE.findall(inv.result)
                if got != answers.get(query):
                    problems.append(f"top-k for {query!r} is {got}, expected {answers.get(query)}")
    if searches != expected_searches:
        problems.append(f"{searches} searches made, {expected_searches} expected")
    if outputs["summary"].mean_score != 1.0:
        problems.append(f"mean exact match {outputs['summary'].mean_score}, expected 1.0")
    return problems


def failures(workload: str, prep: Prepared, outputs: dict) -> tuple[int, int]:
    """(operations attempted, operations failed) beyond the answered model
    calls: backend calls that raised (the cause of every `backend_error`
    step), tool calls and tool errors."""
    extra_attempts = failed = prep.logged.failures
    for trace in outputs.get("traces", ()):
        for record in trace.records:
            extra_attempts += len(record.tool_invocations)
            failed += sum(1 for f in record.flags
                          if f.startswith(("tool_error:", "unknown_tool:")))
    return extra_attempts, failed
