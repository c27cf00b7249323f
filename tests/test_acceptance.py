"""Acceptance suite: one test per criterion, run with `pytest -v` for the
per-criterion pass/fail lines. Criterion 10 needs a live endpoint and is
excluded by default (marker: live)."""

import json
import os
import random
import re
import string
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from click.testing import CliRunner

import flowtune.trainer as trainer_module
from flowtune.backend import Purpose, ScriptedMockBackend
from flowtune.cli import main as cli_main
from flowtune.evaluation import exact_match, metric_info, normalize_answer, token_f1
from flowtune.forward import parse_envelope, run_workflow
from flowtune.gradients import backward
from flowtune.model import TextualGradient, serialize_state, validate_state
from flowtune.optimizer import bootstrap_workflow, update_workflow
from flowtune.store import LogicalClock, Price, PriceTable, RunDirectory, RunLedger
from flowtune.trainer import EvalSummary, TrainConfig, train

from .helpers import (
    FakeSample,
    PurposeScript,
    chain_state,
    fenced,
    make_runtime,
    system_content,
    user_content,
)
from .test_trainer import samples, standard_handlers

EM_INFO = metric_info("exact_match")


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


# ---------------------------------------------------------------------------
# 1. Composition oracle
# ---------------------------------------------------------------------------

def test_criterion_01_composition_oracle():
    started = time.monotonic()
    rng = random.Random(101)
    trials = 0
    for _ in range(50):
        k = rng.randrange(1, 7)
        suffixes = [f"{rng.randrange(10_000)}" for _ in range(k)]
        kinds = [rng.randrange(3) for _ in range(k)]

        def make_fn(kind, salt):
            if kind == 0:
                return lambda x: f"{x}+{salt}"
            if kind == 1:
                return lambda x: f"{salt}:{x[::-1]}"
            return lambda x: f"[{x}]{salt}"

        fns = [make_fn(kinds[i], suffixes[i]) for i in range(k)]
        prompt_map = {f"step-{i + 1} prompt": fns[i] for i in range(k)}

        def script(request):
            question, previous = parse_envelope(user_content(request))
            return prompt_map[system_content(request)](previous if previous else question)

        rt = make_runtime(script)
        question = f"input {rng.randrange(10_000)}"
        trace = run_workflow(rt, chain_state(k), FakeSample("s", question))
        expected = question
        for fn in fns:
            expected = fn(expected)
        assert trace.final_output == expected
        trials += 1
    elapsed = time.monotonic() - started
    assert trials == 50
    assert elapsed < 5.0, f"composition oracle took {elapsed:.2f}s"
    report(1, f"50/50 random mock backends match the manual fold in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Backprop ordering
# ---------------------------------------------------------------------------

def test_criterion_02_backprop_ordering():
    rng = random.Random(202)
    for trial in range(100):
        k = rng.randrange(1, 7)
        state = chain_state(k)
        sample = FakeSample(f"s{trial}", f"question {rng.randrange(10_000)}", "truth")

        def forward(request):
            question, previous = parse_envelope(user_content(request))
            return f"{previous or question}|{rng.randrange(100)}"

        rt_forward = make_runtime(forward)
        trace = run_workflow(rt_forward, state, sample)

        seen_steps: list[int] = []

        def grad_call(request):
            match = re.search(r"## This Step \(Step (\d+)\)", user_content(request))
            seen_steps.append(int(match.group(1)))
            return fenced({"text_gradient": "g"})

        script = PurposeScript({
            Purpose.GRAD_LOSS: lambda r: fenced({"text_gradient": "gK"}),
            Purpose.GRAD_CALL: grad_call,
        })
        rt = make_runtime(script)
        gradients = backward(rt, state, trace, sample,
                             exact_match(trace.final_output, "truth"), EM_INFO)
        assert len(gradients) == k
        assert [r.purpose for r in rt.client.ledger.rows] == ["GradLoss"] + ["GradCall"] * (k - 1)
        assert seen_steps == list(range(k - 1, 0, -1))
    report(2, "100/100 trials show [GradLoss, GradCall x (K-1)] in descending step order")


# ---------------------------------------------------------------------------
# 3. Schedule conformance and mode contracts
# ---------------------------------------------------------------------------

def run_one_default_batch(mode: str, k: int = 1):
    script = PurposeScript(standard_handlers(mode))
    rt = make_runtime(script)
    config = TrainConfig(mode=mode, seed=None)  # defaults: B=5, 2 rounds, 1 outer, 5 inner
    train(rt, config, samples(5), samples(2, "v"), chain_state(k), "exact_match")
    return rt.client.ledger.count_by_purpose()


def test_criterion_03_schedule_and_mode_contracts():
    counts = run_one_default_batch("full")
    assert counts["OptimWorkflow"] == 2
    assert counts["OptimCall"] == 10
    assert counts["GradWorkflow"] == 10
    assert counts["GradLoss"] == 50

    counts = run_one_default_batch("prompt_only")
    assert counts.get("OptimWorkflow", 0) == 0
    assert counts.get("GradWorkflow", 0) == 0
    assert counts["OptimCall"] == 10

    counts = run_one_default_batch("no_bilevel")
    assert counts["GradLoss"] == 10  # one per sample per round
    assert counts.get("GradCall", 0) == 0
    assert counts["OptimWorkflow"] == 2  # single combined update per round
    assert counts.get("OptimCall", 0) == 0

    counts = run_one_default_batch("no_layerwise", k=3)
    assert counts["GradLoss"] == 50  # one per sample per inner step despite K=3
    assert counts.get("GradCall", 0) == 0
    assert counts["OptimCall"] == 10  # one combined prompt update per inner step
    assert counts["OptimWorkflow"] == 2

    # prompt_only stays structure-free even after a bootstrap phase
    boot_script = PurposeScript({
        Purpose.BOOTSTRAP: lambda r: "zero-shot",
        Purpose.GRAD_WORKFLOW: lambda r: fenced({"reasoning": "", "text_gradient": "g"}),
        Purpose.OPTIM_WORKFLOW: lambda r: fenced(
            {"reasoning": "", "should_update": False, "updated_execution_plan": []}),
        **{k: v for k, v in standard_handlers("prompt_only").items()
           if k in (Purpose.FORWARD, Purpose.GRAD_LOSS, Purpose.GRAD_CALL, Purpose.OPTIM_CALL)},
    })
    rt = make_runtime(boot_script)
    batch = [type("S", (), {"id": f"b{i}", "question": f"q{i}", "answer": "a"})()
             for i in range(5)]
    state0 = bootstrap_workflow(rt, batch, exact_match, EM_INFO)
    bootstrap_calls = rt.client.ledger.call_count
    train(rt, TrainConfig(mode="prompt_only", seed=None), samples(5), samples(2, "v"),
          state0, "exact_match")
    post = [r.purpose for r in rt.client.ledger.rows[bootstrap_calls:]]
    assert "OptimWorkflow" not in post and "GradWorkflow" not in post
    report(3, "default batch = 2 OptimWorkflow + 10 inner update rounds; "
              "all ablation ledger signatures exact")


# ---------------------------------------------------------------------------
# 4. Golden replay
# ---------------------------------------------------------------------------

def test_criterion_04_golden_replay(tmp_path):
    from flowtune.backend import RECORD, REPLAY, ReplayBackend
    from flowtune.store import load_checkpoint

    from . import golden_scenario as G
    from .test_golden_replay import run_episode

    store = tmp_path / "store.jsonl"
    recorder = ReplayBackend(store, RECORD, inner=ScriptedMockBackend(G.make_script()))
    run_episode(recorder, tmp_path / "record")
    _, dir1, _ = run_episode(ReplayBackend(store, REPLAY), tmp_path / "replay1")
    _, dir2, _ = run_episode(ReplayBackend(store, REPLAY), tmp_path / "replay2")

    for name in ("records.jsonl", "ledger.jsonl", "best.json"):
        assert (dir1.root / name).read_bytes() == (dir2.root / name).read_bytes(), name

    trace = json.loads((dir1.root / "traces" / "batch_0" / "golden-1.json").read_text())
    by_step = {r["step_id"]: r for r in trace["records"]}
    assert by_step[4]["output_text"] == "1846"                        # (a) extraction
    assert "1865" in by_step[5]["output_text"]                        # (a) hallucination
    assert json.loads(dir1.records_path.read_text())["val_score"] == 0.0  # (a) EM 0.0

    store_rows = [json.loads(line) for line in store.read_text().splitlines()]
    optim_texts = [
        "\n".join(m["content"] for m in r["request"]["messages"])
        for r in store_rows if r["request"]["purpose"] == "OptimCall"
    ]
    assert any("incorporate more robust verification mechanisms" in t
               for t in optim_texts)                                   # (b) g_5 phrase

    purposes = [r["purpose"] for r in
                (json.loads(line) for line in dir1.ledger_path.read_text().splitlines())]
    state = load_checkpoint(dir1.best_path)
    assert len(state.sketch) == 6 and purposes.count("InitExecutor") == 2  # (c) plan
    assert "explicitly check for discrepancies" in state.executors["Verification"].prompt  # (d)
    report(4, "golden episode replays byte-exactly and reproduces all pinned content")


# ---------------------------------------------------------------------------
# 5. Atomic plan application
# ---------------------------------------------------------------------------

def random_plan(rng: random.Random, state, malformed: bool):
    tools = ["search_topk"]
    n = rng.randrange(1, 8)
    steps = []
    for i in range(1, n + 1):
        if rng.random() < 0.5:
            name = rng.choice(list(state.executors))
            steps.append({"step_id": i, "description": f"step {i}", "tools": [],
                          "executor_type": "reuse", "executor_name": name,
                          "generation_guideline": ""})
        else:
            steps.append({"step_id": i, "description": f"step {i}",
                          "tools": tools if rng.random() < 0.3 else [],
                          "executor_type": "new", "executor_name": f"new_{i}",
                          "generation_guideline": "write a prompt"})
    if malformed:
        kind = rng.randrange(6)
        if kind == 0 and steps:
            steps[rng.randrange(len(steps))]["step_id"] = n + 5  # non-contiguous
        elif kind == 1:
            steps = [dict(s, step_id=j + 1) for j, s in enumerate((steps * 13)[:13])]  # cap breach
        elif kind == 2 and steps:
            steps[0] = dict(steps[0], executor_type="reuse", executor_name="GhostExecutor",
                            generation_guideline="")
        elif kind == 3 and steps:
            steps[0] = dict(steps[0], executor_type="new", generation_guideline="")
        elif kind == 4 and steps:
            steps[0] = dict(steps[0], tools=["not_a_tool"])
        else:
            return "this is not json at all"
    return fenced({"reasoning": "r", "should_update": True, "updated_execution_plan": steps})


def test_criterion_05_atomic_plan_application():
    from flowtune.tools import CorpusDoc, CorpusIndex, ToolRegistry, make_corpus_search_tool

    registry = ToolRegistry()
    spec, fn = make_corpus_search_tool(CorpusIndex([CorpusDoc("d", "t", "b")]))
    registry.register(spec, fn)

    rng = random.Random(505)
    applied = rejected = 0
    for trial in range(1000):
        state = chain_state(rng.randrange(1, 4), revision=rng.randrange(5))
        malformed = rng.random() < 0.2
        reply = random_plan(rng, state, malformed)

        script = PurposeScript({
            Purpose.OPTIM_WORKFLOW: lambda r, reply=reply: reply,
            Purpose.INIT_EXECUTOR: lambda r: fenced({
                "name": f"Gen{rng.randrange(10_000)}", "type": "LLMExecutor",
                "description": "generated", "prompt": "generated prompt"}),
        })
        rt = make_runtime(script, tools=registry)
        before_bytes = serialize_state(state)
        gradients = [TextualGradient.for_workflow("restructure", "s")]
        outcome = update_workflow(rt, state, gradients, ["q"], EM_INFO)
        if malformed:
            assert outcome.applied is False
            assert serialize_state(outcome.state) == before_bytes
            assert outcome.state.revision == state.revision
            rejected += 1
        else:
            assert outcome.applied, outcome.error
            assert validate_state(outcome.state, registry.names()) == []
            assert outcome.state.revision == state.revision + 1
            applied += 1
    assert applied + rejected == 1000
    assert rejected >= 100  # the 20% malformed share actually exercised
    report(5, f"{applied} valid plans applied cleanly, {rejected} malformed plans "
              f"left state byte-identical")


# ---------------------------------------------------------------------------
# 6. Best-so-far selection
# ---------------------------------------------------------------------------

def test_criterion_06_best_so_far_selection(tmp_path, monkeypatch):
    rng = random.Random(606)
    runner = CliRunner()
    for trial in range(200):
        scores = [round(rng.random(), 3) for _ in range(rng.randrange(1, 7))]
        queue = list(scores)
        monkeypatch.setattr(
            trainer_module, "evaluate",
            lambda rt, state, dataset, metric_name, trace_sink=None:
                EvalSummary(queue.pop(0), ()))
        script = PurposeScript(standard_handlers("prompt_only"))
        rt = make_runtime(script)
        run_dir = RunDirectory(tmp_path / f"run{trial}")
        config = TrainConfig(batch_size=1, bilevel_rounds_per_batch=1,
                             inner_steps_per_round=1, mode="prompt_only", seed=None)
        result = train(rt, config, samples(len(scores)), samples(1, "v"),
                       chain_state(1), "exact_match", run_dir=run_dir)
        expected_best = scores.index(max(scores))  # earliest argmax
        assert result.best_batch_index == expected_best
        assert run_dir.best_path.read_bytes() == \
            run_dir.checkpoint_path(expected_best).read_bytes()

        curve = runner.invoke(cli_main, ["curve", "--run-dir", str(run_dir.root)])
        best_column = [float(line.split(",")[2])
                       for line in curve.output.strip().splitlines()[1:]]
        assert best_column == sorted(best_column)
    report(6, "200/200 random score sequences select the earliest argmax checkpoint; "
              "curve best column nondecreasing")


# ---------------------------------------------------------------------------
# 7. Cost ledger exactness
# ---------------------------------------------------------------------------

def bankers_round_micro(value: Fraction) -> int:
    floor = value.numerator // value.denominator
    remainder = value - floor
    if remainder > Fraction(1, 2):
        return floor + 1
    if remainder < Fraction(1, 2):
        return floor
    return floor + (floor % 2)


def test_criterion_07_cost_ledger_exactness():
    rng = random.Random(707)
    price_in = Decimal(rng.randrange(1, 500)) / Decimal(100)
    price_out = Decimal(rng.randrange(1, 500)) / Decimal(100)
    prices = PriceTable({"m": Price(price_in, price_out)})
    ledger = RunLedger(prices=prices, clock=LogicalClock())
    fin, fout = Fraction(str(price_in)), Fraction(str(price_out))
    expected_micro = 0
    for _ in range(10_000):
        in_tok = rng.randrange(0, 1_000_000)
        out_tok = rng.randrange(0, 1_000_000)
        ledger.record_call("Forward", "m", in_tok, out_tok)
        # per-1M pricing means micro-dollars are exactly in*pin + out*pout
        expected_micro += bankers_round_micro(Fraction(in_tok) * fin + Fraction(out_tok) * fout)
    assert ledger.call_count == 10_000
    assert ledger.total_cost_micro == sum(r.cost_micro for r in ledger.rows)
    assert ledger.total_cost_micro == expected_micro
    report(7, "10,000 random rows: ledger total equals independent micro-dollar sum exactly")


# ---------------------------------------------------------------------------
# 8. Metric oracles
# ---------------------------------------------------------------------------

def reference_normalize(text: str) -> str:
    lowered = "".join(c for c in text.lower() if c not in string.punctuation)
    return " ".join(t for t in lowered.split() if t not in ("a", "an", "the"))


def reference_em(prediction: str, truth: str) -> float:
    return 1.0 if reference_normalize(prediction) == reference_normalize(truth) else 0.0


def reference_f1(prediction: str, truth: str) -> float:
    pred = reference_normalize(prediction).split()
    true = reference_normalize(truth).split()
    if not pred and not true:
        return 1.0
    overlap = sum((Counter(pred) & Counter(true)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(true)
    return 2 * precision * recall / (precision + recall)


def random_answer_text(rng: random.Random) -> str:
    words = ["the", "a", "an", "1846", "1865", "Bucknell", "university", "year",
             "founded", "basketball", "team", "G.W.", "Leach!", "of", "Kentucky"]
    return " ".join(rng.choice(words) for _ in range(rng.randrange(0, 8)))


def test_criterion_08_metric_oracles():
    rng = random.Random(808)
    for _ in range(1000):
        a, b = random_answer_text(rng), random_answer_text(rng)
        assert exact_match(a, b).score == reference_em(a, b)
        assert token_f1(a, b).score == pytest.approx(reference_f1(a, b))
        assert normalize_answer(normalize_answer(a)) == normalize_answer(a)
    # idempotence over arbitrary unicode too
    for _ in range(500):
        text = "".join(chr(rng.randrange(1, 0x2FF)) for _ in range(rng.randrange(0, 30)))
        assert normalize_answer(normalize_answer(text)) == normalize_answer(text)
    report(8, "1,000 random pairs agree with brute-force EM/F1; normalization idempotent")


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------

def test_criterion_09_determinism(tmp_path):
    def run(into: str):
        run_dir = RunDirectory(tmp_path / into)
        ledger = RunLedger(
            prices=PriceTable({"executor": Price(Decimal("0.40"), Decimal("1.60")),
                               "meta": Price(Decimal("0.40"), Decimal("1.60"))}),
            clock=LogicalClock(), sink_path=run_dir.ledger_path)
        from flowtune.backend import ChatClient
        from flowtune.runtime import ModelSettings, Runtime

        script = PurposeScript(standard_handlers("full"))
        clock = ledger.clock
        rt = Runtime(client=ChatClient(ScriptedMockBackend(script), ledger),
                     settings=ModelSettings(), clock=clock)
        train(rt, TrainConfig(batch_size=2, seed=77), samples(6), samples(2, "v"),
              chain_state(2), "exact_match", run_dir=run_dir)
        ledger.close()
        return run_dir

    a = run("a")
    b = run("b")
    for name in ("records.jsonl", "ledger.jsonl", "best.json"):
        assert (a.root / name).read_bytes() == (b.root / name).read_bytes(), name
    report(9, "repeat scripted runs with one seed emit byte-identical "
              "records.jsonl, ledger.jsonl, best.json")


# ---------------------------------------------------------------------------
# 10. Optional live smoke (network + key required)
# ---------------------------------------------------------------------------

@pytest.mark.live
@pytest.mark.skipif(not os.environ.get("FLOWTUNE_LIVE_ENDPOINT"),
                    reason="set FLOWTUNE_LIVE_ENDPOINT (and FLOWTUNE_LIVE_MODEL / "
                           "FLOWTUNE_API_KEY) to run the live smoke")
def test_criterion_10_live_smoke(tmp_path):
    from flowtune.backend import ChatClient, HttpBackend
    from flowtune.evaluation import Sample
    from flowtune.runtime import ModelSettings, Runtime
    from flowtune.tools import CorpusDoc, CorpusIndex, ToolRegistry, make_corpus_search_tool
    from flowtune.trainer import evaluate

    endpoint = os.environ["FLOWTUNE_LIVE_ENDPOINT"]
    model = os.environ.get("FLOWTUNE_LIVE_MODEL", "gpt-4.1-mini")
    facts = [(f"Entity{i}", str(1800 + 7 * i)) for i in range(20)]
    corpus = [CorpusDoc(f"d{i}", name, f"{name} was established in {year} and is "
                        f"known for its long history.")
              for i, (name, year) in enumerate(facts)]
    dataset = [Sample(id=f"s{i}", question=f"In what year was {name} established?",
                      answer=year) for i, (name, year) in enumerate(facts)]
    registry = ToolRegistry()
    spec, fn = make_corpus_search_tool(CorpusIndex(corpus))
    registry.register(spec, fn)

    backend = HttpBackend(endpoint, api_key_env="FLOWTUNE_API_KEY")
    rt = Runtime(client=ChatClient(backend, RunLedger()),
                 settings=ModelSettings(executor_model=model, meta_model=model),
                 tools=registry)

    train_set, val_set = dataset[:10], dataset[10:]
    state0 = bootstrap_workflow(rt, train_set[:5], exact_match, EM_INFO)
    baseline = evaluate(rt, state0, val_set, "exact_match").mean_score
    result = train(rt, TrainConfig(), train_set, val_set, state0, "exact_match")
    assert result.best_val_score >= baseline
    report(10, f"live smoke: best val EM {result.best_val_score:.3f} >= "
               f"bootstrap EM {baseline:.3f}")
