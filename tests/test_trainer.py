import json
import logging
import threading

import pytest

from flowtune.backend import Budget, Purpose, TransportError
from flowtune.evaluation import Sample
from flowtune.forward import parse_envelope
from flowtune.model import TextualGradient, WorkflowState
from flowtune.store import RunDirectory, load_checkpoint
from flowtune.trainer import (
    EvalSummary,
    PerSampleEval,
    TrainConfig,
    evaluate,
    make_batches,
    train,
)

from .helpers import (
    PurposeScript,
    chain_state,
    drop_connection,
    fenced,
    make_runtime,
    user_content,
)


def forward_handler(request):
    question, previous = parse_envelope(user_content(request))
    return (previous or question) + "|f"


def standard_handlers(mode="full"):
    grad_loss_reply = (
        (lambda r: fenced({"gradients": {str(i): f"g{i}" for i in range(1, 13)}}))
        if mode == "no_layerwise"
        else (lambda r: fenced({"text_gradient": "needs work"}))
    )
    optim_call_reply = (
        (lambda r: fenced({"updates": {"step_1": "tuned prompt"}}))
        if mode == "no_layerwise"
        else (lambda r: fenced({"updated_prompt": "tuned prompt"}))
    )
    return {
        Purpose.FORWARD: forward_handler,
        Purpose.GRAD_LOSS: grad_loss_reply,
        Purpose.GRAD_CALL: lambda r: fenced({"text_gradient": "chain feedback"}),
        Purpose.GRAD_WORKFLOW: lambda r: fenced({"reasoning": "", "text_gradient": "restructure"}),
        Purpose.OPTIM_WORKFLOW: lambda r: fenced(
            {"reasoning": "", "should_update": False, "updated_execution_plan": []}),
        Purpose.OPTIM_CALL: optim_call_reply,
    }


def samples(n, prefix="s"):
    return [Sample(id=f"{prefix}{i}", question=f"question {i}", answer=f"question {i}|f")
            for i in range(n)]


# Answers equal the 1-step workflow's output, so validation scores 1.0; that
# keeps the schedule tests focused on call accounting.


def run_one_batch(mode="full", k=1, seed=None):
    script = PurposeScript(standard_handlers(mode))
    rt = make_runtime(script)
    config = TrainConfig(mode=mode, seed=seed)
    train_set = samples(5)
    val_set = samples(2, prefix="v")
    result = train(rt, config, train_set, val_set, chain_state(k), "exact_match")
    return script, rt, result


def test_default_schedule_exactly_two_workflow_updates_and_ten_inner_rounds():
    script, rt, result = run_one_batch()
    counts = rt.client.ledger.count_by_purpose()
    assert counts["OptimWorkflow"] == 2
    assert counts["OptimCall"] == 10  # 2 rounds x 5 inner steps, single executor
    assert counts["GradWorkflow"] == 10  # 2 outer passes x 5 samples
    assert counts["GradLoss"] == 50  # 10 inner steps x 5 samples
    assert counts.get("GradCall", 0) == 0  # K = 1
    # outer + inner + validation forwards. Both edits are declined, so each
    # round's first inner step reuses the outer step's 5 forwards.
    assert counts["Forward"] == 10 + 40 + 2
    assert len(result.records) == 1


def test_gradcall_counts_scale_with_chain_length():
    script, rt, result = run_one_batch(k=3)
    counts = rt.client.ledger.count_by_purpose()
    assert counts["GradLoss"] == 50
    assert counts["GradCall"] == 50 * 2  # (K-1) per sample per inner step
    assert counts["OptimCall"] == 10 * 3  # one per live executor per inner step


def test_prompt_only_mode_never_touches_structure():
    script, rt, result = run_one_batch(mode="prompt_only")
    counts = rt.client.ledger.count_by_purpose()
    assert "OptimWorkflow" not in counts
    assert "GradWorkflow" not in counts
    assert counts["OptimCall"] == 10
    assert all(r.revision == result.records[0].revision for r in result.records)


def test_no_bilevel_mode_single_layer_signature():
    script, rt, result = run_one_batch(mode="no_bilevel")
    counts = rt.client.ledger.count_by_purpose()
    # per round: 5 combined gradients (GradLoss tag) + 1 combined update
    assert counts["GradLoss"] == 10
    assert counts["OptimWorkflow"] == 2
    assert counts.get("GradCall", 0) == 0
    assert counts.get("OptimCall", 0) == 0
    assert counts.get("GradWorkflow", 0) == 0


def test_no_layerwise_mode_one_gradient_call_per_sample():
    script, rt, result = run_one_batch(mode="no_layerwise", k=3)
    counts = rt.client.ledger.count_by_purpose()
    assert counts["GradLoss"] == 50  # one per sample per inner step, despite K=3
    assert counts.get("GradCall", 0) == 0
    assert counts["OptimCall"] == 10  # one combined prompt update per inner step
    assert counts["OptimWorkflow"] == 2  # outer loop still runs
    assert counts["GradWorkflow"] == 10


# ---------------------------------------------------------------------------
# Forward reuse within a batch
# ---------------------------------------------------------------------------

def same_shape_plan(k):
    """An edit that applies but keeps the chain's K steps and executors."""
    return {"reasoning": "", "should_update": True, "updated_execution_plan": [
        {"step_id": i, "description": f"stage {i}", "tools": [], "executor_type": "reuse",
         "executor_name": f"step_{i}", "generation_guideline": ""} for i in range(1, k + 1)]}


@pytest.mark.parametrize("applied, outer_steps", [(False, 1), (True, 1), (False, 2)],
                         ids=["declined", "applied", "declined-twice"])
def test_only_an_applied_edit_forwards_the_batch_again(applied, outer_steps):
    b, k = 5, 3
    handlers = standard_handlers()
    if applied:
        handlers[Purpose.OPTIM_WORKFLOW] = lambda r: fenced(same_shape_plan(k))
    rt = make_runtime(PurposeScript(handlers))
    config = TrainConfig(batch_size=b, bilevel_rounds_per_batch=1, inner_steps_per_round=2,
                         outer_steps_per_round=outer_steps, seed=None)
    result = train(rt, config, samples(b), samples(1, "v"), chain_state(k), "exact_match")
    assert (result.records[0].revision > 0) == applied
    counts = rt.client.ledger.count_by_purpose()
    assert counts["GradWorkflow"] == outer_steps * b
    # Each outer step and both inner steps forward B samples through K
    # steps, validation one sample. Each declined edit leaves the step after
    # it the forwards of the step before.
    saved = 0 if applied else outer_steps * b * k
    assert counts["Forward"] == (outer_steps + 2) * b * k + k - saved


def test_inner_steps_reuse_the_forwards_of_an_unchanged_state():
    # No prompt update applies, so every inner step sees the outer step's state.
    handlers = {**standard_handlers(), Purpose.OPTIM_CALL: lambda r: "never json"}
    rt = make_runtime(PurposeScript(handlers))
    config = TrainConfig(bilevel_rounds_per_batch=1, seed=None)
    result = train(rt, config, samples(5), samples(1, "v"), chain_state(2), "exact_match")
    assert result.halted_early is False
    counts = rt.client.ledger.count_by_purpose()
    assert counts["GradLoss"] == 25
    assert counts["Forward"] == 5 * 2 + 2


def test_a_sample_whose_forward_failed_is_forwarded_again_alone():
    failed = []

    def flaky(request):
        question, previous = parse_envelope(user_content(request))
        if question == "question 1" and previous and not failed:
            failed.append(request)
            raise TransportError("connection dropped")
        return forward_handler(request)

    script = PurposeScript({**standard_handlers(), Purpose.FORWARD: flaky})
    rt = make_runtime(script)
    config = TrainConfig(bilevel_rounds_per_batch=1, inner_steps_per_round=1, seed=None)
    train(rt, config, samples(5), samples(1, "v"), chain_state(2), "exact_match")
    assert len(failed) == 1  # at step 2 of the outer step's forward
    # The inner step's forwards and gradients overlap, so its training
    # forwards are picked out of the calls between the edit and the updates.
    purposes = [r.purpose for r in script.calls]
    inner = [r for r in script.calls[purposes.index(Purpose.OPTIM_WORKFLOW) + 1:
                                     purposes.index(Purpose.OPTIM_CALL)]
             if r.purpose == Purpose.FORWARD]
    assert [(r.purpose, parse_envelope(user_content(r))) for r in inner] == [
        (Purpose.FORWARD, ("question 1", "")),
        (Purpose.FORWARD, ("question 1", "question 1|f")),
    ]


def test_a_sample_whose_forward_failed_gets_no_gradient(caplog):
    def down_for_question_0(request):
        if parse_envelope(user_content(request))[0] == "question 0":
            raise TransportError("connection dropped")
        return forward_handler(request)

    script = PurposeScript({**standard_handlers(), Purpose.FORWARD: down_for_question_0})
    rt = make_runtime(script)
    val_set = [Sample("v9", "question 9", "question 9|f|f")]
    with caplog.at_level(logging.WARNING, logger="flowtune.trainer"):
        result = train(rt, TrainConfig(seed=None), samples(5), val_set, chain_state(2),
                       "exact_match")
    assert result.records[0].val_score == 1.0
    gradient_requests = [r for r in script.calls
                         if r.purpose in (Purpose.GRAD_LOSS, Purpose.GRAD_CALL,
                                          Purpose.GRAD_WORKFLOW)]
    assert gradient_requests
    for request in gradient_requests:
        text = user_content(request)
        assert "backend_error" not in text and "(trace incomplete" not in text
    # 2 structure and 10 inner steps, each with sample 0 forwarded again and left out.
    assert script.count(Purpose.GRAD_WORKFLOW) == 2 * 4
    assert script.count(Purpose.GRAD_LOSS) == 10 * 4
    dropped = [r.getMessage() for r in caplog.records if "'s0' ended in" in r.getMessage()]
    assert len(dropped) == 12
    assert dropped[-1] == ("sample dropped from inner step: "
                           "sample 's0' ended in backend failure at step 1")


def test_executor_serving_two_steps_gets_gradients_from_both():
    base = chain_state(1)
    from flowtune.model import StepSpec

    state = WorkflowState(
        sketch=(
            StepSpec(1, "draft", "step_1"),
            StepSpec(2, "refine", "step_1"),
        ),
        executors=base.executors,
        revision=0,
    )
    seen_blocks = []

    handlers = standard_handlers()
    handlers[Purpose.OPTIM_CALL] = lambda r: (
        seen_blocks.append(user_content(r)) or fenced({"updated_prompt": "tuned"}))
    script = PurposeScript(handlers)
    rt = make_runtime(script)
    config = TrainConfig(batch_size=1, bilevel_rounds_per_batch=1, inner_steps_per_round=1,
                         mode="prompt_only", seed=None)
    train(rt, config, samples(1), samples(1, "v"), state, "exact_match")
    assert len(seen_blocks) == 1
    assert "step 1" in seen_blocks[0] and "step 2" in seen_blocks[0]


def test_one_steps_prompt_updates_render_the_sketch_once(monkeypatch):
    import flowtune.gradients as gradients_module
    import flowtune.optimizer as optimizer_module
    import flowtune.trainer as trainer_module

    state = chain_state(3)
    renders = []
    render = gradients_module.render_workflow_sketch
    for module in (gradients_module, optimizer_module, trainer_module):
        monkeypatch.setattr(module, "render_workflow_sketch",
                            lambda s: renders.append(s) or render(s))
    script = PurposeScript({Purpose.OPTIM_CALL: lambda r: fenced({"updated_prompt": "tuned"})})
    rt = make_runtime(script)
    per_sample = [{step: TextualGradient.for_step(step, f"g{step}", sample)
                   for step in (1, 2, 3)} for sample in ("s0", "s1")]
    updated = trainer_module._update_prompts(rt, state, per_sample, num_samples=2)
    assert renders == [state]
    assert script.count(Purpose.OPTIM_CALL) == 3
    assert all(render(state) in user_content(r) for r in script.calls)
    assert {exe.prompt for exe in updated.executors.values()} == {"tuned"}


# ---------------------------------------------------------------------------
# Validation tracking and best selection
# ---------------------------------------------------------------------------

def scripted_scores_train(tmp_path, scores, monkeypatch, keep_traces=False):
    """Run one batch per score with evaluation stubbed to the given sequence;
    with `keep_traces`, each validation also runs, to write its traces."""
    import flowtune.trainer as trainer_module

    queue = list(scores)
    real_evaluate = trainer_module.evaluate

    def fake_evaluate(rt, state, dataset, metric_name, trace_sink=None):
        if trace_sink is not None:
            real_evaluate(rt, state, dataset, metric_name, trace_sink=trace_sink)
        return EvalSummary(queue.pop(0), (PerSampleEval("v0", 1.0, "p", None),))

    monkeypatch.setattr(trainer_module, "evaluate", fake_evaluate)
    script = PurposeScript(standard_handlers("prompt_only"))
    rt = make_runtime(script)
    config = TrainConfig(batch_size=1, bilevel_rounds_per_batch=1, inner_steps_per_round=1,
                         mode="prompt_only", seed=None, keep_traces=keep_traces)
    run_dir = RunDirectory(tmp_path / "run")
    result = train(rt, config, samples(len(scores)), samples(1, "v"), chain_state(1),
                   "exact_match", run_dir=run_dir)
    return result, run_dir


def test_best_state_is_earliest_argmax(tmp_path, monkeypatch):
    result, run_dir = scripted_scores_train(tmp_path, [0.2, 0.5, 0.4], monkeypatch)
    assert result.best_batch_index == 1
    assert result.best_val_score == 0.5
    assert run_dir.best_path.read_bytes() == run_dir.checkpoint_path(1).read_bytes()
    # ties keep the earlier batch
    result2, run_dir2 = scripted_scores_train(tmp_path / "b", [0.4, 0.4, 0.1], monkeypatch)
    assert result2.best_batch_index == 0


def test_records_are_monotone_in_calls_and_cost(tmp_path, monkeypatch):
    result, run_dir = scripted_scores_train(tmp_path, [0.1, 0.9, 0.3, 0.3], monkeypatch)
    calls = [r.api_calls_so_far for r in result.records]
    costs = [r.cost_so_far_micro for r in result.records]
    assert calls == sorted(calls)
    assert costs == sorted(costs)
    lines = run_dir.records_path.read_text().splitlines()
    assert len(lines) == 4
    row = json.loads(lines[0])
    assert set(row) == {"batch_index", "val_score", "revision", "api_calls_so_far",
                        "cost_so_far_usd", "timestamp"}


def test_each_batch_writes_traces_checkpoint_record_then_best(tmp_path, monkeypatch):
    writes = []

    def spy(name, batch_of):
        method = getattr(RunDirectory, name)

        def spied(run_dir, *args):
            writes.append((name, batch_of(*args)))
            return method(run_dir, *args)
        monkeypatch.setattr(RunDirectory, name, spied)

    spy("write_trace", lambda batch_index, trace: batch_index)
    spy("write_batch_checkpoint", lambda state, batch_index: batch_index)
    spy("append_record_line", lambda line: json.loads(line)["batch_index"])
    spy("promote_best", lambda batch_index: batch_index)
    # Batch 1 is not a new best; batch 2 is.
    scripted_scores_train(tmp_path, [0.4, 0.2, 0.7], monkeypatch, keep_traces=True)
    assert writes == [write for batch in range(3) for write in [
        ("write_trace", batch), ("write_batch_checkpoint", batch),
        ("append_record_line", batch)] + [("promote_best", batch)] * (batch != 1)]


def test_best_checkpoint_loads_and_validates(tmp_path, monkeypatch):
    result, run_dir = scripted_scores_train(tmp_path, [0.3, 0.8], monkeypatch)
    state = load_checkpoint(run_dir.best_path)
    assert state.sketch == result.best_state.sketch


# ---------------------------------------------------------------------------
# Budget
# ---------------------------------------------------------------------------

def test_budget_halts_softly_with_best_so_far():
    script = PurposeScript(standard_handlers())
    rt = make_runtime(script, budget=Budget(max_calls=30))
    config = TrainConfig(seed=None)
    result = train(rt, config, samples(10), samples(2, "v"), chain_state(1), "exact_match")
    assert result.halted_early
    assert rt.client.ledger.call_count <= 30
    assert result.best_state is not None


def test_budget_mid_run_keeps_earlier_best(tmp_path, monkeypatch):
    import flowtune.trainer as trainer_module

    scores = iter([0.7])

    def fake_evaluate(rt, state, dataset, metric_name, trace_sink=None):
        return EvalSummary(next(scores), ())

    monkeypatch.setattr(trainer_module, "evaluate", fake_evaluate)
    script = PurposeScript(standard_handlers("prompt_only"))
    # enough budget for exactly one batch (4 calls) plus a bit
    rt = make_runtime(script, budget=Budget(max_calls=5))
    config = TrainConfig(batch_size=1, bilevel_rounds_per_batch=1, inner_steps_per_round=1,
                         mode="prompt_only", seed=None)
    result = train(rt, config, samples(3), samples(1, "v"), chain_state(1), "exact_match")
    assert result.halted_early
    assert result.best_val_score == 0.7
    assert result.best_batch_index == 0


# ---------------------------------------------------------------------------
# Meta-call transport failures
# ---------------------------------------------------------------------------

def failing_call(handlers, purpose, n):
    """`handlers` with the n-th call of `purpose` raising TransportError."""
    lock, seen = threading.Lock(), []
    inner = handlers[purpose]

    def handler(request):
        with lock:
            seen.append(request)
            fail = len(seen) == n
        if fail:
            raise TransportError("connection dropped")
        return inner(request)

    return {**handlers, purpose: handler}


def test_transport_failure_on_a_loss_gradient_drops_the_sample():
    script = PurposeScript(failing_call(standard_handlers(), Purpose.GRAD_LOSS, 3))
    rt = make_runtime(script)
    result = train(rt, TrainConfig(seed=None), samples(5), samples(2, "v"), chain_state(1),
                   "exact_match")
    assert not result.halted_early
    assert len(result.records) == 1
    assert rt.client.ledger.count_by_purpose()["GradLoss"] == 49
    assert rt.client.ledger.count_by_purpose()["OptimCall"] == 10


@pytest.mark.parametrize("reply, cause", [
    (drop_connection, "TransportError: connection dropped"),
    (lambda r: "never json", "JsonRetryExhausted: no valid JSON after 4 attempts"),
], ids=["transport", "json"])
def test_a_dropped_sample_warning_names_its_cause(caplog, reply, cause):
    handlers = {**standard_handlers(), Purpose.GRAD_LOSS: reply}
    rt = make_runtime(PurposeScript(handlers))
    with caplog.at_level(logging.WARNING, logger="flowtune.trainer"):
        train(rt, TrainConfig(batch_size=2, seed=None), samples(2), samples(1, "v"),
              chain_state(1), "exact_match")
    dropped = [r.getMessage() for r in caplog.records if "no gradient for" in r.getMessage()]
    assert dropped
    assert all(message.endswith(f"at step 1: {cause}") for message in dropped)


def test_transport_failure_on_a_prompt_update_halts_softly_with_best_so_far(tmp_path):
    script = PurposeScript(failing_call(standard_handlers("prompt_only"), Purpose.OPTIM_CALL, 2))
    rt = make_runtime(script)
    config = TrainConfig(batch_size=1, bilevel_rounds_per_batch=1, inner_steps_per_round=1,
                         mode="prompt_only", seed=None)
    run_dir = RunDirectory(tmp_path / "run")
    result = train(rt, config, samples(3), samples(1, "v"), chain_state(1), "exact_match",
                   run_dir=run_dir)
    assert result.halted_early
    assert result.best_batch_index == 0 and len(result.records) == 1
    assert run_dir.best_path.read_bytes() == run_dir.checkpoint_path(0).read_bytes()


@pytest.mark.parametrize("purpose", [Purpose.OPTIM_WORKFLOW, Purpose.INIT_EXECUTOR])
def test_transport_failure_on_a_workflow_update_halts_softly(purpose):
    plan = {"reasoning": "", "should_update": True, "updated_execution_plan": [
        {"step_id": 1, "description": "answer", "tools": [], "executor_type": "new",
         "executor_name": "Fresh", "generation_guideline": "answer plainly"}]}
    handlers = {**standard_handlers(),
                Purpose.OPTIM_WORKFLOW: lambda r: fenced(plan),
                Purpose.INIT_EXECUTOR: lambda r: fenced({"name": "Fresh", "prompt": "p"})}
    script = PurposeScript(failing_call(handlers, purpose, 1))
    rt = make_runtime(script)
    state0 = chain_state(1)
    result = train(rt, TrainConfig(seed=None), samples(5), samples(2, "v"), state0,
                   "exact_match")
    assert result.halted_early
    assert result.records == () and result.best_state is state0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_all_correct_gives_mean_one():
    rt = make_runtime(PurposeScript({Purpose.FORWARD: forward_handler}))
    summary = evaluate(rt, chain_state(1), samples(3), "exact_match")
    assert summary.mean_score == 1.0
    assert len(summary.per_sample) == 3


def test_evaluate_mixed_set_gives_hand_average():
    rt = make_runtime(PurposeScript({Purpose.FORWARD: forward_handler}))
    dataset = [
        Sample(id="right", question="q", answer="q|f"),
        Sample(id="wrong", question="q2", answer="not this"),
    ]
    summary = evaluate(rt, chain_state(1), dataset, "exact_match")
    assert summary.mean_score == 0.5


def test_evaluate_forward_failure_scores_zero_with_note():
    from flowtune.backend import TransportError

    def flaky(request):
        if "question 1" in user_content(request):
            raise TransportError("down")
        return forward_handler(request)

    rt = make_runtime(PurposeScript({Purpose.FORWARD: flaky}))
    summary = evaluate(rt, chain_state(1), samples(3), "exact_match")
    failed = [p for p in summary.per_sample if p.error]
    assert len(failed) == 1
    assert failed[0].score == 0.0
    assert summary.mean_score == pytest.approx(2 / 3)


def test_evaluate_empty_dataset_rejected():
    rt = make_runtime(PurposeScript({Purpose.FORWARD: forward_handler}))
    with pytest.raises(ValueError):
        evaluate(rt, chain_state(1), [], "exact_match")


# ---------------------------------------------------------------------------
# Batching & determinism
# ---------------------------------------------------------------------------

def test_make_batches_short_final_batch_and_epochs():
    config = TrainConfig(batch_size=2, epochs=2, seed=None)
    batches = make_batches(samples(5), config)
    assert [len(b) for b in batches] == [2, 2, 1, 2, 2, 1]
    assert [s.id for s in batches[0]] == ["s0", "s1"]


def test_seeded_shuffle_is_deterministic_and_differs_by_epoch():
    config = TrainConfig(batch_size=5, epochs=2, seed=13)
    one = make_batches(samples(5), config)
    two = make_batches(samples(5), config)
    assert [[s.id for s in b] for b in one] == [[s.id for s in b] for b in two]
    assert [s.id for s in one[0]] != [s.id for s in one[1]]  # epochs reshuffle


def test_two_runs_same_seed_are_byte_identical(tmp_path):
    def run(into):
        run_dir = RunDirectory(tmp_path / into)
        script = PurposeScript(standard_handlers())
        rt = make_runtime(script, ledger_sink=run_dir.ledger_path)
        config = TrainConfig(batch_size=2, seed=11)
        train(rt, config, samples(4), samples(2, "v"), chain_state(2), "exact_match",
              run_dir=run_dir)
        rt.client.ledger.close()
        return run_dir

    a = run("a")
    b = run("b")
    for name in ("records.jsonl", "ledger.jsonl", "best.json"):
        assert (a.root / name).read_bytes() == (b.root / name).read_bytes(), name


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(mode="bogus")


def test_budget_lives_on_the_client_only():
    with pytest.raises(TypeError):
        TrainConfig(budget=Budget(max_calls=5))


def test_val_subsample_limits_validation_forwards():
    script = PurposeScript(standard_handlers("prompt_only"))
    rt = make_runtime(script)
    config = TrainConfig(batch_size=5, bilevel_rounds_per_batch=1, inner_steps_per_round=1,
                         mode="prompt_only", seed=None, val_subsample=2)
    train(rt, config, samples(5), samples(10, "v"), chain_state(1), "exact_match")
    counts = rt.client.ledger.count_by_purpose()
    # 5 training forwards for the single inner step + only 2 validation forwards
    assert counts["Forward"] == 5 + 2


def test_routed_sketch_trains_end_to_end():
    from flowtune.model import Route, StepSpec

    base = chain_state(4)
    state = WorkflowState(
        sketch=(
            StepSpec(1, "classify", "step_1", control=Route(targets={"JUMP": 3})),
            base.sketch[1],
            base.sketch[2],
            base.sketch[3],
        ),
        executors=base.executors,
        revision=0,
    )

    def routing_forward(request):
        from flowtune.forward import parse_envelope

        if user_content(request).startswith("## Original Question"):
            question, previous = parse_envelope(user_content(request))
            if not previous:
                return "ROUTE: JUMP"
            return previous + "|f"
        return "x"

    handlers = standard_handlers("prompt_only")
    handlers[Purpose.FORWARD] = routing_forward
    script = PurposeScript(handlers)
    rt = make_runtime(script)
    config = TrainConfig(batch_size=1, bilevel_rounds_per_batch=1, inner_steps_per_round=1,
                         mode="prompt_only", seed=None)
    result = train(rt, config, samples(1), samples(1, "v"), state, "exact_match")
    counts = rt.client.ledger.count_by_purpose()
    # executed steps 1, 3, 4: loss call at 4, chain-rule at 3 and 1, none for skipped 2
    assert counts["GradLoss"] == 1
    assert counts["GradCall"] == 2
    # every live executor still receives an update (step 2 gets its synthesized gradient)
    assert counts["OptimCall"] == 4
    assert len(result.records) == 1
