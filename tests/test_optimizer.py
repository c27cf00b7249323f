import logging

import pytest

from flowtune.backend import Purpose
from flowtune.evaluation import exact_match, metric_info
from flowtune.model import (
    TOOL_EXECUTOR,
    serialize_state,
    validate_state,
    with_updated_prompt,
)
from flowtune.optimizer import (
    BootstrapFailed,
    PlanStep,
    bootstrap_workflow,
    init_executor,
    sanitize_executor_name,
    seed_state,
    uniquify_name,
    update_all_prompts,
    update_prompt,
    update_workflow,
    update_workflow_combined,
)
from flowtune.evaluation import Sample
from flowtune.model import TextualGradient
from flowtune.tools import CorpusIndex, ToolRegistry, make_corpus_search_tool
from flowtune.tools import CorpusDoc

from .helpers import (
    PurposeScript,
    chain_state,
    drop_connection,
    fenced,
    make_runtime,
    user_content,
)

EM_INFO = metric_info("exact_match")


def wf_grads(n: int):
    return [TextualGradient.for_workflow(f"workflow gradient {i}", f"s{i}") for i in range(n)]


def step_grads(step_id: int, n: int):
    return [TextualGradient.for_step(step_id, f"step gradient {i}", f"s{i}") for i in range(n)]


def registry_with_search() -> ToolRegistry:
    registry = ToolRegistry()
    spec, fn = make_corpus_search_tool(
        CorpusIndex([CorpusDoc("d", "t", "b")]), name="search_topk")
    registry.register(spec, fn)
    return registry


# ---------------------------------------------------------------------------
# update_prompt
# ---------------------------------------------------------------------------

def test_update_prompt_empty_batch_is_a_precondition_error():
    rt = make_runtime(lambda r: "unused")
    state = chain_state(1)
    with pytest.raises(ValueError):
        update_prompt(rt, state, state.executors["step_1"], [], num_samples=1)


def test_update_prompt_applies_and_bumps_version():
    script = PurposeScript({Purpose.OPTIM_CALL: lambda r: fenced(
        {"updated_prompt": "X", "changes_made": ["rewrote"], "reasoning": "because"})})
    rt = make_runtime(script)
    state = chain_state(2)
    updated = update_prompt(rt, state, state.executors["step_1"], step_grads(1, 3),
                            num_samples=3)
    assert updated == "X"
    new_state = with_updated_prompt(state, "step_1", updated)
    assert new_state.executors["step_1"].prompt == "X"
    assert new_state.executors["step_1"].version == 1
    assert new_state.revision == state.revision + 1


def test_update_prompt_renders_all_gradients_and_current_prompt():
    script = PurposeScript({Purpose.OPTIM_CALL: lambda r: fenced({"updated_prompt": "X"})})
    rt = make_runtime(script)
    state = chain_state(1)
    gradients = step_grads(1, 5)
    update_prompt(rt, state, state.executors["step_1"], gradients, num_samples=5)
    prompt = user_content(script.calls[0])
    for g in gradients:
        assert g.text in prompt
    assert "step-1 prompt" in prompt
    assert "from 5 samples" in prompt


def test_update_prompt_json_failure_returns_none():
    rt = make_runtime(PurposeScript(default=lambda r: "no json"))
    state = chain_state(1)
    assert update_prompt(rt, state, state.executors["step_1"], step_grads(1, 1), 1) is None


# ---------------------------------------------------------------------------
# update_workflow
# ---------------------------------------------------------------------------

def plan_reply(plan_steps, should_update=True, reasoning="r"):
    return fenced({
        "reasoning": reasoning,
        "should_update": should_update,
        "updated_execution_plan": plan_steps,
    })


def reuse_step(step_id, name, tools=None, description=None):
    return {
        "step_id": step_id,
        "description": description or f"step {step_id}",
        "tools": tools or [],
        "executor_type": "reuse",
        "executor_name": name,
        "generation_guideline": "",
    }


def new_step(step_id, name, guideline="make a prompt", tools=None, description=None,
             control=None):
    step = {
        "step_id": step_id,
        "description": description or f"new step {step_id}",
        "tools": tools or [],
        "executor_type": "new",
        "executor_name": name,
        "generation_guideline": guideline,
    }
    if control is not None:
        step["control"] = control
    return step


def init_reply(name="Generated", kind="LLMExecutor"):
    return fenced({"name": name, "type": kind, "description": "generated executor",
                   "prompt": f"prompt for {name}"})


def test_should_update_false_keeps_state_and_makes_no_init_calls():
    script = PurposeScript({Purpose.OPTIM_WORKFLOW: lambda r: plan_reply([], should_update=False)})
    rt = make_runtime(script)
    state = chain_state(2)
    outcome = update_workflow(rt, state, wf_grads(2), ["q1", "q2"], EM_INFO)
    assert outcome.applied is False
    assert outcome.error is None
    assert outcome.state is state
    assert script.count(Purpose.INIT_EXECUTOR) == 0


def test_four_to_six_step_plan_triggers_exactly_two_inits():
    init_names = iter(["EntityDisambiguation", "TargetedRetrieval"])

    def init_handler(request):
        name = next(init_names)
        kind = "ToolExecutor" if name == "TargetedRetrieval" else "LLMExecutor"
        return init_reply(name, kind)

    plan = [
        reuse_step(1, "WikipediaSearch", tools=["search_topk"], description="Wikipedia search"),
        new_step(2, "entity_disambiguation_v1", description="Entity disambiguation"),
        new_step(3, "targeted_retrieval_v1", tools=["search_topk"],
                 description="Targeted attribute retrieval"),
        reuse_step(4, "AnswerExtraction", description="Answer extraction"),
        reuse_step(5, "Verification", description="Verification"),
        reuse_step(6, "FinalAnswer", description="Final answer"),
    ]
    script = PurposeScript({
        Purpose.OPTIM_WORKFLOW: lambda r: plan_reply(plan),
        Purpose.INIT_EXECUTOR: init_handler,
    })
    registry = registry_with_search()
    rt = make_runtime(script, tools=registry)

    from .helpers import llm_executor, tool_executor
    from flowtune.model import StepSpec, WorkflowState

    executors = {e.name: e for e in (
        tool_executor("WikipediaSearch", ("search_topk",)),
        llm_executor("AnswerExtraction"),
        llm_executor("Verification"),
        llm_executor("FinalAnswer"),
    )}
    before = WorkflowState(
        sketch=(
            StepSpec(1, "Wikipedia search", "WikipediaSearch", ("search_topk",)),
            StepSpec(2, "Answer extraction", "AnswerExtraction"),
            StepSpec(3, "Verification", "Verification"),
            StepSpec(4, "Final answer", "FinalAnswer"),
        ),
        executors=executors,
        revision=3,
    )
    outcome = update_workflow(rt, before, wf_grads(1), ["the question"], EM_INFO)
    assert outcome.applied
    assert script.count(Purpose.INIT_EXECUTOR) == 2
    after = outcome.state
    assert len(after.sketch) == 6
    assert after.revision == 4
    assert validate_state(after, rt.tools.names()) == []
    assert after.sketch[1].executor_name == "EntityDisambiguation"
    assert after.executors["TargetedRetrieval"].kind == TOOL_EXECUTOR
    # reused executors kept untouched
    assert after.executors["Verification"] is before.executors["Verification"]


def test_plan_reusing_unknown_name_leaves_state_untouched():
    script = PurposeScript({Purpose.OPTIM_WORKFLOW: lambda r: plan_reply(
        [reuse_step(1, "Ghost")])})
    rt = make_runtime(script)
    state = chain_state(2)
    before_bytes = serialize_state(state)
    outcome = update_workflow(rt, state, wf_grads(1), ["q"], EM_INFO)
    assert outcome.applied is False
    assert outcome.error.startswith("PlanInvalid")
    assert "Ghost" in outcome.error
    assert serialize_state(outcome.state) == before_bytes
    assert outcome.state.revision == state.revision


@pytest.mark.parametrize("plan,expected", [
    ([reuse_step(2, "step_1")], "contiguous"),
    ([new_step(i, f"n{i}") for i in range(1, 14)], "cap"),
    ([new_step(1, "n1", guideline="")], "generation_guideline"),
    ([reuse_step(1, "step_1", tools=["search_topk"])], "kind"),
    ([{"step_id": 1, "description": "d", "tools": [], "executor_type": "wat",
       "executor_name": "step_1", "generation_guideline": ""}], "executor_type"),
    ([reuse_step(1, "step_1", tools=None), reuse_step(2, "step_2", tools=["unknown_tool"])],
     "unknown tool"),
    # Plans that are bad only in a control marker: rejected before any new
    # executor is initialized, too.
    ([new_step(1, "a", control={"kind": "route", "targets": {"skip": 7}}), new_step(2, "b")],
     "RouteTargetMissing"),
    ([new_step(1, "a"), new_step(2, "b", control={"kind": "route", "targets": {"back": 1}})],
     "BackwardRouteTarget"),
    ([new_step(1, "a", control={"kind": "loop", "max_iterations": 0})],
     "LoopIterationsOutOfRange"),
    ([new_step(1, "a", control={"kind": "loop", "max_iterations": 9})],
     "LoopIterationsOutOfRange"),
    # A control marker of the wrong shape is a format error, not a crash.
    ([new_step(1, "a", control={"kind": "route", "targets": ["skip"]})], "control"),
    ([new_step(1, "a", control={"kind": "loop", "max_iterations": None})], "control"),
    # So is a number that is not a JSON integer: it is not rounded.
    ([reuse_step(1.9, "step_1"), reuse_step(2, "step_2")], "plan_format"),
    ([reuse_step(True, "step_1"), reuse_step(2, "step_2")], "plan_format"),
    ([reuse_step("1", "step_1"), reuse_step(2, "step_2")], "plan_format"),
    ([new_step(1, "a", control={"kind": "loop", "max_iterations": 2.7})], "control"),
    ([new_step(1, "a", control={"kind": "route", "targets": {"skip": 3.5}}), new_step(2, "b"),
      new_step(3, "c")], "control"),
])
def test_invalid_plans_are_rejected_with_reason(plan, expected):
    script = PurposeScript({Purpose.OPTIM_WORKFLOW: lambda r: plan_reply(plan),
                            Purpose.INIT_EXECUTOR: lambda r: init_reply()})
    rt = make_runtime(script, tools=registry_with_search())
    state = chain_state(2)
    before_bytes = serialize_state(state)
    outcome = update_workflow(rt, state, wf_grads(1), ["q"], EM_INFO)
    assert outcome.applied is False
    assert expected.split()[0].lower() in outcome.error.lower()
    assert serialize_state(outcome.state) == before_bytes
    assert script.count(Purpose.INIT_EXECUTOR) == 0


def combined_step(step_id, name, prompt="a prompt", tools=None):
    return {"step_id": step_id, "description": f"step {step_id}", "tools": tools or [],
            "executor_name": name, "prompt": prompt}


@pytest.mark.parametrize("plan,expected", [
    ([combined_step(2, "step_1")], "NonContiguousStepIds"),
    ([combined_step(i, f"n{i}") for i in range(1, 14)], "TooManySteps"),
    ([combined_step(1, "Searcher", tools=["unknown_tool"])], "UnregisteredTool"),
    ([combined_step(1, "Fresh", prompt="")], "EmptyPrompt"),
])
def test_invalid_combined_plans_are_rejected_with_reason(plan, expected):
    script = PurposeScript({Purpose.OPTIM_WORKFLOW: lambda r: plan_reply(plan)})
    rt = make_runtime(script, tools=registry_with_search())
    state = chain_state(2)
    before_bytes = serialize_state(state)
    outcome = update_workflow_combined(rt, state, wf_grads(1), EM_INFO)
    assert outcome.applied is False
    assert outcome.error.startswith("PlanInvalid")
    assert expected in outcome.error
    assert serialize_state(outcome.state) == before_bytes


def test_tool_kind_mismatch_rejected_for_reused_tool_executor_without_tools():
    from .helpers import tool_executor
    from flowtune.model import StepSpec, WorkflowState

    te = tool_executor("Searcher", ("search_topk",))
    state = WorkflowState(
        sketch=(StepSpec(1, "search", "Searcher", ("search_topk",)),),
        executors={"Searcher": te},
        revision=0,
    )
    script = PurposeScript({Purpose.OPTIM_WORKFLOW: lambda r: plan_reply(
        [reuse_step(1, "Searcher", tools=[])])})
    rt = make_runtime(script, tools=registry_with_search())
    outcome = update_workflow(rt, state, wf_grads(1), ["q"], EM_INFO)
    assert outcome.applied is False
    assert "kind" in outcome.error


def test_init_failure_aborts_plan_atomically():
    calls = {"n": 0}

    def flaky_init(request):
        calls["n"] += 1
        if calls["n"] == 1:
            return init_reply("FirstOne")
        return "never json"

    script = PurposeScript({
        Purpose.OPTIM_WORKFLOW: lambda r: plan_reply(
            [new_step(1, "a"), new_step(2, "b")]),
        Purpose.INIT_EXECUTOR: flaky_init,
    })
    rt = make_runtime(script)
    state = chain_state(1)
    before_bytes = serialize_state(state)
    outcome = update_workflow(rt, state, wf_grads(1), ["q"], EM_INFO)
    assert outcome.applied is False
    assert outcome.error.startswith("InitFailed")
    assert serialize_state(outcome.state) == before_bytes


@pytest.mark.parametrize("concurrency", [1, 8])
def test_every_init_is_made_before_the_first_failure_aborts_the_plan(concurrency):
    def init(request):
        if "new step 1" in request.messages[1].content:  # repairs included
            return "never json"
        return init_reply("Second")

    script = PurposeScript({
        Purpose.OPTIM_WORKFLOW: lambda r: plan_reply([new_step(1, "a"), new_step(2, "b")]),
        Purpose.INIT_EXECUTOR: init,
    })
    rt = make_runtime(script)
    rt.concurrency = concurrency
    state = chain_state(1)
    outcome = update_workflow(rt, state, wf_grads(1), ["q"], EM_INFO)
    assert outcome.error.startswith("InitFailed: initialization failed for step 1")
    assert outcome.state is state
    # The second init is billed too: one optimizer call, four attempts, one init.
    assert [(r.idx, r.purpose, r.ts) for r in rt.client.ledger.rows] == [
        (0, "OptimWorkflow", 1)] + [(i, "InitExecutor", i + 1) for i in range(1, 6)]
    second = [r for r in script.calls if "new step 2" in r.messages[1].content]
    assert len(second) == 1


def test_inits_fan_out_and_names_are_made_unique_in_plan_order():
    script = PurposeScript({
        Purpose.OPTIM_WORKFLOW: lambda r: plan_reply(
            [new_step(1, "a"), new_step(2, "b"), reuse_step(3, "step_1")]),
        Purpose.INIT_EXECUTOR: lambda r: init_reply("step 1"),
    })
    rt = make_runtime(script)
    outcome = update_workflow(rt, chain_state(1), wf_grads(1), ["q"], EM_INFO)
    assert outcome.applied
    assert [s.executor_name for s in outcome.state.sketch] == ["step_1_2", "step_1_3", "step_1"]


def test_update_workflow_renders_gradients_and_agents():
    script = PurposeScript({Purpose.OPTIM_WORKFLOW: lambda r: plan_reply([], False)})
    rt = make_runtime(script)
    state = chain_state(2)
    gradients = wf_grads(4)
    update_workflow(rt, state, gradients, ["q"], EM_INFO)
    prompt = user_content(script.calls[0])
    for g in gradients:
        assert g.text in prompt
    assert "## Current Agents" in prompt
    assert "from 4 samples" in prompt
    # prompts never leak to the structure level
    assert "step-1 prompt" not in prompt


# ---------------------------------------------------------------------------
# init_executor
# ---------------------------------------------------------------------------

def test_init_executor_kind_follows_plan_tools():
    script = PurposeScript({Purpose.INIT_EXECUTOR: lambda r: init_reply("Searcher", "LLMExecutor")})
    rt = make_runtime(script, tools=registry_with_search())
    step = PlanStep(1, "search step", ("search_topk",), "new", "searcher_v1", "use the tool")
    spec = init_executor(rt, step, ["q1"])
    # plan tools win even when the generated spec claims LLMExecutor
    assert spec.kind == TOOL_EXECUTOR
    assert spec.tool_names == ("search_topk",)
    prompt = user_content(script.calls[0])
    assert "## Sample Questions This Executor Should Handle" in prompt
    assert "- q1" in prompt
    assert "use the tool" in prompt


def test_init_executor_name_collision_gets_numeric_suffix():
    script = PurposeScript({Purpose.INIT_EXECUTOR: lambda r: init_reply("Verifier")})
    rt = make_runtime(script)
    step = PlanStep(1, "verify", (), "new", "verifier_v1", "guideline")
    spec = init_executor(rt, step, ["q"])
    assert spec.name == "Verifier"  # update_workflow makes it unique
    assert uniquify_name(spec.name, {"Verifier"}) == "Verifier_2"
    assert uniquify_name(spec.name, {"Verifier", "Verifier_2"}) == "Verifier_3"


def test_name_sanitization():
    assert sanitize_executor_name("My Fancy-Name!") == "My_Fancy_Name"
    assert sanitize_executor_name("...") == "Executor"
    assert uniquify_name("A", set()) == "A"


# ---------------------------------------------------------------------------
# combined / all-prompts updates (ablation paths)
# ---------------------------------------------------------------------------

def test_update_workflow_combined_rewrites_prompts_inline():
    plan = [
        {"step_id": 1, "description": "solve", "tools": [], "executor_name": "Solver",
         "prompt": "solve it well"},
        {"step_id": 2, "description": "check", "tools": [], "executor_name": "step_1",
         "prompt": "check it"},
    ]
    script = PurposeScript({Purpose.OPTIM_WORKFLOW: lambda r: fenced(
        {"should_update": True, "updated_execution_plan": plan})})
    rt = make_runtime(script)
    state = chain_state(1)
    outcome = update_workflow_combined(rt, state, wf_grads(2), EM_INFO)
    assert outcome.applied
    after = outcome.state
    assert len(after.sketch) == 2
    assert after.executors["Solver"].prompt == "solve it well"
    assert after.executors["Solver"].version == 0
    assert after.executors["step_1"].prompt == "check it"
    assert after.executors["step_1"].version == 1  # existing executor rewritten
    assert validate_state(after) == []


def test_update_all_prompts_only_touches_live_executors():
    script = PurposeScript({Purpose.OPTIM_CALL: lambda r: fenced(
        {"updates": {"step_1": "better", "missing": "ignored", "step_2": "step-2 prompt"}})})
    rt = make_runtime(script)
    state = chain_state(2)
    new_state = update_all_prompts(rt, state, step_grads(1, 2), num_samples=2)
    assert new_state is not state
    assert new_state.executors["step_1"].prompt == "better"
    assert new_state.executors["step_1"].version == 1
    # unchanged text leaves version alone
    assert new_state.executors["step_2"].version == 0
    assert len(script.calls) == 1


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def bootstrap_script(plan):
    return PurposeScript({
        Purpose.BOOTSTRAP: lambda r: "zero-shot answer",
        Purpose.GRAD_WORKFLOW: lambda r: fenced(
            {"reasoning": "rr", "text_gradient": "add structure"}),
        Purpose.OPTIM_WORKFLOW: lambda r: plan_reply(plan),
        Purpose.INIT_EXECUTOR: lambda r: init_reply(f"Gen{len(r.messages)}"),
    })


def test_bootstrap_two_step_plan_yields_valid_two_step_state():
    plan = [new_step(1, "a"), new_step(2, "b")]
    script = bootstrap_script(plan)
    # distinct generated names per call
    names = iter(["StepOne", "StepTwo"])
    script.handlers[Purpose.INIT_EXECUTOR] = lambda r: init_reply(next(names))
    rt = make_runtime(script)
    batch = [Sample(id=f"s{i}", question=f"q{i}", answer="a") for i in range(3)]
    state = bootstrap_workflow(rt, batch, exact_match, EM_INFO)
    assert len(state.sketch) == 2
    assert validate_state(state) == []
    assert script.count(Purpose.BOOTSTRAP) == 3
    assert script.count(Purpose.GRAD_WORKFLOW) == 3
    assert script.count(Purpose.INIT_EXECUTOR) == 2
    # zero-shot calls carry no system instruction
    for call in script.calls:
        if call.purpose == Purpose.BOOTSTRAP:
            assert all(m.role == "user" for m in call.messages)


def test_bootstrap_single_sample_batch_still_works():
    script = bootstrap_script([new_step(1, "only")])
    rt = make_runtime(script)
    state = bootstrap_workflow(rt, [Sample(id="s", question="q", answer="a")],
                               exact_match, EM_INFO)
    assert validate_state(state) == []
    assert script.count(Purpose.BOOTSTRAP) == 1


def test_bootstrap_keeps_seed_when_no_update_needed():
    script = PurposeScript({
        Purpose.BOOTSTRAP: lambda r: "answer",
        Purpose.GRAD_WORKFLOW: lambda r: fenced({"reasoning": "", "text_gradient": "fine"}),
        Purpose.OPTIM_WORKFLOW: lambda r: plan_reply([], should_update=False),
    })
    rt = make_runtime(script)
    state = bootstrap_workflow(rt, [Sample(id="s", question="q", answer="a")],
                               exact_match, EM_INFO)
    assert state == seed_state()


def test_bootstrap_failure_propagates():
    script = PurposeScript({
        Purpose.BOOTSTRAP: lambda r: "answer",
        Purpose.GRAD_WORKFLOW: lambda r: fenced({"reasoning": "", "text_gradient": "g"}),
        Purpose.OPTIM_WORKFLOW: lambda r: "never json",
    })
    rt = make_runtime(script)
    with pytest.raises(BootstrapFailed):
        bootstrap_workflow(rt, [Sample(id="s", question="q", answer="a")],
                           exact_match, EM_INFO)


@pytest.mark.parametrize("reply, cause", [
    (drop_connection, "TransportError: connection dropped"),
    (lambda r: "never json", "JsonRetryExhausted: no valid JSON after 4 attempts"),
], ids=["transport", "json"])
def test_a_skipped_bootstrap_gradient_warning_names_its_cause(caplog, reply, cause):
    script = bootstrap_script([new_step(1, "only")])
    script.handlers[Purpose.GRAD_WORKFLOW] = reply
    rt = make_runtime(script)
    with caplog.at_level(logging.WARNING, logger="flowtune.optimizer"), \
            pytest.raises(BootstrapFailed):
        bootstrap_workflow(rt, [Sample(id="s", question="q", answer="a")],
                           exact_match, EM_INFO)
    assert [r.getMessage() for r in caplog.records if r.name == "flowtune.optimizer"] == [
        f"bootstrap gradient skipped: no gradient for sample 's' at workflow: {cause}"]


def test_update_prompt_rejects_foreign_gradients():
    rt = make_runtime(lambda r: "unused")
    state = chain_state(2)
    with pytest.raises(ValueError, match="does not belong"):
        update_prompt(rt, state, state.executors["step_1"], step_grads(2, 1), 1)


def test_dropped_step_executor_stays_registered_for_reuse():
    script = PurposeScript({Purpose.OPTIM_WORKFLOW: lambda r: plan_reply(
        [reuse_step(1, "step_2")])})
    rt = make_runtime(script)
    state = chain_state(2)
    outcome = update_workflow(rt, state, wf_grads(1), ["q"], EM_INFO)
    assert outcome.applied
    assert len(outcome.state.sketch) == 1
    # the executor whose step disappeared is garbage we deliberately keep
    assert "step_1" in outcome.state.executors


def test_rendered_plan_prompt_carries_output_format_reminder():
    from flowtune.optimizer import OUTPUT_FORMAT_REMINDER

    script = PurposeScript({Purpose.OPTIM_WORKFLOW: lambda r: plan_reply([], False)})
    rt = make_runtime(script)
    update_workflow(rt, chain_state(1), wf_grads(1), ["q"], EM_INFO)
    prompt = user_content(script.calls[0])
    assert OUTPUT_FORMAT_REMINDER in prompt
    assert "{output_format_instruction}" not in prompt


def test_plan_steps_accept_optional_control():
    plan = [
        new_step(1, "router"),
        new_step(2, "worker"),
    ]
    plan[0]["control"] = {"kind": "route", "targets": {"SKIP": 2}}
    names = iter(["Router", "Worker"])
    script = PurposeScript({
        Purpose.OPTIM_WORKFLOW: lambda r: plan_reply(plan),
        Purpose.INIT_EXECUTOR: lambda r: init_reply(next(names)),
    })
    rt = make_runtime(script)
    outcome = update_workflow(rt, chain_state(1), wf_grads(1), ["q"], EM_INFO)
    assert outcome.applied
    from flowtune.model import Route

    assert outcome.state.sketch[0].control == Route(targets={"SKIP": 2})
