import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtune.model import (
    LLM_EXECUTOR,
    TOOL_EXECUTOR,
    ExecutionTrace,
    ExecutorSpec,
    Loop,
    Route,
    Sequential,
    StepRecord,
    StepSpec,
    TokenUsage,
    WorkflowState,
    control_from_json,
    control_to_json,
    deserialize_state,
    serialize_state,
    validate_state,
    with_updated_prompt,
)

from .helpers import chain_state, llm_executor, tool_executor, validate_trace


def codes(violations):
    return [v.code for v in violations]


def test_minimal_valid_state():
    assert validate_state(chain_state(1)) == []


def test_unresolved_executor_reported_by_name():
    state = chain_state(1)
    bad = WorkflowState(
        sketch=(StepSpec(step_id=1, description="x", executor_name="Ghost"),),
        executors=state.executors,
        revision=0,
    )
    violations = validate_state(bad)
    assert codes(violations) == ["UnresolvedExecutor"]
    assert "Ghost" in violations[0].detail


def six_step_tool_state() -> WorkflowState:
    """Six steps where 1 and 3 carry tools, matching the golden before/after shape."""
    searcher = tool_executor("WikipediaSearch", ("wikipedia_search_topk",))
    targeted = tool_executor("TargetedRetrieval", ("wikipedia_search_topk",))
    executors = {e.name: e for e in (
        searcher,
        llm_executor("EntityDisambiguation"),
        targeted,
        llm_executor("AnswerExtraction"),
        llm_executor("Verification"),
        llm_executor("FinalAnswer"),
    )}
    sketch = (
        StepSpec(1, "Wikipedia search", "WikipediaSearch", ("wikipedia_search_topk",)),
        StepSpec(2, "Entity disambiguation", "EntityDisambiguation"),
        StepSpec(3, "Targeted attribute retrieval", "TargetedRetrieval", ("wikipedia_search_topk",)),
        StepSpec(4, "Answer extraction", "AnswerExtraction"),
        StepSpec(5, "Verification", "Verification"),
        StepSpec(6, "Final answer", "FinalAnswer"),
    )
    return WorkflowState(sketch=sketch, executors=executors, revision=1)


def test_six_step_state_with_two_tool_steps_is_valid():
    assert validate_state(six_step_tool_state()) == []


def test_tool_mismatch_both_directions():
    state = chain_state(1)
    # LLM executor on a step that claims tools
    bad_step = WorkflowState(
        sketch=(StepSpec(1, "s", "step_1", tool_names=("search",)),),
        executors=state.executors,
        revision=0,
    )
    assert "StepToolMismatch" in codes(validate_state(bad_step))
    # Tool executor with no tool names on its step
    te = tool_executor("T", ("search",))
    bad_other = WorkflowState(
        sketch=(StepSpec(1, "s", "T"),),
        executors={"T": te},
        revision=0,
    )
    assert "StepToolMismatch" in codes(validate_state(bad_other))


def test_executor_invariants():
    bad_name = ExecutorSpec(name="has space", kind=LLM_EXECUTOR, description="d", prompt="p")
    empty_prompt = ExecutorSpec(name="E", kind=LLM_EXECUTOR, description="d", prompt="")
    kind_mismatch = ExecutorSpec(name="K", kind=TOOL_EXECUTOR, description="d", prompt="p")
    state = WorkflowState(
        sketch=(StepSpec(1, "s", "E"),),
        executors={"has space": bad_name, "E": empty_prompt, "K": kind_mismatch},
        revision=0,
    )
    found = codes(validate_state(state))
    assert "BadExecutorName" in found
    assert "EmptyPrompt" in found
    assert "ExecutorToolsMismatch" in found


def test_contiguity_and_cap():
    state = chain_state(2)
    gappy = WorkflowState(
        sketch=(state.sketch[0], StepSpec(3, "s", "step_2")),
        executors=state.executors,
        revision=0,
    )
    assert "NonContiguousStepIds" in codes(validate_state(gappy))
    assert "TooManySteps" in codes(validate_state(chain_state(13)))
    assert validate_state(chain_state(12)) == []


def test_route_and_loop_validation():
    state = chain_state(3)
    routed = WorkflowState(
        sketch=(
            StepSpec(1, "route", "step_1", control=Route(targets={"a": 3, "missing": 9})),
            state.sketch[1],
            state.sketch[2],
        ),
        executors=state.executors,
        revision=0,
    )
    assert "RouteTargetMissing" in codes(validate_state(routed))
    backward = WorkflowState(
        sketch=(
            state.sketch[0],
            StepSpec(2, "route", "step_2", control=Route(targets={"back": 1})),
            state.sketch[2],
        ),
        executors=state.executors,
        revision=0,
    )
    assert "BackwardRouteTarget" in codes(validate_state(backward))
    looped = WorkflowState(
        sketch=(StepSpec(1, "loop", "step_1", control=Loop(max_iterations=99)),),
        executors=state.executors,
        revision=0,
    )
    assert "LoopIterationsOutOfRange" in codes(validate_state(looped))


def test_unregistered_tool_only_checked_when_registry_given():
    state = six_step_tool_state()
    assert validate_state(state) == []
    violations = validate_state(state, registered_tools=frozenset({"other"}))
    assert "UnregisteredTool" in codes(violations)
    assert validate_state(state, registered_tools=frozenset({"wikipedia_search_topk"})) == []


# ---------------------------------------------------------------------------
# Generated states
# ---------------------------------------------------------------------------

@st.composite
def valid_states(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    names = [f"exe_{i}" for i in range(1, k + 1)]
    executors = {n: llm_executor(n) for n in names}
    sketch = tuple(
        StepSpec(step_id=i, description=f"d{i}",
                 executor_name=draw(st.sampled_from(names)))
        for i in range(1, k + 1)
    )
    return WorkflowState(sketch=sketch, executors=executors, revision=draw(st.integers(0, 5)))


@settings(max_examples=60)
@given(state=valid_states())
def test_valid_states_have_contiguous_ids(state):
    assert validate_state(state) == []
    assert [s.step_id for s in state.sketch] == list(range(1, len(state.sketch) + 1))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_serialize_round_trip_byte_equal():
    state = six_step_tool_state()
    text = serialize_state(state)
    again = deserialize_state(text)
    assert again == state
    assert serialize_state(again) == text


def test_serialized_step_carries_plan_fields_and_control():
    import json

    state = WorkflowState(
        sketch=(StepSpec(1, "loop it", "step_1", control=Loop(max_iterations=3)),),
        executors=chain_state(1).executors,
        revision=2,
    )
    obj = json.loads(serialize_state(state))
    step = obj["sketch"][0]
    for key in ("step_id", "description", "tools", "executor_type", "executor_name",
                "generation_guideline", "control"):
        assert key in step
    assert step["control"] == {"kind": "loop", "max_iterations": 3}
    assert obj["schema_version"] == 1


def test_control_json_round_trip():
    for control in (Sequential(), Route(targets={"b": 2, "a": 3}), Loop(max_iterations=2)):
        assert control_from_json(control_to_json(control)) == control


@pytest.mark.parametrize("obj", [
    {"kind": "route", "targets": ["skip"]},
    {"kind": "route", "targets": {"skip": [3]}},
    {"kind": "loop", "max_iterations": None},
    # A number that is not a JSON integer is rejected, not rounded.
    {"kind": "route", "targets": {"skip": 3.5}},
    {"kind": "route", "targets": {"skip": "3"}},
    {"kind": "loop", "max_iterations": 2.7},
    {"kind": "loop", "max_iterations": True},
])
def test_control_of_the_wrong_shape_is_a_value_error(obj):
    # Plans and checkpoints both read controls; each catches ValueError.
    with pytest.raises(ValueError, match="control"):
        control_from_json(obj)


def test_updated_prompt_bumps_version_and_revision():
    state = chain_state(2)
    updated = with_updated_prompt(state, "step_1", "new prompt")
    assert updated.executors["step_1"].prompt == "new prompt"
    assert updated.executors["step_1"].version == state.executors["step_1"].version + 1
    assert updated.revision == state.revision + 1
    assert state.executors["step_1"].prompt == "step-1 prompt"  # original untouched


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def test_trace_validation():
    ok = ExecutionTrace(
        sample_id="s",
        records=(
            StepRecord(1, "q", "x1"),
            StepRecord(2, "envelope with x1 inside", "x2"),
        ),
        final_output="x2",
    )
    assert validate_trace(ok) == []
    broken_chain = ExecutionTrace(
        sample_id="s",
        records=(StepRecord(1, "q", "x1"), StepRecord(2, "nothing", "x2")),
        final_output="x2",
    )
    assert [v.code for v in validate_trace(broken_chain)] == ["BrokenChain"]
    bad_final = ExecutionTrace(
        sample_id="s", records=(StepRecord(1, "q", "x1"),), final_output="other")
    assert [v.code for v in validate_trace(bad_final)] == ["FinalOutputMismatch"]


def test_token_usage_adds_field_by_field():
    total = TokenUsage(1, 2) + TokenUsage(10, 20) + TokenUsage()
    assert type(total) is TokenUsage
    assert total == TokenUsage(input_tokens=11, output_tokens=22) == (11, 22)
    assert len(total) == 2  # not the four fields of two concatenated tuples
