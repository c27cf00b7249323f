import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtune.backend import TransportError
from flowtune.forward import parse_envelope, render_envelope, run_workflow
from flowtune.model import (
    InvalidStateError,
    Loop,
    Route,
    StepSpec,
    WorkflowState,
)

from .helpers import FakeSample, chain_state, make_runtime, system_content, validate_trace


def envelope_script(step_fn_by_prompt):
    """Build a scripted backend that applies a per-step text function.

    The function receives the previous step output (or the question at the
    first step) exactly as the composition oracle expects.
    """

    def script(request):
        question, previous = parse_envelope(request.messages[-1].content)
        value = previous if previous else question
        return step_fn_by_prompt[system_content(request)](value)

    return script


def test_k1_echo_returns_question():
    state = chain_state(1)
    rt = make_runtime(envelope_script({"step-1 prompt": lambda x: x}))
    trace = run_workflow(rt, state, FakeSample("s1", "the question"))
    assert len(trace.records) == 1
    assert trace.final_output == "the question"
    assert trace.error is None
    assert validate_trace(trace) == []


def test_k3_appending_steps_compose():
    state = chain_state(3)
    fns = {f"step-{k} prompt": (lambda k: lambda x: f"{x}|{k}")(k) for k in (1, 2, 3)}
    rt = make_runtime(envelope_script(fns))
    trace = run_workflow(rt, state, FakeSample("s1", "q"))
    assert trace.final_output == "q|1|2|3"
    assert [r.step_id for r in trace.records] == [1, 2, 3]
    assert validate_trace(trace) == []


def manual_fold(fns, question):
    value = question
    for fn in fns:
        value = fn(value)
    return value


def random_step_fn(rng: random.Random):
    salt = rng.randrange(1000)
    kind = rng.randrange(3)
    if kind == 0:
        return lambda x: f"{x}+{salt}"
    if kind == 1:
        return lambda x: f"{salt}:{x[::-1]}"
    return lambda x: f"[{x}]{salt}"


def test_composition_matches_manual_fold_over_many_random_backends():
    rng = random.Random(7)
    for trial in range(50):
        k = rng.randrange(1, 7)
        state = chain_state(k)
        fns = [random_step_fn(rng) for _ in range(k)]
        prompt_map = {f"step-{i + 1} prompt": fns[i] for i in range(k)}
        rt = make_runtime(envelope_script(prompt_map))
        question = f"question {trial}"
        trace = run_workflow(rt, state, FakeSample(f"s{trial}", question))
        assert trace.final_output == manual_fold(fns, question)
        assert len(trace.records) == k


def test_run_workflow_requires_valid_state():
    state = chain_state(1)
    bad = WorkflowState(sketch=(StepSpec(1, "s", "Ghost"),), executors=state.executors,
                        revision=0)
    rt = make_runtime(lambda request: "x")
    with pytest.raises(InvalidStateError):
        run_workflow(rt, bad, FakeSample("s", "q"))


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------

def test_envelope_first_step_has_empty_previous_section():
    text = render_envelope("q", "")
    assert "q" in text
    assert text.endswith("## Previous Step Output\n")
    assert parse_envelope(text) == ("q", "")


def test_envelope_contains_previous_output_verbatim():
    text = render_envelope("q", "x1")
    question, previous = parse_envelope(text)
    assert (question, previous) == ("q", "x1")


safe_text = st.text(alphabet=st.characters(whitelist_categories=("L", "N"),
                                           max_codepoint=0x2FF), max_size=40)


@settings(max_examples=100)
@given(question=safe_text, previous=safe_text)
def test_envelope_round_trips_arbitrary_pairs(question, previous):
    text = render_envelope(question, previous)
    assert previous in text
    assert parse_envelope(text) == (question, previous)


# ---------------------------------------------------------------------------
# Loop control
# ---------------------------------------------------------------------------

def loop_state(max_iterations: int) -> WorkflowState:
    base = chain_state(3)
    sketch = (
        base.sketch[0],
        StepSpec(2, "verify in a loop", "step_2", control=Loop(max_iterations=max_iterations)),
        base.sketch[2],
    )
    return WorkflowState(sketch=sketch, executors=base.executors, revision=0)


def test_loop_stops_on_sentinel():
    counter = {"n": 0}

    def loop_fn(x):
        counter["n"] += 1
        return f"{x}|loop{counter['n']}" + ("\nVERDICT: DONE" if counter["n"] == 2 else "")

    fns = {"step-1 prompt": lambda x: x + "|1",
           "step-2 prompt": loop_fn,
           "step-3 prompt": lambda x: x + "|3"}
    rt = make_runtime(envelope_script(fns))
    trace = run_workflow(rt, loop_state(5), FakeSample("s", "q"))
    step_ids = [r.step_id for r in trace.records]
    assert step_ids == [1, 2, 2, 3]
    assert "loop2" in trace.records[2].output_text
    assert validate_trace(trace) == []


def test_loop_respects_iteration_cap():
    fns = {"step-1 prompt": lambda x: x,
           "step-2 prompt": lambda x: x + "|again",
           "step-3 prompt": lambda x: x + "|3"}
    rt = make_runtime(envelope_script(fns))
    m = 4
    trace = run_workflow(rt, loop_state(m), FakeSample("s", "q"))
    step_ids = [r.step_id for r in trace.records]
    assert step_ids == [1] + [2] * m + [3]
    assert len(trace.records) == 3 + m - 1  # trace length bound: K + m - 1


# ---------------------------------------------------------------------------
# Route control
# ---------------------------------------------------------------------------

def route_state() -> WorkflowState:
    base = chain_state(4)
    sketch = (
        StepSpec(1, "classify", "step_1", control=Route(targets={"MATH": 3, "QA": 2})),
        base.sketch[1],
        base.sketch[2],
        base.sketch[3],
    )
    return WorkflowState(sketch=sketch, executors=base.executors, revision=0)


def routed_runtime(route_line: str):
    fns = {
        "step-1 prompt": lambda x: route_line,
        "step-2 prompt": lambda x: x + "|2",
        "step-3 prompt": lambda x: x + "|3",
        "step-4 prompt": lambda x: x + "|4",
    }
    return make_runtime(envelope_script(fns))


def test_route_jumps_to_labelled_step():
    rt = routed_runtime("ROUTE: MATH\nrouting rationale")
    trace = run_workflow(rt, route_state(), FakeSample("s", "q"))
    assert [r.step_id for r in trace.records] == [1, 3, 4]
    assert validate_trace(trace) == []


def test_unknown_label_falls_through_with_flag():
    rt = routed_runtime("ROUTE: NOPE")
    trace = run_workflow(rt, route_state(), FakeSample("s", "q"))
    assert [r.step_id for r in trace.records] == [1, 2, 3, 4]
    assert any(f.startswith("unknown_route_label") for f in trace.records[0].flags)


def test_unparseable_route_falls_through_with_flag():
    rt = routed_runtime("no route line here")
    trace = run_workflow(rt, route_state(), FakeSample("s", "q"))
    assert [r.step_id for r in trace.records] == [1, 2, 3, 4]
    assert "route_unparseable" in trace.records[0].flags


# ---------------------------------------------------------------------------
# Partial failure
# ---------------------------------------------------------------------------

def test_backend_failure_yields_partial_trace_with_marker():
    def script(request):
        if system_content(request) == "step-2 prompt":
            raise TransportError("boom")
        question, previous = parse_envelope(request.messages[-1].content)
        return (previous or question) + "|ok"

    rt = make_runtime(script)
    trace = run_workflow(rt, chain_state(3), FakeSample("s", "q"))
    assert trace.error == "backend failure at step 2"
    assert [r.step_id for r in trace.records] == [1, 2]
    assert "backend_error" in trace.records[-1].flags
    assert trace.final_output == ""
    assert validate_trace(trace) == []
