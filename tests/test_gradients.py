import pytest

from flowtune.backend import Purpose
from flowtune.evaluation import Sample, exact_match, metric_info
from flowtune.forward import run_workflow
from flowtune.gradients import (
    ALL_AT_ONCE,
    GRADIENT_TEXT_CAP,
    GradientUnavailable,
    aggregate_gradients,
    backward,
    grad_backprop,
    grad_combined,
    grad_loss,
    grad_workflow,
    render_workflow_sketch,
)
from flowtune.model import TextualGradient

from .helpers import (
    PurposeScript,
    chain_state,
    drop_connection,
    fenced,
    make_runtime,
    system_content,
    user_content,
)

EM_INFO = metric_info("exact_match")


def forward_script(request):
    from flowtune.forward import parse_envelope

    question, previous = parse_envelope(user_content(request))
    step = system_content(request).split(" ")[0]  # "step-k"
    return f"{previous or question}|{step}"


def traced(k: int, question: str = "q", answer: str = "truth"):
    state = chain_state(k)
    sample = Sample(id="s1", question=question, answer=answer)
    rt = make_runtime(forward_script)
    trace = run_workflow(rt, state, sample)
    return state, sample, trace


def test_grad_loss_returns_scripted_text_scoped_to_last_step():
    state, sample, trace = traced(3)
    script = PurposeScript({Purpose.GRAD_LOSS: lambda r: fenced({"text_gradient": "g"})})
    rt = make_runtime(script)
    result = exact_match(trace.final_output, sample.answer)
    gradient = grad_loss(rt, state, trace, sample, result, EM_INFO)
    assert gradient.text == "g"
    assert gradient.step_id == 3
    assert gradient.sample_id == "s1"


def test_grad_loss_prompt_contains_required_sections():
    state, sample, trace = traced(2)
    script = PurposeScript({Purpose.GRAD_LOSS: lambda r: fenced({"text_gradient": "g"})})
    rt = make_runtime(script)
    result = exact_match(trace.final_output, sample.answer)
    grad_loss(rt, state, trace, sample, result, EM_INFO)
    prompt = user_content(script.calls[0])
    assert "## Evaluation Result" in prompt
    assert result.feedback in prompt
    assert "**Step 2**: step 2" in prompt
    assert trace.records[-1].output_text in prompt
    assert "## Workflow Sketch" in prompt
    assert render_workflow_sketch(state) in prompt
    assert system_content(script.calls[0]).startswith(
        "You are computing a textual gradient for the FINAL step")


def test_grad_backprop_prompt_embeds_next_gradient_verbatim():
    state, sample, trace = traced(3)
    script = PurposeScript({Purpose.GRAD_CALL: lambda r: fenced({"text_gradient": "g2"})})
    rt = make_runtime(script)
    g3 = TextualGradient.for_step(3, "downstream guidance text", "s1")
    gradient = grad_backprop(rt, state, trace, sample, 2, g3)
    assert gradient.step_id == 2
    prompt = user_content(script.calls[0])
    assert "## Gradient from Next Step (g_3)" in prompt
    assert "downstream guidance text" in prompt
    assert "## This Step (Step 2)" in prompt
    assert "x_1" in prompt  # the previous-step marker in the input header


def test_backward_order_and_counts_layerwise():
    state, sample, trace = traced(4)
    seen_steps = []

    def grad_loss_reply(request):
        seen_steps.append(("loss", user_content(request)))
        return fenced({"text_gradient": "gK"})

    def grad_call_reply(request):
        text = user_content(request)
        step_line = [l for l in text.splitlines() if l.startswith("## This Step")][0]
        seen_steps.append(("call", step_line))
        return fenced({"text_gradient": f"g @ {step_line}"})

    script = PurposeScript({Purpose.GRAD_LOSS: grad_loss_reply,
                            Purpose.GRAD_CALL: grad_call_reply})
    rt = make_runtime(script)
    result = exact_match(trace.final_output, sample.answer)
    gradients = backward(rt, state, trace, sample, result, EM_INFO)
    assert sorted(gradients) == [1, 2, 3, 4]
    assert [r.purpose for r in script.calls] == [
        Purpose.GRAD_LOSS, Purpose.GRAD_CALL, Purpose.GRAD_CALL, Purpose.GRAD_CALL]
    assert [kind for kind, _ in seen_steps] == ["loss", "call", "call", "call"]
    assert [line for kind, line in seen_steps[1:]] == [
        "## This Step (Step 3)", "## This Step (Step 2)", "## This Step (Step 1)"]


def test_layerwise_backward_renders_the_sketch_once(monkeypatch):
    import flowtune.gradients as gradients_module

    state, sample, trace = traced(5)
    renders = []
    monkeypatch.setattr(gradients_module, "render_workflow_sketch",
                        lambda s: renders.append(s) or render_workflow_sketch(s))
    script = PurposeScript({Purpose.GRAD_LOSS: lambda r: fenced({"text_gradient": "g"}),
                            Purpose.GRAD_CALL: lambda r: fenced({"text_gradient": "g"})})
    rt = make_runtime(script)
    backward(rt, state, trace, sample, exact_match(trace.final_output, sample.answer), EM_INFO)
    assert renders == [state]
    assert len(script.calls) == 5
    assert all(render_workflow_sketch(state) in user_content(r) for r in script.calls)


def test_backward_k1_only_calls_grad_loss():
    state, sample, trace = traced(1)
    script = PurposeScript({Purpose.GRAD_LOSS: lambda r: fenced({"text_gradient": "g"})})
    rt = make_runtime(script)
    gradients = backward(rt, state, trace, sample,
                         exact_match(trace.final_output, sample.answer), EM_INFO)
    assert list(gradients) == [1]
    assert script.count(Purpose.GRAD_LOSS) == 1
    assert script.count(Purpose.GRAD_CALL) == 0


def test_backward_all_at_once_single_call():
    state, sample, trace = traced(4)
    reply = fenced({"gradients": {"1": "g1", "2": "g2", "3": "g3", "4": "g4"}})
    script = PurposeScript({Purpose.GRAD_LOSS: lambda r: reply})
    rt = make_runtime(script)
    gradients = backward(rt, state, trace, sample,
                         exact_match(trace.final_output, sample.answer), EM_INFO,
                         mode=ALL_AT_ONCE)
    assert len(gradients) == 4
    assert gradients[2].text == "g2"
    assert len(script.calls) == 1
    assert script.count(Purpose.GRAD_CALL) == 0


def test_backward_all_at_once_fills_missing_steps():
    state, sample, trace = traced(3)
    script = PurposeScript({Purpose.GRAD_LOSS: lambda r: fenced({"gradients": {"1": "g1"}})})
    rt = make_runtime(script)
    gradients = backward(rt, state, trace, sample,
                         exact_match(trace.final_output, sample.answer), EM_INFO,
                         mode=ALL_AT_ONCE)
    assert len(gradients) == 3
    assert "no gradient provided" in gradients[2].text


def test_backward_synthesizes_for_steps_after_failure():
    from flowtune.backend import TransportError
    from flowtune.forward import parse_envelope

    def failing_forward(request):
        if request.purpose == Purpose.FORWARD:
            if system_content(request).startswith("step-2"):
                raise TransportError("down")
            question, previous = parse_envelope(user_content(request))
            return (previous or question) + "|x"
        raise AssertionError("unexpected")

    state = chain_state(4)
    sample = Sample(id="s", question="q", answer="a")
    rt = make_runtime(failing_forward)
    trace = run_workflow(rt, state, sample)
    assert trace.error is not None

    script = PurposeScript({
        Purpose.GRAD_LOSS: lambda r: fenced({"text_gradient": "g-fail"}),
        Purpose.GRAD_CALL: lambda r: fenced({"text_gradient": "g-up"}),
    })
    grad_rt = make_runtime(script)
    gradients = backward(grad_rt, state, trace, sample,
                         exact_match(trace.final_output, sample.answer), EM_INFO)
    assert len(gradients) == 4
    assert "not executed" in gradients[4].text and "not executed" in gradients[3].text
    # loss gradient lands on the failed step, chain rule continues upstream
    assert gradients[2].text == "g-fail"
    assert gradients[1].text == "g-up"
    assert script.count(Purpose.GRAD_LOSS) == 1
    assert script.count(Purpose.GRAD_CALL) == 1


def test_gradient_unavailable_after_json_retries():
    state, sample, trace = traced(2)
    script = PurposeScript(default=lambda r: "never json")
    rt = make_runtime(script)
    with pytest.raises(GradientUnavailable):
        backward(rt, state, trace, sample,
                 exact_match(trace.final_output, sample.answer), EM_INFO)


@pytest.mark.parametrize("gradient", [
    lambda rt, state, trace, sample, result: backward(rt, state, trace, sample, result, EM_INFO),
    lambda rt, state, trace, sample, result: backward(rt, state, trace, sample, result, EM_INFO,
                                                      mode=ALL_AT_ONCE),
    lambda rt, state, trace, sample, result: grad_workflow(rt, state, trace, sample, result,
                                                           EM_INFO),
    lambda rt, state, trace, sample, result: grad_combined(rt, state, trace, sample, result,
                                                           EM_INFO),
], ids=["layerwise", "all_at_once", "workflow", "combined"])
def test_transport_failure_leaves_the_gradient_unavailable(gradient):
    state, sample, trace = traced(2)
    rt = make_runtime(PurposeScript(default=drop_connection))
    with pytest.raises(GradientUnavailable):
        gradient(rt, state, trace, sample, exact_match(trace.final_output, sample.answer))


def test_grad_workflow_carries_reasoning_and_sections():
    state, sample, trace = traced(2)
    script = PurposeScript({Purpose.GRAD_WORKFLOW: lambda r: fenced(
        {"reasoning": "why", "text_gradient": "restructure"})})
    rt = make_runtime(script)
    gradient = grad_workflow(rt, state, trace, sample,
                             exact_match(trace.final_output, sample.answer), EM_INFO)
    assert gradient.is_workflow_scoped
    assert gradient.text == "restructure"
    assert gradient == TextualGradient.for_workflow("restructure", sample.id)
    prompt = user_content(script.calls[0])
    assert "## Current Workflow Structure" in prompt
    assert "## Execution Trace" in prompt
    assert "## Available Tools" in prompt


def test_gradient_text_capped():
    state, sample, trace = traced(1)
    long_text = "x" * (GRADIENT_TEXT_CAP * 2)
    script = PurposeScript({Purpose.GRAD_LOSS: lambda r: fenced({"text_gradient": long_text})})
    rt = make_runtime(script)
    gradient = grad_loss(rt, state, trace, sample,
                         exact_match(trace.final_output, sample.answer), EM_INFO)
    assert len(gradient.text) == GRADIENT_TEXT_CAP
    assert gradient.text.endswith("truncated]")


def test_aggregate_contains_each_gradient_verbatim():
    gradients = [TextualGradient.for_step(2, f"gradient body {i}", f"s{i}") for i in range(5)]
    block = aggregate_gradients(gradients)
    for g in gradients:
        assert g.text in block
    assert "### Sample 1 (id: s0, step 2)" in block
