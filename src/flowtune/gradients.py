"""Textual gradients: loss-level, chain-rule backpropagation, workflow-level.

The backward pass walks the trace from the last executed step toward step 1,
each meta call consuming the gradient produced just after it. Steps a route
skipped, or steps downstream of a failure, get synthesized gradients with no
meta call, so a batch never prompts on outputs that do not exist.
"""

from __future__ import annotations

import logging

from .backend import JsonRetryExhausted, Purpose, TransportError
from .evaluation import EvalResult, Sample
from .model import (
    ExecutionTrace,
    Loop,
    Route,
    TextualGradient,
    WorkflowState,
)
from .runtime import Runtime

logger = logging.getLogger(__name__)

GRADIENT_TEXT_CAP = 4000
TRACE_EXCERPT_CAP = 1500
TRUNCATION_MARKER = "\n[... truncated]"

LAYERWISE = "layerwise"
ALL_AT_ONCE = "all_at_once"


class GradientUnavailable(RuntimeError):
    """No usable gradient reply came for this sample: the backend could not
    be reached, or the reply never parsed into the expected JSON."""

    def __init__(self, sample_id: str, step: str):
        self.sample_id = sample_id
        super().__init__(f"no gradient for sample {sample_id!r} at {step}")


def clip(text: str, cap: int, marker: str = TRUNCATION_MARKER) -> str:
    if len(text) <= cap:
        return text
    return text[: cap - len(marker)] + marker


def clip_gradient(text: str) -> str:
    return clip(text, GRADIENT_TEXT_CAP)


# ---------------------------------------------------------------------------
# Prompt-side renderings
# ---------------------------------------------------------------------------

def _control_note(step) -> str:
    if isinstance(step.control, Loop):
        return f" [loop, up to {step.control.max_iterations} iterations]"
    if isinstance(step.control, Route):
        targets = ", ".join(f"{k} -> step {v}" for k, v in sorted(step.control.targets.items()))
        return f" [routes: {targets}]"
    return ""


def render_workflow_sketch(state: WorkflowState) -> str:
    """One line per step, tool steps marked (T)."""
    lines = []
    for step in state.sketch:
        mark = " (T)" if step.tool_names else ""
        lines.append(f"Step {step.step_id}: {step.description}{mark}{_control_note(step)}")
    return "\n".join(lines)


def render_workflow_structure(state: WorkflowState) -> str:
    """Per-step block with executor binding, for the structure-level prompts."""
    blocks = []
    for step in state.sketch:
        exe = state.executors.get(step.executor_name)
        kind = exe.kind if exe else "?"
        tools = ", ".join(step.tool_names) if step.tool_names else "none"
        blocks.append(
            f"Step {step.step_id}: {step.description}\n"
            f"  Executor: {step.executor_name} ({kind})\n"
            f"  Tools: {tools}{_control_note(step)}"
        )
    return "\n".join(blocks)


def render_current_agents(state: WorkflowState) -> str:
    """Registry listing for reuse decisions. Prompts are deliberately omitted:
    the structure level only sees high-level descriptions."""
    lines = []
    for name in sorted(state.executors):
        exe = state.executors[name]
        tools = ", ".join(exe.tool_names) if exe.tool_names else "none"
        lines.append(f"- {name} ({exe.kind}; tools: {tools}): {exe.description}")
    return "\n".join(lines) if lines else "(none)"


def render_agents_with_prompts(state: WorkflowState) -> str:
    blocks = []
    for name in sorted(state.executors):
        exe = state.executors[name]
        blocks.append(f"### {name} ({exe.kind})\nDescription: {exe.description}\n"
                      f"Prompt:\n```\n{exe.prompt}\n```")
    return "\n\n".join(blocks) if blocks else "(none)"


def render_execution_trace(trace: ExecutionTrace, state: WorkflowState) -> str:
    blocks = []
    for record in trace.records:
        description = ""
        for step in state.sketch:
            if step.step_id == record.step_id:
                description = step.description
                break
        tool_note = f"\nTool calls: {len(record.tool_invocations)}" if record.tool_invocations else ""
        flag_note = f"\nFlags: {', '.join(record.flags)}" if record.flags else ""
        blocks.append(
            f"### Step {record.step_id}: {description}\n"
            f"Input:\n{clip(record.input_text, TRACE_EXCERPT_CAP)}\n"
            f"Output:\n{clip(record.output_text, TRACE_EXCERPT_CAP)}"
            f"{tool_note}{flag_note}"
        )
    if trace.error:
        blocks.append(f"(trace incomplete: {trace.error})")
    return "\n\n".join(blocks)


def aggregate_gradients(gradients: list[TextualGradient]) -> str:
    """Stack every gradient verbatim, one labelled section per entry."""
    blocks = []
    for i, g in enumerate(gradients, 1):
        scope = "workflow" if g.is_workflow_scoped else f"step {g.step_id}"
        blocks.append(f"### Sample {i} (id: {g.sample_id}, {scope})\n{g.text}")
    return "\n\n".join(blocks)


def _executor_tools(state: WorkflowState, step) -> str:
    exe = state.executors.get(step.executor_name)
    if exe and exe.tool_names:
        return ", ".join(exe.tool_names)
    return ", ".join(step.tool_names) if step.tool_names else "none"


# ---------------------------------------------------------------------------
# Gradient operations
# ---------------------------------------------------------------------------

def _text_gradient(reply) -> str:
    return str(reply["text_gradient"])


def _step_gradients(reply) -> dict:
    raw = reply["gradients"]
    if not isinstance(raw, dict):
        raise TypeError("gradients must be an object")
    return raw


def _ask(rt: Runtime, template: str, values: dict[str, object], purpose: Purpose,
         sample: Sample, where: str, read=_text_gradient):
    """`read` of the meta model's reply to `template`. When no usable reply
    comes (an unreachable backend, JSON retries exhausted, a missing or
    mistyped key), the gradient is unavailable."""
    try:
        return read(rt.meta_json(template, values, purpose))
    except (TransportError, JsonRetryExhausted, KeyError, TypeError) as e:
        raise GradientUnavailable(sample.id, f"{where}: {type(e).__name__}: {e}") from e


def grad_loss(rt: Runtime, state: WorkflowState, trace: ExecutionTrace, sample: Sample,
              eval_result: EvalResult, metrics_info: str,
              step_id: int | None = None, *, sketch: str | None = None) -> TextualGradient:
    """Gradient for the final executed step, straight from the loss. `sketch`
    is `render_workflow_sketch(state)`, when the caller has it already."""
    target = step_id if step_id is not None else trace.records[-1].step_id
    record = trace.last_record_for(target)
    if record is None:
        raise GradientUnavailable(sample.id, f"step {target} (not executed)")
    step = state.step(target)
    text = _ask(rt, "grad_loss", {
        "workflow_sketch": render_workflow_sketch(state) if sketch is None else sketch,
        "question": sample.question,
        "ground_truth": sample.answer,
        "metrics_info": metrics_info,
        "step_id": step.step_id,
        "step_description": step.description,
        "executor_name": step.executor_name,
        "executor_tools": _executor_tools(state, step),
        "step_input": clip(record.input_text, TRACE_EXCERPT_CAP),
        "step_output": clip(record.output_text, TRACE_EXCERPT_CAP),
        "evaluation_result": eval_result.feedback,
    }, Purpose.GRAD_LOSS, sample, f"step {target}")
    return TextualGradient.for_step(target, clip_gradient(text), sample.id)


def grad_backprop(rt: Runtime, state: WorkflowState, trace: ExecutionTrace, sample: Sample,
                  step_id: int, next_gradient: TextualGradient, *,
                  sketch: str | None = None) -> TextualGradient:
    """Chain-rule gradient: how should this step's output change for the next.
    `sketch` is as in `grad_loss`."""
    record = trace.last_record_for(step_id)
    if record is None:
        raise GradientUnavailable(sample.id, f"step {step_id} (not executed)")
    next_id = next_gradient.step_id
    next_record = trace.last_record_for(next_id)
    step = state.step(step_id)
    next_step = state.step(next_id)
    text = _ask(rt, "grad_backprop", {
        "workflow_sketch": render_workflow_sketch(state) if sketch is None else sketch,
        "question": sample.question,
        "step_id": step.step_id,
        "step_description": step.description,
        "executor_name": step.executor_name,
        "executor_tools": _executor_tools(state, step),
        "prev_step": step.step_id - 1,
        "step_input": clip(record.input_text, TRACE_EXCERPT_CAP),
        "step_output": clip(record.output_text, TRACE_EXCERPT_CAP),
        "next_step_id": next_step.step_id,
        "next_step_description": next_step.description,
        "next_step_output": clip(next_record.output_text if next_record else "",
                                 TRACE_EXCERPT_CAP),
        "next_gradient": next_gradient.text,
    }, Purpose.GRAD_CALL, sample, f"step {step_id}")
    return TextualGradient.for_step(step_id, clip_gradient(text), sample.id)


def backward(rt: Runtime, state: WorkflowState, trace: ExecutionTrace, sample: Sample,
             eval_result: EvalResult, metrics_info: str,
             mode: str = LAYERWISE) -> dict[int, TextualGradient]:
    """Gradients for steps 1..K, one per step.

    Layerwise mode makes one loss call at the last executed step, then one
    chain-rule call per earlier executed step in descending order. All-at-once
    mode makes a single meta call that must return every step's gradient.
    """
    if not trace.records:
        raise GradientUnavailable(sample.id, "empty trace")
    if mode == ALL_AT_ONCE:
        return _backward_all_at_once(rt, state, trace, sample, eval_result, metrics_info)

    k_total = len(state.sketch)
    executed = set(trace.executed_step_ids())
    last_executed = max(executed)
    gradients: dict[int, TextualGradient] = {}

    for step_id in range(k_total, last_executed, -1):
        reason = "upstream failure" if trace.error else "skipped by routing"
        gradients[step_id] = TextualGradient.for_step(
            step_id, f"Step {step_id} was not executed ({reason} at step {last_executed}).",
            sample.id)

    sketch = render_workflow_sketch(state)
    gradients[last_executed] = grad_loss(rt, state, trace, sample, eval_result,
                                         metrics_info, step_id=last_executed, sketch=sketch)
    downstream = gradients[last_executed]
    for step_id in range(last_executed - 1, 0, -1):
        if step_id in executed:
            g = grad_backprop(rt, state, trace, sample, step_id, downstream, sketch=sketch)
            gradients[step_id] = g
            downstream = g
        else:
            gradients[step_id] = TextualGradient.for_step(
                step_id, f"Step {step_id} was not executed (skipped by routing).", sample.id)
    return gradients


def _backward_all_at_once(rt: Runtime, state: WorkflowState, trace: ExecutionTrace,
                          sample: Sample, eval_result: EvalResult,
                          metrics_info: str) -> dict[int, TextualGradient]:
    k_total = len(state.sketch)
    raw = _ask(rt, "grad_all_steps", {
        "question": sample.question,
        "ground_truth": sample.answer,
        "evaluation_result": eval_result.feedback,
        "metrics_info": metrics_info,
        "workflow_sketch": render_workflow_sketch(state),
        "execution_trace": render_execution_trace(trace, state),
        "num_steps": k_total,
    }, Purpose.GRAD_LOSS, sample, "all steps", read=_step_gradients)
    gradients: dict[int, TextualGradient] = {}
    for step_id in range(1, k_total + 1):
        text = raw.get(str(step_id))
        if text is None:
            text = f"(no gradient provided for step {step_id})"
        gradients[step_id] = TextualGradient.for_step(step_id, clip_gradient(str(text)),
                                                      sample.id)
    return gradients


def _structure_values(rt: Runtime, state: WorkflowState, trace: ExecutionTrace,
                      sample: Sample, eval_result: EvalResult, metrics_info: str) -> dict:
    """The values of the structure-level gradient templates."""
    return {
        "question": sample.question,
        "ground_truth": sample.answer,
        "evaluation_result": eval_result.feedback,
        "metrics_info": metrics_info,
        "available_tools": rt.tools.describe(),
        "workflow_structure": render_workflow_structure(state),
        "execution_trace": render_execution_trace(trace, state),
    }


def grad_workflow(rt: Runtime, state: WorkflowState, trace: ExecutionTrace, sample: Sample,
                  eval_result: EvalResult, metrics_info: str) -> TextualGradient:
    """Structure-level gradient; partial traces are allowed."""
    text = _ask(rt, "grad_workflow",
                _structure_values(rt, state, trace, sample, eval_result, metrics_info),
                Purpose.GRAD_WORKFLOW, sample, "workflow")
    return TextualGradient.for_workflow(clip_gradient(text), sample.id)


def grad_combined(rt: Runtime, state: WorkflowState, trace: ExecutionTrace, sample: Sample,
                  eval_result: EvalResult, metrics_info: str) -> TextualGradient:
    """Single-layer gradient over the whole workflow (structure and behavior),
    for runs that drop the bilevel split."""
    text = _ask(rt, "grad_combined",
                _structure_values(rt, state, trace, sample, eval_result, metrics_info),
                Purpose.GRAD_LOSS, sample, "combined")
    return TextualGradient.for_workflow(clip_gradient(text), sample.id)
