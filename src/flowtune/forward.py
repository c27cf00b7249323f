"""Forward execution: run a workflow over one sample, producing a trace.

Each step sees a fixed-format envelope holding the original question and the
previous step's output verbatim. Control markers give chains a little shape:
loop steps re-run themselves until a sentinel or an iteration cap, route
steps jump forward by emitting a ROUTE label on their first line.
"""

from __future__ import annotations

import logging

from .backend import TransportError
from .model import (
    ROUTE_PREFIX,
    TOOL_EXECUTOR,
    ExecutionTrace,
    Loop,
    Route,
    StepRecord,
    StepSpec,
    TokenUsage,
    WorkflowState,
    require_valid,
)
from .runtime import Runtime
from .tools import run_tool_step

logger = logging.getLogger(__name__)

QUESTION_HEADER = "## Original Question"
PREVIOUS_HEADER = "## Previous Step Output"


def render_envelope(question: str, previous_output: str) -> str:
    """Deterministic step input: question and previous output under fixed headers.

    The envelope is the same for every step so traces keep the verbatim-chain
    property.
    """
    return f"{QUESTION_HEADER}\n{question}\n\n{PREVIOUS_HEADER}\n{previous_output}"


def parse_envelope(text: str) -> tuple[str, str]:
    """Invert render_envelope. Assumes the sections do not embed the headers."""
    if not text.startswith(QUESTION_HEADER + "\n"):
        raise ValueError("not an envelope")
    rest = text[len(QUESTION_HEADER) + 1:]
    marker = f"\n\n{PREVIOUS_HEADER}\n"
    idx = rest.find(marker)
    if idx < 0:
        raise ValueError("envelope missing previous-output section")
    return rest[:idx], rest[idx + len(marker):]


def run_workflow(rt: Runtime, state: WorkflowState, sample) -> ExecutionTrace:
    """Execute every step in order, honoring loop and route markers.

    Backend failures do not raise: the step that failed is recorded with an
    error flag, the trace is returned partial, and its `error` field names
    the failing step. Evaluation scores such a trace 0; training asks no
    gradient for it and forwards the sample again at the next step.
    """
    require_valid(state, rt.tools.names())
    sketch = state.sketch
    index_of = {s.step_id: i for i, s in enumerate(sketch)}
    records: list[StepRecord] = []
    previous_output = ""
    error: str | None = None

    i = 0
    while i < len(sketch):
        step = sketch[i]
        loop = isinstance(step.control, Loop)
        for _ in range(step.control.max_iterations if loop else 1):
            record = _execute_step(rt, state, step, sample.question, previous_output)
            records.append(record)
            previous_output = record.output_text
            if "backend_error" in record.flags:
                error = f"backend failure at step {step.step_id}"
                break
            if loop and _contains_sentinel(record.output_text, rt.loop_sentinel):
                break
        if error is not None:
            break
        if isinstance(step.control, Route):
            target, flag = _route_decision(record.output_text, step)
            if flag is not None:
                records[-1] = record._replace(flags=record.flags + (flag,))
                logger.warning("step %d: %s", step.step_id, flag)
            if target is not None:
                i = index_of[target]
                continue
            # Unparseable or unknown labels fall through sequentially.
        i += 1

    final_output = records[-1].output_text if records else ""
    return ExecutionTrace(
        sample_id=sample.id,
        records=tuple(records),
        final_output=final_output,
        error=error,
    )


def _contains_sentinel(output: str, sentinel: str) -> bool:
    return any(line.strip() == sentinel for line in output.splitlines())


def _route_decision(output_text: str, step: StepSpec) -> tuple[int | None, str | None]:
    first = output_text.split("\n", 1)[0].strip()
    if not first.startswith(ROUTE_PREFIX):
        return None, "route_unparseable"
    label = first[len(ROUTE_PREFIX):].strip()
    target = step.control.targets.get(label)
    if target is None:
        return None, f"unknown_route_label:{label}"
    return target, None


def _execute_step(rt: Runtime, state: WorkflowState, step: StepSpec, question: str,
                  previous_output: str) -> StepRecord:
    envelope = render_envelope(question, previous_output)
    executor = state.executor_for(step)
    t0 = rt.clock.now()
    try:
        if executor.kind == TOOL_EXECUTOR:
            outcome = run_tool_step(rt, executor, step.tool_names, envelope)
            result = dict(output_text=outcome.output_text, tool_invocations=outcome.invocations,
                          token_usage=outcome.token_usage, flags=outcome.flags)
        else:
            response = rt.client.complete(rt.executor_request(executor.prompt, envelope))
            result = dict(output_text=response.content,
                          token_usage=TokenUsage(response.input_tokens, response.output_tokens))
    except TransportError as e:
        logger.warning("step %d failed: %s", step.step_id, e)
        result = dict(output_text="", flags=("backend_error",))
    return StepRecord(step_id=step.step_id, input_text=envelope,
                      wall_time=float(rt.clock.now() - t0), **result)
