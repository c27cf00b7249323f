"""Applies textual gradients: prompt rewrites, sketch edits, cold start.

Plan application is atomic. `validate_state` is the one judge of what a plan
builds: on a bilevel update each new step stands in with an executor of the
kind and tools it will have, so a plan is judged whole before any new
executor is initialized. Only when every initialization succeeds does a new
state appear. Any failure along the way returns the original state untouched,
with the reason on the outcome, so a half-applied sketch can never be
observed or checkpointed.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace

from .backend import JsonRetryExhausted, Purpose, TransportError
from .evaluation import Sample
from .gradients import (
    GradientUnavailable,
    aggregate_gradients,
    grad_workflow,
    render_agents_with_prompts,
    render_current_agents,
    render_workflow_sketch,
    render_workflow_structure,
)
from .model import (
    LLM_EXECUTOR,
    TOOL_EXECUTOR,
    Control,
    ExecutionTrace,
    ExecutorSpec,
    Sequential,
    StepRecord,
    StepSpec,
    TextualGradient,
    TokenUsage,
    WorkflowState,
    control_from_json,
    json_int,
    validate_state,
)
from .runtime import Runtime

logger = logging.getLogger(__name__)

OUTPUT_FORMAT_REMINDER = (
    "Reminder: reply with one fenced JSON object containing exactly the keys "
    '"reasoning", "should_update", and "updated_execution_plan".'
)

_NAME_SANITIZE_RE = re.compile(r"[^A-Za-z0-9_]+")

REUSE = "reuse"
NEW = "new"


class InitFailed(RuntimeError):
    pass


class BootstrapFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class PlanStep:
    step_id: int
    description: str
    tools: tuple[str, ...]
    executor_type: str
    executor_name: str
    generation_guideline: str
    control: Control = field(default_factory=Sequential)
    prompt: str = ""  # combined-mode plans carry prompts inline


@dataclass(frozen=True)
class UpdateOutcome:
    """Result of a workflow update attempt. `state` is always usable: the new
    state when applied, the original otherwise."""

    state: WorkflowState
    applied: bool
    error: str | None = None


class PlanFormatError(ValueError):
    pass


def _parse_plan_step(obj, inline_prompts: bool) -> PlanStep:
    if not isinstance(obj, dict):
        raise PlanFormatError(f"plan step must be an object, got {type(obj).__name__}")
    try:
        step_id = json_int(obj["step_id"], "step_id")
        description = str(obj["description"])
        executor_name = str(obj["executor_name"])
    except (KeyError, TypeError, ValueError) as e:
        raise PlanFormatError(f"bad plan step: {e}") from e
    tools_raw = obj.get("tools", [])
    if not isinstance(tools_raw, list):
        raise PlanFormatError("tools must be a list")
    control = Sequential()
    if "control" in obj:
        try:
            control = control_from_json(obj["control"])
        except ValueError as e:
            raise PlanFormatError(f"step {step_id}: {e}") from e
    if inline_prompts:
        executor_type = str(obj.get("executor_type", NEW))
        guideline = ""
        prompt = str(obj.get("prompt", ""))
    else:
        executor_type = str(obj.get("executor_type", ""))
        guideline = str(obj.get("generation_guideline", "") or "")
        prompt = ""
        if executor_type not in (REUSE, NEW):
            raise PlanFormatError(f"step {step_id}: executor_type must be '{REUSE}' or "
                                  f"'{NEW}', got {executor_type!r}")
        if executor_type == NEW and not guideline:
            raise PlanFormatError(f"step {step_id}: new executor without generation_guideline")
    return PlanStep(
        step_id=step_id,
        description=description,
        tools=tuple(str(t) for t in tools_raw),
        executor_type=executor_type,
        executor_name=executor_name,
        generation_guideline=guideline if executor_type != REUSE else "",
        control=control,
        prompt=prompt,
    )


def parse_plan_decision(obj, inline_prompts: bool = False) -> tuple[PlanStep, ...] | None:
    """The plan of a meta decision, or None when it declines to update."""
    if not isinstance(obj, dict):
        raise PlanFormatError(f"decision must be an object, got {type(obj).__name__}")
    should_update = obj.get("should_update")
    if not isinstance(should_update, bool):
        raise PlanFormatError("should_update must be a boolean")
    raw_plan = obj.get("updated_execution_plan", [])
    if raw_plan is None:
        raw_plan = []
    if not isinstance(raw_plan, list):
        raise PlanFormatError("updated_execution_plan must be a list")
    if not should_update:
        return None
    return tuple(_parse_plan_step(s, inline_prompts) for s in raw_plan)


def sanitize_executor_name(name: str) -> str:
    cleaned = _NAME_SANITIZE_RE.sub("_", name).strip("_")
    return cleaned or "Executor"


def uniquify_name(name: str, taken: set[str]) -> str:
    if name not in taken:
        return name
    suffix = 2
    while f"{name}_{suffix}" in taken:
        suffix += 1
    return f"{name}_{suffix}"


# ---------------------------------------------------------------------------
# Meta operations
# ---------------------------------------------------------------------------

def init_executor(rt: Runtime, step: PlanStep, sample_questions: list[str]) -> ExecutorSpec:
    """Generate the initial prompt for a new step's executor. The plan parser
    has checked that the step is new and has a generation guideline.

    The plan decides the executor kind (tools present or not); the generated
    spec supplies name, description, and prompt. The name is sanitized;
    `update_workflow` makes it unique.
    """
    try:
        obj = rt.meta_json("init_executor", {
            "step_id": step.step_id,
            "step_description": step.description,
            "tools": ", ".join(step.tools) if step.tools else "none",
            "generation_guideline": step.generation_guideline,
            "questions": "\n".join(f"- {q}" for q in sample_questions),
        }, Purpose.INIT_EXECUTOR)
        raw_name = str(obj["name"])
        description = str(obj.get("description", step.description))
        prompt = str(obj["prompt"])
    except (JsonRetryExhausted, KeyError, TypeError) as e:
        raise InitFailed(f"initialization failed for step {step.step_id}: {e}") from e
    if not prompt:
        raise InitFailed(f"initialization for step {step.step_id} produced an empty prompt")
    return _executor(step, sanitize_executor_name(raw_name), description, prompt)


def _executor(step: PlanStep, name: str, description: str, prompt: str,
              version: int = 0) -> ExecutorSpec:
    """An executor for `step`: the step's tools decide its kind."""
    return ExecutorSpec(name=name, kind=TOOL_EXECUTOR if step.tools else LLM_EXECUTOR,
                        description=description, prompt=prompt, tool_names=step.tools,
                        version=version)


def _candidate(state: WorkflowState, plan: tuple[PlanStep, ...],
               executors: list[ExecutorSpec | None]) -> WorkflowState:
    """The state `plan` builds on `state`. Step i runs `executors[i]`, which
    joins the registry, or the executor the step names where that is None."""
    registry = dict(state.executors)
    sketch = []
    for step, exe in zip(plan, executors):
        if exe is not None:
            registry[exe.name] = exe
        sketch.append(StepSpec(
            step_id=step.step_id, description=step.description,
            executor_name=step.executor_name if exe is None else exe.name,
            tool_names=step.tools, control=step.control,
        ))
    return WorkflowState(sketch=tuple(sketch), executors=registry, revision=state.revision + 1)


def _decide(rt: Runtime, state: WorkflowState, template: str, values: dict[str, object],
            inline_prompts: bool = False) -> tuple[PlanStep, ...] | UpdateOutcome:
    """The meta model's plan on `template`, or the outcome that ends the
    update when there is no plan to apply: an unparseable reply or a
    decision not to update."""
    try:
        plan = parse_plan_decision(rt.meta_json(template, values, Purpose.OPTIM_WORKFLOW),
                                   inline_prompts)
    except JsonRetryExhausted:
        logger.warning("workflow update skipped: JSON retries exhausted")
        return UpdateOutcome(state=state, applied=False, error="json_failure")
    except PlanFormatError as e:
        logger.warning("workflow update skipped: %s", e)
        return UpdateOutcome(state=state, applied=False, error=f"plan_format: {e}")
    return UpdateOutcome(state=state, applied=False) if plan is None else plan


def _rejection(rt: Runtime, state: WorkflowState,
               candidate: WorkflowState) -> UpdateOutcome | None:
    """The outcome that keeps `state` when `candidate`, the state a plan
    builds, fails validation; None when it is valid."""
    violations = validate_state(candidate, rt.tools.names())
    if not violations:
        return None
    error = "PlanInvalid: " + "; ".join(str(v) for v in violations)
    logger.warning("plan rejected: %s", error)
    return UpdateOutcome(state=state, applied=False, error=error)


def update_workflow(rt: Runtime, state: WorkflowState,
                    gradients: list[TextualGradient], sample_questions: list[str],
                    metrics_info: str) -> UpdateOutcome:
    """Outer-loop sketch edit from a batch of workflow gradients.

    Returns the original state on any failure (bad JSON, a plan that
    validate_state rejects, failed initialization); returns a revision-bumped
    state only when the whole plan applied. Old executors stay registered
    even when their steps disappear, so later plans can still reuse them.
    """
    if not gradients:
        raise ValueError("gradient batch must be nonempty")
    plan = _decide(rt, state, "optim_workflow", {
        "metrics_info": metrics_info,
        "available_tools": rt.tools.describe(),
        "current_workflow": render_workflow_structure(state),
        "current_agents": render_current_agents(state),
        "num_samples": len(gradients),
        "aggregated_gradients": aggregate_gradients(gradients),
        "output_format_instruction": OUTPUT_FORMAT_REMINDER,
    })
    if isinstance(plan, UpdateOutcome):
        return plan

    # Each new step stands in with an executor of its future kind and tools,
    # under a name neither the registry nor the plan uses, so the plan is
    # judged whole before any initialization is billed.
    named = set(state.executors) | {step.executor_name for step in plan}
    stand_ins: list[ExecutorSpec | None] = []
    for step in plan:
        stand_in = None
        if step.executor_type == NEW:
            stand_in = _executor(step, uniquify_name(f"NewStep{step.step_id}", named),
                                 step.description, step.generation_guideline)
            named.add(stand_in.name)
        stand_ins.append(stand_in)
    rejection = _rejection(rt, state, _candidate(state, plan, stand_ins))
    if rejection is not None:
        return rejection

    # Each initialization depends on its own step alone, so they run as one
    # fan-out, and every one is made, so the same calls are billed however
    # the fan-out ran. Then the first failure in plan order aborts the plan,
    # or halts the run when the backend could not serve it.
    def init(view: Runtime, step: PlanStep) -> ExecutorSpec | Exception:
        try:
            return init_executor(view, step, sample_questions)
        except (InitFailed, TransportError) as e:
            return e

    inits = iter(rt.fan_out(init, [step for step in plan if step.executor_type == NEW]))
    # The applied state is valid by construction: each new executor has a
    # sanitized name, made unique here in plan order, and its stand-in's kind
    # and tools, and InitFailed rules out an empty prompt.
    new_executors: list[ExecutorSpec | None] = []
    taken = set(state.executors)
    for step in plan:
        spec = None
        if step.executor_type == NEW:
            spec = next(inits)
            if isinstance(spec, TransportError):
                raise spec
            if isinstance(spec, InitFailed):
                logger.warning("plan aborted: %s", spec)
                return UpdateOutcome(state=state, applied=False, error=f"InitFailed: {spec}")
            spec = replace(spec, name=uniquify_name(spec.name, taken))
            taken.add(spec.name)
        new_executors.append(spec)
    return UpdateOutcome(state=_candidate(state, plan, new_executors), applied=True)


def update_prompt(rt: Runtime, state: WorkflowState, executor: ExecutorSpec,
                  gradients: list[TextualGradient], num_samples: int, *,
                  sketch: str | None = None) -> str | None:
    """One TGD step for one executor: the updated prompt, or None when the
    meta reply could not be parsed, and the caller keeps the old prompt.
    `sketch` is `render_workflow_sketch(state)`, when the caller has it."""
    if not gradients:
        raise ValueError("gradient batch must be nonempty")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    served = {s.step_id for s in state.sketch if s.executor_name == executor.name}
    for g in gradients:
        if g.is_workflow_scoped or g.step_id not in served:
            raise ValueError(f"gradient scoped to step {g.step_id} does not belong to "
                             f"executor {executor.name}")
    try:
        obj = rt.meta_json("optim_call", {
            "workflow_sketch": render_workflow_sketch(state) if sketch is None else sketch,
            "executor_name": executor.name,
            "executor_type": executor.kind,
            "executor_tools": ", ".join(executor.tool_names) if executor.tool_names else "none",
            "current_prompt": executor.prompt,
            "num_samples": num_samples,
            "aggregated_gradients": aggregate_gradients(gradients),
        }, Purpose.OPTIM_CALL)
        updated = str(obj["updated_prompt"])
    except (JsonRetryExhausted, KeyError, TypeError):
        logger.warning("prompt update skipped for %s: unparseable meta reply", executor.name)
        return None
    if not updated:
        logger.warning("prompt update skipped for %s: empty prompt", executor.name)
    return updated or None


def update_workflow_combined(rt: Runtime, state: WorkflowState,
                             gradients: list[TextualGradient],
                             metrics_info: str) -> UpdateOutcome:
    """Single-layer update: one meta call rewrites structure and prompts at
    once, no separate initialization. Used when the bilevel split is off."""
    if not gradients:
        raise ValueError("gradient batch must be nonempty")
    plan = _decide(rt, state, "optim_combined", {
        "metrics_info": metrics_info,
        "available_tools": rt.tools.describe(),
        "current_workflow": render_workflow_structure(state),
        "agents_block": render_agents_with_prompts(state),
        "num_samples": len(gradients),
        "aggregated_gradients": aggregate_gradients(gradients),
    }, inline_prompts=True)
    if isinstance(plan, UpdateOutcome):
        return plan

    executors = dict(state.executors)
    bound = []
    for step in plan:
        name = sanitize_executor_name(step.executor_name)
        existing = executors.get(name)
        prompt = step.prompt or (existing.prompt if existing else "")
        if existing is not None:
            version = existing.version + (1 if prompt != existing.prompt else 0)
            description = existing.description if not step.description else step.description
        else:
            version = 0
            description = step.description
        executors[name] = _executor(step, name, description, prompt, version)
        bound.append(executors[name])
    candidate = _candidate(state, plan, bound)
    return _rejection(rt, state, candidate) or UpdateOutcome(state=candidate, applied=True)


def update_all_prompts(rt: Runtime, state: WorkflowState,
                       gradients: list[TextualGradient],
                       num_samples: int) -> WorkflowState:
    """One meta call updating every live executor's prompt, for runs that skip
    layer-by-layer backpropagation. Returns the new state, or `state` itself
    when no prompt changed."""
    if not gradients:
        raise ValueError("gradient batch must be nonempty")
    try:
        updates = rt.meta_json("optim_all_prompts", {
            "workflow_sketch": render_workflow_sketch(state),
            "agents_block": render_agents_with_prompts(state),
            "num_samples": num_samples,
            "aggregated_gradients": aggregate_gradients(gradients),
        }, Purpose.OPTIM_CALL)["updates"]
        if not isinstance(updates, dict):
            raise TypeError("updates must be an object")
    except (JsonRetryExhausted, KeyError, TypeError):
        logger.warning("all-prompts update skipped: unparseable meta reply")
        return state
    executors = dict(state.executors)
    live = set(state.live_executor_names())
    changed = False
    for name, prompt in updates.items():
        if name not in live or not isinstance(prompt, str) or not prompt:
            continue
        current = executors[name]
        if prompt != current.prompt:
            executors[name] = replace(current, prompt=prompt, version=current.version + 1)
            changed = True
    if not changed:
        return state
    return WorkflowState(sketch=state.sketch, executors=executors, revision=state.revision + 1)


# ---------------------------------------------------------------------------
# Cold start
# ---------------------------------------------------------------------------

SEED_EXECUTOR_NAME = "DirectAnswer"
SEED_STEP_DESCRIPTION = "Answer the question directly."
SEED_PROMPT = "Answer the question."


def seed_state() -> WorkflowState:
    """Minimal one-step workflow the cold start edits away from."""
    executor = ExecutorSpec(
        name=SEED_EXECUTOR_NAME,
        kind=LLM_EXECUTOR,
        description=SEED_STEP_DESCRIPTION,
        prompt=SEED_PROMPT,
        version=0,
    )
    step = StepSpec(step_id=1, description=SEED_STEP_DESCRIPTION,
                    executor_name=SEED_EXECUTOR_NAME)
    return WorkflowState(sketch=(step,), executors={executor.name: executor}, revision=0)


def bootstrap_workflow(rt: Runtime, batch: list[Sample], metric, metrics_info: str) -> WorkflowState:
    """Cold start: instruction-free answers, one structure-gradient step per
    sample (the samples as one fan-out), then a normal workflow update from a
    one-step seed state."""
    if not batch:
        raise ValueError("bootstrap batch must be nonempty")
    base = seed_state()

    def workflow_gradient(view: Runtime, sample: Sample) -> TextualGradient | None:
        response = view.client.complete(
            view.executor_request(None, sample.question, Purpose.BOOTSTRAP))
        pseudo_trace = ExecutionTrace(
            sample_id=sample.id,
            records=(StepRecord(
                step_id=1,
                input_text=sample.question,
                output_text=response.content,
                token_usage=TokenUsage(response.input_tokens, response.output_tokens),
            ),),
            final_output=response.content,
        )
        eval_result = metric(response.content, sample.answer)
        try:
            return grad_workflow(view, base, pseudo_trace, sample, eval_result, metrics_info)
        except GradientUnavailable as e:
            logger.warning("bootstrap gradient skipped: %s", e)
            return None

    workflow_grads = [g for g in rt.fan_out(workflow_gradient, batch) if g is not None]
    if not workflow_grads:
        raise BootstrapFailed("no bootstrap sample produced a workflow gradient")
    outcome = update_workflow(rt, base, workflow_grads,
                              [s.question for s in batch], metrics_info)
    if outcome.error is not None:
        raise BootstrapFailed(outcome.error)
    return outcome.state
