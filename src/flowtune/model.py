"""Workflow data model.

A workflow is an ordered sketch of steps, each step bound by name to an
executor (an LLM call with a detailed prompt, optionally with tool access).
The sketch carries only high-level step descriptions plus control markers;
the prompts live in the executor registry. Everything in this module is an
immutable value: edits produce a new state with a higher revision, so states
can be shared freely across readers and checkpointed at any point.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from typing import NamedTuple

MAX_SKETCH_STEPS = 12
MAX_LOOP_ITERATIONS = 8
SCHEMA_VERSION = 1

LLM_EXECUTOR = "LLMExecutor"
TOOL_EXECUTOR = "ToolExecutor"
EXECUTOR_KINDS = (LLM_EXECUTOR, TOOL_EXECUTOR)

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


class SchemaVersionMismatch(ValueError):
    """Serialized state carries a schema_version this build cannot read."""


class InvalidStateError(ValueError):
    """A workflow state failed validation where a valid one was required."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


def json_int(value, what: str) -> int:
    """`value` if it is a JSON integer; a float, a bool or a string is a
    ValueError, not a number to round."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_number(value, what: str) -> float:
    """`value` as a float if it is a JSON number; a bool or a string is a ValueError."""
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def json_text(value, what: str) -> str:
    """`value` as text if it is a JSON string or number, a number in its
    `str` form; null, a bool, an array or an object is a ValueError, not
    text to index or compare as its Python repr."""
    if type(value) not in (str, int, float):
        raise ValueError(f"{what} must be a string or a number, got {type(value).__name__}")
    return str(value)


def _json_texts(value, what: str) -> tuple[str, ...]:
    """The items of `value`, each read by `json_text`, if it is a JSON array;
    anything else, a string included, is a ValueError."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return tuple([json_text(item, what) for item in value])


def canonical_json(obj) -> str:
    """Stable JSON for files: sorted keys, UTF-8 text, LF lines, trailing newline."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def compact_json(obj) -> str:
    """Stable JSON for hashing: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Control markers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sequential:
    """Fall through to the next step."""


@dataclass(frozen=True)
class Route:
    """Jump forward to the step mapped from the label the executor emits.

    The executor's first output line must read ``ROUTE: <label>``; unknown or
    unparseable labels fall through to the next sequential step.
    """

    targets: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Loop:
    """Re-execute this step up to max_iterations, stopping early when the
    output contains the loop sentinel line."""

    max_iterations: int = 1


Control = Sequential | Route | Loop

LOOP_DONE_SENTINEL = "VERDICT: DONE"
ROUTE_PREFIX = "ROUTE:"


def control_to_json(control: Control) -> dict:
    if isinstance(control, Sequential):
        return {"kind": "sequential"}
    if isinstance(control, Route):
        return {"kind": "route", "targets": {k: control.targets[k] for k in sorted(control.targets)}}
    if isinstance(control, Loop):
        return {"kind": "loop", "max_iterations": control.max_iterations}
    raise TypeError(f"not a control marker: {control!r}")


def control_from_json(obj) -> Control:
    if not isinstance(obj, dict):
        raise ValueError(f"control must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "sequential":
        return Sequential()
    try:
        if kind == "route":
            return Route(targets={str(k): json_int(v, f"route target {k!r}")
                                  for k, v in obj.get("targets", {}).items()})
        if kind == "loop":
            return Loop(max_iterations=json_int(obj.get("max_iterations", 1), "max_iterations"))
    except (AttributeError, ValueError) as e:  # targets not an object, a value not an integer
        raise ValueError(f"bad {kind} control: {e}") from e
    raise ValueError(f"unknown control kind: {kind!r}")


# ---------------------------------------------------------------------------
# Sketch, executors, state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepSpec:
    """One high-level step of the sketch."""

    step_id: int
    description: str
    executor_name: str
    tool_names: tuple[str, ...] = ()
    control: Control = field(default_factory=Sequential)


@dataclass(frozen=True)
class ExecutorSpec:
    """The runnable realization of a step: a prompt plus optional tools.

    version increments on every applied prompt update.
    """

    name: str
    kind: str
    description: str
    prompt: str
    tool_names: tuple[str, ...] = ()
    version: int = 0


@dataclass(frozen=True)
class WorkflowState:
    """Sketch plus executor registry. The unit of checkpointing."""

    sketch: tuple[StepSpec, ...]
    executors: dict[str, ExecutorSpec]
    revision: int = 0

    def executor_for(self, step: StepSpec) -> ExecutorSpec:
        return self.executors[step.executor_name]

    def step(self, step_id: int) -> StepSpec:
        for s in self.sketch:
            if s.step_id == step_id:
                return s
        raise KeyError(f"no step {step_id}")

    def live_executor_names(self) -> tuple[str, ...]:
        """Executor names serving at least one step, in sketch order, deduped."""
        seen: list[str] = []
        for s in self.sketch:
            if s.executor_name not in seen:
                seen.append(s.executor_name)
        return tuple(seen)


@dataclass(frozen=True)
class Violation:
    """One invariant violation; machine-readable code plus human detail."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}({self.detail})"


def validate_state(
    state: WorkflowState,
    registered_tools: set[str] | frozenset[str] | None = None,
) -> list[Violation]:
    """Return every invariant violation in `state`; an empty list means valid.

    Pass `registered_tools` to additionally check that every step tool is
    registered (an execution-time requirement).
    """
    out: list[Violation] = []
    if not state.sketch:
        out.append(Violation("EmptySketch", "sketch has no steps"))
    ids = [s.step_id for s in state.sketch]
    if ids != list(range(1, len(ids) + 1)):
        out.append(Violation("NonContiguousStepIds", f"got {ids}, want 1..{len(ids)}"))
    if len(ids) > MAX_SKETCH_STEPS:
        out.append(Violation("TooManySteps", f"{len(ids)} steps exceeds cap {MAX_SKETCH_STEPS}"))
    if state.revision < 0:
        out.append(Violation("NegativeRevision", str(state.revision)))

    id_set = set(ids)
    for step in state.sketch:
        exe = state.executors.get(step.executor_name)
        if exe is None:
            out.append(Violation("UnresolvedExecutor", step.executor_name))
        else:
            has_tools = bool(step.tool_names)
            if has_tools != (exe.kind == TOOL_EXECUTOR):
                out.append(Violation(
                    "StepToolMismatch",
                    f"step {step.step_id} tools={list(step.tool_names)} but executor "
                    f"{exe.name} has kind {exe.kind}",
                ))
        if isinstance(step.control, Route):
            for label, target in step.control.targets.items():
                if target not in id_set:
                    out.append(Violation("RouteTargetMissing", f"step {step.step_id} label {label!r} -> {target}"))
                elif target <= step.step_id:
                    out.append(Violation("BackwardRouteTarget", f"step {step.step_id} label {label!r} -> {target}"))
        if isinstance(step.control, Loop):
            if not (1 <= step.control.max_iterations <= MAX_LOOP_ITERATIONS):
                out.append(Violation(
                    "LoopIterationsOutOfRange",
                    f"step {step.step_id} max_iterations={step.control.max_iterations}",
                ))
        if registered_tools is not None:
            for t in step.tool_names:
                if t not in registered_tools:
                    out.append(Violation("UnregisteredTool", f"step {step.step_id} tool {t!r}"))

    for key, exe in state.executors.items():
        if key != exe.name:
            out.append(Violation("RegistryKeyMismatch", f"key {key!r} holds executor named {exe.name!r}"))
        if not _NAME_RE.match(exe.name):
            out.append(Violation("BadExecutorName", repr(exe.name)))
        if exe.kind not in EXECUTOR_KINDS:
            out.append(Violation("BadExecutorKind", f"{exe.name}: {exe.kind!r}"))
        if not exe.prompt:
            out.append(Violation("EmptyPrompt", exe.name))
        if bool(exe.tool_names) != (exe.kind == TOOL_EXECUTOR):
            out.append(Violation(
                "ExecutorToolsMismatch",
                f"{exe.name} kind={exe.kind} tools={list(exe.tool_names)}",
            ))
        if exe.version < 0:
            out.append(Violation("NegativeVersion", f"{exe.name}: {exe.version}"))
    return out


def require_valid(state: WorkflowState, registered_tools=None) -> None:
    violations = validate_state(state, registered_tools)
    if violations:
        raise InvalidStateError(violations)


# ---------------------------------------------------------------------------
# Traces and gradients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToolInvocation:
    tool: str
    query: str
    result: str


class TokenUsage(NamedTuple):
    """Tokens in and out. A named tuple that compares equal to the plain
    tuple of its fields; `+` adds field by field, it does not concatenate."""

    input_tokens: int = 0
    output_tokens: int = 0

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(self.input_tokens + other.input_tokens,
                          self.output_tokens + other.output_tokens)


class StepRecord(NamedTuple):
    """One executed step: the envelope it saw, what it produced, and how.
    A named tuple that compares equal to the plain tuple of its fields; a
    changed copy is made with `_replace`."""

    step_id: int
    input_text: str
    output_text: str
    tool_invocations: tuple[ToolInvocation, ...] = ()
    token_usage: TokenUsage = TokenUsage()
    wall_time: float = 0.0
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExecutionTrace:
    """Per-sample forward record. `error` marks a partial trace."""

    sample_id: str
    records: tuple[StepRecord, ...]
    final_output: str
    error: str | None = None

    def last_record_for(self, step_id: int) -> StepRecord | None:
        for rec in reversed(self.records):
            if rec.step_id == step_id:
                return rec
        return None

    def executed_step_ids(self) -> tuple[int, ...]:
        return tuple(sorted({r.step_id for r in self.records}))


WORKFLOW_SCOPE = 0  # sentinel step_id meaning "the whole workflow"


class TextualGradient(NamedTuple):
    """Natural-language feedback, scoped either to one step or to the sketch.
    A named tuple that compares equal to the plain tuple of its fields; a
    changed copy is made with `_replace`."""

    step_id: int  # WORKFLOW_SCOPE for workflow-scoped gradients
    text: str
    sample_id: str

    @property
    def is_workflow_scoped(self) -> bool:
        return self.step_id == WORKFLOW_SCOPE

    @staticmethod
    def for_step(step_id: int, text: str, sample_id: str) -> "TextualGradient":
        if step_id <= 0:
            raise ValueError("step gradients need a positive step_id")
        return TextualGradient(step_id=step_id, text=text, sample_id=sample_id)

    @staticmethod
    def for_workflow(text: str, sample_id: str) -> "TextualGradient":
        return TextualGradient(step_id=WORKFLOW_SCOPE, text=text, sample_id=sample_id)


# ---------------------------------------------------------------------------
# Serialization (checkpoint schema)
# ---------------------------------------------------------------------------

def step_to_json(step: StepSpec, executor_kind: str) -> dict:
    return {
        "step_id": step.step_id,
        "description": step.description,
        "tools": list(step.tool_names),
        "executor_type": executor_kind,
        "executor_name": step.executor_name,
        "generation_guideline": "",
        "control": control_to_json(step.control),
    }


def executor_to_json(exe: ExecutorSpec) -> dict:
    return {
        "name": exe.name,
        "kind": exe.kind,
        "description": exe.description,
        "prompt": exe.prompt,
        "tool_names": list(exe.tool_names),
        "version": exe.version,
    }


def state_to_json_obj(state: WorkflowState) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "revision": state.revision,
        "sketch": [
            step_to_json(s, state.executors[s.executor_name].kind
                         if s.executor_name in state.executors else "")
            for s in state.sketch
        ],
        "executors": {name: executor_to_json(exe) for name, exe in state.executors.items()},
    }


def serialize_state(state: WorkflowState) -> str:
    return canonical_json(state_to_json_obj(state))


def state_from_json_obj(obj: dict) -> WorkflowState:
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"schema_version {version!r}, this build reads {SCHEMA_VERSION}")
    sketch = tuple(
        StepSpec(
            step_id=json_int(s["step_id"], "step_id"),
            description=json_text(s["description"], "description"),
            executor_name=json_text(s["executor_name"], "executor_name"),
            tool_names=_json_texts(s.get("tools", []), "tools"),
            control=control_from_json(s.get("control", {"kind": "sequential"})),
        )
        for s in obj["sketch"]
    )
    executors = {
        name: ExecutorSpec(
            name=json_text(e["name"], "name"),
            kind=json_text(e["kind"], "kind"),
            description=json_text(e["description"], "description"),
            prompt=json_text(e["prompt"], "prompt"),
            tool_names=_json_texts(e.get("tool_names", []), "tool_names"),
            version=json_int(e.get("version", 0), "version"),
        )
        for name, e in sorted(obj["executors"].items())
    }
    return WorkflowState(sketch=sketch, executors=executors,
                         revision=json_int(obj["revision"], "revision"))


def deserialize_state(text: str) -> WorkflowState:
    """The state in `text`; text that is not JSON, is nested past the
    parser's recursion limit, or lacks the checkpoint's keys or their types
    is a ValueError."""
    try:
        return state_from_json_obj(json.loads(text))
    except (LookupError, TypeError, AttributeError, RecursionError) as e:
        raise ValueError(f"unreadable workflow state: {e!r}") from e


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def with_updated_prompt(state: WorkflowState, executor_name: str, prompt: str) -> WorkflowState:
    """New state with one executor's prompt replaced; bumps version and revision."""
    exe = state.executors[executor_name]
    executors = dict(state.executors)
    executors[executor_name] = replace(exe, prompt=prompt, version=exe.version + 1)
    return WorkflowState(sketch=state.sketch, executors=executors, revision=state.revision + 1)


def trace_to_json_obj(trace: ExecutionTrace) -> dict:
    return {
        "sample_id": trace.sample_id,
        "final_output": trace.final_output,
        "error": trace.error,
        "records": [
            {
                "step_id": r.step_id,
                "input_text": r.input_text,
                "output_text": r.output_text,
                "tool_invocations": [
                    {"tool": t.tool, "query": t.query, "result": t.result}
                    for t in r.tool_invocations
                ],
                "token_usage": {
                    "input_tokens": r.token_usage.input_tokens,
                    "output_tokens": r.token_usage.output_tokens,
                },
                "wall_time": r.wall_time,
                "flags": list(r.flags),
            }
            for r in trace.records
        ],
    }
