"""The bilevel training schedule, validation tracking, and best selection.

Per batch, the default schedule runs two optimization rounds; each round is
one structure-edit step followed by five prompt-descent steps over the same
batch. Validation runs after every batch and the checkpoint with the highest
score (earliest on ties) becomes the selected workflow. A budget breach, or a
meta call the backend cannot serve, stops the run softly: whatever was best
so far is returned, flagged. (Forward steps and per-sample gradients absorb
their own transport failures.)
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from typing import Callable

from .backend import BudgetExceeded, TransportError
from .evaluation import Sample, get_metric, metric_info
from .forward import run_workflow
from .gradients import (
    ALL_AT_ONCE,
    GradientUnavailable,
    backward,
    grad_combined,
    grad_workflow,
    render_workflow_sketch,
)
from .model import ExecutionTrace, TextualGradient, WorkflowState, with_updated_prompt
from .optimizer import (
    update_all_prompts,
    update_prompt,
    update_workflow,
    update_workflow_combined,
)
from .runtime import Runtime
from .store import RunDirectory, micro_to_usd_str

logger = logging.getLogger(__name__)

MODE_FULL = "full"
MODE_PROMPT_ONLY = "prompt_only"
MODE_NO_BILEVEL = "no_bilevel"
MODE_NO_LAYERWISE = "no_layerwise"
MODES = (MODE_FULL, MODE_PROMPT_ONLY, MODE_NO_BILEVEL, MODE_NO_LAYERWISE)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 5
    bilevel_rounds_per_batch: int = 2
    inner_steps_per_round: int = 5
    outer_steps_per_round: int = 1
    epochs: int = 1
    mode: str = MODE_FULL
    seed: int | None = 0
    val_subsample: int | None = None
    keep_traces: bool = False

    def __post_init__(self):
        for name in ("batch_size", "bilevel_rounds_per_batch", "inner_steps_per_round",
                     "outer_steps_per_round", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.val_subsample is not None and self.val_subsample < 1:
            raise ValueError("val_subsample must be >= 1 when set")


@dataclass(frozen=True)
class RunRecord:
    """One validation point. `revision` is the state revision at the last
    applied structural change, so prompt-only runs show a flat line."""

    batch_index: int
    val_score: float
    revision: int
    api_calls_so_far: int
    cost_so_far_micro: int
    timestamp: int

    def to_line(self) -> str:
        return (
            "{"
            f'"batch_index": {self.batch_index}, '
            f'"val_score": {json.dumps(self.val_score)}, '
            f'"revision": {self.revision}, '
            f'"api_calls_so_far": {self.api_calls_so_far}, '
            f'"cost_so_far_usd": {micro_to_usd_str(self.cost_so_far_micro)}, '
            f'"timestamp": {json.dumps(self.timestamp)}'
            "}"
        )


@dataclass(frozen=True)
class PerSampleEval:
    id: str
    score: float
    prediction: str
    error: str | None = None


@dataclass(frozen=True)
class EvalSummary:
    mean_score: float
    per_sample: tuple[PerSampleEval, ...]


@dataclass(frozen=True)
class TrainResult:
    best_state: WorkflowState
    records: tuple[RunRecord, ...]
    best_batch_index: int | None
    best_val_score: float | None
    final_state: WorkflowState
    halted_early: bool = False


def evaluate(rt: Runtime, state: WorkflowState, dataset: list[Sample], metric_name: str,
             trace_sink: Callable[[ExecutionTrace], None] | None = None) -> EvalSummary:
    """Forward every sample and average the metric. A failed forward scores 0
    with the error noted rather than aborting the whole evaluation. The
    forwards run as one fan-out; `trace_sink` sees the traces in dataset order."""
    if not dataset:
        raise ValueError("dataset is empty")
    metric = get_metric(metric_name)
    traces = rt.fan_out(lambda view, sample: run_workflow(view, state, sample), dataset)
    per: list[PerSampleEval] = []
    total = 0.0
    for sample, trace in zip(dataset, traces):
        if trace_sink is not None:
            trace_sink(trace)
        if trace.error is not None:
            per.append(PerSampleEval(sample.id, 0.0, trace.final_output, trace.error))
            continue
        result = metric(trace.final_output, sample.answer)
        total += result.score
        per.append(PerSampleEval(sample.id, result.score, trace.final_output, None))
    return EvalSummary(mean_score=total / len(dataset), per_sample=tuple(per))


def make_batches(train_set: list[Sample], config: TrainConfig) -> list[list[Sample]]:
    """Batch per epoch; a final short batch is allowed. A set seed shuffles
    each epoch deterministically, seed None keeps file order."""
    batches: list[list[Sample]] = []
    for epoch in range(config.epochs):
        order = list(train_set)
        if config.seed is not None:
            random.Random(config.seed + epoch).shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batches.append(order[start:start + config.batch_size])
    return batches


def train(rt: Runtime, config: TrainConfig, train_set: list[Sample], val_set: list[Sample],
          state0: WorkflowState, metric_name: str,
          run_dir: RunDirectory | None = None) -> TrainResult:
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be nonempty")
    metrics_info = metric_info(metric_name)
    val_view = val_set[:config.val_subsample] if config.val_subsample else val_set

    state = state0
    sketch_revision = state0.revision
    records: list[RunRecord] = []
    best_score: float | None = None
    best_batch: int | None = None
    best_state = state0
    halted = False

    for batch_index, batch in enumerate(make_batches(train_set, config)):
        try:
            state, sketch_revision = _run_batch(rt, config, state, batch, metric_name,
                                                metrics_info, sketch_revision)
            sink = None
            if run_dir is not None and config.keep_traces:
                sink = lambda trace: run_dir.write_trace(batch_index, trace)  # noqa: B023
            summary = evaluate(rt, state, val_view, metric_name, trace_sink=sink)
        except (BudgetExceeded, TransportError) as e:
            logger.warning("run halted at batch %d: %s", batch_index, e)
            halted = True
            break
        record = RunRecord(
            batch_index=batch_index,
            val_score=summary.mean_score,
            revision=sketch_revision,
            api_calls_so_far=rt.client.ledger.call_count,
            cost_so_far_micro=rt.client.ledger.total_cost_micro,
            timestamp=rt.clock.now(),
        )
        records.append(record)
        if run_dir is not None:
            run_dir.write_batch_checkpoint(state, batch_index)
            run_dir.append_record_line(record.to_line())
        if best_score is None or summary.mean_score > best_score:
            best_score = summary.mean_score
            best_batch = batch_index
            best_state = state
            if run_dir is not None:
                run_dir.promote_best(batch_index)

    return TrainResult(
        best_state=best_state,
        records=tuple(records),
        best_batch_index=best_batch,
        best_val_score=best_score,
        final_state=state,
        halted_early=halted,
    )


# ---------------------------------------------------------------------------
# Batch schedules per mode
# ---------------------------------------------------------------------------

def _run_batch(rt: Runtime, config: TrainConfig, state: WorkflowState, batch: list[Sample],
               metric_name: str, metrics_info: str,
               sketch_revision: int) -> tuple[WorkflowState, int]:
    questions = [s.question for s in batch]
    forwards = _BatchForwards(rt, batch, metric_name)
    for _ in range(config.bilevel_rounds_per_batch):
        if config.mode in (MODE_FULL, MODE_NO_LAYERWISE):
            for _ in range(config.outer_steps_per_round):
                state, sketch_revision = _structure_step(
                    rt, state, forwards, metrics_info, sketch_revision, grad_workflow,
                    lambda s, grads: update_workflow(rt, s, grads, questions, metrics_info))
        if config.mode == MODE_NO_BILEVEL:
            state, sketch_revision = _structure_step(
                rt, state, forwards, metrics_info, sketch_revision, grad_combined,
                lambda s, grads: update_workflow_combined(rt, s, grads, metrics_info))
            continue
        state = _inner_phase(rt, config, state, forwards, metrics_info)
    return state, sketch_revision


class _BatchForwards:
    """The batch's latest forwards, (sample, trace, metric result) each, and
    the state they ran on. Asked again on that same state object, it
    forwards only the samples whose trace ended in a backend failure."""

    def __init__(self, rt: Runtime, batch: list[Sample], metric_name: str):
        self.rt, self.batch, self.metric = rt, batch, get_metric(metric_name)
        self.state, self.forwards = None, []

    def gradients(self, state: WorkflowState, gradient: Callable, dropped: str) -> list:
        """`gradient(view, sample, trace, result)` for every sample of the
        batch forwarded on `state`, as one staged fan-out: each sample's
        forward, where it is stale, and then its gradient. Samples whose
        trace ended in a backend failure, or whose gradient is unavailable,
        are left out."""
        if state is not self.state:
            self.state, self.forwards = state, [None] * len(self.batch)

        def forward(view: Runtime, i: int):
            cached = self.forwards[i]
            if cached is None or cached[1].error is not None:
                sample = self.batch[i]
                trace = run_workflow(view, state, sample)
                self.forwards[i] = sample, trace, self.metric(trace.final_output, sample.answer)
            return self.forwards[i]

        def one(view: Runtime, i: int, forwarded):
            sample, trace, _ = forwarded
            if trace.error is not None:
                logger.warning("%s: sample %r ended in %s", dropped, sample.id, trace.error)
                return None
            try:
                return gradient(view, *forwarded)
            except GradientUnavailable as e:
                logger.warning("%s: %s", dropped, e)
                return None

        return [g for g in self.rt.fan_out(forward, range(len(self.batch)), then=one)
                if g is not None]


def _structure_step(rt: Runtime, state: WorkflowState, forwards: _BatchForwards,
                    metrics_info: str, sketch_revision: int, gradient: Callable,
                    update: Callable) -> tuple[WorkflowState, int]:
    """One sketch edit: `gradient` per forwarded sample, then `update(state,
    gradients)` on the batch. `sketch_revision` moves only when it applies."""
    gradients = forwards.gradients(
        state,
        lambda view, sample, trace, result:
            gradient(view, state, trace, sample, result, metrics_info),
        "structure gradient skipped")
    if gradients:
        outcome = update(state, gradients)
        if outcome.applied:
            state = outcome.state
            sketch_revision = state.revision
    return state, sketch_revision


def _inner_phase(rt: Runtime, config: TrainConfig, state: WorkflowState,
                 forwards: _BatchForwards, metrics_info: str) -> WorkflowState:
    mode = ALL_AT_ONCE if config.mode == MODE_NO_LAYERWISE else "layerwise"
    for _ in range(config.inner_steps_per_round):
        per_sample_gradients: list[dict[int, TextualGradient]] = forwards.gradients(
            state,
            lambda view, sample, trace, result:
                backward(view, state, trace, sample, result, metrics_info, mode=mode),
            "sample dropped from inner step")
        if not per_sample_gradients:
            continue
        if config.mode == MODE_NO_LAYERWISE:
            flat = [g for grads in per_sample_gradients for _, g in sorted(grads.items())]
            state = update_all_prompts(rt, state, flat, num_samples=len(forwards.batch))
            continue
        state = _update_prompts(rt, state, per_sample_gradients, num_samples=len(forwards.batch))
    return state


def _update_prompts(rt: Runtime, state: WorkflowState,
                    per_sample_gradients: list[dict[int, TextualGradient]],
                    num_samples: int) -> WorkflowState:
    """One prompt update per live executor, as one fan-out. Each request
    holds only its executor's prompt and the sketch, which these updates do
    not change, so they are applied afterwards in `live_executor_names` order.

    An update the backend cannot serve does not stop the others: every
    update is made, so the same calls are billed however the fan-out ran,
    and then the first failure is raised, which halts the run."""
    jobs = []
    for name in state.live_executor_names():
        served = [s.step_id for s in state.sketch if s.executor_name == name]
        relevant = [
            grads[step_id]
            for grads in per_sample_gradients
            for step_id in served
            if step_id in grads
        ]
        if relevant:
            jobs.append((name, relevant))

    sketch = render_workflow_sketch(state)

    def one(view: Runtime, job):
        try:
            return update_prompt(view, state, state.executors[job[0]], job[1],
                                 num_samples=num_samples, sketch=sketch)
        except TransportError as e:
            return e

    updates = rt.fan_out(one, jobs)
    failure = next((u for u in updates if isinstance(u, TransportError)), None)
    if failure is not None:
        raise failure
    updated = state
    for (name, _), prompt in zip(jobs, updates):
        if prompt is not None:
            updated = with_updated_prompt(updated, name, prompt)
    return updated
