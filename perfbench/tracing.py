"""In-memory spans around the program's public functions, and their analysis.

A traced run wraps each traced function where its caller looks it up: the
modules import names directly (`from .forward import run_workflow`), so
`flowtune.trainer.run_workflow` is wrapped rather than the defining module's
name. Class methods are wrapped on the class. Spans stay in memory (name,
start, end, parent) and are written out when the run ends. Untraced runs
install nothing.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import json
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "error")

    def __init__(self, id, parent, name, start, end=None, error=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.error = error

    @property
    def duration(self) -> int:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; the parent of a span is the innermost open span of the
    same thread. Counters record outcomes at the same boundaries."""

    def __init__(self, clock=time.perf_counter_ns):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            s = Span(len(self.spans), stack[-1].id if stack else None, name, 0)
            self.spans.append(s)
        stack.append(s)
        s.start = self._clock()
        try:
            yield s
        except BaseException as e:
            s.error = type(e).__name__
            raise
        finally:
            s.end = self._clock()
            stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, fn, name, observe=None):
        """`name` is a span name or a function of the call's arguments that
        returns one; `observe(recorder, result)` sees each return value."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name(*args) if callable(name) else name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps([s.id, s.parent, s.name, s.start, s.end, s.error]) + "\n")


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------

def covered(intervals, lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0, lo
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) for s in spans}


def call_depth(intervals) -> int:
    """Longest chain of intervals in which each starts after the previous ends.

    For serial calls this is the call count; calls that overlap share depth.
    """
    finished: list[tuple[int, int]] = []  # (end, depth) of intervals not yet chained
    best = 0  # deepest chain among intervals that ended by the current start
    deepest = 0
    for start, end in sorted(intervals):
        while finished and finished[0][0] <= start:
            best = max(best, heapq.heappop(finished)[1])
        depth = best + 1
        deepest = max(deepest, depth)
        heapq.heappush(finished, (end, depth))
    return deepest


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


# ---------------------------------------------------------------------------
# Wrap points
# ---------------------------------------------------------------------------

def _observe_update(rec: SpanRecorder, outcome) -> None:
    if outcome.applied:
        rec.count("optimizer.plans_applied")
    elif outcome.error is not None:
        rec.count("optimizer.plans_rejected")


def _observe_tool_step(rec: SpanRecorder, outcome) -> None:
    rec.count("tools.invocations", len(outcome.invocations))
    rec.count("tools.errors", sum(1 for f in outcome.flags
                                  if f.startswith(("tool_error:", "unknown_tool:"))))


def _replay_name(backend, *args) -> str:
    return "backend.transport" if backend.mode == "replay" else "backend.record"


# (module, attribute, span name, observer). Each module attribute is the name
# a caller looks up at call time.
FUNCTIONS = [
    ("flowtune.trainer", "run_workflow", "forward.run_workflow", None),
    ("flowtune.trainer", "backward", "gradients.backward", None),
    ("flowtune.trainer", "grad_workflow", "gradients.grad_workflow", None),
    ("flowtune.optimizer", "grad_workflow", "gradients.grad_workflow", None),
    ("flowtune.trainer", "update_prompt", "optimizer.update_prompt", None),
    ("flowtune.trainer", "update_workflow", "optimizer.update_workflow", _observe_update),
    ("flowtune.optimizer", "update_workflow", "optimizer.update_workflow", _observe_update),
    ("flowtune.optimizer", "init_executor", "optimizer.init_executor", None),
    ("flowtune.trainer", "evaluate", "trainer.evaluate", None),
    ("flowtune.trainer", "_run_batch", "trainer.batch", None),
    ("flowtune.forward", "run_tool_step", "tools.run_tool_step", _observe_tool_step),
    ("flowtune.forward", "require_valid", "model.require_valid", None),
    ("flowtune.backend", "extract_json", "backend.extract_json", None),
    ("flowtune.tools", "extract_json", "backend.extract_json", None),
    ("flowtune.backend", "request_replay_key", "backend.replay_key", None),
]

METHODS = [
    ("flowtune.backend", "ChatClient", "complete", "backend.client"),
    ("flowtune.backend", "ChatClient", "complete_json", "backend.complete_json"),
    ("flowtune.backend", "HttpBackend", "complete", "backend.transport"),
    ("flowtune.backend", "ScriptedMockBackend", "complete", "backend.transport"),
    ("flowtune.backend", "ReplayBackend", "complete", _replay_name),
    ("flowtune.backend", "ReplayBackend", "_load", "backend.replay_load"),
    ("flowtune.store", "RunLedger", "record_call", "store.record_call"),
    ("flowtune.store", "RunDirectory", "write_batch_checkpoint", "store.checkpoint"),
    ("flowtune.store", "RunDirectory", "promote_best", "store.checkpoint"),
    ("flowtune.templates", "PromptLibrary", "render", "templates.render"),
    ("flowtune.tools", "CorpusIndex", "search_topk", "tools.search"),
    ("flowtune.tools", "CorpusIndex", "__init__", "tools.index_build"),
]

PROPERTIES = [
    ("flowtune.store", "RunLedger", "total_cost_micro", "store.total_cost"),
]


@contextmanager
def installed(rec: SpanRecorder):
    """Wrap every traced function for the duration of the block."""
    restore = []
    try:
        for module_name, attr, name, observe in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            restore.append((module, attr, original))
            setattr(module, attr, rec.wrap(original, name, observe))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr, rec.wrap(original, name))
        for module_name, cls_name, attr, name in PROPERTIES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr, property(rec.wrap(original.fget, name)))
        metrics = importlib.import_module("flowtune.evaluation").METRICS
        for key, fn in list(metrics.items()):
            restore.append((metrics, key, fn))
            metrics[key] = rec.wrap(fn, "evaluation.metric")
        yield rec
    finally:
        for target, attr, original in reversed(restore):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
