"""Shared execution context: client, model settings, templates, tools, clock,
and the ordered fan-out that runs independent calls concurrently where the
backend's calls can wait."""

from __future__ import annotations

import copy
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from .backend import DEFERRED, ChatClient, ChatRequest, Message, Purpose, at_commit, can_wait
from .model import LOOP_DONE_SENTINEL
from .store import LogicalClock
from .templates import PromptLibrary, load_templates
from .tools import ToolRegistry


@dataclass(frozen=True)
class ModelSettings:
    """Executor and meta calls are configured independently.

    Forward executors default to a mildly sampled temperature; all meta calls
    (gradients, updates, initialization) default to 0 to keep runs replayable.
    """

    executor_model: str = "executor"
    meta_model: str = "meta"
    executor_temperature: float = 0.2
    meta_temperature: float = 0.0
    max_output_tokens: int = 4096

    def __post_init__(self):
        for name in ("executor_temperature", "meta_temperature"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")


DEFAULT_CONCURRENCY = 8

T = TypeVar("T")
R = TypeVar("R")
S = TypeVar("S")


@dataclass
class Runtime:
    client: ChatClient
    settings: ModelSettings = field(default_factory=ModelSettings)
    templates: PromptLibrary = field(default_factory=load_templates)
    tools: ToolRegistry = field(default_factory=ToolRegistry)
    # The ledger's own clock, which stamps its rows; left out, it is taken.
    clock: LogicalClock | None = None
    loop_sentinel: str = LOOP_DONE_SENTINEL
    concurrency: int = DEFAULT_CONCURRENCY
    _pool: ThreadPoolExecutor | None = field(default=None, init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.clock is None:
            self.clock = self.client.ledger.clock
        elif self.clock is not self.client.ledger.clock:
            raise ValueError("a runtime reads its ledger's clock, not a clock of its own")

    def fan_out(self, fn: Callable[[Runtime, T], R], items: Iterable[T],
                then: Callable[[Runtime, T, R], S] | None = None) -> list[R | S]:
        """`fn(view, item)` for every item, then, with `then` given,
        `then(view, item, fn's result)`; the last stage's results in item order.

        At concurrency 1, for a single item, or when the client's backend
        cannot wait (see `can_wait`), the items run inline, one after the
        other and stage by stage (every `fn` before any `then`), with this
        runtime itself as the view. Otherwise up to `concurrency` items run
        at once on a persistent thread pool, each running `fn` and `then`
        back to back on one worker. Each stage of an item runs against a view
        of this runtime that buffers its ledger rows and clock readings, and
        the buffers are committed here in (stage, item) order, the order of
        the inline run, so ledger indices and timestamps come out exactly as
        inline. When pool items raise, every stage that ran is committed
        first, then the exception of the earliest failing (stage, item) is
        raised; items not yet started are dropped. A fan-out on a pool
        item's view runs inline.
        """
        items = list(items)
        if self.concurrency == 1 or len(items) <= 1 or not can_wait(self.client.backend):
            results = [fn(self, item) for item in items]
            if then is None:
                return results
            return [then(self, item, r) for item, r in zip(items, results)]
        firsts = [_Task(self) for _ in items]
        seconds = [_Task(self) for _ in items] if then is not None else []

        def run(i: int):
            result = firsts[i].run(fn, items[i])
            return result if then is None else seconds[i].run(then, items[i], result)

        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.concurrency, thread_name_prefix="flowtune")
        futures = [self._pool.submit(run, i) for i in range(len(items))]
        results, failures = [], []
        for i, future in enumerate(futures):
            try:
                results.append(future.result())
            except CancelledError:
                pass
            except BaseException as e:
                if not failures:
                    for later in futures[i + 1:]:
                        later.cancel()
                # A second stage runs only once its first has returned.
                failures.append((1 if seconds and seconds[i].ran else 0, i, e))
            firsts[i].commit()  # a task that never ran commits nothing
        for task in seconds:
            task.commit()
        if failures:
            raise min(failures, key=lambda f: f[:2])[2]
        return results

    def close(self) -> None:
        """Stop the fan-out's worker threads and close the backend's
        connections; a later fan-out or call opens new ones."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        getattr(self.client.backend, "close", lambda: None)()

    def executor_request(self, system: str | None, user: str, purpose: Purpose = Purpose.FORWARD,
                         extra_messages: tuple[Message, ...] = ()) -> ChatRequest:
        """A request at the executor settings; with `system` None, the user
        message goes alone."""
        head = (Message("system", system),) if system is not None else ()
        return ChatRequest(
            model_id=self.settings.executor_model,
            messages=head + (Message("user", user),) + extra_messages,
            temperature=self.settings.executor_temperature,
            max_output_tokens=self.settings.max_output_tokens,
            purpose=purpose,
        )

    def meta_json(self, template: str, values: dict[str, object], purpose: Purpose):
        """Render `template` with `values`, ask the meta model, and return its
        parsed JSON reply. Raises what `ChatClient.complete_json` raises."""
        pair = self.templates.render(template, values)
        return self.client.complete_json(ChatRequest(
            model_id=self.settings.meta_model,
            messages=(Message("system", pair.system), Message("user", pair.user)),
            temperature=self.settings.meta_temperature,
            max_output_tokens=self.settings.max_output_tokens,
            purpose=purpose,
        ))


class _Task:
    """One stage of one pool item of `Runtime.fan_out`: its runtime view and
    their buffers."""

    def __init__(self, rt: Runtime):
        self.rt = rt
        self.ledger = rt.client.ledger.fork()
        # A copy, as `ChatClient.with_ledger` makes one: the runtime's fields
        # were checked when it was built. The view runs its fan-outs inline,
        # so it holds no pool of its own and never shares this one.
        view = copy.copy(rt)
        view.client = rt.client.with_ledger(self.ledger)
        view.clock = self.ledger.clock
        view.concurrency = 1
        view._pool = None
        self.view = view
        self.deferred: list[Callable[[], None]] = []
        self.ran = False

    def run(self, fn, *args):
        self.ran = True
        token = DEFERRED.set(self.deferred)
        try:
            return fn(self.view, *args)
        finally:
            DEFERRED.reset(token)

    def commit(self) -> None:
        for action in self.deferred:
            at_commit(action)
        self.rt.client.ledger.absorb(self.ledger)
