"""flowtune: induce and optimize LLM workflows with textual feedback loops.

The library splits a workflow into a high-level sketch (what the steps are)
and per-step executors (how each step is prompted), then improves both: an
outer loop edits the sketch from structure-level feedback, an inner loop
rewrites each prompt by backpropagating natural-language gradients step by
step. Everything runs against a pluggable chat backend, so whole training
runs can be mocked, recorded, and replayed byte-for-byte.
"""

from .backend import (
    Budget,
    BudgetExceeded,
    ChatClient,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    Message,
    Purpose,
    ReplayBackend,
    ScriptedMockBackend,
    extract_json,
)
from .evaluation import EvalResult, Sample, exact_match, load_dataset, token_f1
from .forward import parse_envelope, render_envelope, run_workflow
from .gradients import backward, grad_loss, grad_workflow
from .model import (
    ExecutionTrace,
    ExecutorSpec,
    Loop,
    Route,
    Sequential,
    StepSpec,
    TextualGradient,
    WorkflowState,
    validate_state,
)
from .optimizer import bootstrap_workflow, init_executor, update_prompt, update_workflow
from .runtime import ModelSettings, Runtime
from .store import LogicalClock, PriceTable, RunDirectory, RunLedger, load_checkpoint
from .tools import CorpusIndex, ToolRegistry, load_corpus, make_corpus_search_tool
from .trainer import TrainConfig, TrainResult, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "BudgetExceeded",
    "ChatClient",
    "ChatRequest",
    "ChatResponse",
    "CorpusIndex",
    "EvalResult",
    "ExecutionTrace",
    "ExecutorSpec",
    "HttpBackend",
    "LogicalClock",
    "Loop",
    "Message",
    "ModelSettings",
    "PriceTable",
    "Purpose",
    "ReplayBackend",
    "Route",
    "RunDirectory",
    "RunLedger",
    "Runtime",
    "Sample",
    "ScriptedMockBackend",
    "Sequential",
    "StepSpec",
    "TextualGradient",
    "ToolRegistry",
    "TrainConfig",
    "TrainResult",
    "WorkflowState",
    "backward",
    "bootstrap_workflow",
    "evaluate",
    "exact_match",
    "extract_json",
    "grad_loss",
    "grad_workflow",
    "init_executor",
    "load_checkpoint",
    "load_corpus",
    "load_dataset",
    "make_corpus_search_tool",
    "parse_envelope",
    "render_envelope",
    "run_workflow",
    "token_f1",
    "train",
    "update_prompt",
    "update_workflow",
    "validate_state",
]
