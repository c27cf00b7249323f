"""Run configuration: one JSON document captures everything a run needs.

Relative paths inside the file resolve against the file's own directory, so a
config can travel with its datasets, corpus, and replay store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .backend import (
    Budget,
    ChatClient,
    ChatRequest,
    HttpBackend,
    Purpose,
    RECORD,
    REPLAY,
    ReplayBackend,
    ScriptedMockBackend,
    echo_script,
    render_fenced,
)
from .runtime import DEFAULT_CONCURRENCY, ModelSettings, Runtime
from .store import LogicalClock, PriceTable, RunLedger, SystemClock
from .templates import load_templates
from .tools import CorpusIndex, ToolRegistry, load_corpus, make_corpus_search_tool
from .trainer import MODES, TrainConfig


class ConfigError(ValueError):
    pass


BACKEND_KINDS = ("scripted-mock", "http", "replay")


def canned_script(request: ChatRequest) -> str:
    """Offline stand-in that keeps a whole training run moving.

    Forward calls echo the question (or the previous step's output); every
    meta call answers with minimal well-formed JSON that leaves the workflow
    structure alone. Useful for smoke runs and CLI examples with no network.
    """
    if request.purpose in (Purpose.FORWARD, Purpose.BOOTSTRAP):
        from .forward import parse_envelope

        for m in request.messages:
            if m.role != "user":
                continue
            try:
                question, previous = parse_envelope(m.content)
                return previous or question
            except ValueError:
                return m.content
        return "canned answer"
    if request.purpose == Purpose.GRAD_WORKFLOW:
        return render_fenced({
            "reasoning": "The current structure already fits this toy task.",
            "text_gradient": "Keep the structure; tighten each step's instructions.",
        })
    if request.purpose == Purpose.OPTIM_WORKFLOW:
        return render_fenced({
            "reasoning": "No structural change needed.",
            "should_update": False,
            "updated_execution_plan": [],
        })
    if request.purpose == Purpose.OPTIM_CALL:
        return render_fenced({
            "updated_prompt": "Answer with exactly the expected final answer text.",
            "changes_made": ["Tightened the output requirement."],
            "reasoning": "Gradients asked for a more literal final answer.",
        })
    if request.purpose == Purpose.JUDGE:
        return render_fenced({"score": 0.0, "feedback": "canned judge"})
    return render_fenced({"text_gradient": "Pass cleaner output to the next step."})


MOCK_SCRIPTS = {
    "echo": echo_script,
    "canned": canned_script,
}


@dataclass
class RunConfig:
    backend: dict = field(default_factory=lambda: {"kind": "scripted-mock", "script": "echo"})
    models: dict = field(default_factory=dict)
    prices: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    mode: str = "full"
    budget: dict = field(default_factory=dict)
    seed: int | None = 0
    metric: str = "exact_match"
    tools: dict = field(default_factory=dict)
    datasets: dict = field(default_factory=dict)
    templates_dir: str | None = None
    val_subsample: int | None = None
    keep_traces: bool = False
    loop_sentinel: str = "VERDICT: DONE"
    concurrency: int = DEFAULT_CONCURRENCY
    base_dir: Path = field(default_factory=Path)

    def resolve(self, path: str | None) -> Path | None:
        if path is None:
            return None
        p = Path(path)
        return p if p.is_absolute() else self.base_dir / p

    def to_json_obj(self) -> dict:
        return {
            "backend": self.backend,
            "models": self.models,
            "prices": self.prices,
            "schedule": self.schedule,
            "mode": self.mode,
            "budget": self.budget,
            "seed": self.seed,
            "metric": self.metric,
            "tools": self.tools,
            "datasets": self.datasets,
            "templates_dir": self.templates_dir,
            "val_subsample": self.val_subsample,
            "keep_traces": self.keep_traces,
            "loop_sentinel": self.loop_sentinel,
            "concurrency": self.concurrency,
        }

    def resolved_json_obj(self) -> dict:
        """to_json_obj with every path made absolute, so the copy a run
        directory keeps stays valid wherever it is read from."""
        obj = json.loads(json.dumps(self.to_json_obj()))

        def absolutize(mapping: dict, key: str) -> None:
            if mapping.get(key):
                mapping[key] = str(self.resolve(mapping[key]))

        for key in ("store_path", "record_path"):
            absolutize(obj["backend"], key)
        absolutize(obj["tools"], "corpus_path")
        for split in list(obj["datasets"]):
            absolutize(obj["datasets"], split)
        if obj.get("templates_dir"):
            obj["templates_dir"] = str(self.resolve(obj["templates_dir"]))
        return obj


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    known = {f for f in RunConfig.__dataclass_fields__ if f != "base_dir"}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**{k: v for k, v in obj.items()}, base_dir=path.parent.resolve())
    if cfg.backend.get("kind") not in BACKEND_KINDS:
        raise ConfigError(f"backend.kind must be one of {BACKEND_KINDS}")
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if isinstance(cfg.concurrency, bool) or not isinstance(cfg.concurrency, int) \
            or cfg.concurrency < 1:
        raise ConfigError(f"concurrency must be an integer >= 1, got {cfg.concurrency!r}")
    run_budget(cfg)
    return cfg


def run_budget(cfg: RunConfig) -> Budget:
    """The client's call and cost cap, the run's only budget."""
    try:
        return Budget(max_calls=cfg.budget.get("max_calls"),
                      max_cost_usd=cfg.budget.get("max_cost_usd"))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad budget {cfg.budget!r}: {e}") from e


def model_settings(cfg: RunConfig) -> ModelSettings:
    m = cfg.models
    return ModelSettings(
        executor_model=m.get("executor_model", "executor"),
        meta_model=m.get("meta_model", "meta"),
        executor_temperature=float(m.get("executor_temperature", 0.2)),
        meta_temperature=float(m.get("meta_temperature", 0.0)),
        max_output_tokens=int(m.get("max_output_tokens", 4096)),
    )


def train_config(cfg: RunConfig) -> TrainConfig:
    s = cfg.schedule
    return TrainConfig(
        batch_size=int(s.get("batch_size", 5)),
        bilevel_rounds_per_batch=int(s.get("bilevel_rounds_per_batch", 2)),
        inner_steps_per_round=int(s.get("inner_steps_per_round", 5)),
        outer_steps_per_round=int(s.get("outer_steps_per_round", 1)),
        epochs=int(s.get("epochs", 1)),
        mode=cfg.mode,
        seed=cfg.seed,
        val_subsample=cfg.val_subsample,
        keep_traces=cfg.keep_traces,
    )


def build_tool_registry(cfg: RunConfig) -> ToolRegistry:
    registry = ToolRegistry()
    tool_cfg = cfg.tools or {}
    enabled = tool_cfg.get("enabled", [])
    if enabled:
        corpus_path = cfg.resolve(tool_cfg.get("corpus_path"))
        if corpus_path is None or not corpus_path.exists():
            raise ConfigError(f"tools.corpus_path missing or not found: {corpus_path}")
        index = CorpusIndex(load_corpus(corpus_path))
        default_k = int(tool_cfg.get("top_k_default", 5))
        for name in enabled:
            spec, fn = make_corpus_search_tool(index, name=str(name), default_k=default_k)
            registry.register(spec, fn)
    return registry


def _build_backend(cfg: RunConfig, replay_override: Path | None = None):
    """Returns (backend, deterministic). Deterministic backends get a logical
    clock so repeat runs emit byte-identical files."""
    b = cfg.backend
    kind = b.get("kind")
    if replay_override is not None:
        return ReplayBackend(replay_override, REPLAY), True
    if kind == "scripted-mock":
        script_name = b.get("script", "echo")
        script = MOCK_SCRIPTS.get(script_name)
        if script is None:
            raise ConfigError(f"unknown scripted-mock script {script_name!r}; "
                              f"available: {sorted(MOCK_SCRIPTS)}")
        backend, deterministic = ScriptedMockBackend(script), True
    elif kind == "http":
        endpoint = b.get("endpoint")
        if not endpoint:
            raise ConfigError("backend.endpoint is required for kind 'http'")
        backend, deterministic = HttpBackend(
            endpoint=endpoint,
            api_key_env=b.get("api_key_env", ""),
            timeout_s=float(b.get("timeout_s", 60.0)),
            max_attempts=int(b.get("max_attempts", 3)),
        ), False
    elif kind == "replay":
        store = cfg.resolve(b.get("store_path"))
        if store is None:
            raise ConfigError("backend.store_path is required for kind 'replay'")
        mode = b.get("mode", REPLAY)
        if mode != REPLAY:
            raise ConfigError("replay backends in config files run in replay mode; "
                              "use record_path on another backend to record")
        backend, deterministic = ReplayBackend(store, REPLAY), True
    else:
        raise ConfigError(f"unknown backend kind {kind!r}")

    record_path = cfg.resolve(b.get("record_path"))
    if record_path is not None:
        backend = ReplayBackend(record_path, RECORD, inner=backend)
    return backend, deterministic


def build_runtime(cfg: RunConfig, ledger_sink: Path | None = None,
                  replay_override: Path | None = None) -> Runtime:
    backend, deterministic = _build_backend(cfg, replay_override)
    clock = LogicalClock() if deterministic else SystemClock()
    ledger = RunLedger(
        prices=PriceTable.from_config(cfg.prices),
        clock=clock,
        sink_path=ledger_sink,
    )
    client = ChatClient(backend, ledger, budget=run_budget(cfg))
    return Runtime(
        client=client,
        settings=model_settings(cfg),
        templates=load_templates(cfg.resolve(cfg.templates_dir)),
        tools=build_tool_registry(cfg),
        clock=clock,
        loop_sentinel=cfg.loop_sentinel,
        concurrency=cfg.concurrency,
    )
