"""Run configuration: one JSON document captures everything a run needs.

Relative paths inside the file resolve against the file's own directory when
the file is loaded, so a config can travel with its datasets, corpus, and
replay store.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, is_dataclass, replace
from decimal import Decimal, InvalidOperation
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .backend import (
    Budget,
    ChatClient,
    ChatRequest,
    HttpBackend,
    Purpose,
    REPLAY,
    ReplayBackend,
    ScriptedMockBackend,
    echo_script,
    render_fenced,
)
from .evaluation import METRICS
from .model import LOOP_DONE_SENTINEL
from .runtime import DEFAULT_CONCURRENCY, ModelSettings, Runtime
from .store import PriceTable, RunLedger
from .templates import load_templates
from .tools import CorpusIndex, ToolRegistry, load_corpus, make_corpus_search_tool
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


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
    return render_fenced({"text_gradient": "Pass cleaner output to the next step."})


MOCK_SCRIPTS = {
    "echo": echo_script,
    "canned": canned_script,
}

# Each backend kind's own keys, typed, and those of them that are required.
BACKEND_KEYS = {
    "scripted-mock": ({"script": str}, ()),
    "http": ({"endpoint": str, "api_key_env": str, "timeout_s": float, "max_attempts": int},
             ("endpoint",)),
    "replay": ({"store_path": Path, "mode": str}, ("store_path",)),
}
TOOL_KEYS = {"enabled": list[str], "corpus_path": Path | None, "top_k_default": int}
# A price is a JSON number or a decimal string such as "0.40", which PriceTable
# reads exactly.
PRICE_KEYS = {"input_per_1m": Decimal, "output_per_1m": Decimal}
# The keys of TrainConfig that the file holds at its top level, not under "schedule".
TRAIN_TOP_LEVEL = ("mode", "seed", "val_subsample", "keep_traces")


@dataclass
class RunConfig:
    """A parsed config file, each section in the type that uses it."""

    backend: dict
    models: ModelSettings
    prices: dict
    schedule: TrainConfig
    budget: Budget
    tools: dict
    datasets: dict
    metric: str = "exact_match"
    templates_dir: Path | None = None
    loop_sentinel: str = LOOP_DONE_SENTINEL
    concurrency: int = DEFAULT_CONCURRENCY

    def override(self, **changes) -> None:
        """Apply command-line overrides of schedule fields; a None leaves a
        field as it is. The new values pass TrainConfig's own checks."""
        self.schedule = _checked_call(replace, self.schedule,
                                      **{k: v for k, v in changes.items() if v is not None})

    def resolved_json_obj(self) -> dict:
        """The config in its file layout. Its paths are the absolute ones the
        run used, so the copy a run directory keeps stays valid wherever it
        is read from."""
        obj = json.loads(json.dumps(asdict(self), default=str))
        obj.update((key, obj["schedule"].pop(key)) for key in TRAIN_TOP_LEVEL)
        return obj


def _checked_call(fn, *args, prefix: str = "", **kwargs):
    """fn(*args, **kwargs), with the ValueError of a range check raised as a
    ConfigError whose message starts with prefix, the section's name."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(prefix + str(e)) from e


def _has_type(value, hint) -> bool:
    if hint is Decimal:
        try:
            return type(value) in (int, float, str) and Decimal(str(value)).is_finite()
        except InvalidOperation:
            return False
    if get_origin(hint) is list:
        return type(value) is list and all(type(v) is get_args(hint)[0] for v in value)
    if hint is float:
        return type(value) is float and math.isfinite(value)
    return type(value) is hint


def _checked_value(key: str, value, hint, base: Path):
    """value if it has the type hint names, else a ConfigError naming key.

    Nothing is coerced, except that an int is taken where a float is
    expected (and becomes one), and a string where a Path is (and becomes
    absolute against base, the config file's directory). A float must be
    finite, a bool is never taken for a number, and null only where the hint
    is optional. A Decimal hint takes a finite JSON number or a string that
    holds one, as it is.
    """
    options = get_args(hint) if get_origin(hint) in (Union, UnionType) else (hint,)
    if float in options and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    if Path in options and type(value) is str:
        return base / value
    if not any(_has_type(value, t) for t in options):
        names = " or ".join("null" if t is type(None) else "a path" if t is Path else
                            "a decimal number" if t is Decimal else t.__name__ for t in options)
        raise ConfigError(f"{key} must be {names}, got {json.dumps(value)}")
    return value


def _checked(prefix: str, obj, hints: dict, base: Path, required=()) -> dict:
    """A JSON object's entries, with each key checked against hints and each
    value against its type, paths resolved against base. Keys left out stay
    out, so the type that takes the entries supplies their defaults."""
    if type(obj) is not dict:
        raise ConfigError(f"{prefix.rstrip('.') or 'config'} must be a JSON object")
    unknown = [prefix + key for key in obj if key not in hints]
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    missing = [prefix + key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    return {key: _checked_value(prefix + key, value, hints[key], base)
            for key, value in obj.items()}


def _parse_backend(obj, base: Path) -> dict:
    kind = obj.get("kind") if type(obj) is dict else None
    if type(kind) is not str or kind not in BACKEND_KEYS:
        raise ConfigError(f"backend.kind must be one of {tuple(BACKEND_KEYS)}")
    keys, required = BACKEND_KEYS[kind]
    # record_path is read only from the config.json of run directories that
    # earlier versions wrote; `flowtune train` refuses it.
    backend = _checked("backend.", obj, {"kind": str, "record_path": Path | None, **keys},
                       base, required)
    if kind == "scripted-mock":
        backend = {"script": "echo", **backend}
        if backend["script"] not in MOCK_SCRIPTS:
            raise ConfigError(f"unknown scripted-mock script {backend['script']!r}; "
                              f"available: {sorted(MOCK_SCRIPTS)}")
    if kind == "http" and not backend["endpoint"]:
        raise ConfigError("backend.endpoint is required for kind 'http'")
    if "mode" in backend and backend["mode"] != REPLAY:
        raise ConfigError("replay backends in config files run in replay mode; "
                          "every train records into its run directory")
    return backend


def load_config(path: str | Path) -> RunConfig:
    """Parse a config file into the types that use it. Unknown keys, values
    of the wrong type and values out of range raise ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    base = path.parent.resolve()
    train_hints = get_type_hints(TrainConfig)
    hints = {name: dict if is_dataclass(hint) else hint
             for name, hint in get_type_hints(RunConfig).items()}
    top = _checked("", obj, {**hints, **{key: train_hints[key] for key in TRAIN_TOP_LEVEL}}, base)

    def section(name: str, hints: dict) -> dict:
        return _checked(f"{name}.", top.pop(name, {}), hints, base)

    schedule = section("schedule", {k: v for k, v in train_hints.items()
                                    if k not in TRAIN_TOP_LEVEL})
    schedule.update((key, top.pop(key)) for key in TRAIN_TOP_LEVEL if key in top)
    cfg = RunConfig(
        backend=_parse_backend(top.pop("backend", {"kind": "scripted-mock"}), base),
        models=_checked_call(ModelSettings, prefix="models.",
                             **section("models", get_type_hints(ModelSettings))),
        prices={model: _checked(f"prices.{model}.", row, PRICE_KEYS, base, tuple(PRICE_KEYS))
                for model, row in top.pop("prices", {}).items()},
        schedule=_checked_call(TrainConfig, **schedule),
        budget=_checked_call(Budget, prefix="budget.",
                             **section("budget", get_type_hints(Budget))),
        tools={"enabled": [], "corpus_path": None, **section("tools", TOOL_KEYS)},
        # Split name to path. train and val are read; other splits are kept
        # in the run's config.json and otherwise ignored.
        datasets=section("datasets", dict.fromkeys(top.get("datasets", {}), Path | None)),
        **top,
    )
    if cfg.metric not in METRICS:
        raise ConfigError(f"unknown metric {cfg.metric!r}; available: {sorted(METRICS)}")
    if cfg.tools.get("top_k_default", 1) < 1:
        raise ConfigError(f"tools.top_k_default must be >= 1, got {cfg.tools['top_k_default']}")
    return cfg


def build_tool_registry(cfg: RunConfig) -> ToolRegistry:
    registry = ToolRegistry()
    if cfg.tools["enabled"]:
        corpus_path = cfg.tools["corpus_path"]
        if corpus_path is None or not corpus_path.exists():
            raise ConfigError(f"tools.corpus_path missing or not found: {corpus_path}")
        index = CorpusIndex(load_corpus(corpus_path))
        # Left out, the search tool's own default k applies.
        k = {"default_k": cfg.tools["top_k_default"]} if "top_k_default" in cfg.tools else {}
        for name in cfg.tools["enabled"]:
            _checked_call(registry.register, *make_corpus_search_tool(index, name=name, **k),
                          prefix="tools.enabled: ")
    return registry


def _build_backend(cfg: RunConfig):
    args = dict(cfg.backend)
    kind = args.pop("kind")
    args.pop("record_path", None)
    if kind == "scripted-mock":
        return ScriptedMockBackend(MOCK_SCRIPTS[args["script"]])
    if kind == "http":
        return _checked_call(HttpBackend, prefix="backend.", **args)
    if not args["store_path"].exists():
        raise ConfigError(f"backend.store_path not found: {args['store_path']}")
    return ReplayBackend(args["store_path"], REPLAY)


def build_runtime(cfg: RunConfig) -> Runtime:
    """The run's runtime. Its ledger has no sink yet, so a ConfigError here
    comes before any file is written."""
    if cfg.templates_dir is not None and not cfg.templates_dir.is_dir():
        raise ConfigError(f"templates_dir is not a directory: {cfg.templates_dir}")
    ledger = RunLedger(prices=_checked_call(PriceTable.from_config, cfg.prices, prefix="prices."))
    return _checked_call(
        Runtime,
        client=ChatClient(_build_backend(cfg), ledger, budget=cfg.budget),
        settings=cfg.models,
        templates=load_templates(cfg.templates_dir),
        tools=build_tool_registry(cfg),
        loop_sentinel=cfg.loop_sentinel,
        concurrency=cfg.concurrency,
    )
