import json
import re

import pytest

from flowtune.backend import Budget, Message, ChatRequest, Purpose, ScriptedMockBackend
from flowtune.config import (
    ConfigError,
    build_runtime,
    canned_script,
    load_config,
)
from flowtune.runtime import ModelSettings
from flowtune.store import LogicalClock
from flowtune.trainer import TrainConfig

from .helpers import nested_too_deep


def write(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


BASE = {
    "backend": {"kind": "scripted-mock", "script": "canned"},
    "datasets": {"train": "train.jsonl", "val": "val.jsonl"},
}


def test_load_config_defaults(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg.metric == "exact_match"
    assert cfg.schedule.mode == "full"
    assert (cfg.models, cfg.schedule, cfg.budget) == (ModelSettings(), TrainConfig(), Budget())
    assert cfg.datasets["train"] == tmp_path.resolve() / "train.jsonl"


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(write(tmp_path, {**BASE, "surprise": 1}))


def test_bad_backend_kind_rejected(tmp_path):
    with pytest.raises(ConfigError, match="backend.kind"):
        load_config(write(tmp_path, {**BASE, "backend": {"kind": "telepathy"}}))


def test_bad_mode_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        load_config(write(tmp_path, {**BASE, "mode": "warp"}))


def test_concurrency_reaches_the_runtime_and_is_validated(tmp_path):
    assert build_runtime(load_config(write(tmp_path, BASE))).concurrency == 8
    cfg = load_config(write(tmp_path, {**BASE, "concurrency": 3}))
    assert build_runtime(cfg).concurrency == 3
    for bad in (1.5, "4", True):
        with pytest.raises(ConfigError, match="concurrency"):
            load_config(write(tmp_path, {**BASE, "concurrency": bad}))
    for bad in (0, -2):
        with pytest.raises(ConfigError, match="concurrency"):
            build_runtime(load_config(write(tmp_path, {**BASE, "concurrency": bad})))


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(bad)


@nested_too_deep
def test_a_config_nested_too_deep_is_a_config_error_naming_the_file(tmp_path, deep):
    path = tmp_path / "deep.json"
    path.write_text(deep)
    with pytest.raises(ConfigError, match=f"^config {re.escape(str(path))} is not valid JSON: "
                                          "maximum recursion depth"):
        load_config(path)


def test_unknown_mock_script_rejected(tmp_path):
    with pytest.raises(ConfigError, match="improv"):
        load_config(write(tmp_path, {**BASE, "backend": {"kind": "scripted-mock",
                                                         "script": "improv"}}))


def test_http_backend_requires_endpoint(tmp_path):
    for backend in ({"kind": "http"}, {"kind": "http", "endpoint": ""}):
        with pytest.raises(ConfigError, match="endpoint"):
            load_config(write(tmp_path, {**BASE, "backend": backend}))


def test_replay_backend_requires_store(tmp_path):
    with pytest.raises(ConfigError, match="store_path"):
        load_config(write(tmp_path, {**BASE, "backend": {"kind": "replay"}}))


def test_tools_need_an_existing_corpus(tmp_path):
    cfg = load_config(write(tmp_path, {
        **BASE, "tools": {"enabled": ["search_topk"], "corpus_path": "missing.jsonl"}}))
    with pytest.raises(ConfigError, match="corpus_path"):
        build_runtime(cfg)


def test_settings_and_schedule_mapping(tmp_path):
    cfg = load_config(write(tmp_path, {
        **BASE,
        "models": {"executor_model": "big", "meta_model": "bigger",
                   "executor_temperature": 0.7, "max_output_tokens": 99},
        "schedule": {"batch_size": 3, "inner_steps_per_round": 2},
        "mode": "prompt_only",
        "budget": {"max_calls": 50},
        "val_subsample": 4,
    }))
    assert cfg.models == ModelSettings(executor_model="big", meta_model="bigger",
                                       executor_temperature=0.7, max_output_tokens=99)
    assert cfg.schedule == TrainConfig(batch_size=3, inner_steps_per_round=2,
                                       mode="prompt_only", val_subsample=4)
    rt = build_runtime(cfg)
    assert rt.settings is cfg.models
    assert rt.client.budget == Budget(max_calls=50)


def test_deterministic_backends_get_logical_clock(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    rt = build_runtime(cfg)
    assert isinstance(rt.client.backend, ScriptedMockBackend)

    store = tmp_path / "store.jsonl"
    store.write_text("")
    replay_cfg = load_config(write(tmp_path, {
        **BASE, "backend": {"kind": "replay", "store_path": "store.jsonl"}},
        name="replay.json"))
    # An unrecorded live run is stamped from the logical clock too.
    http_cfg = load_config(write(tmp_path, {
        **BASE, "backend": {"kind": "http", "endpoint": "http://localhost:1"}},
        name="http.json"))
    for rt in (rt, build_runtime(replay_cfg), build_runtime(http_cfg)):
        assert isinstance(rt.clock, LogicalClock)
        assert rt.clock is rt.client.ledger.clock


def test_resolved_json_obj_absolutizes_paths(tmp_path):
    base = tmp_path.resolve()
    cfg = load_config(write(tmp_path, {
        **BASE,
        "backend": {"kind": "scripted-mock", "script": "canned", "record_path": "store.jsonl"},
        "tools": {"enabled": [], "corpus_path": "corpus.jsonl"},
        "datasets": {**BASE["datasets"], "test": "splits/test.jsonl", "dev": str(base / "d")},
        "templates_dir": "",
    }))
    obj = cfg.resolved_json_obj()
    assert obj["datasets"] == {"train": str(base / "train.jsonl"), "val": str(base / "val.jsonl"),
                               "test": str(base / "splits" / "test.jsonl"),
                               "dev": str(base / "d")}
    assert obj["backend"]["record_path"] == str(base / "store.jsonl")
    assert obj["tools"]["corpus_path"] == str(base / "corpus.jsonl")
    assert obj["templates_dir"] == str(base)
    replay = load_config(write(tmp_path, {
        **BASE, "backend": {"kind": "replay", "store_path": "store.jsonl"},
        "templates_dir": "prompts"}, name="replay.json")).resolved_json_obj()
    assert replay["backend"]["store_path"] == str(base / "store.jsonl")
    assert replay["templates_dir"] == str(base / "prompts")


def make_request(purpose, user="hello", system=None):
    messages = (() if system is None else (Message("system", system),)) + \
        (Message("user", user),)
    return ChatRequest("m", messages, 0.0, 64, purpose)


def test_canned_script_covers_every_purpose():
    from flowtune.backend import extract_json
    from flowtune.forward import render_envelope

    envelope = render_envelope("the question", "")
    assert canned_script(make_request(Purpose.FORWARD, envelope, "sys")) == "the question"
    chained = render_envelope("the question", "prior output")
    assert canned_script(make_request(Purpose.FORWARD, chained, "sys")) == "prior output"
    assert canned_script(make_request(Purpose.BOOTSTRAP, "raw question")) == "raw question"
    plan = extract_json(canned_script(make_request(Purpose.OPTIM_WORKFLOW)))
    assert plan["should_update"] is False
    update = extract_json(canned_script(make_request(Purpose.OPTIM_CALL)))
    assert update["updated_prompt"]
    gradient = extract_json(canned_script(make_request(Purpose.GRAD_LOSS)))
    assert gradient["text_gradient"]


# Each case was accepted, coerced or failed late before the config was
# parsed into typed settings; each must now fail at load time, naming its key.
MISTYPED_OR_MISSPELLED = [
    ({"schedule": {"epoch": 3}}, "schedule.epoch"),
    ({"tools": {"enabeld": []}}, "tools.enabeld"),
    ({"schedule": {"batch_size": 2.7}}, "schedule.batch_size"),
    ({"keep_traces": "no"}, "keep_traces"),
    ({"val_subsample": "3"}, "val_subsample"),
    ({"models": {"executor_temperature": "hot"}}, "models.executor_temperature"),
    ({"seed": "0"}, "seed"),
    ({"models": {"max_output_tokens": 0}}, "models.max_output_tokens"),
    ({"tools": {"top_k_default": 0}}, "tools.top_k_default"),
    # JSON's NaN and Infinity parse as floats; no setting takes them.
    ({"budget": {"max_cost_usd": float("inf")}}, "budget.max_cost_usd"),
    ({"models": {"meta_temperature": float("nan")}}, "models.meta_temperature"),
    ({"backend": {"kind": "http", "endpoint": "http://127.0.0.1:9", "timeout_s": float("inf")}},
     "backend.timeout_s"),
]


@pytest.mark.parametrize("patch,key", MISTYPED_OR_MISSPELLED,
                         ids=[key for _, key in MISTYPED_OR_MISSPELLED])
def test_bad_values_fail_at_load_naming_the_key(tmp_path, patch, key):
    from click.testing import CliRunner

    from flowtune.cli import main

    from .test_cli import write_toy_config

    config_path = write_toy_config(tmp_path, extra=patch)
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        load_config(config_path)
    run_dir = tmp_path / "run"
    result = CliRunner().invoke(main, ["train", "--config", str(config_path),
                                       "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    assert not run_dir.exists()


@pytest.mark.parametrize("patch,key", [
    ({"models": {"temperature": 0.5}}, "models.temperature"),
    ({"budget": {"max_call": 5}}, "budget.max_call"),
    ({"datasets": {"train": 5}}, "datasets.train"),
    ({"prices": {"m": {"input_per_1m": "cheap", "output_per_1m": 2}}}, "prices.m.input_per_1m"),
    ({"prices": {"m": {"input_per_1m": 1, "output_per_1m": "NaN"}}}, "prices.m.output_per_1m"),
    ({"prices": {"m": {"input_per_1m": True, "output_per_1m": 2}}}, "prices.m.input_per_1m"),
    ({"prices": {"m": {"input_per_1m": 1, "output": 2}}}, "prices.m.output"),
    ({"prices": {"m": {"input_per_1m": 1}}}, "prices.m.output_per_1m"),
    ({"backend": {"kind": "scripted-mock", "endpoint": "http://x"}}, "backend.endpoint"),
    ({"backend": {"kind": "http", "endpoint": "http://x", "script": "echo"}}, "backend.script"),
    ({"backend": {"kind": "http", "endpoint": "http://x", "max_attempts": True}},
     "backend.max_attempts"),
    ({"budget": {"max_calls": 5.0}}, "budget.max_calls"),
    ({"tools": {"enabled": "search"}}, "tools.enabled"),
    ({"models": None}, "models"),
    ({"metric": "vibes"}, "vibes"),
    ({"schedule": {"epochs": 0}}, "epochs"),
    ({"models": {"meta_temperature": -0.1}}, "models.meta_temperature"),
    ({"budget": {"max_cost_usd": float("nan")}}, "budget.max_cost_usd"),
    ({"budget": {"max_cost_usd": 10**400}}, "budget.max_cost_usd"),
    ({"models": {"executor_temperature": float("inf")}}, "models.executor_temperature"),
])
def test_every_section_rejects_unknown_and_mistyped_keys(tmp_path, patch, key):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        load_config(write(tmp_path, {**BASE, **patch}))


def test_prices_take_decimal_strings_and_datasets_take_any_split(tmp_path):
    cfg = load_config(write(tmp_path, {
        **BASE,
        "prices": {"m": {"input_per_1m": "0.40", "output_per_1m": 2}},
        "datasets": {**BASE["datasets"], "dev": "dev.jsonl", "test": None},
    }))
    assert build_runtime(cfg).client.ledger.prices.cost_micro("m", 10**6, 10**6) == (2_400_000, False)
    obj = cfg.resolved_json_obj()
    assert obj["prices"]["m"] == {"input_per_1m": "0.40", "output_per_1m": 2}
    assert obj["datasets"]["dev"] == str(tmp_path.resolve() / "dev.jsonl")


@pytest.mark.parametrize("key", ["input_per_1m", "output_per_1m"])
def test_a_negative_price_is_a_config_error_naming_it(tmp_path, key):
    cfg = load_config(write(tmp_path, {
        **BASE, "prices": {"m": {"input_per_1m": "0.40", "output_per_1m": 0, key: "-0.40"}}}))
    with pytest.raises(ConfigError, match=rf"^prices\.m\.{key} must be >= 0, got -0\.40$"):
        build_runtime(cfg)


def test_ints_stand_in_for_floats_and_null_only_for_optional_keys(tmp_path):
    cfg = load_config(write(tmp_path, {
        **BASE,
        "models": {"executor_temperature": 1, "meta_temperature": 0},
        "budget": {"max_calls": None, "max_cost_usd": 2},
        "seed": None,
        "val_subsample": None,
        "templates_dir": None,
    }))
    assert type(cfg.models.executor_temperature) is float
    assert cfg.budget == Budget(max_cost_usd=2.0)
    assert cfg.schedule.seed is None
    for patch in ({"models": {"meta_model": None}}, {"concurrency": None},
                  {"keep_traces": None}):
        with pytest.raises(ConfigError, match="null"):
            load_config(write(tmp_path, {**BASE, **patch}))


def test_overrides_pass_the_schedule_checks(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    cfg.override(mode="no_bilevel", seed=None, epochs=3)
    assert (cfg.schedule.mode, cfg.schedule.seed, cfg.schedule.epochs) == ("no_bilevel", 0, 3)
    obj = cfg.resolved_json_obj()
    assert (obj["mode"], obj["schedule"]["epochs"]) == ("no_bilevel", 3)
    for bad in ({"mode": "warp"}, {"epochs": 0}):
        with pytest.raises(ConfigError):
            cfg.override(**bad)


def test_readme_config_example_loads(tmp_path):
    import re
    from pathlib import Path

    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config file", 1)[1]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    (tmp_path / example["tools"]["corpus_path"]).write_text(
        json.dumps({"doc_id": "d", "title": "t", "body": "b"}) + "\n")
    cfg = load_config(write(tmp_path, example))
    assert cfg.resolved_json_obj() == json.loads(json.dumps(
        {**example,
         "tools": {**example["tools"],
                   "corpus_path": str(tmp_path.resolve() / "corpus.jsonl")},
         "datasets": {split: str(tmp_path.resolve() / name)
                      for split, name in example["datasets"].items()}}))
    assert build_runtime(cfg).tools.names()
