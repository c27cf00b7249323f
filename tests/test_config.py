import json

import pytest

from flowtune.backend import Message, ChatRequest, Purpose, ScriptedMockBackend
from flowtune.config import (
    ConfigError,
    build_runtime,
    canned_script,
    load_config,
    model_settings,
    train_config,
)
from flowtune.store import LogicalClock, SystemClock


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
    assert cfg.mode == "full"
    assert cfg.base_dir == tmp_path.resolve()
    assert cfg.resolve("train.jsonl") == tmp_path.resolve() / "train.jsonl"


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
    for bad in (0, -2, 1.5, "4", True):
        with pytest.raises(ConfigError, match="concurrency"):
            load_config(write(tmp_path, {**BASE, "concurrency": bad}))


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(bad)


def test_unknown_mock_script_rejected(tmp_path):
    cfg = load_config(write(tmp_path, {**BASE, "backend": {"kind": "scripted-mock",
                                                           "script": "improv"}}))
    with pytest.raises(ConfigError, match="improv"):
        build_runtime(cfg)


def test_http_backend_requires_endpoint(tmp_path):
    cfg = load_config(write(tmp_path, {**BASE, "backend": {"kind": "http"}}))
    with pytest.raises(ConfigError, match="endpoint"):
        build_runtime(cfg)


def test_replay_backend_requires_store(tmp_path):
    cfg = load_config(write(tmp_path, {**BASE, "backend": {"kind": "replay"}}))
    with pytest.raises(ConfigError, match="store_path"):
        build_runtime(cfg)


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
    settings = model_settings(cfg)
    assert (settings.executor_model, settings.meta_model) == ("big", "bigger")
    assert settings.executor_temperature == 0.7
    assert settings.max_output_tokens == 99
    tcfg = train_config(cfg)
    assert tcfg.batch_size == 3
    assert tcfg.inner_steps_per_round == 2
    assert tcfg.mode == "prompt_only"
    assert tcfg.val_subsample == 4
    assert build_runtime(cfg).client.budget.max_calls == 50


def test_deterministic_backends_get_logical_clock(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    rt = build_runtime(cfg)
    assert isinstance(rt.clock, LogicalClock)
    assert isinstance(rt.client.backend, ScriptedMockBackend)

    store = tmp_path / "store.jsonl"
    store.write_text("")
    replay_cfg = load_config(write(tmp_path, {
        **BASE, "backend": {"kind": "replay", "store_path": "store.jsonl"}},
        name="replay.json"))
    assert isinstance(build_runtime(replay_cfg).clock, LogicalClock)

    http_cfg = load_config(write(tmp_path, {
        **BASE, "backend": {"kind": "http", "endpoint": "http://localhost:1"}},
        name="http.json"))
    assert isinstance(build_runtime(http_cfg).clock, SystemClock)


def test_resolved_json_obj_absolutizes_paths(tmp_path):
    cfg = load_config(write(tmp_path, {
        **BASE,
        "backend": {"kind": "scripted-mock", "script": "canned", "record_path": "store.jsonl"},
        "tools": {"enabled": [], "corpus_path": "corpus.jsonl"},
    }))
    obj = cfg.resolved_json_obj()
    assert obj["datasets"]["train"] == str(tmp_path.resolve() / "train.jsonl")
    assert obj["backend"]["record_path"] == str(tmp_path.resolve() / "store.jsonl")
    assert obj["tools"]["corpus_path"] == str(tmp_path.resolve() / "corpus.jsonl")


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
    judge = extract_json(canned_script(make_request(Purpose.JUDGE)))
    assert judge["score"] == 0.0
