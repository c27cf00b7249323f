import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


# --- generated config files ----------------------------------------------------

# Values of any JSON kind, finite or not, small or past a float.
ANY_VALUE = st.sampled_from([None, True, False, 0, 1, 2, -1, 0.5, -0.0, 1e308, 10**400,
                             float("inf"), float("nan"), "", "x", "0.40", [], ["x"], {}, {"x": 1}])
# Per key, values it takes, then values near them that it may not take. A
# key after "@" names its section where the name alone would be ambiguous.
KEY_VALUES = {
    "metric": (["exact_match", "token_f1"], ["vibes"]),
    "templates_dir": (["templates", None], ["missing", "corpus.jsonl"]),
    "loop_sentinel": (["DONE", ""], []),
    "concurrency": ([1, 3], [0, 10**400]),
    "mode": (["full", "prompt_only", "no_bilevel"], ["warp"]),
    "seed": ([0, 7, None], [-1, 10**400]),
    "val_subsample": ([1, 3, None], [0]),
    "keep_traces": ([True, False], []),
    "kind": (["scripted-mock", "http", "replay"], ["telepathy"]),
    "script": (["echo", "canned"], ["improv"]),
    "endpoint": (["http://127.0.0.1:9/v1", "https://h.invalid"],
                 ["ftp://h", "http://[::1", "http://h:99999", "http://h b", "http://"]),
    "api_key_env": (["", "FLOWTUNE_UNSET_KEY"], []),
    "timeout_s": ([0.5, 60], [0, 1e10, 1e300]),
    "max_attempts": ([1, 3], [0, 10**400]),
    "store_path": (["store.jsonl"], ["missing.jsonl"]),
    "mode@backend": (["replay"], ["record"]),
    "record_path": ([None], ["store.jsonl"]),
    "executor_model": (["m", ""], []),
    "meta_model": (["m", ""], []),
    "executor_temperature": ([0, 0.2], [-0.5, 1e308]),
    "meta_temperature": ([0, 0.2], [-0.5, 1e308]),
    "max_output_tokens": ([1, 64], [0, 10**400]),
    "input_per_1m": (["0.40", 2, "1e-99", 1e-7], ["-1", "1e999999999", "1e-999999999", "1e99",
                                                  "1" * 5000, "NaN", "Infinity", "abc", 1e308,
                                                  5e-324]),
    "output_per_1m": (["0.40", 2, "-0"], ["1e999999999"]),
    "max_calls": ([1, 50, None], [0, 10**400]),
    "max_cost_usd": ([0.5, 2, None], [0, 1e300, 1e303, 10**400]),
    "enabled": ([[], ["search_topk"], ["a", "b"]], [["a", "a"], [1]]),
    "corpus_path": (["corpus.jsonl", None], ["missing.jsonl"]),
    "top_k_default": ([1, 5], [0, 10**400]),
    "train": (["train.jsonl", None], []),
    "val": (["val.jsonl"], []),
}
INTS = ("batch_size", "bilevel_rounds_per_batch", "inner_steps_per_round",
        "outer_steps_per_round", "epochs")
KEY_VALUES.update(dict.fromkeys(INTS, ([1, 2], [0, 10**400])))
SECTIONS = {
    "backend": ("kind", "script", "endpoint", "api_key_env", "timeout_s", "max_attempts",
                "store_path", "mode@backend", "record_path"),
    "models": ("executor_model", "meta_model", "executor_temperature", "meta_temperature",
               "max_output_tokens"),
    "schedule": INTS,
    "budget": ("max_calls", "max_cost_usd"),
    "tools": ("enabled", "corpus_path", "top_k_default"),
    "datasets": ("train", "val"),
}
TOP = ("metric", "templates_dir", "loop_sentinel", "concurrency", "mode", "seed",
       "val_subsample", "keep_traces")
# Stands for a value nested deeper than `json` reads, put in after dumping.
DEEP = "@deep@"
VALUE_KINDS = st.sampled_from(["good"] * 340 + ["bad"] * 40 + ["any"] * 19 + ["deep"])
ONE_IN_20 = st.sampled_from([False] * 19 + [True])


@st.composite
def values(draw, key):
    """Mostly a value the key takes; now and then one that it nearly takes,
    or any value, or one nested too deep."""
    good, bad = KEY_VALUES[key]
    kind = draw(VALUE_KINDS)
    if kind == "deep":
        return DEEP
    if kind == "any":
        return draw(ANY_VALUE)
    return draw(st.sampled_from(bad if kind == "bad" and bad else good))


@st.composite
def config_objects(draw):
    """A config object: some top-level keys and sections, each key with a
    value from `values`, now and then an unknown key or a section that is
    no object."""
    obj = {key: draw(values(key)) for key in draw(st.lists(st.sampled_from(TOP), unique=True))}
    for name in draw(st.lists(st.sampled_from(sorted(SECTIONS) + ["prices"]), unique=True)):
        if draw(ONE_IN_20):
            obj[name] = draw(ANY_VALUE)
            continue
        keys = SECTIONS.get(name, ("input_per_1m", "output_per_1m"))
        chosen = draw(st.lists(st.sampled_from(keys), unique=True))
        if name == "backend" and "kind" not in chosen and not draw(ONE_IN_20):
            chosen.insert(0, "kind")
        section = {key.partition("@")[0]: draw(values(key)) for key in chosen}
        obj[name] = {"m": section} if name == "prices" else section
    if draw(ONE_IN_20):
        where = draw(st.sampled_from([obj] + [v for v in obj.values() if type(v) is dict]))
        where["surprise"] = 1
    return obj


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    """A directory with a corpus, an empty store and an empty templates
    directory, which generated configs name."""
    root = tmp_path_factory.mktemp("generated")
    (root / "corpus.jsonl").write_text(json.dumps({"doc_id": "d", "title": "t", "body": "b"}))
    (root / "store.jsonl").write_text("")
    (root / "templates").mkdir()
    return root


@settings(max_examples=100)
@given(obj=config_objects())
@example(obj={"backend": {"kind": []}})
@example(obj={"budget": {"max_cost_usd": 1e303}})
@example(obj={"tools": {"enabled": ["a", "a"], "corpus_path": "corpus.jsonl"}})
def test_a_generated_config_builds_or_is_a_config_error(config_dir, obj):
    path = config_dir / "config.json"
    path.write_text(json.dumps(obj).replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000))
    try:
        runtime = build_runtime(load_config(path))
    except ConfigError:
        return
    runtime.close()


# Before, a list for backend.kind raised TypeError, a cost cap past a float
# in micro-dollars OverflowError, and a tool named twice ValueError; a timeout
# no socket takes ended the run at its first call with OverflowError; and a
# price of 1e999999999 did not build in minutes (1e9999999 took 8 s).
@pytest.mark.parametrize("patch,key", [
    ({"backend": {"kind": []}}, "backend.kind"),
    ({"budget": {"max_cost_usd": 1e303}}, "budget.max_cost_usd"),
    ({"tools": {"enabled": ["a", "a"], "corpus_path": "corpus.jsonl"}}, "tools.enabled"),
    ({"backend": {"kind": "http", "endpoint": "http://127.0.0.1:9/v1", "timeout_s": 1e10}},
     "backend.timeout_s"),
    ({"prices": {"m": {"input_per_1m": "1e999999999", "output_per_1m": 0}}},
     "prices.m.input_per_1m"),
    ({"prices": {"m": {"input_per_1m": 0, "output_per_1m": "1e-999999999"}}},
     "prices.m.output_per_1m"),
], ids=["kind-list", "huge-cost-cap", "tool-twice", "huge-timeout", "huge-price", "tiny-price"])
def test_a_value_that_crashed_or_hung_is_a_config_error_and_train_exits_2(tmp_path, patch, key):
    from click.testing import CliRunner

    from flowtune.cli import main

    from .test_cli import write_toy_config

    config_path = write_toy_config(tmp_path, extra=patch)
    (tmp_path / "corpus.jsonl").write_text(json.dumps({"doc_id": "d", "title": "t", "body": "b"}))
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        build_runtime(load_config(config_path))
    run_dir = tmp_path / "run"
    result = CliRunner().invoke(main, ["train", "--config", str(config_path),
                                       "--run-dir", str(run_dir)])
    assert result.exit_code == 2, result.output
    assert not run_dir.exists()
