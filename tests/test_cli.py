import gc
import json
import shutil
import threading
from dataclasses import replace

import pytest
from click.testing import CliRunner

from flowtune import config as config_module
from flowtune.backend import ChatRequest, HttpBackend, Message, Purpose, TransportError
from flowtune.cli import main
from flowtune.config import MOCK_SCRIPTS, canned_script
from flowtune.model import serialize_state
from flowtune.templates import TEMPLATE_NAMES, load_templates

from . import golden_scenario as G
from .helpers import REFUSAL, chain_state, chat_stub, clear_proxy_env
from .test_golden_replay import golden_run  # noqa: F401 - reused fixture


@pytest.fixture()
def runner():
    return CliRunner()


def write_toy_dataset(path, n=4, prefix="t"):
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n):
            # the canned forward echoes the question, so answers==questions score 1.0
            f.write(json.dumps({"id": f"{prefix}{i}", "question": f"toy question {i}",
                                "answer": f"toy question {i}"}) + "\n")


def write_toy_config(dir_path, extra=None):
    config = {
        "backend": {"kind": "scripted-mock", "script": "canned"},
        "models": {"executor_model": "exe-toy", "meta_model": "meta-toy"},
        "prices": {"exe-toy": {"input_per_1m": 0.40, "output_per_1m": 1.60},
                   "meta-toy": {"input_per_1m": 0.40, "output_per_1m": 1.60}},
        "schedule": {"batch_size": 2, "bilevel_rounds_per_batch": 1,
                     "inner_steps_per_round": 2, "outer_steps_per_round": 1, "epochs": 1},
        "mode": "full",
        "seed": 3,
        "metric": "exact_match",
        "datasets": {"train": "train.jsonl", "val": "val.jsonl"},
    }
    if extra:
        config.update(extra)
    write_toy_dataset(dir_path / "train.jsonl", 4, "t")
    write_toy_dataset(dir_path / "val.jsonl", 2, "v")
    path = dir_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_train_smoke_writes_run_directory(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["best_val_score"] == 1.0
    assert summary["api_calls"] > 0
    assert (run_dir / "best.json").exists()
    assert (run_dir / "records.jsonl").exists()
    assert (run_dir / "ledger.jsonl").exists()
    assert (run_dir / "config.json").exists()


def test_train_missing_dataset_exits_2_naming_path(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    (tmp_path / "train.jsonl").unlink()
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(tmp_path / "run")])
    assert result.exit_code == 2
    assert "train.jsonl" in result.output + str(result.stderr_bytes or b"")


def test_train_empty_split_exits_2_before_any_call(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    (tmp_path / "val.jsonl").write_text("")
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    assert "val dataset is empty" in result.output + str(result.stderr_bytes or b"")
    assert not run_dir.exists()


def test_train_prompt_only_keeps_revision_constant(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir), "--mode", "prompt_only"])
    assert result.exit_code == 0, result.output
    revisions = [json.loads(line)["revision"]
                 for line in (run_dir / "records.jsonl").read_text().splitlines()]
    assert len(revisions) == 2
    assert len(set(revisions)) == 1


def test_train_http_bad_max_attempts_exits_2_before_writing(tmp_path, runner):
    config_path = write_toy_config(tmp_path, extra={"backend": {
        "kind": "http", "endpoint": "http://127.0.0.1:9", "max_attempts": 0}})
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    assert "backend.max_attempts" in result.output + str(result.stderr_bytes or b"")
    assert not (run_dir / "ledger.jsonl").exists()


def test_train_http_api_key_with_a_line_break_exits_2_before_writing(tmp_path, runner,
                                                                    monkeypatch):
    """An API key read from a file with CRLF line ends would end its header."""
    clear_proxy_env(monkeypatch)
    monkeypatch.setenv("STUB_KEY", "secret-token\r\n")
    with chat_stub() as stub:
        config_path = write_toy_config(tmp_path, extra={"backend": {
            "kind": "http", "endpoint": stub.url, "api_key_env": "STUB_KEY"}})
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["train", "--config", str(config_path),
                                      "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    output = result.output + str(result.stderr_bytes or b"")
    assert "backend.api_key_env" in output
    assert "secret-token" not in output
    assert not run_dir.exists()
    assert stub.requests == []


def test_train_bad_config_exits_2(tmp_path, runner):
    bad = tmp_path / "config.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["train", "--config", str(bad),
                                  "--run-dir", str(tmp_path / "run")])
    assert result.exit_code == 2


@pytest.mark.parametrize("budget", [{"max_calls": 0}, {"max_calls": "5"}])
def test_train_bad_budget_exits_2_before_writing(tmp_path, runner, budget):
    config_path = write_toy_config(tmp_path, extra={"budget": budget})
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    assert "max_calls" in result.output + str(result.stderr_bytes or b"")
    assert not run_dir.exists()


def test_train_with_a_negative_price_exits_2_before_writing(tmp_path, runner):
    config_path = write_toy_config(tmp_path, extra={"prices": {
        "exe-toy": {"input_per_1m": 0.40, "output_per_1m": 1.60},
        "meta-toy": {"input_per_1m": "-0.40", "output_per_1m": 1.60}}})
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    assert "prices.meta-toy.input_per_1m must be >= 0" in \
        result.output + str(result.stderr_bytes or b"")
    assert not run_dir.exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def golden_eval_setup(tmp_path, golden_run):
    """Config + checkpoint + dataset that replays the recorded episode's eval pass."""
    _, replay_dir = golden_run["replay1"]
    store = golden_run["store"]
    corpus = tmp_path / "corpus.jsonl"
    dataset = tmp_path / "golden.jsonl"
    G.write_corpus(corpus)
    G.write_dataset(dataset)
    checkpoint = tmp_path / "golden_best.json"
    shutil.copyfile(replay_dir.best_path, checkpoint)
    config = {
        "backend": {"kind": "replay", "store_path": str(store), "mode": "replay"},
        "models": {"executor_model": "executor", "meta_model": "meta"},
        "prices": {},
        "metric": "exact_match",
        "tools": {"enabled": [G.SEARCH_TOOL], "corpus_path": str(corpus)},
        "datasets": {},
    }
    config_path = tmp_path / "eval_config.json"
    config_path.write_text(json.dumps(config))
    return config_path, checkpoint, dataset


def test_eval_golden_fixture_scores_zero(tmp_path, runner, golden_run):
    config_path, checkpoint, dataset = golden_eval_setup(tmp_path, golden_run)
    result = runner.invoke(main, ["eval", "--checkpoint", str(checkpoint),
                                  "--dataset", str(dataset),
                                  "--metric", "exact_match",
                                  "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip())
    assert summary == {"metric": "exact_match", "mean": 0.0, "n": 1}


def test_eval_empty_dataset_exits_2(tmp_path, runner, golden_run):
    config_path, checkpoint, dataset = golden_eval_setup(tmp_path, golden_run)
    dataset.write_text("")
    result = runner.invoke(main, ["eval", "--checkpoint", str(checkpoint),
                                  "--dataset", str(dataset),
                                  "--metric", "exact_match",
                                  "--config", str(config_path)])
    assert result.exit_code == 2


def test_eval_invalid_checkpoint_exits_2(tmp_path, runner, golden_run):
    config_path, checkpoint, dataset = golden_eval_setup(tmp_path, golden_run)
    checkpoint.write_text('{"schema_version": 99}')
    result = runner.invoke(main, ["eval", "--checkpoint", str(checkpoint),
                                  "--dataset", str(dataset),
                                  "--metric", "exact_match",
                                  "--config", str(config_path)])
    assert result.exit_code == 2


def test_eval_mixed_two_sample_set_scores_half(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(config_path),
                                "--run-dir", str(run_dir)]).exit_code == 0
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(
        json.dumps({"id": "right", "question": "echo me", "answer": "echo me"}) + "\n"
        + json.dumps({"id": "wrong", "question": "echo me too", "answer": "other"}) + "\n")
    result = runner.invoke(main, ["eval", "--checkpoint", str(run_dir / "best.json"),
                                  "--dataset", str(mixed),
                                  "--metric", "exact_match",
                                  "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.strip())["mean"] == 0.5


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def write_records(run_dir, scores):
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "records.jsonl", "w", encoding="utf-8") as f:
        for i, score in enumerate(scores):
            f.write(json.dumps({"batch_index": i, "val_score": score, "revision": 1,
                                "api_calls_so_far": 10 * (i + 1),
                                "cost_so_far_usd": 0.01 * (i + 1),
                                "timestamp": i}) + "\n")


def test_curve_running_max(tmp_path, runner):
    write_records(tmp_path / "run", [0.2, 0.5, 0.4])
    result = runner.invoke(main, ["curve", "--run-dir", str(tmp_path / "run")])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "batch_index,val_score,best_so_far,calls,cost"
    best_column = [float(line.split(",")[2]) for line in lines[1:]]
    assert best_column == [0.2, 0.5, 0.5]


def test_curve_single_record(tmp_path, runner):
    write_records(tmp_path / "run", [0.7])
    result = runner.invoke(main, ["curve", "--run-dir", str(tmp_path / "run")])
    assert len(result.output.strip().splitlines()) == 2


def test_curve_best_column_nondecreasing_on_random_sequences(tmp_path, runner):
    import random

    rng = random.Random(5)
    for trial in range(10):
        scores = [round(rng.random(), 4) for _ in range(rng.randrange(1, 12))]
        run_dir = tmp_path / f"run{trial}"
        write_records(run_dir, scores)
        result = runner.invoke(main, ["curve", "--run-dir", str(run_dir)])
        best_column = [float(line.split(",")[2])
                       for line in result.output.strip().splitlines()[1:]]
        assert best_column == sorted(best_column)


def test_curve_missing_records_file(tmp_path, runner):
    result = runner.invoke(main, ["curve", "--run-dir", str(tmp_path / "nope")])
    assert result.exit_code == 2


@pytest.mark.parametrize("torn", [b'{"batch_index": 2, "val_s', b'{"batch_index": 2}',
                                  b'{"batch_index": 2, "val_score": "\xff"}',
                                  pytest.param(b"[" * 100_000 + b"]" * 100_000,
                                               id="nested-too-deep")])
def test_curve_on_a_torn_records_line_exits_2_naming_the_line(tmp_path, runner, torn):
    write_records(tmp_path / "run", [0.2, 0.5])
    records = tmp_path / "run" / "records.jsonl"
    records.write_bytes(records.read_bytes() + torn + b"\n")
    result = runner.invoke(main, ["curve", "--run-dir", str(tmp_path / "run")])
    assert result.exit_code == 2
    assert result.stdout == ""
    error = json.loads(result.stderr.strip())["error"]
    assert error.startswith(f"records {records}, line 3: unreadable row: ")


@pytest.mark.parametrize("fields, cause", [
    ({"val_score": 10**400}, "OverflowError("),
    ({"cost_so_far_usd": 10**400}, "OverflowError("),
    ({"batch_index": "a,b"}, "batch_index must be an integer"),
    ({"batch_index": 2.0}, "batch_index must be an integer"),
    ({"api_calls_so_far": True}, "api_calls_so_far must be an integer"),
    ({"val_score": "0.5"}, "val_score must be a number"),
    ({"val_score": False}, "val_score must be a number"),
    ({"cost_so_far_usd": "0.01"}, "cost_so_far_usd must be a number"),
])
def test_curve_on_a_record_field_of_the_wrong_kind_exits_2_naming_the_line(tmp_path, runner,
                                                                           fields, cause):
    write_records(tmp_path / "run", [0.2, 0.5])
    records = tmp_path / "run" / "records.jsonl"
    row = {"batch_index": 2, "val_score": 0.4, "revision": 1, "api_calls_so_far": 30,
           "cost_so_far_usd": 0.03, "timestamp": 2, **fields}
    records.write_text(records.read_text() + json.dumps(row) + "\n")
    result = runner.invoke(main, ["curve", "--run-dir", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    error = json.loads(result.stderr.strip())["error"]
    assert error.startswith(f"records {records}, line 3: unreadable row: ")
    assert cause in error


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def test_inspect_golden_state_marks_tool_steps(tmp_path, runner, golden_run):
    _, replay_dir = golden_run["replay1"]
    result = runner.invoke(main, ["inspect", "--checkpoint", str(replay_dir.best_path)])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert "6 steps" in lines[0]
    data_rows = [l for l in lines if l and l[0].isdigit()]
    assert len(data_rows) == 6
    assert data_rows[0].startswith("1 (T)")
    assert data_rows[2].startswith("3 (T)")
    assert all(" (T)" not in row for i, row in enumerate(data_rows) if i not in (0, 2))
    # output is stable across invocations
    again = runner.invoke(main, ["inspect", "--checkpoint", str(replay_dir.best_path)])
    assert again.output == result.output


def test_inspect_single_step_state(tmp_path, runner):
    from flowtune.store import write_checkpoint

    from .helpers import chain_state

    path = tmp_path / "ck.json"
    write_checkpoint(chain_state(1), path)
    result = runner.invoke(main, ["inspect", "--checkpoint", str(path)])
    assert result.exit_code == 0
    assert len([l for l in result.output.splitlines() if l and l[0].isdigit()]) == 1


def test_inspect_refuses_a_negative_prompt_length(tmp_path, runner):
    from flowtune.store import write_checkpoint

    path = tmp_path / "ck.json"
    write_checkpoint(chain_state(1), path)
    result = runner.invoke(main, ["inspect", "--checkpoint", str(path), "--prompt-chars", "-10"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--prompt-chars" in result.stderr


def test_inspect_rejects_garbage(tmp_path, runner):
    path = tmp_path / "junk.json"
    path.write_text("{}")
    result = runner.invoke(main, ["inspect", "--checkpoint", str(path)])
    assert result.exit_code == 2


def test_inspect_rejects_a_number_that_is_not_an_integer(tmp_path, runner):
    path = tmp_path / "ck.json"
    path.write_text(serialize_state(chain_state(1)).replace('"revision": 0', '"revision": 2.7'))
    result = runner.invoke(main, ["inspect", "--checkpoint", str(path)])
    assert result.exit_code == 2
    assert "revision must be an integer" in result.output


def malformed_checkpoint(fault: str) -> str:
    obj = json.loads(serialize_state(chain_state(1)))
    if fault == "a list":
        obj = []
    elif fault == "executors a list":
        obj["executors"] = []
    elif fault == "a step a number":
        obj["sketch"] = [1]
    elif fault == "sketch null":
        obj["sketch"] = None
    elif fault == "tools a number":
        obj["sketch"][0]["tools"] = 5
    elif fault == "description null":
        obj["sketch"][0]["description"] = None
    else:  # a tool step whose tools are one string, not a list of names
        obj["sketch"][0]["tools"] = obj["executors"]["step_1"]["tool_names"] = "search"
        obj["executors"]["step_1"]["kind"] = "ToolExecutor"
    return json.dumps(obj)


# The first five escaped as an AttributeError or TypeError; the last two
# loaded, as the text "None" and as the tools s, e, a, r, c and h.
@pytest.mark.parametrize("fault", ["a list", "executors a list", "a step a number",
                                   "sketch null", "tools a number", "description null",
                                   "tools a string"])
def test_inspect_rejects_a_checkpoint_of_the_wrong_shape(tmp_path, runner, fault):
    path = tmp_path / "ck.json"
    path.write_text(malformed_checkpoint(fault))
    result = runner.invoke(main, ["inspect", "--checkpoint", str(path)])
    assert result.exit_code == 2, result.exception
    assert "invalid checkpoint: " in result.output


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_recorded_run_is_identical(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(config_path),
                                "--run-dir", str(run_dir)]).exit_code == 0
    assert (run_dir / "store.jsonl").exists()
    result = runner.invoke(main, ["replay", "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.strip())["identical"] is True


def test_replay_of_a_run_with_templates_beside_its_config_is_identical(tmp_path, runner):
    """templates_dir "" names the config's own directory; the run directory
    keeps it as that directory, so replay renders the same overrides."""
    override = "Override beside the config.\n" + load_templates().get("grad_loss").user
    (tmp_path / "grad_loss.user.txt").write_text(override, encoding="utf-8")
    config_path = write_toy_config(tmp_path, extra={"templates_dir": ""})
    run_dir = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(config_path),
                                "--run-dir", str(run_dir)]).exit_code == 0
    assert "Override beside the config." in (run_dir / "store.jsonl").read_text()
    result = runner.invoke(main, ["replay", "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.strip())["identical"] is True


@pytest.mark.parametrize("record_path", ["", ".", "store.jsonl"])
def test_train_with_a_record_path_exits_2_before_writing(tmp_path, runner, record_path):
    """Every run records into its own run directory; a store the config
    names elsewhere is read only from run directories of earlier versions."""
    config_path = write_toy_config(tmp_path, extra={"backend": {
        "kind": "scripted-mock", "script": "canned", "record_path": record_path}})
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    assert "backend.record_path" in result.output
    assert not run_dir.exists()
    assert not (tmp_path / "store.jsonl").exists()


def test_eval_with_a_run_directorys_config_and_best_checkpoint(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(config_path),
                                "--run-dir", str(run_dir)]).exit_code == 0
    store = (run_dir / "store.jsonl").read_bytes()
    result = runner.invoke(main, ["eval", "--config", str(run_dir / "config.json"),
                                  "--checkpoint", str(run_dir / "best.json"),
                                  "--dataset", str(tmp_path / "val.jsonl"),
                                  "--metric", "exact_match"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.strip())["mean"] == 1.0
    assert (run_dir / "store.jsonl").read_bytes() == store


def test_a_missing_templates_dir_exits_2_before_writing(tmp_path, runner):
    """A misspelled override directory would otherwise run on the built-in
    templates without a sign."""
    config_path = write_toy_config(tmp_path, extra={"templates_dir": "no-such-dir"})
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    assert "templates_dir" in result.output
    assert not run_dir.exists()


def test_replay_detects_tampered_outputs(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(config_path),
                                "--run-dir", str(run_dir)]).exit_code == 0
    records = run_dir / "records.jsonl"
    records.write_text(records.read_text().replace("1.0", "0.5"))
    result = runner.invoke(main, ["replay", "--run-dir", str(run_dir)])
    assert result.exit_code == 3
    assert "records.jsonl" in result.output


def test_train_with_a_missing_replay_store_exits_2_before_writing(tmp_path, runner):
    config_path = write_toy_config(tmp_path, extra={"backend": {
        "kind": "replay", "store_path": "missing.jsonl"}})
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    error = json.loads(result.output.strip().splitlines()[-1])["error"]
    assert error == f"backend.store_path not found: {tmp_path.resolve() / 'missing.jsonl'}"
    assert not run_dir.exists()


def test_eval_with_a_missing_replay_store_exits_2(tmp_path, runner):
    from flowtune.store import write_checkpoint

    config_path = write_toy_config(tmp_path, extra={"backend": {
        "kind": "replay", "store_path": "missing.jsonl"}})
    checkpoint = tmp_path / "ckpt.json"
    write_checkpoint(chain_state(1), checkpoint)
    result = runner.invoke(main, ["eval", "--checkpoint", str(checkpoint),
                                  "--dataset", str(tmp_path / "val.jsonl"),
                                  "--metric", "exact_match", "--config", str(config_path)])
    assert result.exit_code == 2
    assert "backend.store_path not found" in result.output


def test_eval_of_a_checkpoint_naming_an_unregistered_tool_exits_2_as_train_does(tmp_path, runner):
    from flowtune.model import StepSpec, WorkflowState
    from flowtune.store import write_checkpoint

    from .helpers import tool_executor

    config_path = write_toy_config(tmp_path)  # registers no tool
    exe = tool_executor("step_1", ("search_topk",))
    state = WorkflowState(sketch=(StepSpec(1, "search", exe.name, exe.tool_names),),
                          executors={exe.name: exe})
    checkpoint = tmp_path / "ckpt.json"
    write_checkpoint(state, checkpoint)
    eval_result = runner.invoke(main, ["eval", "--checkpoint", str(checkpoint),
                                       "--dataset", str(tmp_path / "val.jsonl"),
                                       "--metric", "exact_match", "--config", str(config_path)])
    train_result = runner.invoke(main, ["train", "--config", str(config_path),
                                        "--run-dir", str(tmp_path / "run"),
                                        "--init-checkpoint", str(checkpoint)])
    for result in (eval_result, train_result):
        assert result.exit_code == 2, result.output
        error = json.loads(result.stderr.strip())["error"]
        assert error.startswith("invalid checkpoint: ") and "search_topk" in error
    assert eval_result.stdout == ""


def canned_reply(body: dict) -> str:
    """`canned_script`'s reply to a request that came over HTTP, which does
    not carry the purpose: it is read back from the system prompt."""
    templates = load_templates()
    structural = {templates.get(name).system: purpose for name, purpose in (
        ("grad_workflow", Purpose.GRAD_WORKFLOW), ("optim_workflow", Purpose.OPTIM_WORKFLOW),
        ("optim_call", Purpose.OPTIM_CALL))}
    meta = {templates.get(name).system for name in TEMPLATE_NAMES}
    messages = tuple(Message(m["role"], m["content"]) for m in body["messages"])
    system = messages[0].content if messages[0].role == "system" else None
    purpose = structural.get(system, Purpose.GRAD_LOSS if system in meta else Purpose.FORWARD)
    return canned_script(ChatRequest(body["model"], messages, body["temperature"],
                                     body["max_tokens"], purpose))


def test_replay_of_a_recorded_http_run_is_identical(tmp_path, runner, monkeypatch):
    clear_proxy_env(monkeypatch)
    with chat_stub(reply=canned_reply) as stub:
        config_path = write_toy_config(tmp_path, extra={"backend": {
            "kind": "http", "endpoint": stub.url}})
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["train", "--config", str(config_path),
                                      "--run-dir", str(run_dir)])
        assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["best_val_score"] == 1.0
    assert summary["api_calls"] == len(stub.requests)
    moved = run_dir.rename(tmp_path / "moved")  # the run directory alone replays
    result = runner.invoke(main, ["replay", "--run-dir", str(moved)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.strip())["identical"] is True


def test_a_refused_forward_call_is_a_backend_error_that_replays(tmp_path, runner,
                                                                monkeypatch):
    """A reply with null content, as OpenAI sends for a refusal, fails its
    call as a transport error: the run goes on, and its replay fails the
    same call again."""
    clear_proxy_env(monkeypatch)
    with chat_stub(reply=canned_reply) as stub:
        config_path = write_toy_config(tmp_path, extra={
            "backend": {"kind": "http", "endpoint": stub.url}, "concurrency": 1})
        assert runner.invoke(main, ["train", "--config", str(config_path),
                                    "--run-dir", str(tmp_path / "first")]).exit_code == 0
        purposes = [json.loads(line)["request"]["purpose"]
                    for line in (tmp_path / "first" / "store.jsonl").read_text().splitlines()]
        n = purposes.index(Purpose.FORWARD.value)
        stub.script = [200] * n + [REFUSAL]
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["train", "--config", str(config_path),
                                      "--run-dir", str(run_dir)])
        assert result.exit_code == 0, result.output
    rows = [json.loads(line) for line in (run_dir / "store.jsonl").read_text().splitlines()]
    assert rows[n]["error"].startswith("unreadable chat completion response: TypeError(")
    assert len(rows) > n + 1
    result = runner.invoke(main, ["replay", "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.strip())["identical"] is True


class PinnedLatency:
    """An HTTP backend whose responses all report a latency of 0, the one
    field of a recorded row read off the wall clock."""

    def __init__(self, **kwargs):
        self.inner = HttpBackend(**kwargs)

    def complete(self, request):
        return replace(self.inner.complete(request), latency_s=0.0)

    def close(self):
        self.inner.close()


def test_an_http_recording_is_byte_identical_at_every_concurrency(tmp_path, runner,
                                                                  monkeypatch):
    clear_proxy_env(monkeypatch)
    monkeypatch.setattr(config_module, "HttpBackend", PinnedLatency)
    stores = {}
    with chat_stub(reply=canned_reply) as stub:
        for concurrency in (1, 8):
            root = tmp_path / f"c{concurrency}"
            root.mkdir()
            config_path = write_toy_config(root, extra={
                "backend": {"kind": "http", "endpoint": stub.url},
                "concurrency": concurrency})
            result = runner.invoke(main, ["train", "--config", str(config_path),
                                          "--run-dir", str(root / "run")])
            assert result.exit_code == 0, result.output
            stores[concurrency] = (root / "run" / "store.jsonl").read_bytes()
    assert stub.connections > 2  # the second run's fan-outs took several connections
    assert stores[8] == stores[1]


def test_two_runs_of_one_config_each_record_their_own_store(tmp_path, runner, monkeypatch):
    """Replay serves a store's rows in file order, so each run keeps the
    replies it was given in a store of its own, and each replays them."""
    clear_proxy_env(monkeypatch)
    run_number = [1]

    def reply(body):
        text = canned_reply(body)
        return text + " x" * run_number[0] if body["model"] == "exe-toy" else text

    with chat_stub(reply=reply) as stub:
        config_path = write_toy_config(tmp_path, extra={"backend": {
            "kind": "http", "endpoint": stub.url}})
        for number in (1, 2):
            run_number[0] = number
            result = runner.invoke(main, ["train", "--config", str(config_path),
                                          "--run-dir", str(tmp_path / f"run{number}")])
            assert result.exit_code == 0, result.output
    stores = [(tmp_path / name / "store.jsonl").read_bytes() for name in ("run1", "run2")]
    assert b" x x" in stores[1] and b" x x" not in stores[0]
    for name in ("run1", "run2"):
        result = runner.invoke(main, ["replay", "--run-dir", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output.strip())["identical"] is True


def test_replay_of_a_torn_store_exits_2_naming_the_row(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(config_path),
                                "--run-dir", str(run_dir)]).exit_code == 0
    store = run_dir / "store.jsonl"
    rows = len(store.read_text().splitlines())
    store.write_bytes(store.read_bytes()[:-40])
    result = runner.invoke(main, ["replay", "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    error = json.loads(result.output.strip().splitlines()[-1])["error"]
    assert f"{store}, line {rows}: unreadable row" in error


def test_replay_miss_exits_3_naming_the_purpose_and_the_calls_before_it(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(config_path),
                                "--run-dir", str(run_dir)]).exit_code == 0
    store = run_dir / "store.jsonl"
    rows = [json.loads(line) for line in store.read_text().splitlines()]
    requests = [json.dumps(row["request"]["messages"]) for row in rows]
    n = next(n for n in range(10, len(rows)) if requests.count(requests[n]) == 1)
    # The one row of the (n+1)-th request now records another request.
    rows[n]["request"]["messages"][-1]["content"] += " edited"
    store.write_text("".join(json.dumps(row) + "\n" for row in rows))
    result = runner.invoke(main, ["replay", "--run-dir", str(run_dir)])
    assert result.exit_code == 3
    error = json.loads(result.output.strip().splitlines()[-1])["error"]
    assert error.endswith(f"({rows[n]['request']['purpose']} call, after {n} calls)")
    del result
    gc.collect()  # a ledger the failed replay left open would warn here


def test_replay_of_a_store_row_that_is_not_utf8_exits_2_naming_the_row(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(config_path),
                                "--run-dir", str(run_dir)]).exit_code == 0
    store = run_dir / "store.jsonl"
    lines = store.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"content"', b'"cont\xffent"', 1)
    store.write_bytes(b"".join(lines))
    result = runner.invoke(main, ["replay", "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    error = json.loads(result.output.strip().splitlines()[-1])["error"]
    assert f"{store}, line 3: unreadable row: UnicodeDecodeError" in error


def test_replay_requires_complete_run_dir(tmp_path, runner):
    (tmp_path / "run").mkdir()
    result = runner.invoke(main, ["replay", "--run-dir", str(tmp_path / "run")])
    assert result.exit_code == 2


def test_a_run_halted_before_its_first_batch_replays_identical(tmp_path, runner):
    """A budget that runs out after bootstrap leaves no records.jsonl and no
    best.json; the replay must leave them out too."""
    config_path = write_toy_config(tmp_path, extra={"budget": {"max_calls": 10}})
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.strip().splitlines()[-1])["halted_early"] is True
    assert not (run_dir / "records.jsonl").exists() and not (run_dir / "best.json").exists()
    result = runner.invoke(main, ["replay", "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.strip()) == {"identical": True, "mismatched_files": []}


def test_a_run_dir_that_is_a_file_exits_2_before_loading(tmp_path, runner, monkeypatch):
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(config_path),
                                "--run-dir", str(run_dir)]).exit_code == 0
    built = []
    monkeypatch.setattr("flowtune.cli.build_runtime", lambda cfg: built.append(cfg))
    plain = tmp_path / "plain"
    plain.write_bytes(b"not a run")
    for args in (["train", "--config", str(config_path), "--run-dir", str(plain)],
                 ["replay", "--run-dir", str(run_dir), "--out", str(plain)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        error = json.loads(result.output.strip().splitlines()[-1])["error"]
        assert error == f"run directory {plain} is not a directory"
    assert built == []
    assert plain.read_bytes() == b"not a run"


def test_replay_out_into_a_used_directory_exits_2_before_writing(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    run_dir, out = tmp_path / "run", tmp_path / "out"
    assert runner.invoke(main, ["train", "--config", str(config_path),
                                "--run-dir", str(run_dir)]).exit_code == 0
    first = runner.invoke(main, ["replay", "--run-dir", str(run_dir), "--out", str(out)])
    assert json.loads(first.output.strip())["identical"] is True
    written = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    again = runner.invoke(main, ["replay", "--run-dir", str(run_dir), "--out", str(out)])
    assert again.exit_code == 2, again.output
    assert "already holds a run" in again.output
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == written
    for name in ("records.jsonl", "ledger.jsonl", "best.json"):
        (out / name).unlink()  # at the end the recorded calls alone mark it as used
        again = runner.invoke(main, ["replay", "--run-dir", str(run_dir), "--out", str(out)])
        assert again.exit_code == 2, again.output
    assert (out / "store.jsonl").read_bytes() == written[out / "store.jsonl"]


def test_train_from_init_checkpoint_skips_bootstrap(tmp_path, runner):
    from flowtune.store import write_checkpoint

    from .helpers import chain_state

    config_path = write_toy_config(tmp_path)
    checkpoint = tmp_path / "init.json"
    write_checkpoint(chain_state(1), checkpoint)
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir),
                                  "--init-checkpoint", str(checkpoint)])
    assert result.exit_code == 0, result.output
    purposes = {json.loads(line)["purpose"]
                for line in (run_dir / "ledger.jsonl").read_text().splitlines()}
    assert "Bootstrap" not in purposes


def test_replay_of_a_run_from_an_init_checkpoint_is_identical(tmp_path, runner):
    from flowtune.store import write_checkpoint

    from .helpers import chain_state

    config_path = write_toy_config(tmp_path)
    checkpoint = tmp_path / "init.json"
    write_checkpoint(chain_state(2), checkpoint)
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir),
                                  "--init-checkpoint", str(checkpoint)])
    assert result.exit_code == 0, result.output
    assert (run_dir / "checkpoints" / "init.json").read_bytes() == checkpoint.read_bytes()
    checkpoint.unlink()  # the run directory alone replays
    result = runner.invoke(main, ["replay", "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.strip())["identical"] is True


def fail_nth_call(purpose: Purpose, n: int):
    """`canned_script`, except that its nth call for `purpose` drops the connection."""
    lock, calls = threading.Lock(), []

    def script(request):
        if request.purpose == purpose:
            with lock:
                calls.append(request)
                if len(calls) == n:
                    raise TransportError("connection dropped")
        return canned_script(request)

    return script


def test_transport_failure_on_a_meta_call_halts_softly(tmp_path, runner, monkeypatch):
    # The third prompt update is the first of batch 1.
    monkeypatch.setitem(MOCK_SCRIPTS, "canned", fail_nth_call(Purpose.OPTIM_CALL, 3))
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["halted_early"] is True
    assert summary["batches"] == 1 and summary["best_batch_index"] == 0
    assert (run_dir / "best.json").read_bytes() == \
        (run_dir / "checkpoints" / "batch_0.json").read_bytes()


@pytest.mark.parametrize("purpose, n", [(Purpose.FORWARD, 5), (Purpose.GRAD_LOSS, 2),
                                        (Purpose.OPTIM_CALL, 3)])
def test_replay_of_a_recorded_transport_failure_is_identical(tmp_path, runner, monkeypatch,
                                                             purpose, n):
    monkeypatch.setitem(MOCK_SCRIPTS, "canned", fail_nth_call(purpose, n))
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    rows = [json.loads(line) for line in (run_dir / "store.jsonl").read_text().splitlines()]
    assert [row["error"] for row in rows if "error" in row] == ["connection dropped"]
    moved = run_dir.rename(tmp_path / "moved")  # the run directory alone replays
    result = runner.invoke(main, ["replay", "--run-dir", str(moved)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.strip())["identical"] is True


def test_train_seed_override_changes_batching(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert runner.invoke(main, ["train", "--config", str(config_path), "--run-dir", str(a),
                                "--seed", "1"]).exit_code == 0
    assert runner.invoke(main, ["train", "--config", str(config_path), "--run-dir", str(b),
                                "--seed", "1"]).exit_code == 0
    assert (a / "ledger.jsonl").read_bytes() == (b / "ledger.jsonl").read_bytes()


def test_train_refuses_to_reuse_a_run_directory(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(config_path),
                                "--run-dir", str(run_dir)]).exit_code == 0
    again = runner.invoke(main, ["train", "--config", str(config_path),
                                 "--run-dir", str(run_dir)])
    assert again.exit_code == 2


def test_config_error_leaves_no_run_that_blocks_a_retry(tmp_path, runner):
    config_path = write_toy_config(tmp_path, extra={
        "tools": {"enabled": ["search_topk"], "corpus_path": "missing.jsonl"}})
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    assert "corpus_path" in result.output + str(result.stderr_bytes or b"")
    assert not (run_dir / "ledger.jsonl").exists()
    config_path = write_toy_config(tmp_path)
    retry = runner.invoke(main, ["train", "--config", str(config_path),
                                 "--run-dir", str(run_dir)])
    assert retry.exit_code == 0, retry.output


@pytest.mark.parametrize("row", [
    '{"doc_id": "b", "body": "C"}',
    "[1, 2]",
    '{"doc_id": "b", "title": "U", "bo',
    '{"doc_id": "b", "title": null, "body": ["x", {"y": 1}]}',
])
def test_an_unreadable_corpus_row_exits_2_naming_the_line_before_writing(tmp_path, runner, row):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"doc_id": "a", "title": "T", "body": "B"}\n' + row + "\n")
    config_path = write_toy_config(tmp_path, extra={
        "tools": {"enabled": ["search_topk"], "corpus_path": "corpus.jsonl"}})
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr.strip().splitlines()[-1])["error"]
    assert error.startswith(f"corpus {corpus}, line 2: unreadable row: ")
    assert not run_dir.exists()


def test_a_corpus_row_that_is_not_utf8_exits_2_naming_the_line_before_writing(tmp_path, runner):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b'{"doc_id": "a", "title": "T", "body": "B"}\n'
                       b'{"doc_id": "b", "title": "\xff", "body": "C"}\n')
    config_path = write_toy_config(tmp_path, extra={
        "tools": {"enabled": ["search_topk"], "corpus_path": "corpus.jsonl"}})
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr.strip().splitlines()[-1])["error"]
    assert error.startswith(f"corpus {corpus}, line 2: unreadable row: UnicodeDecodeError")
    assert not run_dir.exists()


def test_a_dataset_field_that_is_no_string_or_number_exits_2_before_writing(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    train = tmp_path / "train.jsonl"
    with open(train, "a", encoding="utf-8") as f:
        f.write('{"id": "a", "question": null, "answer": [1]}\n')
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr.strip().splitlines()[-1])["error"]
    assert error == f"{train}:5: question must be a string or a number, got NoneType"
    assert not run_dir.exists()


def test_bad_init_checkpoint_exits_2_before_writing(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    checkpoint = tmp_path / "init.json"
    checkpoint.write_text('{"schema_version": 99}')
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir),
                                  "--init-checkpoint", str(checkpoint)])
    assert result.exit_code == 2
    assert not run_dir.exists()


def test_replay_with_a_missing_split_exits_2_naming_it(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(config_path),
                                "--run-dir", str(run_dir)]).exit_code == 0
    (tmp_path / "val.jsonl").unlink()
    result = runner.invoke(main, ["replay", "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    assert "val dataset missing" in result.output + str(result.stderr_bytes or b"")


def test_replay_reads_the_config_layout_of_earlier_versions(tmp_path, runner):
    """Run directories keep the config as written then: sections hold only
    the keys the user gave, defaults are left out, prices may be decimal
    strings and datasets may name splits a run does not read."""
    config_path = write_toy_config(tmp_path)
    run_dir = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(config_path),
                                "--run-dir", str(run_dir), "--epochs", "2"]).exit_code == 0
    base = tmp_path.resolve()
    (run_dir / "store.jsonl").rename(base / "store.jsonl")
    (run_dir / "config.json").write_text(json.dumps({
        "backend": {"kind": "scripted-mock", "record_path": str(base / "store.jsonl"),
                    "script": "canned"},
        "budget": {},
        "concurrency": 8,
        "datasets": {"train": str(base / "train.jsonl"), "val": str(base / "val.jsonl"),
                     "dev": str(base / "dev.jsonl")},
        "keep_traces": False,
        "loop_sentinel": "VERDICT: DONE",
        "metric": "exact_match",
        "mode": "full",
        "models": {"executor_model": "exe-toy", "meta_model": "meta-toy"},
        "prices": {"exe-toy": {"input_per_1m": "0.40", "output_per_1m": "1.60"},
                   "meta-toy": {"input_per_1m": 0.4, "output_per_1m": 1.6}},
        "schedule": {"batch_size": 2, "bilevel_rounds_per_batch": 1, "epochs": 2,
                     "inner_steps_per_round": 2, "outer_steps_per_round": 1},
        "seed": 3,
        "templates_dir": None,
        "tools": {},
        "val_subsample": None,
    }, indent=2, sort_keys=True))
    result = runner.invoke(main, ["replay", "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.strip())["identical"] is True


def test_unreadable_config_is_a_config_error(tmp_path, runner):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(b'{"seed": "\xff"}')
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(tmp_path / "run")])
    assert result.exit_code == 2
    output = result.output + str(result.stderr_bytes or b"")
    assert "cannot read config file" in output
    assert "invalid checkpoint" not in output


@pytest.mark.parametrize("row, reason", [(b"5", "row is not a JSON object"),
                                         (b'{"id": "\xff"}', "unreadable row: UnicodeDecodeError")])
def test_a_split_row_that_is_no_object_in_utf8_exits_2_naming_the_line(tmp_path, runner,
                                                                      row, reason):
    config_path = write_toy_config(tmp_path)
    val = tmp_path / "val.jsonl"
    val.write_bytes(val.read_bytes() + row + b"\n")
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 2, result.output
    error = json.loads(result.stderr.strip().splitlines()[-1])["error"]
    assert error.startswith(f"{val}:3: {reason}")
    assert not run_dir.exists()


def test_unreadable_split_exits_2_before_writing(tmp_path, runner):
    config_path = write_toy_config(tmp_path)
    (tmp_path / "val.jsonl").unlink()
    (tmp_path / "val.jsonl").mkdir()
    run_dir = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(config_path),
                                  "--run-dir", str(run_dir)])
    assert result.exit_code == 2
    assert not run_dir.exists()
