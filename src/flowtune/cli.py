"""Command-line front door: train, eval, curve, inspect, replay.

Exit codes are a stable contract for scripts: 0 success, 2 usage or
configuration errors, 3 runtime failures. Machine output is JSON lines on
stdout (or CSV for `curve`); errors go to stderr as one JSON line.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import click

from .backend import RECORD, ReplayBackend
from .config import ConfigError, RunConfig, build_runtime, load_config
from .evaluation import DatasetError, Sample, get_metric, load_dataset, metric_info
from .model import InvalidStateError, WorkflowState, json_int, json_number, require_valid
from .optimizer import BootstrapFailed, bootstrap_workflow
from .runtime import Runtime
from .store import (
    INIT_CHECKPOINT,
    RunDirectory,
    load_checkpoint,
    micro_to_usd_str,
    read_rows,
    write_checkpoint,
)
from .trainer import TrainResult, evaluate, make_batches, train

USAGE_EXIT = 2
RUNTIME_EXIT = 3
# The files a replay compares; a halted run may lack some, and the replay
# must then lack them too. Every run records its calls into STORE_FILE.
REPLAY_FILES = ("records.jsonl", "ledger.jsonl", "best.json")
STORE_FILE = "store.jsonl"


def _fail(code: int, message: str) -> None:
    print(json.dumps({"error": message}), file=sys.stderr)
    sys.exit(code)


@click.group()
def main() -> None:
    """Workflow induction and optimization runs."""


def _load_split(cfg: RunConfig, split: str) -> list[Sample]:
    path = cfg.datasets.get(split)
    if path is None or not path.exists():
        raise ConfigError(f"{split} dataset missing: {path}")
    samples = load_dataset(path)
    if not samples:
        raise DatasetError(f"{split} dataset is empty: {path}")
    return samples


def _run(cfg: RunConfig, run_dir: Path,
         state0: WorkflowState | None = None) -> tuple[TrainResult, Runtime]:
    """The run that `train` and `replay` share. Loads the train and val
    splits and builds the runtime, exiting 2 on a run directory that is used
    or not a directory, a bad config or a bad dataset before any file is
    written; then writes the run directory, records every call into its
    store, bootstraps from the first batch unless `state0` is given (and
    kept in the run directory), and trains, exiting 3 on any failure."""
    if run_dir.exists() and not run_dir.is_dir():
        _fail(USAGE_EXIT, f"run directory {run_dir} is not a directory")
    if any((run_dir / name).exists() for name in (*REPLAY_FILES, STORE_FILE)):
        _fail(USAGE_EXIT, f"run directory {run_dir} already holds a run; "
                          f"records, ledgers and stores are append-only")
    try:
        train_set, val_set = _load_split(cfg, "train"), _load_split(cfg, "val")
        rt = build_runtime(cfg)
        if state0 is not None:
            require_valid(state0, rt.tools.names())
    except InvalidStateError as e:
        _fail(USAGE_EXIT, f"invalid checkpoint: {e}")
    except (OSError, ValueError) as e:  # ConfigError, DatasetError, unreadable files
        _fail(USAGE_EXIT, str(e))
    try:
        directory = RunDirectory(run_dir)
        directory.write_config(cfg.resolved_json_obj())
        rt.client.backend = ReplayBackend(run_dir / STORE_FILE, RECORD, inner=rt.client.backend)
        rt.client.ledger.open_sink(directory.ledger_path)
        if state0 is not None:
            write_checkpoint(state0, directory.root / INIT_CHECKPOINT)
        else:
            first_batch = make_batches(train_set, cfg.schedule)[0]
            state0 = bootstrap_workflow(rt, first_batch, get_metric(cfg.metric),
                                        metric_info(cfg.metric))
        result = train(rt, cfg.schedule, train_set, val_set, state0, cfg.metric,
                       run_dir=directory)
    except BootstrapFailed as e:
        _fail(RUNTIME_EXIT, f"bootstrap failed: {e}")
    except Exception as e:  # noqa: BLE001 - surface anything else as runtime failure
        _fail(RUNTIME_EXIT, str(e))
    finally:
        rt.client.ledger.close()
        rt.close()
    return result, rt


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Run config JSON.")
@click.option("--run-dir", required=True, type=click.Path(), help="Output run directory.")
@click.option("--mode", default=None, help="Override the config's optimization mode.")
@click.option("--seed", default=None, type=int, help="Override the config's seed.")
@click.option("--epochs", default=None, type=int, help="Override the config's epoch count.")
@click.option("--init-checkpoint", default=None, type=click.Path(),
              help="Start from this checkpoint instead of bootstrapping.")
def cmd_train(config_path, run_dir, mode, seed, epochs, init_checkpoint) -> None:
    """Bootstrap (unless a checkpoint is given) and run the training schedule."""
    try:
        cfg = load_config(config_path)
        cfg.override(mode=mode, seed=seed, epochs=epochs)
    except ConfigError as e:
        _fail(USAGE_EXIT, str(e))
    try:
        state0 = None if init_checkpoint is None else load_checkpoint(init_checkpoint)
    except (OSError, KeyError, ValueError) as e:
        _fail(USAGE_EXIT, f"invalid checkpoint: {e}")
    if cfg.backend.get("record_path") is not None:
        _fail(USAGE_EXIT, f"backend.record_path is no longer read: every train records into "
                          f"{STORE_FILE} in its run directory; remove the key")
    result, rt = _run(cfg, Path(run_dir), state0)
    print(json.dumps({
        "best_val_score": result.best_val_score,
        "best_batch_index": result.best_batch_index,
        "batches": len(result.records),
        "api_calls": rt.client.ledger.call_count,
        "cost_usd": float(micro_to_usd_str(rt.client.ledger.total_cost_micro)),
        "halted_early": result.halted_early,
    }))


@main.command("eval")
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--dataset", "dataset_path", required=True, type=click.Path())
@click.option("--metric", "metric_name", required=True)
@click.option("--config", "config_path", required=True, type=click.Path(),
              help="Run config (for the backend, tools, and model settings).")
def cmd_eval(checkpoint, dataset_path, metric_name, config_path) -> None:
    """Run a checkpoint over a dataset and print {metric, mean, n}."""
    try:
        cfg = load_config(config_path)
        get_metric(metric_name)
        state = load_checkpoint(checkpoint)
        samples = load_dataset(Path(dataset_path))
        if not samples:
            raise DatasetError(f"dataset is empty: {dataset_path}")
        rt = build_runtime(cfg)
    except (OSError, KeyError, ValueError) as e:  # ConfigError, DatasetError, bad checkpoints
        _fail(USAGE_EXIT, str(e))
    try:
        require_valid(state, rt.tools.names())
        summary = evaluate(rt, state, samples, metric_name)
    except InvalidStateError as e:
        _fail(USAGE_EXIT, f"invalid checkpoint: {e}")
    except Exception as e:  # noqa: BLE001
        _fail(RUNTIME_EXIT, str(e))
    finally:
        rt.close()
    print(json.dumps({"metric": metric_name, "mean": summary.mean_score, "n": len(samples)}))


def _curve_row(row) -> tuple[int, float, int, str]:
    """A run record's curve columns: counts as JSON integers, the rest as numbers."""
    return (json_int(row["batch_index"], "batch_index"),
            json_number(row["val_score"], "val_score"),
            json_int(row["api_calls_so_far"], "api_calls_so_far"),
            f'{json_number(row["cost_so_far_usd"], "cost_so_far_usd"):.6f}')


@main.command("curve")
@click.option("--run-dir", required=True, type=click.Path())
def cmd_curve(run_dir) -> None:
    """Emit the validation curve as CSV with a running best column."""
    records_path = Path(run_dir) / "records.jsonl"
    if not records_path.exists():
        _fail(USAGE_EXIT, f"records file missing: {records_path}")
    try:
        rows = list(read_rows(records_path, _curve_row, lambda line, reason: ValueError(
            f"records {records_path}, line {line}: {reason}")))
    except (OSError, ValueError) as e:
        _fail(USAGE_EXIT, str(e))
    print("batch_index,val_score,best_so_far,calls,cost")
    best = None
    for _, (batch_index, score, calls, cost) in rows:
        best = score if best is None else max(best, score)
        print(f"{batch_index},{score},{best},{calls},{cost}")


@main.command("inspect")
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--prompt-chars", default=60, show_default=True, type=click.IntRange(min=0),
              help="Prompt excerpt length per row.")
def cmd_inspect(checkpoint, prompt_chars) -> None:
    """Render a checkpoint's sketch as a table; tool steps carry a (T) marker."""
    try:
        state = load_checkpoint(checkpoint)
    except (OSError, KeyError, ValueError) as e:
        _fail(USAGE_EXIT, f"invalid checkpoint: {e}")
    print(f"revision {state.revision}, {len(state.sketch)} steps")
    print("step | description | executor | tools | prompt")
    for step in state.sketch:
        exe = state.executors[step.executor_name]
        marker = " (T)" if step.tool_names else ""
        tools = ",".join(step.tool_names) if step.tool_names else "-"
        excerpt = exe.prompt[:prompt_chars].replace("\n", " ")
        print(f"{step.step_id}{marker} | {step.description} | {step.executor_name} "
              f"(v{exe.version}) | {tools} | {excerpt}")


def _read_if_present(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


@main.command("replay")
@click.option("--run-dir", required=True, type=click.Path(),
              help="A run directory holding config.json and outputs.")
@click.option("--out", "out_dir", default=None, type=click.Path(),
              help="Where to rerun (default: a temporary directory).")
def cmd_replay(run_dir, out_dir) -> None:
    """Re-run a recorded run and assert its outputs are byte-identical.

    The run's own store answers every call. Run directories of earlier
    versions replay from the store their config's record_path names, or,
    unrecorded, from their deterministic backend. A run that started from a
    checkpoint starts from its copy in the run directory again."""
    run_path = Path(run_dir)
    config_path = run_path / "config.json"
    if not config_path.exists():
        _fail(USAGE_EXIT, f"no config.json in {run_dir}")
    try:
        cfg = load_config(config_path)
    except ConfigError as e:
        _fail(USAGE_EXIT, str(e))
    store = run_path / STORE_FILE
    if not store.exists():
        store = cfg.backend.get("record_path") or store
    if store.exists():
        cfg.backend = {"kind": "replay", "store_path": store}
    elif cfg.backend["kind"] == "http":
        _fail(USAGE_EXIT, "run was neither recorded nor deterministic; cannot replay")
    init_path = run_path / INIT_CHECKPOINT
    try:
        state0 = load_checkpoint(init_path) if init_path.exists() else None
    except (OSError, KeyError, ValueError) as e:
        _fail(USAGE_EXIT, f"invalid checkpoint: {e}")

    target = Path(out_dir) if out_dir else Path(tempfile.mkdtemp(prefix="flowtune-replay-"))
    try:
        _run(cfg, target, state0)
        mismatches = [name for name in REPLAY_FILES
                      if _read_if_present(run_path / name) != _read_if_present(target / name)]
        print(json.dumps({"identical": not mismatches, "mismatched_files": mismatches}))
        if mismatches:
            sys.exit(RUNTIME_EXIT)
    except Exception as e:  # noqa: BLE001 - surface anything else as runtime failure
        _fail(RUNTIME_EXIT, str(e))
    finally:
        if out_dir is None:
            shutil.rmtree(target, ignore_errors=True)

if __name__ == "__main__":
    main()
