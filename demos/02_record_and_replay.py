"""Record a run once, then re-execute it with zero model calls.

Every chat completion is persisted to an append-only JSONL store, one row
of request and response per call. A replay backend serves the same run from
that store alone, matching each call by its request; every run is stamped
from a logical clock, so the rerun's ledger, records, and best checkpoint
come out byte-identical.

Run with:  python3 demos/02_record_and_replay.py
"""

import tempfile
from pathlib import Path

from flowtune import (
    ChatClient,
    ReplayBackend,
    RunDirectory,
    RunLedger,
    Runtime,
    Sample,
    ScriptedMockBackend,
    TrainConfig,
    train,
)
from flowtune.backend import RECORD, REPLAY
from flowtune.config import canned_script
from flowtune.evaluation import exact_match, metric_info
from flowtune.optimizer import bootstrap_workflow

root = Path(tempfile.mkdtemp(prefix="flowtune-replay-demo-"))
store = root / "store.jsonl"
dataset = [Sample(id=f"s{i}", question=f"echo {i}", answer=f"echo {i}") for i in range(4)]


def run(backend, into: str) -> RunDirectory:
    run_dir = RunDirectory(root / into)
    ledger = RunLedger(sink_path=run_dir.ledger_path)
    rt = Runtime(client=ChatClient(backend, ledger))
    state0 = bootstrap_workflow(rt, dataset[:2], exact_match, metric_info("exact_match"))
    train(rt, TrainConfig(batch_size=2, bilevel_rounds_per_batch=1,
                          inner_steps_per_round=1, seed=0),
          dataset, dataset[:2], state0, "exact_match", run_dir=run_dir)
    ledger.close()
    return run_dir


# --- pass 1: the scripted backend answers, every call lands in the store ----
recording = run(ReplayBackend(store, RECORD, inner=ScriptedMockBackend(canned_script)),
                "recorded")
rows = store.read_text().count("\n")
print(f"recorded run complete: {rows} calls persisted to {store.name}")

# --- pass 2: no script, no network; the store answers everything ------------
replayed = run(ReplayBackend(store, REPLAY), "replayed")
print("replayed run complete with zero live calls")

for name in ("ledger.jsonl", "records.jsonl", "best.json"):
    same = (recording.root / name).read_bytes() == (replayed.root / name).read_bytes()
    print(f"  {name}: {'byte-identical' if same else 'MISMATCH'}")
print(f"artifacts under {root}")
