"""End-to-end toy training run, fully offline.

A scripted backend stands in for the chat model: forward calls echo the
question through the chain and every meta call replies with minimal valid
JSON. That is enough to watch the whole machinery turn over: bootstrap a
workflow from nothing, run the bilevel schedule, track validation, and pick
the best checkpoint.

Run with:  python3 demos/01_train_toy_workflow.py
"""

import tempfile
from pathlib import Path

from flowtune import (
    ChatClient,
    RunDirectory,
    RunLedger,
    Runtime,
    ScriptedMockBackend,
    Sample,
    TrainConfig,
    bootstrap_workflow,
    train,
)
from flowtune.config import canned_script
from flowtune.evaluation import exact_match, metric_info

# --- a tiny QA task where the canned executor is exactly right -------------
# The canned script answers every question with the question text itself, so
# samples whose answer equals their question score EM = 1.0 and the rest 0.0.
train_set = [Sample(id=f"t{i}", question=f"repeat token {i}", answer=f"repeat token {i}")
             for i in range(6)]
val_set = [
    Sample(id="v-easy", question="repeat me", answer="repeat me"),
    Sample(id="v-hard", question="what is 2+2?", answer="4"),
]

# --- wire up a runtime around the scripted backend --------------------------
runtime = Runtime(client=ChatClient(ScriptedMockBackend(canned_script), RunLedger()))

# --- cold start: no workflow at all ----------------------------------------
state0 = bootstrap_workflow(runtime, train_set[:3], exact_match, metric_info("exact_match"))
print(f"bootstrapped workflow: {len(state0.sketch)} step(s), revision {state0.revision}")
for step in state0.sketch:
    print(f"  step {step.step_id}: {step.description} -> {step.executor_name}")

# --- one epoch of the default bilevel schedule ------------------------------
run_root = Path(tempfile.mkdtemp(prefix="flowtune-demo-"))
run_dir = RunDirectory(run_root)
config = TrainConfig(batch_size=3, bilevel_rounds_per_batch=1, inner_steps_per_round=2,
                     seed=0)
result = train(runtime, config, train_set, val_set, state0, "exact_match", run_dir=run_dir)

print("\nvalidation curve:")
best = 0.0
for record in result.records:
    best = max(best, record.val_score)
    print(f"  batch {record.batch_index}: val={record.val_score:.2f} "
          f"best-so-far={best:.2f} calls={record.api_calls_so_far}")
print(f"\nbest batch: {result.best_batch_index} (val={result.best_val_score:.2f})")
print(f"model calls made: {runtime.client.ledger.call_count}")
print(f"calls by purpose: {runtime.client.ledger.count_by_purpose()}")
print(f"run directory: {run_root} (checkpoints, records.jsonl, best.json)")
