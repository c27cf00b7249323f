"""Offline benchmark for flowtune.

    python3 perfbench/run.py --workload train_http --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, then repeats set-up plus the
workload's fixed work until `--seconds` have passed, checking every
repetition's outputs. The last line of standard output is one JSON object:
`correct`, `attempted` and `failed` operations, and the metrics, medians over
the repetitions, with times scaled to a reference speed (see SpeedProbe).
`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced repetitions and reports the per-layer metrics with the tracing
overhead. Run from a source checkout: the program is imported
from `src/`. Scratch files go to `.perfbench_work/` and traced spans to
`.perfbench_out/`, both in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REPS = 3  # untraced repetitions per run; a traced run makes 2 of each kind

# The speed of a small shared machine drifts with its neighbours' load, by up
# to 2x over minutes, and a slow phase can outlast a whole run. So a short
# fixed integer loop is timed every SAMPLE_PERIOD_S of wall time during each
# repetition, and the repetition's CPU time (with the stub's, on train_http)
# is scaled to the speed at which the loop takes CALIBRATION_REF_S; the rest of
# its wall time is left as it is. Of the loops tried (integer; dict and string;
# one long loop before and after the repetition), sampling this one tracked the
# drift of both CPU-bound workloads best.
CALIBRATION_LOOPS = 10_000
CALIBRATION_REF_S = 0.00075
SAMPLE_PERIOD_S = 0.05

# Workload and metric names with their units: BENCHMARK.json is their one
# source, so that the reported names always match the declared ones.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCH["per_layer"]]
PURPOSES = [name.removeprefix("backend.calls.") for name, _ in PER_LAYER
            if name.startswith("backend.calls.")]


class Stub:
    """The loopback chat-completions stub, in a process of its own."""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "stub.py"), "--seed", str(seed)],
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError("stub did not start")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    @property
    def endpoint(self) -> str:
        return self.base + "/v1"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with self._opener.open(self.base + path, data=data, timeout=30) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("/_reset", b"{}")

    def log(self) -> dict:
        return self._call("/_log")

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(rec, totals: dict, stub_log: dict | None, run_s: float) -> dict:
    """Per-layer metrics of one traced repetition."""
    from tracing import percentile, self_times

    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in rec.spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    selfs = self_times(rec.spans)

    def durations(*names):
        return [s.duration for n in names for s in by_name[n]]

    def self_sum(*names):
        return sum(selfs[s.id] for n in names for s in by_name[n])

    def count(name):
        return len(by_name[name])

    transport = durations("backend.transport")
    json_calls = by_name["backend.complete_json"]
    first_try = sum(1 for s in json_calls if s.error is None and
                    sum(1 for c in children[s.id] if c.name == "backend.client") == 1)
    grad_spans = by_name["gradients.backward"] + by_name["gradients.grad_workflow"]
    invocations = rec.counters.get("tools.invocations", 0)
    m = {f"backend.calls.{p}": totals["purposes"].get(p, 0) for p in PURPOSES}
    m.update({
        "backend.transport_ms_p50": percentile(transport, 50) / 1e6,
        "backend.transport_ms_p99": percentile(transport, 99) / 1e6,
        "backend.transport_retries":
            stub_log["requests"] - len(stub_log["answered"]) if stub_log else 0,
        "backend.json_first_try_frac": first_try / len(json_calls) if json_calls else 0.0,
        "backend.client_self_us": _mean([selfs[s.id] for s in by_name["backend.client"]]) / 1e3,
        "backend.extract_json_us": _mean(durations("backend.extract_json")) / 1e3,
        "backend.replay_key_us": _mean(durations("backend.replay_key")) / 1e3,
        "backend.record_write_us": _mean([selfs[s.id] for s in by_name["backend.record"]]) / 1e3,
        "backend.replay_load_s": sum(durations("backend.replay_load")) / 1e9,
        "store.record_call_us": _mean(durations("store.record_call")) / 1e3,
        "store.total_cost_reads": count("store.total_cost"),
        "store.total_cost_us": _mean(durations("store.total_cost")) / 1e3,
        "store.checkpoint_ms": sum(durations("store.checkpoint")) / 1e6,
        "templates.renders": count("templates.render"),
        "templates.render_us": _mean(durations("templates.render")) / 1e3,
        "tools.index_build_s": sum(durations("tools.index_build")) / 1e9,
        "tools.searches": count("tools.search"),
        "tools.search_ms_p50": percentile(durations("tools.search"), 50) / 1e6,
        "tools.search_ms_p99": percentile(durations("tools.search"), 99) / 1e6,
        "tools.step_ms_p50": percentile(durations("tools.run_tool_step"), 50) / 1e6,
        "tools.error_frac":
            rec.counters.get("tools.errors", 0) / invocations if invocations else 0.0,
        "forward.sample_ms_p50": percentile(durations("forward.run_workflow"), 50) / 1e6,
        "forward.sample_ms_p99": percentile(durations("forward.run_workflow"), 99) / 1e6,
        "forward.self_ms": self_sum("forward.run_workflow") / 1e6,
        "model.validate_us": _mean(durations("model.require_valid")) / 1e3,
        "gradients.backward_ms_p50": percentile(durations("gradients.backward"), 50) / 1e6,
        "gradients.self_ms": self_sum("gradients.backward", "gradients.grad_workflow") / 1e6,
        "gradients.dropped": sum(1 for s in grad_spans if s.error == "GradientUnavailable"),
        "optimizer.update_prompt_ms": sum(durations("optimizer.update_prompt")) / 1e6,
        "optimizer.update_workflow_ms": sum(durations("optimizer.update_workflow")) / 1e6,
        "optimizer.plans_applied": rec.counters.get("optimizer.plans_applied", 0),
        "optimizer.plans_rejected": rec.counters.get("optimizer.plans_rejected", 0),
        "optimizer.init_calls": count("optimizer.init_executor"),
        "trainer.validation_s": sum(durations("trainer.evaluate")) / 1e9,
        "trainer.batch_s": _mean(durations("trainer.batch")) / 1e9,
        "trainer.backend_wait_frac": sum(transport) / 1e9 / run_s,
        "evaluation.metric_us": _mean(durations("evaluation.metric")) / 1e3,
    })
    return m


def calibration_s() -> float:
    """Wall time of a fixed integer loop."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Times `calibration_s` every SAMPLE_PERIOD_S from a SIGALRM handler, so
    that the machine's speed is sampled over the same interval as the work."""

    def __enter__(self) -> SpeedProbe:
        self.samples: list[float] = []
        self.spent = 0.0  # wall and CPU time taken by the samples themselves
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibration_s())
        self.spent += time.perf_counter() - start

    def speed(self) -> float:
        """Reference ÷ measured loop time: below 1 on a slow phase."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


def reference_s(wall: float, cpu: float, speed: float) -> float:
    """`wall` with its CPU part scaled by `speed`; the rest, spent sleeping or
    on I/O, is kept."""
    cpu = min(cpu, wall)
    return wall - cpu + cpu * speed


def run_rep(workload: str, seed: int, inputs_dir: Path, rep_dir: Path, stub: Stub | None,
            traced: bool, spans_path: Path | None = None) -> dict:
    """One repetition: set-up, the timed work, the checks."""
    import workloads
    from tracing import SpanRecorder, call_depth, installed

    if stub is not None:
        stub.reset()
    gc.collect()  # start each repetition from the same heap, whatever the last left
    rec = SpanRecorder() if traced else None
    prep = None
    try:
        with SpeedProbe() as probe, installed(rec) if traced else nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            prep = workloads.setup(workload, seed, inputs_dir, rep_dir,
                                   stub.endpoint if stub else None)
            t1, c1, spent1 = time.perf_counter(), time.process_time(), probe.spent
            with rec.span("workload") if traced else nullcontext():
                outputs = workloads.work(workload, prep)
            t2, c2, spent2 = time.perf_counter(), time.process_time(), probe.spent
    except Exception as e:  # noqa: BLE001 - an escaping exception fails the run
        return {"problems": [f"{type(e).__name__}: {e}"], "attempted": 1, "failed": 1}
    finally:
        if prep is not None:
            prep.close()
    try:
        problems = workloads.check(workload, inputs_dir, prep, outputs)
    except (OSError, ValueError, KeyError) as e:
        problems = [f"outputs unreadable: {type(e).__name__}: {e}"]
    try:
        totals = workloads.ledger_totals(rep_dir / "ledger.jsonl")
    except ValueError as e:
        problems.append(str(e))
        totals = {"calls": 0, "purposes": {}}
    stub_log = stub.log() if stub is not None else None
    if stub_log is not None and len(stub_log["answered"]) != totals["calls"]:
        problems.append(f"stub answered {len(stub_log['answered'])} requests for "
                        f"{totals['calls']} ledger rows")
    extra_attempts, failed = workloads.failures(workload, prep, outputs)
    setup = (t1 - t0 - spent1, c1 - c0 - spent1)  # (wall, CPU) without the samples
    # The stub computes its replies while this process waits for them.
    run = (t2 - t1 - (spent2 - spent1),
           c2 - c1 - (spent2 - spent1) + (stub_log["cpu_s"] if stub_log else 0.0))
    speed = probe.speed()
    rep = {"problems": problems, "attempted": totals["calls"] + extra_attempts,
           "failed": failed, "setup_s": reference_s(*setup, speed),
           "run_s": reference_s(*run, speed), "wall_setup_s": setup[0], "wall_run_s": run[0],
           "speed": speed}
    if not problems:
        intervals = stub_log["answered"] if stub_log else prep.logged.intervals
        rep.update({k: totals[k] for k in ("calls", "tokens_in", "tokens_out")},
                   cost_usd=float(totals["cost_usd"]), call_depth=call_depth(intervals))
        if traced:
            rep["layers"] = layer_metrics(rec, totals, stub_log, run[0])
            if spans_path is not None:
                rec.write(spans_path)
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def measure(workload: str, seed: int, seconds: float, trace: bool, inputs_dir: Path,
            work_dir: Path, stub: Stub | None) -> dict:
    untraced, traced = [], []
    attempted = failed = 0
    spans_path = ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.jsonl"
    if trace:
        spans_path.parent.mkdir(exist_ok=True)
    start = time.perf_counter()
    rep_walls = []
    while True:
        tracing = trace and len(untraced) > len(traced)
        t0 = time.perf_counter()
        rep = run_rep(workload, seed, inputs_dir, work_dir / f"rep{len(untraced) + len(traced)}",
                      stub, tracing, spans_path if tracing else None)
        rep_walls.append(time.perf_counter() - t0)
        attempted += rep["attempted"]
        failed += rep["failed"]
        if rep["problems"]:
            for p in rep["problems"][:20]:
                print(f"perfbench: incorrect: {p}", file=sys.stderr)
            return {"correct": False, "attempted": attempted, "failed": max(failed, 1),
                    "metrics": {}}
        (traced if tracing else untraced).append(rep)
        # Stop before a repetition that would end past the deadline.
        next_end = time.perf_counter() - start + statistics.median(rep_walls)
        enough = (len(traced) >= 2 and len(untraced) >= 2) if trace else len(untraced) >= MIN_REPS
        if enough and next_end > seconds:
            break

    def median(key, reps=untraced):
        return statistics.median(r[key] for r in reps)

    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name, _ in PER_LAYER if name != "trace.overhead_frac"}
        base = median("run_s")
        layers["trace.overhead_frac"] = (median("run_s", traced) - base) / base
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        for key in ("setup_s", "run_s", "calls", "tokens_in", "tokens_out", "cost_usd",
                    "call_depth"):
            values[key] = median(key)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    summary = {name: m["value"] for name, m in metrics.items()}
    summary["failed_frac"] = failed / attempted
    for key in ("run_s", "wall_run_s", "setup_s", "wall_setup_s", "speed"):
        summary[f"rep_{key}"] = [round(r[key], 5) for r in untraced + traced]
    print(f"perfbench {workload} seed={seed} trace={int(trace)}: {json.dumps(summary)}")
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Offline flowtune benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowtune" / "__init__.py").is_file():
        print(f"perfbench: no flowtune sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import flowtune

    if Path(flowtune.__file__).resolve().parent != (SRC / "flowtune").resolve():
        print(f"perfbench: imported flowtune from {flowtune.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # The engine's warnings (JSON repairs, rejected plans) are expected here.
    logging.getLogger("flowtune").addHandler(logging.NullHandler())
    # The stub is on loopback; never route it through a proxy.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    inputs_dir = work_dir / "inputs"
    stub = None
    try:
        subprocess.run([sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", str(inputs_dir)],
                       check=True, timeout=150)
        if args.workload == "train_http":
            stub = Stub(args.seed)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), inputs_dir,
                         work_dir, stub)
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
