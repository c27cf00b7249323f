"""Every model request, pinned.

One fixed scripted run per mode (bootstrap included) is played at
concurrency 1. The purposes and replay keys of all its requests hash to a
constant per mode, so any change to a prompt, a template value, a message
layout or the model settings of a request shows here. So do the clock
readings that stamp the run's ledger rows and records: a reading added,
removed or moved shifts every later `ts`, and a run recorded earlier would no
longer replay as identical. Each meta request is also checked to fill every
placeholder of its template.
"""

import hashlib
from typing import NamedTuple

import pytest

from flowtune.backend import (
    RECORD,
    REPLAY,
    ChatClient,
    Purpose,
    ReplayBackend,
    ScriptedMockBackend,
    TransportError,
    request_replay_key,
)
from flowtune.evaluation import Sample, exact_match, metric_info
from flowtune.forward import parse_envelope
from flowtune.optimizer import bootstrap_workflow
from flowtune.runtime import Runtime
from flowtune.templates import _PLACEHOLDER_RE, TEMPLATE_NAMES, load_templates
from flowtune.tools import CorpusDoc, CorpusIndex, ToolRegistry, make_corpus_search_tool
from flowtune.store import LedgerRow, LogicalClock, RunLedger
from flowtune.trainer import RunRecord, TrainConfig, TrainResult, train

from .helpers import PurposeScript, fenced

MODES = ("full", "prompt_only", "no_bilevel", "no_layerwise")

# sha256 over "<purpose> <replay key>" lines, one per request in issue order.
REQUEST_DIGESTS = {
    "full": (44, "043e32e3f16e19ad22fb45547ae7a994387b6ee02ff6979b064281af380ca705"),
    "prompt_only": (34, "3ff8084fa2635402afafb4881da19be4d1ef0390f2a89b8640bd69c00802ad13"),
    "no_bilevel": (19, "fbabd625128e264b60134d49ec90b733d6850ae7305170d56967a4180be4b663"),
    "no_layerwise": (38, "343263793deed8f7599b42529457f75ad1c5faaae28aedd33403e7629eb5e159"),
}

# sha256 over "ts <ts>" lines, one per ledger row, then "timestamp <timestamp>"
# lines, one per run record; the count is that of the lines.
CLOCK_DIGESTS = {
    "full": (45, "1f5a9c5a3ed7d2de7901d56702df48da8a28ce0ac9bca48c42b4b3a08528790e"),
    "prompt_only": (35, "7406ba69cccca6d01943f4951003de3f1ef55787cf775efa8a0d11c6b4af6d57"),
    "no_bilevel": (20, "bc7c7975edf6ccce4cad5b6c28817d4fd2fe6bad47bce953dd051f54931e1cd7"),
    "no_layerwise": (39, "1a611cfafac9aa973fce82d6373cef179f55d651d5da7bb3c83459d9e33148f4"),
}

TEMPLATES = load_templates()
TEMPLATE_BY_SYSTEM = {TEMPLATES.get(name).system: name for name in TEMPLATE_NAMES}

CORPUS = [
    CorpusDoc("d1", "River otters", "Otters live along rivers and eat fish daily."),
    CorpusDoc("d2", "Bucknell University", "Bucknell University was founded in 1846."),
]
TRAIN = [Sample(id=f"t{i}", question=f"when was school {i} founded", answer="1846")
         for i in range(2)]
VAL = [Sample(id="v0", question="when was Bucknell founded", answer="1846")]

BILEVEL_PLAN = {
    "reasoning": "Search before answering.",
    "should_update": True,
    "updated_execution_plan": [
        {"step_id": 1, "description": "Search the corpus", "tools": ["search_topk"],
         "executor_type": "new", "executor_name": "Searcher",
         "generation_guideline": "Search for the entity, then summarize."},
        {"step_id": 2, "description": "State the answer", "tools": [],
         "executor_type": "reuse", "executor_name": "DirectAnswer"},
    ],
}
COMBINED_PLAN = {
    "should_update": True,
    "updated_execution_plan": [
        {"step_id": 1, "description": "Search the corpus", "tools": ["search_topk"],
         "executor_name": "Searcher", "prompt": "Search, then quote the passage."},
        {"step_id": 2, "description": "State the answer", "tools": [],
         "executor_name": "Answerer", "prompt": "Give only the year."},
    ],
}


def make_script() -> PurposeScript:
    """Replies that depend only on the request, except that the first loss
    reply is broken, so a JSON repair request is pinned too."""
    loss_calls = []

    def forward(request):
        if "## Tool Protocol" in request.messages[0].content:
            if any("Tool result for" in m.content for m in request.messages):
                return "1846"
            question, _ = parse_envelope(request.messages[1].content)
            return fenced({"tool": "search_topk", "arguments": {"query": question}})
        question, previous = parse_envelope(request.messages[-1].content)
        return previous or question

    def optim_workflow(request):
        if TEMPLATE_BY_SYSTEM.get(request.messages[0].content) == "optim_combined":
            return fenced(COMBINED_PLAN)
        return fenced(BILEVEL_PLAN)

    def init_executor(request):
        return fenced({"name": "Searcher", "description": "Searches the corpus",
                       "prompt": "Search for the entity in the question."})

    def grad_loss(request):
        loss_calls.append(request)
        if len(loss_calls) == 1:
            return "no JSON here"
        return fenced({"text_gradient": "State the year alone.",
                       "gradients": {"1": "Search more narrowly.", "2": "Quote the year."}})

    return PurposeScript({
        Purpose.FORWARD: forward,
        Purpose.BOOTSTRAP: lambda r: "zero-shot: " + r.messages[-1].content,
        Purpose.GRAD_WORKFLOW: lambda r: fenced({"reasoning": "No evidence is gathered.",
                                                 "text_gradient": "Add a search step."}),
        Purpose.OPTIM_WORKFLOW: optim_workflow,
        Purpose.INIT_EXECUTOR: init_executor,
        Purpose.GRAD_LOSS: grad_loss,
        Purpose.GRAD_CALL: lambda r: fenced({"text_gradient": "Pass the passage verbatim."}),
        Purpose.OPTIM_CALL: lambda r: fenced({
            "updated_prompt": "Answer with the year only.", "changes_made": ["shorter"],
            "updates": {"Searcher": "Search precisely.", "DirectAnswer": "Year only."}}),
    })


class PinnedRun(NamedTuple):
    script: PurposeScript
    ledger: tuple[LedgerRow, ...]
    records: tuple[RunRecord, ...]


def play(backend, mode: str, concurrency: int = 1) -> tuple[tuple[LedgerRow, ...], TrainResult]:
    """The pinned run's shape, bootstrap included, over `backend`."""
    registry = ToolRegistry()
    registry.register(*make_corpus_search_tool(CorpusIndex(CORPUS)))
    clock = LogicalClock()
    rt = Runtime(client=ChatClient(backend, RunLedger(clock=clock)), tools=registry,
                 clock=clock, concurrency=concurrency)
    state0 = bootstrap_workflow(rt, TRAIN, exact_match, metric_info("exact_match"))
    config = TrainConfig(batch_size=2, bilevel_rounds_per_batch=1, inner_steps_per_round=2,
                         mode=mode, seed=None)
    result = train(rt, config, TRAIN, VAL, state0, "exact_match")
    rt.close()
    return rt.client.ledger.rows, result


def scripted_run(mode: str) -> PinnedRun:
    script = make_script()
    ledger, result = play(ScriptedMockBackend(script), mode)
    return PinnedRun(script, ledger, result.records)


@pytest.fixture(scope="module")
def runs() -> dict[str, PinnedRun]:
    return {mode: scripted_run(mode) for mode in MODES}


def request_digest(script: PurposeScript) -> tuple[int, str]:
    lines = "".join(f"{r.purpose.value} {request_replay_key(r)}\n" for r in script.calls)
    return len(script.calls), hashlib.sha256(lines.encode()).hexdigest()


def clock_digest(run: PinnedRun) -> tuple[int, str]:
    lines = ([f"ts {row.ts}\n" for row in run.ledger]
             + [f"timestamp {record.timestamp}\n" for record in run.records])
    return len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("mode", MODES)
def test_request_keys_are_pinned(runs, mode):
    assert request_digest(runs[mode].script) == REQUEST_DIGESTS[mode]


@pytest.mark.parametrize("mode", MODES)
def test_clock_readings_are_pinned(runs, mode):
    assert clock_digest(runs[mode]) == CLOCK_DIGESTS[mode]


def test_every_meta_request_fills_its_template(runs):
    seen = set()
    for mode, run in runs.items():
        for request in run.script.calls:
            if request.purpose in (Purpose.FORWARD, Purpose.BOOTSTRAP):
                continue
            name = TEMPLATE_BY_SYSTEM[request.messages[0].content]
            seen.add(name)
            user = request.messages[1].content
            left = [key for key in _PLACEHOLDER_RE.findall(TEMPLATES.get(name).user)
                    if "{" + key + "}" in user]
            assert not left, f"{mode}: {name} left {left} unfilled"
    assert seen == set(TEMPLATE_NAMES)


def test_pinned_runs_exercise_tools_and_repair(runs):
    calls = runs["full"].script.calls
    assert any(len(r.messages) > 2 and r.purpose == Purpose.FORWARD for r in calls)
    assert any(len(r.messages) > 2 and r.purpose == Purpose.GRAD_LOSS for r in calls)
    assert runs["full"].script.count(Purpose.INIT_EXECUTOR) > 0


# ---------------------------------------------------------------------------
# A failed prompt update, recorded at one concurrency, replayed at others
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode, n", [("full", 28), ("prompt_only", 18)])
def test_a_failed_prompt_update_replays_alike_at_every_concurrency(runs, tmp_path, mode, n):
    """The n-th request of the pinned run is the first of two executors'
    prompt updates. Failing it halts the run, after the other executor's
    update has been made and billed whichever way the fan-out ran."""
    doomed = runs[mode].script.calls[n - 1]
    assert doomed.purpose == Purpose.OPTIM_CALL
    doomed_key = request_replay_key(doomed)
    script = make_script()

    def failing(request):
        if request_replay_key(request) == doomed_key:
            raise TransportError("connection dropped")
        return script(request)

    store = tmp_path / "store.jsonl"
    recorded, result = play(ReplayBackend(store, RECORD, inner=ScriptedMockBackend(failing)),
                            mode, concurrency=8)
    assert result.halted_early
    assert len(recorded) == n
    assert recorded[-1].purpose == Purpose.OPTIM_CALL.value
    for concurrency in (1, 8):
        replayed, replay_result = play(ReplayBackend(store, REPLAY), mode, concurrency)
        assert replayed == recorded
        assert replay_result == result
