import json
import os
import random
import subprocess
import sys
from decimal import ROUND_CEILING, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtune.model import ExecutionTrace, SchemaVersionMismatch, serialize_state
from flowtune.store import (
    LedgerRow,
    LogicalClock,
    Price,
    PriceTable,
    RunDirectory,
    RunLedger,
    load_checkpoint,
    micro_to_usd_str,
    write_checkpoint,
)

from .helpers import chain_state, nested_too_deep


def table(pin: str, pout: str, model="m") -> PriceTable:
    return PriceTable({model: Price(Decimal(pin), Decimal(pout))})


def ledger_with(prices: PriceTable) -> RunLedger:
    return RunLedger(prices=prices, clock=LogicalClock())


def test_zero_tokens_cost_zero():
    ledger = ledger_with(table("0.40", "1.60"))
    row = ledger.record_call("Forward", "m", 0, 0)
    assert row.cost_micro == 0
    assert micro_to_usd_str(row.cost_micro) == "0.000000"


def test_hand_computed_cost_example():
    # 1,000 in + 2,000 out at ($0.40, $1.60) per 1M tokens = $0.003600
    ledger = ledger_with(table("0.40", "1.60"))
    row = ledger.record_call("Forward", "m", 1000, 2000)
    assert row.cost_micro == 3600
    assert micro_to_usd_str(row.cost_micro) == "0.003600"


def test_unknown_model_costs_zero_with_warning():
    ledger = ledger_with(table("0.40", "1.60"))
    row = ledger.record_call("Forward", "other-model", 500, 500)
    assert row.cost_micro == 0
    assert row.warn is True
    assert '"warn": true' in row.to_line()


@pytest.mark.parametrize("pin, pout", [("-0.40", "1.60"), ("0.40", "-0.000001")])
def test_a_negative_price_is_refused_naming_it(pin, pout):
    key = "input_per_1m" if pin.startswith("-") else "output_per_1m"
    with pytest.raises(ValueError, match=rf"^m\.{key} must be >= 0"):
        table(pin, pout)


@pytest.mark.parametrize("in_tok, out_tok", [(-5, 0), (0, -1)])
def test_a_negative_token_count_is_refused_before_it_is_booked(in_tok, out_tok):
    """A backend outside the package could return one; a negative cost
    would render as a wrong ledger line."""
    ledger = ledger_with(table("0.40", "1.60"))
    with pytest.raises(ValueError, match=f"token counts must be >= 0, got {in_tok} in"):
        ledger.record_call("Forward", "m", in_tok, out_tok)
    assert ledger.call_count == 0 and ledger.total_cost_micro == 0


def test_half_even_rounding_at_micro_dollar_boundary():
    # 1 token at $0.50/1M = 0.5 micro-dollars; half-even rounds to 0
    ledger = ledger_with(table("0.50", "0"))
    assert ledger.record_call("Forward", "m", 1, 0).cost_micro == 0
    # 3 tokens -> 1.5 micro-dollars; half-even rounds to 2
    assert ledger.record_call("Forward", "m", 3, 0).cost_micro == 2


def reference_cost_micro(in_tok: int, out_tok: int, pin: Fraction, pout: Fraction) -> int:
    """Independent micro-dollar oracle using exact rationals + banker's rounding."""
    micro = (Fraction(in_tok) * pin + Fraction(out_tok) * pout) / Fraction(10**6) * Fraction(10**6)
    floor = micro.numerator // micro.denominator
    remainder = micro - floor
    if remainder > Fraction(1, 2):
        return floor + 1
    if remainder < Fraction(1, 2):
        return floor
    return floor + (floor % 2)  # exactly half: round to even


def test_ledger_total_is_exact_sum_over_many_random_rows():
    rng = random.Random(42)
    price_in = Decimal("0.37")
    price_out = Decimal("1.23")
    ledger = ledger_with(table("0.37", "1.23"))
    expected_total = 0
    for _ in range(2000):
        in_tok = rng.randrange(0, 200_000)
        out_tok = rng.randrange(0, 200_000)
        ledger.record_call("Forward", "m", in_tok, out_tok)
        expected_total += reference_cost_micro(
            in_tok, out_tok, Fraction(str(price_in)), Fraction(str(price_out)))
    assert ledger.total_cost_micro == expected_total


@pytest.mark.parametrize("pin,pout,in_tok,out_tok,expected", [
    ("0.5", "0", 1, 0, 0),
    ("0.5", "0", 3, 0, 2),
    ("0.5", "0", 5, 0, 2),
    ("0.5", "0", 7, 0, 4),
    ("0", "2.5", 0, 1, 2),
    ("0.25", "0.25", 1, 1, 0),
    ("0.25", "0.25", 3, 3, 2),
    ("0.3", "0.2", 1, 1, 0),
    ("0.7", "0.8", 1, 1, 2),
    ("0.125", "0", 12, 0, 2),
    ("0.125", "0", 20, 0, 2),
    ("12.5", "0", 1, 0, 12),
    ("13.5", "0", 1, 0, 14),
    ("0.000001", "0", 500_000, 0, 0),
    ("0.000001", "0", 1_500_000, 0, 2),
    ("0.000001", "0.000001", 1_250_000, 1_250_000, 2),
    ("0.5000001", "0", 1, 0, 1),
    ("0.4999999", "0", 1, 0, 0),
])
def test_exact_half_way_costs_round_to_even(pin, pout, in_tok, out_tok, expected):
    cost, warn = table(pin, pout).cost_micro("m", in_tok, out_tok)
    assert not warn
    assert cost == expected == reference_cost_micro(in_tok, out_tok, Fraction(pin), Fraction(pout))


token_counts = st.integers(0, 10**9)
# Up to 17 digits, of which up to 12 are decimals.
decimal_prices = st.builds(lambda digits, places: Decimal(digits).scaleb(-places),
                           st.integers(0, 10**16), st.integers(0, 12))


def decimal_cost_micro(in_tok: int, out_tok: int, pin: Decimal, pout: Decimal) -> int:
    with localcontext() as ctx:
        ctx.prec = 100  # exact for these operands
        micro = Decimal(in_tok) * pin + Decimal(out_tok) * pout
        return int(micro.to_integral_value(ROUND_HALF_EVEN))


@st.composite
def half_way_calls(draw):
    """A call whose cost is an exact half micro-dollar: the output price
    (for one output token) tops the input cost up to a whole number and a
    half, odd or even."""
    in_tok, pin = draw(token_counts), draw(decimal_prices)
    in_cost = in_tok * pin
    whole = draw(st.integers(0, 10**6))
    top_up = in_cost.to_integral_value(ROUND_CEILING) - in_cost
    return in_tok, 1, pin, whole + Decimal("0.5") + top_up


@settings(max_examples=300)
@given(call=st.tuples(token_counts, token_counts, decimal_prices, decimal_prices))
def test_integer_cost_equals_decimal_half_even_rounding(call):
    in_tok, out_tok, pin, pout = call
    cost, warn = PriceTable({"m": Price(pin, pout)}).cost_micro("m", in_tok, out_tok)
    assert not warn
    assert cost == decimal_cost_micro(in_tok, out_tok, pin, pout)


@settings(max_examples=200)
@given(call=half_way_calls())
def test_integer_cost_rounds_exact_ties_to_even(call):
    in_tok, out_tok, pin, pout = call
    assert (Fraction(in_tok) * Fraction(pin) + Fraction(out_tok) * Fraction(pout)).denominator == 2
    cost, _ = PriceTable({"m": Price(pin, pout)}).cost_micro("m", in_tok, out_tok)
    assert cost % 2 == 0
    assert cost == decimal_cost_micro(in_tok, out_tok, pin, pout)


def test_rows_append_only_with_increasing_idx_and_ts():
    ledger = ledger_with(table("1", "1"))
    for i in range(10):
        ledger.record_call("GradLoss", "m", i, i)
    rows = ledger.rows
    assert [r.idx for r in rows] == list(range(10))
    timestamps = [r.ts for r in rows]
    assert timestamps == sorted(timestamps)
    assert len(set(timestamps)) == len(timestamps)


def test_ledger_sink_writes_rows_with_fixed_field_order(tmp_path):
    sink = tmp_path / "ledger.jsonl"
    ledger = RunLedger(prices=table("0.40", "1.60"), clock=LogicalClock(), sink_path=sink)
    ledger.record_call("OptimCall", "m", 1000, 2000)
    ledger.close()
    line = sink.read_text().strip()
    assert line.startswith('{"idx": 0, "purpose": "OptimCall", "model": "m", '
                           '"in_tok": 1000, "out_tok": 2000, "cost_usd": 0.003600, "ts": 1}')
    parsed = json.loads(line)
    assert parsed["cost_usd"] == pytest.approx(0.0036)


def reference_line(row) -> str:
    """A ledger line built field by field with `json.dumps`."""
    fields = [f'"idx": {json.dumps(row.idx)}', f'"purpose": {json.dumps(row.purpose)}',
              f'"model": {json.dumps(row.model)}', f'"in_tok": {json.dumps(row.in_tok)}',
              f'"out_tok": {json.dumps(row.out_tok)}',
              f'"cost_usd": {micro_to_usd_str(row.cost_micro)}', f'"ts": {json.dumps(row.ts)}']
    if row.warn:
        fields.append('"warn": true')
    return "{" + ", ".join(fields) + "}"


AWKWARD_NAMES = ["Forward", "", 'say "hi"', "back\\slash", "caf\u00e9 \u6f22\u5b57 \U0001f600",
                 "ctl \x00\x1f\x7f\n\t\u2028"]


@pytest.mark.parametrize("name", AWKWARD_NAMES)
def test_ledger_line_matches_a_json_dumps_reference(name):
    ledger = ledger_with(PriceTable({name: Price(Decimal("0.40"), Decimal("1.60"))}))
    for row in (ledger.record_call(name, name, 1000, 2000),
                ledger.record_call("Forward", name, 7, 0),
                ledger.record_call(name, "unpriced", 5, 5)):
        assert row.to_line() == reference_line(row)
        assert json.loads(row.to_line())["purpose"] == row.purpose
    assert ledger.rows[2].warn


def test_absorbed_forks_write_the_bytes_of_serial_calls(tmp_path):
    prices = PriceTable({name: Price(Decimal("0.37"), Decimal("1.23")) for name in AWKWARD_NAMES})
    calls = [(AWKWARD_NAMES[i % 6], AWKWARD_NAMES[(i * 5) % 6] if i % 4 else "unpriced",
              i * 101, i * 37) for i in range(12)]
    serial = RunLedger(prices, LogicalClock(), sink_path=tmp_path / "serial.jsonl")
    for call in calls:
        serial.record_call(*call)
    serial.close()

    forked = RunLedger(prices, LogicalClock(), sink_path=tmp_path / "forked.jsonl")
    pending = list(calls)
    for size in (3, 0, 1, 5):
        fork = forked.fork()
        for call in pending[:size]:
            fork.record_call(*call)
        forked.absorb(fork)
        del pending[:size]
        if pending:  # a call between fan-outs goes straight to the ledger
            forked.record_call(*pending.pop(0))
    assert not pending
    forked.close()

    assert (tmp_path / "forked.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()
    assert forked.rows == serial.rows
    assert forked.total_cost_micro == serial.total_cost_micro
    assert forked.clock.now() == serial.clock.now()


class Booked:
    """Prices that book each call at the next drawn (cost, warn) pair."""

    def __init__(self, outcomes):
        self._outcomes = iter(outcomes)

    def cost_micro(self, model_id, input_tokens, output_tokens):
        return next(self._outcomes)


NAMES = st.one_of(st.sampled_from(AWKWARD_NAMES), st.text(max_size=8))
COSTS = st.one_of(st.sampled_from([0, 999_999, 1_000_000, 10**12]), st.integers(0, 10**13))
CALLS = st.lists(st.tuples(NAMES, NAMES, st.integers(0, 10**7), st.integers(0, 10**7),
                           COSTS, st.booleans()), min_size=1, max_size=10)


@settings(max_examples=150)
@given(calls=CALLS, direct=st.integers(0, 10))
def test_ledger_lines_are_the_rows_to_line_and_decode_back_to_them(tmp_path_factory, calls,
                                                                    direct):
    """The first `direct` calls go to the ledger, the rest through a fork
    that it absorbs."""
    sink = tmp_path_factory.mktemp("ledger") / "ledger.jsonl"
    ledger = RunLedger(Booked([(cost, warn) for *_, cost, warn in calls]), LogicalClock(),
                       sink_path=sink)
    fork = ledger.fork()
    for i, (purpose, model_id, in_tok, out_tok, _, _) in enumerate(calls):
        (ledger if i < direct else fork).record_call(purpose, model_id, in_tok, out_tok)
    ledger.absorb(fork)
    ledger.close()

    rows = ledger.rows
    assert [(*row[1:6], row.warn) for row in rows] == calls
    assert [row.idx for row in rows] == list(range(len(calls)))
    assert sink.read_bytes() == "".join(row.to_line() + "\n" for row in rows).encode()
    for row, line in zip(rows, sink.read_text(encoding="utf-8").splitlines()):
        obj = json.loads(line, parse_float=Decimal)
        assert list(obj) == ["idx", "purpose", "model", "in_tok", "out_tok", "cost_usd", "ts",
                             *(["warn"] if row.warn else [])]
        cost = obj["cost_usd"] * 10**6
        assert cost == int(cost)
        assert LedgerRow(obj["idx"], obj["purpose"], obj["model"], obj["in_tok"], obj["out_tok"],
                         int(cost), obj["ts"], obj.get("warn", False)) == row


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_byte_equal(tmp_path):
    state = chain_state(3)
    path = tmp_path / "ck.json"
    write_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded == state
    assert serialize_state(loaded).encode() == path.read_bytes()


def test_future_schema_version_rejected(tmp_path):
    state = chain_state(1)
    path = tmp_path / "ck.json"
    write_checkpoint(state, path)
    obj = json.loads(path.read_text())
    obj["schema_version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaVersionMismatch):
        load_checkpoint(path)


@pytest.mark.parametrize("where, value", [
    (("sketch", 0, "step_id"), 1.9),
    (("sketch", 0, "step_id"), True),
    (("revision",), "3"),
    (("executors", "step_1", "version"), 2.7),
    (("sketch", 0, "control"), {"kind": "loop", "max_iterations": 2.7}),
])
def test_a_checkpoint_number_that_is_not_an_integer_is_a_load_error(tmp_path, where, value):
    path = tmp_path / "ck.json"
    write_checkpoint(chain_state(1), path)
    obj = json.loads(path.read_text())
    target = obj
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="must be an integer"):
        load_checkpoint(path)


@nested_too_deep
def test_a_checkpoint_nested_too_deep_is_a_load_error(tmp_path, deep):
    path = tmp_path / "ck.json"
    path.write_text(deep)
    with pytest.raises(ValueError, match="unreadable workflow state: RecursionError"):
        load_checkpoint(path)


def test_run_directory_layout(tmp_path):
    run_dir = RunDirectory(tmp_path / "run")
    state = chain_state(1)
    run_dir.write_batch_checkpoint(state, 0)
    run_dir.write_batch_checkpoint(state, 1)
    run_dir.promote_best(1)
    assert (run_dir.root / "checkpoints" / "batch_0.json").exists()
    assert run_dir.best_path.read_bytes() == run_dir.checkpoint_path(1).read_bytes()
    run_dir.append_record_line('{"batch_index": 0}')
    assert run_dir.records_path.read_text() == '{"batch_index": 0}\n'



# Runs in a child process whose files may not grow past its first argument in
# bytes, so the write fails with EFBIG after its first bytes, as on a full disk.
FAILING_WRITE = """
import resource, sys
from flowtune.model import ExecutionTrace
from flowtune.store import RunDirectory, load_checkpoint
limit, op, root = sys.argv[1:]
run_dir = RunDirectory(root)
later = load_checkpoint(run_dir.checkpoint_path(1))
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, (int(limit), hard))
try:
    if op == "checkpoint":
        run_dir.write_batch_checkpoint(later, 0)
    elif op == "best":
        run_dir.promote_best(1)
    elif op == "trace":
        run_dir.write_trace(0, ExecutionTrace("s1", (), "y" * 200))
    else:
        run_dir.write_config({"note": "x" * 200})
except OSError:
    sys.exit(0)
sys.exit("the write did not fail")
"""


@pytest.mark.parametrize("op", ["checkpoint", "best", "config", "trace"])
def test_a_write_that_fails_midway_leaves_the_previous_file(tmp_path, op):
    pytest.importorskip("resource")
    run_dir = RunDirectory(tmp_path / "run")
    run_dir.write_batch_checkpoint(chain_state(1), 0)
    run_dir.write_batch_checkpoint(chain_state(3), 1)
    run_dir.promote_best(0)
    run_dir.write_config({"note": "first"})
    run_dir.write_trace(0, ExecutionTrace("s1", (), "first output"))
    before = {p: p.read_bytes() for p in run_dir.root.rglob("*") if p.is_file()}
    limit = 16
    assert min(len(data) for data in before.values()) > limit
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", FAILING_WRITE, str(limit), op,
                             str(run_dir.root)], env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    after = {p: p.read_bytes() for p in run_dir.root.rglob("*") if p.is_file()}
    assert after == before
    assert load_checkpoint(run_dir.best_path) == chain_state(1)
    assert load_checkpoint(run_dir.checkpoint_path(0)) == chain_state(1)
