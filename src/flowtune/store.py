"""Run accounting and persistence.

Costs are carried as integer micro-dollars so ledger totals are exact sums of
row costs, with no floating-point drift. Timestamps are ticks of a logical
clock, one per reading, whatever the backend, so repeat runs and replays emit
byte-identical files. Wall time is not a run artifact.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

from . import model


class LogicalClock:
    """Deterministic monotone counter; one tick per reading.

    Only the thread that runs a fan-out reads the root clock, for its inline
    items too; each pool item counts its ticks on a fork, joined in item order.
    """

    def __init__(self, start: int = 0):
        self._tick = start

    def now(self) -> int:
        self._tick += 1
        return self._tick

    def fork(self) -> "LogicalClock":
        """The clock one pool item of an ordered fan-out reads (see Runtime.fan_out).

        A fork counts from 0: its readings mean nothing until `join`
        supplies the offset."""
        return LogicalClock()

    def join(self, fork: "LogicalClock") -> int:
        """Take over a fork's readings as if they had been made here, now;
        returns the offset that turns the fork's readings into this clock's."""
        base = self._tick
        self._tick += fork._tick
        return base


@dataclass(frozen=True)
class Price:
    input_per_1m: Decimal
    output_per_1m: Decimal


# A price has at most this many digits before and after its point: the exact
# ratio of one such as 1e999999999 would take hours to make and gigabytes to hold.
_PRICE_DIGITS = 100


class PriceTable:
    """USD prices per million tokens, keyed by model id. A negative price,
    so that no cost is negative, and one with more than `_PRICE_DIGITS`
    digits before or after its point are a ValueError naming the model and
    the price."""

    def __init__(self, prices: dict[str, Price] | None = None):
        # Each model's two prices, exactly: numerators over one denominator.
        self._ratios: dict[str, tuple[int, int, int]] = {}
        for model_id, price in (prices or {}).items():
            for key, value in vars(price).items():
                if value < 0:
                    raise ValueError(f"{model_id}.{key} must be >= 0, got {value}")
                if value.adjusted() >= _PRICE_DIGITS or value.as_tuple().exponent < -_PRICE_DIGITS:
                    raise ValueError(f"{model_id}.{key} must have at most {_PRICE_DIGITS} "
                                     f"digits before and after the point")
            n_in, d_in = price.input_per_1m.as_integer_ratio()
            n_out, d_out = price.output_per_1m.as_integer_ratio()
            den = math.lcm(d_in, d_out)
            self._ratios[model_id] = (n_in * (den // d_in), n_out * (den // d_out), den)

    @staticmethod
    def from_config(obj: dict) -> "PriceTable":
        return PriceTable({model_id: Price(Decimal(str(row["input_per_1m"])),
                                           Decimal(str(row["output_per_1m"])))
                           for model_id, row in (obj or {}).items()})

    def cost_micro(self, model_id: str, input_tokens: int, output_tokens: int) -> tuple[int, bool]:
        """(cost in micro-dollars rounded half-even, unknown-model flag).

        A price per million tokens times a token count is already in
        micro-dollars."""
        ratio = self._ratios.get(model_id)
        if ratio is None:
            return 0, True
        num_in, num_out, den = ratio
        micro, rest = divmod(input_tokens * num_in + output_tokens * num_out, den)
        rest *= 2
        if rest > den or (rest == den and micro & 1):
            micro += 1
        return micro, False


def micro_to_usd_str(micro: int) -> str:
    """Fixed 6-decimal rendering of a cost, which is never negative, e.g.
    3600 -> '0.003600'."""
    return "%d.%06d" % divmod(micro, 1_000_000)


# A run names only a handful of purposes and models, so each pair's part of
# a ledger line is rendered once.
@lru_cache(maxsize=64)
def _line_head(purpose: str, model_id: str) -> str:
    return f'"purpose": {json.dumps(purpose)}, "model": {json.dumps(model_id)}, '


def _ledger_line(idx: int, purpose: str, model_id: str, in_tok: int, out_tok: int,
                 cost_micro: int, ts: int, warn: bool) -> str:
    """The ledger line of one row, with its line end: keys in a fixed order,
    the cost in dollars with six decimals."""
    end = ', "warn": true}\n' if warn else "}\n"
    return (f'{{"idx": {idx}, {_line_head(purpose, model_id)}"in_tok": {in_tok}, '
            f'"out_tok": {out_tok}, "cost_usd": {micro_to_usd_str(cost_micro)}, "ts": {ts}{end}')


def _write_all(write, data: bytes) -> None:
    """Hand data to `write` until it has taken all of it: a write may take a part."""
    while data:
        data = data[write(data):]


def append_line(path: str | Path, line: str) -> None:
    """Append one line of a run-directory log, with its end, on a handle
    opened around the write, so that no handle outlives the call."""
    with open(path, "ab", buffering=0) as f:
        _write_all(f.write, (line + "\n").encode("utf-8"))


# What reading a row raises on bad bytes: not UTF-8, not one JSON value, nested
# too deep, a key missing, a value of the wrong kind or too large for a float.
BAD_ROW = (ValueError, LookupError, TypeError, AttributeError, RecursionError, OverflowError)


def read_rows(path: str | Path, parse: Callable,
              error: Callable[[int, str], Exception]) -> Iterator[tuple[int, Any]]:
    """Yield (line number from 1, `parse(row)`) for each row of a JSON-lines
    file, one line at a time, by the rule in `RunDirectory`. A line that
    breaks it, or whose `parse` raises BAD_ROW, raises `error(line number,
    "unreadable row: …")`."""
    decode = json.JSONDecoder().raw_decode
    # Bytes, decoded line by line, in blocks of 64 KiB: as fast as text mode.
    with open(path, "rb", buffering=1 << 16) as f:
        for number, line in enumerate(f, 1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                row, end = decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
                value = parse(row)
            except BAD_ROW as e:
                raise error(number, f"unreadable row: {e!r}") from e
            yield number, value


class LedgerRow(NamedTuple):
    """One model call's row. A named tuple: it compares equal to the plain
    tuple of its fields, and a changed copy is made with `_replace`."""

    idx: int
    purpose: str
    model: str
    in_tok: int
    out_tok: int
    cost_micro: int
    ts: int
    warn: bool = False

    def to_line(self) -> str:
        return _ledger_line(*self)[:-1]


class RunLedger:
    """Append-only record of every model call. Rows are never mutated.

    Call count and cost total are kept as running sums, so reading them is
    O(1). Only one thread appends: pool items of a fan-out record into a
    `fork()` each, which the thread running the fan-out `absorb`s in item
    order, so `idx` and `ts` come out as in a serial run.
    """

    def __init__(self, prices: PriceTable | None = None, clock: LogicalClock | None = None,
                 sink_path: str | Path | None = None):
        self.prices = prices or PriceTable()
        self.clock = clock or LogicalClock()
        self._rows: list[LedgerRow] = []
        self._cost_micro = 0
        self._sink = None
        if sink_path:
            self.open_sink(sink_path)

    def open_sink(self, path: str | Path) -> None:
        """Append every row from here on to the file at path, unbuffered, so
        that each row reaches the file when it is booked."""
        self._sink = open(path, "ab", buffering=0)

    def record_call(self, purpose: str, model_id: str, input_tokens: int,
                    output_tokens: int) -> LedgerRow:
        """Book one call. A negative token count, which only a backend
        outside this package can return, is a ValueError: no cost is negative."""
        if input_tokens < 0 or output_tokens < 0:
            raise ValueError(f"token counts must be >= 0, got {input_tokens} in and "
                             f"{output_tokens} out")
        cost, warn = self.prices.cost_micro(model_id, input_tokens, output_tokens)
        row = LedgerRow(len(self._rows), purpose, model_id, input_tokens, output_tokens,
                        cost, self.clock.now(), warn)
        self._rows.append(row)
        self._cost_micro += cost
        if self._sink is not None:
            _write_all(self._sink.write, _ledger_line(*row).encode())
        return row

    def fork(self) -> "RunLedger":
        """An in-memory ledger for one pool item, stamping rows from a fork of
        this ledger's clock, which the item's runtime view reads too."""
        return RunLedger(self.prices, self.clock.fork())

    def absorb(self, fork: "RunLedger") -> None:
        """Append a fork's rows, renumbered, and join its clock into this
        ledger's clock, moving the rows' timestamps along with it. The rows
        reach the sink in one write."""
        ts_offset = self.clock.join(fork.clock)
        base = len(self._rows)
        self._rows += [row._replace(idx=base + i, ts=row.ts + ts_offset)
                       for i, row in enumerate(fork._rows)]
        self._cost_micro += fork._cost_micro
        if fork._rows and self._sink is not None:
            _write_all(self._sink.write,
                       "".join([_ledger_line(*row) for row in self._rows[base:]]).encode())

    @property
    def rows(self) -> tuple[LedgerRow, ...]:
        return tuple(self._rows)

    @property
    def call_count(self) -> int:
        return len(self._rows)

    @property
    def total_cost_micro(self) -> int:
        return self._cost_micro

    def count_by_purpose(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in self.rows:
            counts[row.purpose] = counts.get(row.purpose, 0) + 1
        return counts

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _replace_file(path: str | Path, data: bytes) -> None:
    """Write data to a temporary file beside path, then move it into place.

    A crash or a failed write leaves the previous file whole: a reader sees
    either the old content or the new, never a truncated file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_checkpoint(state: model.WorkflowState, path: str | Path) -> None:
    model.require_valid(state)
    _replace_file(path, model.serialize_state(state).encode("utf-8"))


def load_checkpoint(path: str | Path) -> model.WorkflowState:
    """Load and validate a checkpoint; raises on schema or invariant failures."""
    state = model.deserialize_state(Path(path).read_text(encoding="utf-8"))
    model.require_valid(state)
    return state


INIT_CHECKPOINT = Path("checkpoints", "init.json")


class RunDirectory:
    """On-disk layout of one training run, and the order it is written in.

    checkpoints/batch_{i}.json   one checkpoint per completed batch
    checkpoints/init.json        the given starting state, when the run did
                                 not bootstrap; replay starts from it
    best.json                    byte copy of the argmax-batch checkpoint
    records.jsonl                one run record per batch
    ledger.jsonl                 one row per model call
    store.jsonl                  every call's request and reply; replay
                                 answers from it
    traces/                      optional validation traces
    config.json                  resolved configuration, for replays

    The logs only grow, by whole lines written in full (`_write_all`); other
    files are replaced whole. A call's store row precedes its ledger row; a batch writes its
    traces, checkpoint and record line, then best.json if it is the new best.
    A kill keeps every write before it and may tear a log's last line. Each
    log is read by one rule (`read_rows`): a line is decoded as UTF-8 and
    stripped, a blank one is skipped and any other holds one JSON value, or
    is an unreadable row naming the file and the line. Nothing is fsynced,
    so a machine that loses power keeps no such order.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "checkpoints").mkdir(exist_ok=True)
        self.ledger_path = self.root / "ledger.jsonl"
        self.records_path = self.root / "records.jsonl"
        self.best_path = self.root / "best.json"

    def checkpoint_path(self, batch_index: int) -> Path:
        return self.root / "checkpoints" / f"batch_{batch_index}.json"

    def write_batch_checkpoint(self, state: model.WorkflowState, batch_index: int) -> None:
        write_checkpoint(state, self.checkpoint_path(batch_index))

    def promote_best(self, batch_index: int) -> None:
        # Byte copy keeps best.json hash-equal to the source checkpoint.
        _replace_file(self.best_path, self.checkpoint_path(batch_index).read_bytes())

    def append_record_line(self, line: str) -> None:
        append_line(self.records_path, line)

    def write_trace(self, batch_index: int, trace: model.ExecutionTrace) -> None:
        tdir = self.root / "traces" / f"batch_{batch_index}"
        tdir.mkdir(parents=True, exist_ok=True)
        _replace_file(tdir / f"{trace.sample_id}.json",
                      model.canonical_json(model.trace_to_json_obj(trace)).encode("utf-8"))

    def write_config(self, obj: dict) -> None:
        _replace_file(self.root / "config.json", model.canonical_json(obj).encode("utf-8"))
