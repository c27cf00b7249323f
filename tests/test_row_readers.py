"""The JSON-lines readers against reference readers: `load_corpus`,
`load_dataset`, the replay store that `ReplayBackend` loads and the run
records that `flowtune curve` reads; and `load_checkpoint` on spoiled
checkpoints.

Each generated file either loads to exactly what the reference yields, or is
a ValueError naming the file and the first bad line. The reference reads a
line as the documentation says: split at b"\\n", decode UTF-8, `str.strip`,
`json.loads`, then the reader's checks of the row.
"""

import json
import sys

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowtune.backend import REPLAY, ChatResponse, ReplayBackend
from flowtune.cli import main
from flowtune.evaluation import load_dataset
from flowtune.model import Loop, Route, StepSpec, WorkflowState, serialize_state, validate_state
from flowtune.store import load_checkpoint
from flowtune.tools import load_corpus

from .helpers import chain_state, llm_executor, tool_executor

CORPUS_KEYS = ("doc_id", "title", "body")
DATASET_KEYS = ("id", "question", "answer")

TEXT = st.text(alphabet='ab 1é"\\', min_size=1, max_size=3)
FIELD = st.one_of(TEXT, TEXT, TEXT, st.integers(-3, 3), st.sampled_from([1.5, -0.0, 1e16, ""]))
ODD = st.sampled_from([None, True, False, [], ["a"], {}, {"a": 1}])
# Around a row: nothing, JSON whitespace, or Unicode space that only
# `str.strip` removes; a byte-order mark, which it does not.
PADDING = st.sampled_from([""] * 12 + [" ", "\t", "\r", "\u00a0", "\u2028", "\ufeff"])
# Most lines are rows, so that some files load whole.
LINE_KINDS = ["row"] * 33 + ["other", "truncated", "extra", "not-utf8", "blank"]


@st.composite
def lines(draw, objects):
    """One line of a JSON-lines file, as bytes, without its ending: an
    object that `objects` draws, or some other value, or a line spoiled."""
    text = json.dumps(draw(objects), ensure_ascii=draw(st.booleans()))
    kind = draw(st.sampled_from(LINE_KINDS))
    if kind == "other":
        text = json.dumps(draw(st.one_of(FIELD, ODD, st.lists(FIELD, max_size=2))))
    elif kind == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "extra":
        text += draw(st.sampled_from([" {}", "x", " " + text, "]"]))
    elif kind == "blank":
        text = ""
    line = (draw(PADDING) + text + draw(PADDING)).encode("utf-8")
    if kind == "not-utf8":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + line[at:]
    return line


@st.composite
def files(draw, objects):
    rows = draw(st.lists(lines(objects), max_size=6))
    endings = [draw(st.sampled_from([b"\n", b"\r\n"])) for _ in rows]
    if rows and draw(st.booleans()):
        endings[-1] = b""  # no line break after the last line
    return b"".join(row + end for row, end in zip(rows, endings))


def reference(data: bytes, entry):
    """`entry(row)` for each row, or the 1-based number of the first line
    that is not a row or of which `entry` returns None."""
    loaded = []
    for number, line in enumerate(data.split(b"\n"), 1):
        try:
            text = line.decode("utf-8").strip()
            if not text:
                continue
            row = json.loads(text)
        except ValueError:
            return number
        value = entry(row)
        if value is None:
            return number
        loaded.append(value)
    return loaded


def check(path, data: bytes, entry, read, where) -> None:
    """`read(path)` gives what the reference gives, or a ValueError whose
    message starts with `where(n)` for the first bad line n."""
    path.write_bytes(data)
    expected = reference(data, entry)
    try:
        got = read(path)
    except ValueError as e:
        assert type(expected) is int and str(e).startswith(where(expected)), (str(e), expected)
    else:
        assert got == expected


# --- the corpus and the dataset --------------------------------------------


@st.composite
def field_rows(draw, keys):
    """An object with each key, sometimes with an odd value or without one."""
    row = {key: draw(FIELD) for key in keys}
    kind = draw(st.sampled_from(["row"] * 30 + ["odd-field"] * 3 + ["missing"]))
    if kind == "odd-field":
        row[draw(st.sampled_from(keys))] = draw(ODD)
    elif kind == "missing":
        del row[draw(st.sampled_from(keys))]
    return row


def fields_reference(keys, dataset: bool):
    """The row's fields as a tuple of strings; None for a row that does not
    have each key as a string or number, repeats an id, or is a dataset row
    without a question."""
    seen = set()

    def entry(row):
        if (type(row) is not dict or any(key not in row for key in keys)
                or any(type(row[key]) not in (str, int, float) for key in keys)):
            return None
        fields = tuple(str(row[key]) for key in keys)
        if fields[0] in seen or (dataset and not fields[1]):
            return None
        seen.add(fields[0])
        return fields
    return entry


def read_corpus(path):
    docs = [tuple(doc) for doc in load_corpus(path)]
    assert all(type(field) is str for fields in docs for field in fields)
    return docs


def read_dataset(path):
    samples = [(s.id, s.question, s.answer) for s in load_dataset(path)]
    assert all(type(field) is str for fields in samples for field in fields)
    return samples


@settings(max_examples=150)
@given(data=files(field_rows(CORPUS_KEYS)))
def test_load_corpus_reads_what_the_reference_reads(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "corpus.jsonl"
    check(path, data, fields_reference(CORPUS_KEYS, dataset=False), read_corpus,
          lambda n: f"corpus {path}, line {n}: ")


@settings(max_examples=150)
@given(data=files(field_rows(DATASET_KEYS)))
def test_load_dataset_reads_what_the_reference_reads(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "split.jsonl"
    check(path, data, fields_reference(DATASET_KEYS, dataset=True), read_dataset,
          lambda n: f"{path}:{n}: ")


# --- the replay store --------------------------------------------------------

# Token counts: whole numbers >= 0, as JSON integers or floats such as 2.0.
TOKENS = st.integers(0, 99) | st.sampled_from([2.0, -0.0, 10**20])
BAD_TOKENS = st.sampled_from([-1, -2.0, 1.5, True, False, "3", None, float("nan"), float("inf")])
LATENCY = st.sampled_from([0.0, 0.25, 3, float("inf")])
BAD_LATENCY = st.sampled_from([True, "0.5", None, [], 10**400])
STORE_KINDS = (["row"] * 12
               + ["missing", "odd-content", "odd-request", "odd-tokens", "odd-latency"])


@st.composite
def store_rows(draw):
    """A recorded call as `ReplayBackend` writes it, with a response or an
    error, or with a key left out or a value of the wrong kind."""
    messages = [{"role": draw(st.sampled_from(["system", "user"])), "content": draw(TEXT)}
                for _ in range(draw(st.integers(1, 2)))]
    request = {"model_id": draw(TEXT), "messages": messages,
               "temperature": draw(st.sampled_from([0.0, 0.2, 0, 1])),
               "max_output_tokens": 64, "purpose": "Forward"}
    response = {"content": draw(TEXT), "input_tokens": draw(TOKENS),
                "output_tokens": draw(TOKENS), "latency_s": draw(LATENCY)}
    row = ({"request": request, "response": response} if draw(st.booleans())
           else {"request": request, "error": draw(TEXT)})
    kind = draw(st.sampled_from(STORE_KINDS))
    if kind == "missing":
        where = draw(st.sampled_from([row, row, request, response, messages[0]]))
        if where:
            del where[draw(st.sampled_from(sorted(where)))]
    elif kind == "odd-content":
        where, key = draw(st.sampled_from([(response, "content"), (row, "error"),
                                           (messages[0], "content"), (messages[0], "role"),
                                           (request, "model_id")]))
        where[key] = draw(ODD | st.integers(-1, 1))
    elif kind == "odd-request":
        where, key = draw(st.sampled_from([(row, "request"), (request, "messages"),
                                           (row, "response")]))
        where[key] = draw(ODD | TEXT | st.sampled_from([[1], [["user", "x"]]]))
    elif kind == "odd-tokens":
        response[draw(st.sampled_from(["input_tokens", "output_tokens"]))] = draw(BAD_TOKENS)
    elif kind == "odd-latency":
        response["latency_s"] = draw(BAD_LATENCY)
    return row


def whole(count) -> bool:
    return ((type(count) is int and count >= 0)
            or (type(count) is float and count.is_integer() and count >= 0))


def store_entry(row):
    """A row's error, or its response as (content, input tokens, output
    tokens, latency); None for a row without a request of a model id, a list
    of messages each with a role and content, none of them an array or
    object, and a temperature; or with neither a response of string content,
    whole token counts >= 0 and a number for its latency, nor a string
    error."""
    if type(row) is not dict:
        return None
    request = row.get("request")
    if type(request) is not dict or not {"model_id", "messages", "temperature"} <= request.keys():
        return None
    messages = request["messages"]
    if type(messages) is not list or any(type(m) is not dict or not {"role", "content"} <= m.keys()
                                         for m in messages):
        return None
    names = [request["model_id"], *(m[key] for m in messages for key in ("role", "content"))]
    if any(type(name) in (list, dict) for name in names):
        return None
    response = row.get("response")
    if response is None:
        return row["error"] if type(row.get("error")) is str else None
    if type(response) is not dict or type(response.get("content")) is not str:
        return None
    counts = [response.get(key, 0) for key in ("input_tokens", "output_tokens")]
    latency = response.get("latency_s", 0.0)
    if (not all(map(whole, counts)) or type(latency) not in (int, float)
            or abs(latency) > sys.float_info.max and type(latency) is int):
        return None
    return (response["content"], *map(int, counts), float(latency))


def read_store(path):
    rows = ReplayBackend(path, REPLAY)._rows
    return [(e.content, e.input_tokens, e.output_tokens, e.latency_s)
            if isinstance(e, ChatResponse) else e for _, e in rows]


def one_row(request=(), **outcome) -> bytes:
    """One store line: a call with `request`'s keys changed, and `outcome`."""
    request = {"model_id": "m", "messages": [{"role": "user", "content": "x"}],
               "temperature": 0.0, **dict(request)}
    return json.dumps({"request": request, **(outcome or {"error": "e"})}).encode() + b"\n"


# Each of these escaped as an OverflowError or TypeError, or loaded.
@settings(max_examples=100)
@given(data=files(store_rows()))
@example(data=one_row() + one_row(response={"content": "r", "latency_s": 10**400}))
@example(data=one_row(response={"content": "r", "latency_s": True}))
@example(data=one_row(response={"content": "r", "latency_s": "0.5"}))
@example(data=one_row({"model_id": ["m"]}))
@example(data=one_row({"messages": [{"role": "user", "content": {"a": 1}}]}))
@example(data=one_row({"messages": {}}))
def test_a_replay_store_loads_what_the_reference_reads(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "store.jsonl"
    check(path, data, store_entry, read_store,
          lambda n: f"replay store {path}, line {n}: ")


# --- the run records -----------------------------------------------------------

RECORD_KEYS = ("batch_index", "val_score", "api_calls_so_far", "cost_so_far_usd")
COUNT = st.integers(0, 99)
NUMBER = st.integers(0, 3) | st.sampled_from([0.5, -0.0, 1e16, 0.0123456789])


@st.composite
def record_rows(draw):
    """A run record as `train` writes it, sometimes with a field of another
    kind or without one."""
    row = {"batch_index": draw(COUNT), "val_score": draw(NUMBER), "revision": 1,
           "api_calls_so_far": draw(COUNT), "cost_so_far_usd": draw(NUMBER), "timestamp": 0}
    kind = draw(st.sampled_from(["row"] * 30 + ["odd-field"] * 4 + ["missing"]))
    key = draw(st.sampled_from(RECORD_KEYS))
    if kind == "odd-field":
        row[key] = draw(ODD | TEXT | st.sampled_from([1.5, 2.0, 10**400]))
    elif kind == "missing":
        del row[key]
    return row


def record_entry(row):
    """The curve's batch index, score, calls and cost columns of a row, as
    text; None for a row without each key, with a count that is no JSON
    integer, or with a score or cost that is no number a float holds."""
    if type(row) is not dict or any(key not in row for key in RECORD_KEYS):
        return None
    index, score, calls, cost = (row[key] for key in RECORD_KEYS)
    if (type(index) is not int or type(calls) is not int
            or any(type(x) not in (int, float) or type(x) is int and abs(x) > sys.float_info.max
                   for x in (score, cost))):
        return None
    return (str(index), str(float(score)), str(calls), f"{float(cost):.6f}")


def read_records(path):
    """The curve's rows without their running best, which is checked here;
    an exit 2 is a ValueError of its message."""
    result = CliRunner().invoke(main, ["curve", "--run-dir", str(path.parent)])
    if result.exit_code == 2:
        raise ValueError(json.loads(result.stderr)["error"])
    assert result.exit_code == 0, result.output
    header, *lines = result.stdout.splitlines()
    assert header == "batch_index,val_score,best_so_far,calls,cost"
    rows = [line.split(",") for line in lines]
    assert all(len(row) == 5 for row in rows)
    scores = [float(row[1]) for row in rows]
    assert [float(row[2]) for row in rows] == [max(scores[:i + 1]) for i in range(len(rows))]
    return [(index, score, calls, cost) for index, score, _, calls, cost in rows]


@settings(max_examples=100)
@given(data=files(record_rows()))
@example(data=b'{"batch_index": 0, "val_score": 0.5, "api_calls_so_far": 1, '
              b'"cost_so_far_usd": 0}\n\xc2\xa0\n')
def test_flowtune_curve_reads_what_the_reference_reads(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "run" / "records.jsonl"
    path.parent.mkdir(exist_ok=True)
    check(path, data, record_entry, read_records, lambda n: f"records {path}, line {n}: ")


# --- checkpoints -------------------------------------------------------------

STATES = [chain_state(1), chain_state(3, revision=2), WorkflowState(
    sketch=(StepSpec(1, "route", "router", control=Route({"a": 3, "b": 2})),
            StepSpec(2, "look up", "search", tool_names=("search",)),
            StepSpec(3, "answer", "writer", control=Loop(2))),
    executors={e.name: e for e in (llm_executor("router"), tool_executor("search", ("search",)),
                                   llm_executor("writer"))},
    revision=1)]
# As JSON text, so that no drawn list or object is shared between examples.
ANY_VALUE = st.sampled_from(['null', 'true', 'false', '[]', '["a"]', '{}', '{"kind": "loop"}',
                             '0', '-1', '2.5', '1e20', '""', '"step_1"', '"ToolExecutor"'])


def json_paths(obj, at=()):
    """The path of `obj` and of every value inside it."""
    yield at
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from json_paths(value, at + (key,))


@st.composite
def spoiled_checkpoints(draw):
    """A valid state's checkpoint with a key dropped, a value swapped for
    another kind of value, or a value nested, one to three times."""
    holder = {"state": json.loads(serialize_state(draw(st.sampled_from(STATES))))}
    for _ in range(draw(st.integers(1, 3))):
        *where, key = draw(st.sampled_from(list(json_paths(holder))[1:]))
        parent = holder
        for step in where:
            parent = parent[step]
        kind = draw(st.sampled_from(["drop", "swap", "nest"]))
        if kind == "drop" and isinstance(parent, dict):
            del parent[key]
        elif kind == "nest":
            parent[key] = draw(st.sampled_from([[parent[key]], {"kind": parent[key]}]))
        else:
            parent[key] = json.loads(draw(ANY_VALUE))
        if "state" not in holder:
            break
    return json.dumps(holder.get("state"))


@settings(max_examples=150)
@given(text=spoiled_checkpoints())
def test_a_spoiled_checkpoint_loads_a_valid_state_or_is_a_value_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "checkpoint.json"
    path.write_text(text)
    try:
        state = load_checkpoint(path)
    except ValueError:
        return
    assert validate_state(state) == []
