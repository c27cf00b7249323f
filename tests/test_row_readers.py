"""`load_corpus` and `load_dataset` against a reference reader.

Each generated JSON-lines file either loads to exactly what the reference
yields, or is a ValueError naming the file and the first bad line. The
reference reads a line as the documentation says: split at b"\\n", decode
UTF-8, `str.strip`, `json.loads`, then the field checks.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from flowtune.evaluation import load_dataset
from flowtune.tools import load_corpus

CORPUS_KEYS = ("doc_id", "title", "body")
DATASET_KEYS = ("id", "question", "answer")

TEXT = st.text(alphabet='ab 1é"\\', min_size=1, max_size=3)
FIELD = st.one_of(TEXT, TEXT, TEXT, st.integers(-3, 3), st.sampled_from([1.5, -0.0, 1e16, ""]))
ODD = st.sampled_from([None, True, False, [], ["a"], {}, {"a": 1}])
# Around a row: nothing, JSON whitespace, or Unicode space that only
# `str.strip` removes; a byte-order mark, which it does not.
PADDING = st.sampled_from([""] * 12 + [" ", "\t", "\r", "\u00a0", "\u2028", "\ufeff"])
# Most lines are rows, so that some files load whole.
KINDS = (["row"] * 30 + ["odd-field"] * 3
         + ["missing", "other", "truncated", "extra", "not-utf8", "blank"])


@st.composite
def rows(draw, keys):
    """One line of a JSON-lines file, as bytes, without its ending."""
    row = {key: draw(FIELD) for key in keys}
    kind = draw(st.sampled_from(KINDS))
    if kind == "odd-field":
        row[draw(st.sampled_from(keys))] = draw(ODD)
    elif kind == "missing":
        del row[draw(st.sampled_from(keys))]
    text = json.dumps(row, ensure_ascii=draw(st.booleans()))
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
def files(draw, keys):
    lines = draw(st.lists(rows(keys), max_size=6))
    endings = [draw(st.sampled_from([b"\n", b"\r\n"])) for _ in lines]
    if lines and draw(st.booleans()):
        endings[-1] = b""  # no line break after the last line
    return b"".join(line + end for line, end in zip(lines, endings))


def reference(data: bytes, keys, dataset: bool):
    """The rows' fields as tuples of strings, or the 1-based number of the
    first line that is not a row."""
    loaded, seen = [], set()
    for number, line in enumerate(data.split(b"\n"), 1):
        try:
            text = line.decode("utf-8").strip()
            if not text:
                continue
            row = json.loads(text)
        except ValueError:
            return number
        if (type(row) is not dict or any(key not in row for key in keys)
                or any(type(row[key]) not in (str, int, float) for key in keys)):
            return number
        fields = tuple(str(row[key]) for key in keys)
        if fields[0] in seen or (dataset and not fields[1]):
            return number
        seen.add(fields[0])
        loaded.append(fields)
    return loaded


def check(path, data: bytes, dataset: bool) -> None:
    keys = DATASET_KEYS if dataset else CORPUS_KEYS
    path.write_bytes(data)
    expected = reference(data, keys, dataset)
    try:
        if dataset:
            got = [(s.id, s.question, s.answer) for s in load_dataset(path)]
        else:
            got = [tuple(doc) for doc in load_corpus(path)]
    except ValueError as e:
        where = f"{path}:{expected}: " if dataset else f"corpus {path}, line {expected}: "
        assert type(expected) is int and str(e).startswith(where), (str(e), expected)
    else:
        assert got == expected
        assert all(type(field) is str for fields in got for field in fields)


@settings(max_examples=150)
@given(data=files(CORPUS_KEYS))
def test_load_corpus_reads_what_the_reference_reads(tmp_path_factory, data):
    check(tmp_path_factory.getbasetemp() / "corpus.jsonl", data, dataset=False)


@settings(max_examples=150)
@given(data=files(DATASET_KEYS))
def test_load_dataset_reads_what_the_reference_reads(tmp_path_factory, data):
    check(tmp_path_factory.getbasetemp() / "split.jsonl", data, dataset=True)
