import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtune.evaluation import (
    DatasetParseError,
    DuplicateIdError,
    Sample,
    exact_match,
    load_dataset,
    metric_info,
    normalize_answer,
    token_f1,
)

from .helpers import nested_too_deep


def test_exact_match_mismatch_names_both_normalized_strings():
    result = exact_match("1865", "1846")
    assert result.score == 0.0
    assert "1865" in result.feedback and "1846" in result.feedback


def test_exact_match_identical():
    assert exact_match("same answer", "same answer").score == 1.0


def test_exact_match_normalization_rules():
    assert exact_match(" The 1846. ", "1846").score == 1.0
    assert exact_match("An Apple!", "apple").score == 1.0
    assert exact_match("a  b   c", "A B C").score == 1.0


def test_token_f1_examples():
    assert token_f1("x y z", "x y z").score == 1.0
    # precision = recall = 0.5 when one of two tokens overlaps
    assert token_f1("x b", "b c").score == pytest.approx(0.5)
    assert token_f1("cat", "dog").score == 0.0
    # articles drop out of the token multisets before matching
    assert token_f1("a b", "b c").score == pytest.approx(2 / 3)


def test_token_f1_empty_sides():
    assert token_f1("", "").score == 1.0
    assert token_f1("something", "").score == 0.0
    assert token_f1("", "something").score == 0.0
    assert token_f1("the", "a").score == 1.0  # both normalize to empty


text_any = st.text(max_size=60)


@settings(max_examples=150)
@given(text=text_any)
def test_normalize_is_idempotent(text):
    once = normalize_answer(text)
    assert normalize_answer(once) == once


@settings(max_examples=100)
@given(a=text_any, b=text_any)
def test_token_f1_symmetry_and_range(a, b):
    left = token_f1(a, b)
    right = token_f1(b, a)
    assert left.score == pytest.approx(right.score)
    assert 0.0 <= left.score <= 1.0
    if left.score < 1.0:
        assert left.feedback


@settings(max_examples=100)
@given(text=text_any)
def test_exact_match_reflexive(text):
    assert exact_match(text, text).score == 1.0


def test_metric_info_strings_exist():
    assert "normalized" in metric_info("exact_match")
    assert "F1" in metric_info("token_f1")


# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------

def test_load_dataset_in_file_order(tmp_path):
    path = tmp_path / "train.jsonl"
    path.write_text(
        '{"id": "b", "question": "Q1", "answer": "A1"}\n'
        '{"id": "a", "question": "Q2", "answer": "A2", "context": "ctx"}\n'
        '{"id": "c", "question": "Q3", "answer": "A3"}\n'
    )
    samples = load_dataset(path)
    assert [s.id for s in samples] == ["b", "a", "c"]


def test_missing_answer_names_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "question": "Q", "answer": "A"}\n'
        '{"id": "b", "question": "Q2"}\n'
    )
    with pytest.raises(DatasetParseError) as e:
        load_dataset(path)
    assert e.value.line_no == 2
    assert "answer" in str(e.value)


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text(
        '{"id": "a", "question": "Q", "answer": "A"}\n'
        '{"id": "a", "question": "Q2", "answer": "A2"}\n'
    )
    with pytest.raises(DuplicateIdError):
        load_dataset(path)


def test_invalid_json_names_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "question": "Q", "answer": "A"}\nnot json\n')
    with pytest.raises(DatasetParseError) as e:
        load_dataset(path)
    assert e.value.line_no == 2


@pytest.mark.parametrize("row, reason", [(b"5", "row is not a JSON object"),
                                         (b"[1, 2]", "row is not a JSON object"),
                                         (b'{"id": "\xff"}', "unreadable row: UnicodeDecodeError")])
def test_a_row_that_is_no_object_in_utf8_names_the_file_and_line(tmp_path, row, reason):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"id": "a", "question": "Q", "answer": "A"}\n' + row + b"\n")
    with pytest.raises(DatasetParseError) as e:
        load_dataset(path)
    assert e.value.line_no == 2
    assert str(e.value).startswith(f"{path}:2: {reason}")


@pytest.mark.parametrize("row, reason", [
    ('{"id": "b", "question": null, "answer": [1]}', "question must be a string or a number"),
    ('{"id": "b", "question": "Q", "answer": [1]}', "answer must be a string or a number"),
    ('{"id": true, "question": "Q", "answer": "A"}', "id must be a string or a number"),
    ('{"id": "b", "question": "Q", "answer": {"x": 1}}', "answer must be a string or a number"),
])
def test_a_field_that_is_no_string_or_number_names_the_file_and_line(tmp_path, row, reason):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "question": "Q", "answer": "A"}\n' + row + "\n")
    with pytest.raises(DatasetParseError) as e:
        load_dataset(path)
    assert str(e.value).startswith(f"{path}:2: {reason}")


@nested_too_deep
def test_a_row_nested_too_deep_names_the_file_and_line(tmp_path, deep):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "question": "Q", "answer": "A"}\n' + deep + "\n")
    with pytest.raises(DatasetParseError) as e:
        load_dataset(path)
    assert str(e.value).startswith(f"{path}:2: unreadable row: RecursionError(")


def test_sample_is_frozen():
    sample = Sample(id="s", question="q", answer="a")
    with pytest.raises(AttributeError):
        sample.answer = "other"
