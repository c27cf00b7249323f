"""Metrics, textual loss rendering, and dataset loading."""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .model import json_text
from .store import read_rows

ARTICLES = frozenset({"a", "an", "the"})
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


class DatasetError(ValueError):
    pass


class DatasetParseError(DatasetError):
    def __init__(self, path, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {reason}")


class DuplicateIdError(DatasetError):
    def __init__(self, path, line_no: int, sample_id: str):
        self.sample_id = sample_id
        super().__init__(f"{path}:{line_no}: duplicate id {sample_id!r}")


@dataclass(frozen=True)
class Sample:
    id: str
    question: str
    answer: str


# A dataset row's keys, in the order of Sample's fields.
_SAMPLE_KEYS = ("id", "question", "answer")


@dataclass(frozen=True)
class EvalResult:
    score: float
    feedback: str

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score {self.score} outside [0, 1]")


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, drop articles, collapse whitespace.

    Idempotent: applying it twice equals applying it once.
    """
    lowered = text.lower().translate(_PUNCT_TABLE)
    tokens = [t for t in lowered.split() if t not in ARTICLES]
    return " ".join(tokens)


def exact_match(prediction: str, truth: str) -> EvalResult:
    norm_pred = normalize_answer(prediction)
    norm_truth = normalize_answer(truth)
    if norm_pred == norm_truth:
        return EvalResult(1.0, f"exact_match = 1.0. The prediction matches the ground truth "
                               f"(normalized: {norm_pred!r}).")
    return EvalResult(
        0.0,
        f"exact_match = 0.0. The prediction does not match the ground truth. "
        f"Normalized prediction: {norm_pred!r}. Normalized ground truth: {norm_truth!r}.",
    )


def token_f1(prediction: str, truth: str) -> EvalResult:
    pred_tokens = normalize_answer(prediction).split()
    truth_tokens = normalize_answer(truth).split()
    if not pred_tokens and not truth_tokens:
        return EvalResult(1.0, "token_f1 = 1.0000. Both sides empty after normalization.")
    overlap = sum((Counter(pred_tokens) & Counter(truth_tokens)).values())
    if overlap == 0:
        score = 0.0
    else:
        precision = overlap / len(pred_tokens)
        recall = overlap / len(truth_tokens)
        score = 2 * precision * recall / (precision + recall)
    feedback = (
        f"token_f1 = {score:.4f}. Prediction tokens: {pred_tokens}. "
        f"Ground-truth tokens: {truth_tokens}. Shared token count: {overlap}."
    )
    return EvalResult(score, feedback)


METRICS = {
    "exact_match": exact_match,
    "token_f1": token_f1,
}

METRIC_INFO = {
    "exact_match": (
        "exact_match: 1.0 if the normalized prediction equals the normalized ground "
        "truth (lowercase, punctuation stripped, articles a/an/the dropped, whitespace "
        "collapsed), else 0.0."
    ),
    "token_f1": (
        "token_f1: F1 overlap between the normalized token multisets of the prediction "
        "and the ground truth; 1.0 means identical token content."
    ),
}


def get_metric(name: str):
    try:
        return METRICS[name]
    except KeyError:
        raise KeyError(f"unknown metric {name!r}; available: {sorted(METRICS)}") from None


def metric_info(name: str) -> str:
    return METRIC_INFO.get(name, name)


def load_dataset(path: str | Path) -> list[Sample]:
    """Read one JSONL split; order is file order, ids must be unique. A row
    that is not a JSON object in UTF-8, or whose `id`, `question` or
    `answer` is not a JSON string or number, is a DatasetParseError naming
    the file and the line. A number is read in its `str` form."""
    path = Path(path)
    samples: list[Sample] = []
    seen: set[str] = set()
    for line_no, row in read_rows(path, lambda row: row,
                                  lambda line, reason: DatasetParseError(path, line, reason)):
        if type(row) is not dict:
            raise DatasetParseError(path, line_no, "row is not a JSON object")
        for key in _SAMPLE_KEYS:
            if key not in row:
                raise DatasetParseError(path, line_no, f"missing field {key!r}")
        try:
            sample = Sample(*[json_text(row[key], key) for key in _SAMPLE_KEYS])
        except ValueError as e:
            raise DatasetParseError(path, line_no, str(e)) from None
        if sample.id in seen:
            raise DuplicateIdError(path, line_no, sample.id)
        if not sample.question:
            raise DatasetParseError(path, line_no, "question is empty")
        seen.add(sample.id)
        samples.append(sample)
    return samples
