"""Tests of the benchmark's own span recorder, self time and call depth.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from tracing import SpanRecorder, Span, call_depth, covered, installed, percentile, self_times  # noqa: E402


def ticking_clock(*times):
    it = iter(times)
    return lambda: next(it)


def test_spans_nest_under_the_open_span_and_record_errors():
    rec = SpanRecorder(clock=ticking_clock(0, 10, 20, 30, 40, 100))
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with pytest.raises(KeyError):
            with rec.span("failing"):
                raise KeyError("x")
    outer, inner, failing = rec.spans
    assert (outer.parent, inner.parent, failing.parent) == (None, outer.id, outer.id)
    assert (outer.start, outer.end, inner.duration, failing.duration) == (0, 100, 10, 10)
    assert failing.error == "KeyError" and inner.error is None


def test_wrap_names_spans_and_observes_results():
    rec = SpanRecorder()
    double = rec.wrap(lambda x: 2 * x, lambda x: f"call.{x}",
                      observe=lambda r, result: r.count("total", result))
    assert double(3) == 6 and double(4) == 8
    assert [s.name for s in rec.spans] == ["call.3", "call.4"]
    assert rec.counters == {"total": 14}


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span(0, None, "parent", 0, 100),
        Span(1, 0, "a", 10, 30),
        Span(2, 0, "b", 20, 50),     # overlaps a: together they cover 10..50
        Span(3, 1, "grandchild", 12, 28),
        Span(4, 0, "c", 90, 120),    # runs past the parent's end: only 90..100 counts
    ]
    selfs = self_times(spans)
    assert selfs == {0: 100 - 40 - 10, 1: 20 - 16, 2: 30, 3: 16, 4: 30}


def test_covered_merges_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(0, 5), (5, 10)], 0, 10) == 10
    assert covered([(2, 4), (3, 8), (1, 2)], 0, 10) == 7
    assert covered([(-5, 3), (8, 20)], 0, 10) == 5


def test_call_depth_of_serial_calls_is_their_count():
    assert call_depth([(0, 10), (10, 20), (20, 30), (31, 40)]) == 4


def test_call_depth_of_overlapping_calls():
    assert call_depth([]) == 0
    assert call_depth([(0, 10), (1, 11), (2, 12)]) == 1
    # Two concurrent chains of three, then one call after both.
    chains = [(0, 10), (0, 10), (10, 20), (11, 20), (20, 30), (20, 29), (30, 31)]
    assert call_depth(chains) == 4
    # A long call spanning a serial chain does not lengthen it.
    assert call_depth([(0, 100), (0, 10), (10, 20), (20, 30)]) == 3


def test_percentile_is_nearest_rank():
    assert percentile([], 50) == 0.0
    assert percentile([3, 1, 2], 50) == 2.0
    assert percentile(list(range(1, 101)), 99) == 99.0
    assert percentile([5], 99) == 5.0


def test_installed_wraps_where_callers_look_up_and_restores():
    import flowtune.forward
    import flowtune.store
    import flowtune.trainer

    originals = (flowtune.trainer.run_workflow, flowtune.forward.run_tool_step,
                 flowtune.store.RunLedger.__dict__["total_cost_micro"])
    rec = SpanRecorder()
    with installed(rec):
        assert flowtune.trainer.run_workflow is not originals[0]
        assert flowtune.trainer.run_workflow.__wrapped__ is originals[0]
        ledger = flowtune.store.RunLedger()
        ledger.record_call("Forward", "m", 1, 1)
        assert ledger.total_cost_micro == 0
    assert [s.name for s in rec.spans] == ["store.record_call", "store.total_cost"]
    assert (flowtune.trainer.run_workflow, flowtune.forward.run_tool_step,
            flowtune.store.RunLedger.__dict__["total_cost_micro"]) == originals


def test_brute_force_ranker_agrees_with_the_corpus_index():
    from flowtune.tools import CorpusDoc, CorpusIndex
    from inputs import BruteForceRanker, zipf_corpus

    rng = random.Random(7)
    vocab, corpus = zipf_corpus(rng, 300, 200, 12)
    index = CorpusIndex([CorpusDoc(d, " ".join(t), " ".join(b)) for d, t, b in corpus])
    ranker = BruteForceRanker(corpus)
    for _ in range(30):
        query = " ".join(rng.sample(vocab, 3))
        assert [h.doc_id for h in index.search_topk(query, 5)] == ranker.top_k(query, 5)
