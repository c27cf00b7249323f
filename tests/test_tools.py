import gc
import heapq
import math
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtune.tools import (
    CorpusDoc,
    CorpusIndex,
    DuplicateDocId,
    EmptyCorpusError,
    MAX_TOOL_ROUNDS,
    SNIPPET_CHARS,
    SearchHit,
    ToolRegistry,
    ToolSpec,
    load_corpus,
    make_corpus_search_tool,
    run_tool_step,
    tokenize,
)

from .helpers import fenced, make_runtime, tool_executor, user_content

DOCS = [
    CorpusDoc("d1", "River otters", "Otters live along rivers and eat fish daily."),
    CorpusDoc("d2", "Bucknell University", "Bucknell University was founded in 1846 in Lewisburg."),
    CorpusDoc("d3", "Basketball history", "Early college basketball teams played short seasons."),
]


def reference_scores(docs, query):
    """Independent re-derivation of the ranking formula for hand-checking."""
    terms = tokenize(query)
    token_lists = {d.doc_id: tokenize(d.title + " " + d.body) for d in docs}
    df = {}
    for toks in token_lists.values():
        for t in set(toks):
            df[t] = df.get(t, 0) + 1
    out = {}
    for d in docs:
        toks = token_lists[d.doc_id]
        score = sum(
            toks.count(t) * math.log(1 + len(docs) / df[t])
            for t in terms if df.get(t)
        ) / max(1, len(toks))
        out[d.doc_id] = score
    return out


def test_title_match_ranks_first():
    index = CorpusIndex(DOCS)
    hits = index.search_topk("Bucknell University", k=3)
    assert hits[0].doc_id == "d2"
    expected = reference_scores(DOCS, "Bucknell University")
    for hit in hits:
        assert hit.score == pytest.approx(expected[hit.doc_id])


def test_no_shared_tokens_gives_empty_result():
    index = CorpusIndex(DOCS)
    assert index.search_topk("zebra quantum", k=5) == []


def test_k_larger_than_corpus_returns_all_sorted():
    index = CorpusIndex(DOCS)
    hits = index.search_topk("college basketball teams history", k=50)
    assert len(hits) <= len(DOCS)
    scores = [h.score for h in hits]
    assert scores == sorted(scores, reverse=True)


def test_ranking_stable_under_corpus_reordering():
    index = CorpusIndex(DOCS)
    baseline = [(h.doc_id, h.score) for h in index.search_topk("rivers fish basketball", k=3)]
    for seed in range(5):
        shuffled = list(DOCS)
        random.Random(seed).shuffle(shuffled)
        hits = [(h.doc_id, h.score) for h in CorpusIndex(shuffled).search_topk(
            "rivers fish basketball", k=3)]
        assert hits == baseline


def test_ties_break_by_doc_id():
    docs = [
        CorpusDoc("b", "same words here", "same words here"),
        CorpusDoc("a", "same words here", "same words here"),
    ]
    hits = CorpusIndex(docs).search_topk("same words", k=2)
    assert [h.doc_id for h in hits] == ["a", "b"]


def full_sort_topk(docs, query, k):
    """Every matching document scored and sorted, the k best kept: the
    ranking the index must reproduce, with the same floating-point steps."""
    token_lists = {d.doc_id: tokenize(d.title + " " + d.body) for d in docs}
    df = {}
    for toks in token_lists.values():
        for t in set(toks):
            df[t] = df.get(t, 0) + 1
    scored = []
    for d in docs:
        toks = token_lists[d.doc_id]
        score = 0.0
        for t in tokenize(query):
            tf = toks.count(t)
            if tf:
                score += tf * math.log(1.0 + len(docs) / df[t])
        score /= max(1, len(toks))
        if score > 0.0:
            scored.append((score, d.doc_id))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [(doc_id, score) for score, doc_id in scored[:k]]


WORDS = ["otter", "river", "fish", "stone"]


@settings(max_examples=200)
@given(
    bodies=st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
                    min_size=1, max_size=12),
    id_order=st.randoms(use_true_random=False),
    query=st.lists(st.sampled_from(WORDS + ["zebra"]), min_size=1, max_size=3),
    k=st.integers(1, 14),
)
def test_heap_select_matches_full_sort_with_ties(bodies, id_order, query, k):
    # Few words and short bodies make many documents score exactly alike.
    ids = [f"d{i:02d}" for i in range(len(bodies))]
    id_order.shuffle(ids)
    docs = [CorpusDoc(doc_id, "", " ".join(body)) for doc_id, body in zip(ids, bodies)]
    hits = CorpusIndex(docs).search_topk(" ".join(query), k)
    assert [(h.doc_id, h.score) for h in hits] == full_sort_topk(docs, " ".join(query), k)


class ScanIndex:
    """The scan every query used to run, kept verbatim as the reference the
    inverted index must match bit for bit: every document scored, every
    idf recomputed per document and term."""

    def __init__(self, docs):
        self.docs = list(docs)
        self._doc_tokens = {d.doc_id: scan_tokenize(d.title + " " + d.body) for d in docs}
        self._doc_counts = {}
        self._df = {}
        for d in docs:
            counts = {}
            for t in self._doc_tokens[d.doc_id]:
                counts[t] = counts.get(t, 0) + 1
            self._doc_counts[d.doc_id] = counts
            for t in counts:
                self._df[t] = self._df.get(t, 0) + 1

    def search_topk(self, query, k):
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.docs:
            raise EmptyCorpusError("corpus is empty")
        terms = scan_tokenize(query)
        n = len(self.docs)

        def scored():
            for doc in self.docs:
                counts = self._doc_counts[doc.doc_id]
                length = max(1, len(self._doc_tokens[doc.doc_id]))
                score = 0.0
                for t in terms:
                    tf = counts.get(t, 0)
                    if tf == 0:
                        continue
                    idf = math.log(1.0 + n / self._df[t])
                    score += tf * idf
                score /= length
                if score > 0.0:
                    yield score, doc

        # A k-sized heap instead of sorting every matching document.
        top = heapq.nsmallest(k, scored(), key=lambda item: (-item[0], item[1].doc_id))
        return [
            SearchHit(doc_id=d.doc_id, title=d.title, snippet=d.body[:SNIPPET_CHARS], score=s)
            for s, d in top
        ]


def scan_tokenize(text):
    return re.findall(r"[a-z0-9]+", text.lower())


# Upper case, punctuation and digits, few enough letters that tokens repeat;
# and characters outside ASCII, some of which lower-case to ASCII letters
# (the dotted capital I, the Kelvin sign).
ALPHABET = "abAB01 .,-'\u00e9\u0130\u212a\u00df\uff21"
QUERY_TERMS = ["a", "B", "ab", "AB", "0", "a1", "b-a", "1,0", "zebra", "x9"]


@settings(max_examples=300)
@given(
    texts=st.lists(st.tuples(st.text(ALPHABET, max_size=12), st.text(ALPHABET, max_size=40)),
                   min_size=1, max_size=12),
    order=st.randoms(use_true_random=False),
    query=st.lists(st.sampled_from(QUERY_TERMS), max_size=6),
    k=st.integers(1, 20),
)
def test_index_matches_the_scan_bit_for_bit(texts, order, query, k):
    docs = [CorpusDoc(f"d{i}", title, body) for i, (title, body) in enumerate(texts)]
    shuffled = list(docs)
    order.shuffle(shuffled)
    q = " ".join(query)
    assert CorpusIndex(shuffled).search_topk(q, k) == ScanIndex(docs).search_topk(q, k)


@st.composite
def pruning_corpora(draw):
    """Documents of which most hold "common", 1-4 times, and a few a rarer
    term, so that a query's candidates often rank above every document
    holding "common" alone. Lengths are padded to one value for every
    document, or each to its own between 1 and 40."""
    equal = draw(st.booleans())
    shared = draw(st.integers(7, 40))
    shuffle = random.Random(draw(st.integers(0, 2 ** 32 - 1))).shuffle
    docs = []
    for i in range(draw(st.integers(4, 30))):
        tokens = ["common"] * draw(st.sampled_from([0, 1, 1, 1, 2, 3, 4]))
        tokens += draw(st.sampled_from([(), (), (), ("alpha",), ("beta",), ("gamma",),
                                        ("alpha", "beta"), ("gamma", "gamma")]))
        target = shared if equal else draw(st.integers(1, 40))
        tokens += ["pad"] * (target - len(tokens))
        shuffle(tokens)
        docs.append(CorpusDoc(f"d{i:02d}", "", " ".join(tokens)))
    return docs


@st.composite
def pruning_queries(draw):
    """"common" once or twice and one to three rarer terms, in any order."""
    terms = ["common"] * draw(st.integers(1, 2))
    terms += draw(st.lists(st.sampled_from(["alpha", "beta", "gamma", "zebra"]),
                           min_size=1, max_size=3))
    return " ".join(draw(st.permutations(terms)))


@settings(max_examples=300)
@given(docs=pruning_corpora(), q=pruning_queries(), k=st.integers(1, 3) | st.integers(1, 12))
def test_pruned_search_matches_the_scan_bit_for_bit(docs, q, k):
    assert CorpusIndex(docs).search_topk(q, k) == ScanIndex(docs).search_topk(q, k)


def test_a_candidate_that_only_ties_the_bound_does_not_prune():
    # "common" and "rare" are each in one document of length 1, so both
    # documents score ln 3, the bound for a document holding "common" alone.
    # The k-th candidate only ties it, and on the tie d0, holding "common"
    # alone, ranks first by its lower index.
    docs = [CorpusDoc("d0", "", "common"), CorpusDoc("d1", "", "rare")]
    hits = CorpusIndex(docs).search_topk("common rare", 1)
    assert [(h.doc_id, h.score) for h in hits] == [("d0", math.log(3.0))]
    assert hits == ScanIndex(docs).search_topk("common rare", 1)


class CountingList(list):
    """A list that counts its item lookups."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)


def test_a_pruned_search_scores_only_the_candidates():
    docs = [CorpusDoc(f"d{i:04d}", "", "common pad pad " + ("rare" if i % 100 == 0 else "pad"))
            for i in range(1000)]
    index = CorpusIndex(docs)
    index._lengths = lengths = CountingList(index._lengths)
    # 10 candidates hold "rare", and score above any of the 990 documents
    # holding "common" alone: only the candidates are scored.
    hits = index.search_topk("common rare", 5)
    assert [h.doc_id for h in hits] == ["d0000", "d0100", "d0200", "d0300", "d0400"]
    assert lengths.lookups == 10
    # With k past the candidates, none is scored before the 990 documents
    # holding "common" alone join them.
    lengths.lookups = 0
    assert len(index.search_topk("common rare", 11)) == 11
    assert lengths.lookups == 1000
    assert index.search_topk("common rare", 11) == ScanIndex(docs).search_topk("common rare", 11)


class CountingTuple(tuple):
    """A tuple that counts the entries read from it, by index or by iteration."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


def test_a_pruned_search_reads_only_the_candidates_counts_of_the_longest_posting():
    # Every document is 4 tokens long and holds "common" 1-3 times; 10 also
    # hold "rare", and outscore any document holding "common" alone.
    docs = [CorpusDoc(f"d{i:04d}", "", " ".join(["common"] * (1 + i % 3) + ["pad"] * (2 - i % 3)
                                                + ["rare" if i % 100 == 0 else "pad"]))
            for i in range(1000)]
    index = CorpusIndex(docs)
    ids, tfs = index._postings["common"]
    index._postings["common"] = (ids, counting := CountingTuple(tfs))
    hits = index.search_topk("common rare", 5)
    assert hits == ScanIndex(docs).search_topk("common rare", 5)
    assert 0 < counting.reads <= 10


@settings(max_examples=100)
@given(docs=pruning_corpora())
def test_the_index_records_the_highest_count_of_each_term_that_repeats(docs):
    index = CorpusIndex(docs)
    assert index._max_tf.keys() <= index._postings.keys()
    for term, (_, tfs) in index._postings.items():
        if term in index._max_tf:
            assert index._max_tf[term] == max(tfs)
        else:
            assert set(tfs) == {1}


@settings(max_examples=500)
@given(st.text())
def test_tokenize_matches_the_regular_expression(text):
    assert tokenize(text) == scan_tokenize(text)


def test_tokenize_splits_at_every_character_outside_the_ascii_runs():
    assert tokenize("Caf\u00e9-OLE x\u00df9 \u0130b \u212aelvin \ud800z") == [
        "caf", "ole", "x", "9", "i", "b", "kelvin", "z"]


def reachable(roots):
    """`roots` and every object reachable from them, tracked or not."""
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_posting_containers_leave_the_garbage_collectors_tracking():
    rng = random.Random(3)
    words = [f"w{i}" for i in range(50)]
    docs = [CorpusDoc(f"d{i:03d}", rng.choice(words),
                      " ".join(rng.choice(words) for _ in range(rng.randrange(1, 20))))
            for i in range(200)]
    references = [sys.getrefcount(doc) for doc in docs]
    index = CorpusIndex(docs)
    postings = list(index._postings.values())
    # A collection untracks the tuples of ints; the next, the pairs that
    # hold them.
    gc.collect()
    assert not any(gc.is_tracked(part) for pair in postings for part in pair)
    gc.collect()
    assert not any(gc.is_tracked(pair) for pair in postings)
    # The index holds no caller's document, nor does anything else it left
    # behind, and of all it holds only its attributes themselves may stay
    # tracked, none of the 200 documents' fields, lengths or postings.
    assert [sys.getrefcount(doc) for doc in docs] == references
    attributes = list(vars(index).values())
    held = reachable(attributes)
    callers = {id(docs), *map(id, docs)}
    assert not any(id(obj) in callers for obj in held)
    assert all(any(obj is a for a in attributes) for obj in held if gc.is_tracked(obj))


def test_a_search_allocates_nothing_per_matching_document():
    rng = random.Random(11)
    words = [f"w{i}" for i in range(300)]
    docs = [CorpusDoc(f"d{i:05d}", "common " + rng.choice(words),
                      " ".join(rng.choice(words) for _ in range(rng.randrange(1, 8))))
            for i in range(6000)]
    index = CorpusIndex(docs)
    assert len(index._postings["common"][0]) >= 5000
    queries = [f"common {rng.choice(words)} {rng.choice(words)}" for _ in range(20)]
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        hits = [index.search_topk(q, 5) for q in queries]
    finally:
        gc.callbacks.remove(count)
    assert all(len(h) == 5 for h in hits)
    # One tracked object per matching document, over 5,000 a search, would
    # set off several collections per search at the default thresholds.
    assert len(collections) < len(queries)


def test_threads_sharing_one_index_get_the_serial_results():
    rng = random.Random(7)
    words = [f"w{i}" for i in range(40)]
    docs = [CorpusDoc(f"d{i:03d}", rng.choice(words),
                      " ".join(rng.choice(words) for _ in range(rng.randrange(0, 30))))
            for i in range(300)]
    queries = [" ".join(rng.choice(words) for _ in range(3)) for _ in range(40)]
    index = CorpusIndex(docs)
    serial = [index.search_topk(q, 5) for q in queries]
    barrier = threading.Barrier(8)
    results = {}

    def worker(n):
        barrier.wait(timeout=10)
        results[n] = [index.search_topk(q, 5) for q in queries]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {n: serial for n in range(8)}


def test_duplicate_doc_ids_are_rejected():
    with pytest.raises(DuplicateDocId):
        CorpusIndex([CorpusDoc("a", "x", "x"), CorpusDoc("a", "y", "y")])


def test_empty_corpus_and_bad_k():
    with pytest.raises(EmptyCorpusError):
        CorpusIndex([]).search_topk("x", k=1)
    with pytest.raises(ValueError):
        CorpusIndex(DOCS).search_topk("x", k=0)


def test_load_corpus_round_trip_and_duplicate(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"doc_id": "a", "title": "T", "body": "B"}\n'
        '{"doc_id": "b", "title": "U", "body": "C"}\n'
    )
    docs = load_corpus(path)
    assert [d.doc_id for d in docs] == ["a", "b"]
    path.write_text(
        '{"doc_id": "a", "title": "T", "body": "B"}\n'
        '{"doc_id": "a", "title": "U", "body": "C"}\n'
    )
    with pytest.raises(DuplicateDocId):
        load_corpus(path)


@pytest.mark.parametrize("row, cause", [
    ('{"doc_id": "b", "body": "C"}', "KeyError"),
    ("[1, 2]", "TypeError"),
    ('{"doc_id": "b", "title": "U", "bo', "JSONDecodeError"),
    pytest.param("[" * 100_000 + "]" * 100_000, "RecursionError", id="nested-too-deep"),
    pytest.param('{"doc_id": "b", "title": "U", "body": "C"} {"doc_id": "c", "title": "V", '
                 '"body": "D"}', "JSONDecodeError('Extra data", id="two-objects"),
    pytest.param('\ufeff{"doc_id": "b", "title": "U", "body": "C"}', "JSONDecodeError",
                 id="byte-order-mark"),
    pytest.param('"b"', "TypeError", id="bare-string"),
    pytest.param('{"doc_id": "b", "title": null, "body": ["x", {"y": 1}]}',
                 "title must be a string or a number, got NoneType", id="null-title"),
    pytest.param('{"doc_id": "b", "title": "U", "body": ["x"]}',
                 "body must be a string or a number, got list", id="array-body"),
    pytest.param('{"doc_id": "b", "title": "U", "body": {"y": 1}}',
                 "body must be a string or a number, got dict", id="object-body"),
    pytest.param('{"doc_id": true, "title": "U", "body": "C"}',
                 "doc_id must be a string or a number, got bool", id="boolean-id"),
])
def test_load_corpus_names_the_corpus_and_the_line_of_an_unreadable_row(tmp_path, row, cause):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "title": "T", "body": "B"}\n' + row + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_corpus(path)
    message = str(info.value)
    assert f"corpus {path}, line 2: " in message
    assert cause in message


def test_registry_rejects_duplicates():
    registry = ToolRegistry()
    spec, fn = make_corpus_search_tool(CorpusIndex(DOCS))
    registry.register(spec, fn)
    with pytest.raises(ValueError):
        registry.register(spec, fn)
    assert registry.names() == frozenset({"search_topk"})


# ---------------------------------------------------------------------------
# Tool-step protocol
# ---------------------------------------------------------------------------

def search_registry() -> ToolRegistry:
    registry = ToolRegistry()
    spec, fn = make_corpus_search_tool(CorpusIndex(DOCS))
    registry.register(spec, fn)
    return registry


def run_step(script, tool_names=("search_topk",)):
    registry = search_registry()
    rt = make_runtime(script, tools=registry)
    executor = tool_executor("Searcher", tuple(tool_names))
    return run_tool_step(rt, executor, tuple(tool_names), "## Envelope\nfind bucknell"), rt


def test_two_turn_search_then_answer():
    turns = {"n": 0}

    def script(request):
        turns["n"] += 1
        if turns["n"] == 1:
            return fenced({"tool": "search_topk", "arguments": {"query": "Bucknell", "k": 1}})
        assert "1846" in user_content(request)  # tool result fed back
        return "Founded in 1846."

    outcome, rt = run_step(script)
    assert outcome.output_text == "Founded in 1846."
    assert len(outcome.invocations) == 1
    assert outcome.invocations[0].tool == "search_topk"
    assert "1846" in outcome.invocations[0].result
    assert outcome.flags == ()
    assert [r.purpose for r in rt.client.ledger.rows] == ["Forward", "Forward"]


def test_immediate_final_answer_means_zero_invocations():
    outcome, _ = run_step(lambda request: "direct answer")
    assert outcome.output_text == "direct answer"
    assert outcome.invocations == ()


def test_unknown_tool_is_flagged_and_recorded():
    turns = {"n": 0}

    def script(request):
        turns["n"] += 1
        if turns["n"] == 1:
            return fenced({"tool": "nope", "arguments": {}})
        return "fallback answer"

    outcome, _ = run_step(script)
    assert "unknown_tool:nope" in outcome.flags
    assert outcome.invocations[0].tool == "nope"
    assert outcome.invocations[0].result.startswith("ERROR")
    assert outcome.output_text == "fallback answer"


def test_round_limit_returns_last_text_flagged():
    call = fenced({"tool": "search_topk", "arguments": {"query": "otters"}})
    outcome, rt = run_step(lambda request: call)
    assert "round_limit_exceeded" in outcome.flags
    assert outcome.output_text == call
    assert len(outcome.invocations) == MAX_TOOL_ROUNDS
    assert rt.client.ledger.call_count == MAX_TOOL_ROUNDS


def test_tool_crash_becomes_trace_data():
    registry = ToolRegistry()
    registry.register(ToolSpec("boom", "always fails", "{}"), lambda args: 1 / 0)
    counter = {"n": 0}

    def script(request):
        counter["n"] += 1
        return fenced({"tool": "boom", "arguments": {}}) if counter["n"] == 1 else "done"

    rt = make_runtime(script, tools=registry)
    executor = tool_executor("Crasher", ("boom",))
    outcome = run_tool_step(rt, executor, ("boom",), "env")
    assert "tool_error:boom" in outcome.flags
    assert outcome.output_text == "done"
