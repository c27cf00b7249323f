"""Callable tools and the bounded tool-use protocol.

Ships one concrete tool family: top-k lexical search over a small local
document corpus, a desk-scale stand-in for encyclopedia retrieval. Tool calls
travel as fenced JSON in the model conversation rather than provider-native
tool APIs, which keeps every backend (including replay) on the same wire
format.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, itemgetter, mul, truediv
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .backend import JsonExtractError, Message, extract_json
from .model import ExecutorSpec, TokenUsage, ToolInvocation, compact_json, json_text
from .store import read_rows

if TYPE_CHECKING:
    from .runtime import Runtime

MAX_TOOL_ROUNDS = 4

SNIPPET_CHARS = 200


class EmptyCorpusError(ValueError):
    pass


class DuplicateDocId(ValueError):
    pass


@dataclass(frozen=True)
class ToolSpec:
    name: str
    description: str
    parameter_schema: str


class CorpusDoc(NamedTuple):
    """One document. A named tuple: a corpus of them is cheap to build, and
    the index takes its fields apart by position."""

    doc_id: str
    title: str
    body: str


@dataclass(frozen=True)
class SearchHit:
    doc_id: str
    title: str
    snippet: str
    score: float


# Byte table for `bytes.translate`: a-z and 0-9 stay, every other byte
# becomes a space.
_SEPARATORS = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789" else 0x20
                    for b in range(256))


def tokenize(text: str) -> list[str]:
    """The runs of [a-z0-9] in `text.lower()`, in order. Each non-ASCII
    character encodes as `?`, a separator like any other byte outside the
    runs, so a token is exactly a maximal ASCII run."""
    return text.lower().encode("ascii", "replace").translate(_SEPARATORS).decode("ascii").split()


def _corpus_doc(row) -> CorpusDoc:
    doc_id, title, body = row["doc_id"], row["title"], row["body"]
    if type(doc_id) is not str or type(title) is not str or type(body) is not str:
        doc_id, title, body = map(json_text, (doc_id, title, body), CorpusDoc._fields)
    return CorpusDoc(doc_id, title, body)


def load_corpus(path: str | Path) -> list[CorpusDoc]:
    """The documents of a JSON-lines corpus, one object with `doc_id`, `title`
    and `body` per line, each a JSON string or number (a number is indexed
    in its `str` form). A line that is not such an object in UTF-8, such as
    one cut short or one with data after its object, is a ValueError naming
    the corpus and the line."""
    docs: list[CorpusDoc] = []
    seen: set[str] = set()
    for line_no, doc in read_rows(path, _corpus_doc, lambda line, reason: ValueError(
            f"corpus {path}, line {line}: {reason}")):
        if doc.doc_id in seen:
            raise DuplicateDocId(f"corpus {path}, line {line_no}: doc_id {doc.doc_id!r} repeated")
        seen.add(doc.doc_id)
        docs.append(doc)
    return docs


class CorpusIndex:
    """Deterministic tf-idf ranking with document-length normalization.

    A document's score for a query is the sum, over the query's terms in
    query order (repeats included), of tf * log(1 + n / df), divided by the
    document's token count (at least 1). Ties rank by doc id.

    The index is inverted: each term maps to its postings, the indices of
    the documents that contain it and the term's count in each. A query
    scores at most the union of its terms' postings, adding the terms in
    query order so that every score is the same float a scan of the whole
    corpus computes. Documents are held in doc-id order, so an index comparison is
    the doc-id tie-break, and the file order of the corpus cannot change a
    ranking. The index is read-only once built, so threads may share it.
    """

    def __init__(self, docs: list[CorpusDoc]):
        ordered = sorted(docs, key=itemgetter(0))
        # Each field in its own tuple of strings, in doc-id order. Such tuples
        # leave the garbage collector's tracking, and the index keeps no
        # `CorpusDoc`, so a full collection walks no object per document.
        self._ids, self._titles, self._bodies = zip(*ordered) if ordered else ((), (), ())
        if len(set(self._ids)) != len(self._ids):
            doc_id = next(b for a, b in zip(self._ids, self._ids[1:]) if a == b)
            raise DuplicateDocId(f"doc_id {doc_id!r} repeated")
        # term -> the index of each document, once per occurrence of the term
        # in it. Documents are added in order, so the indices ascend.
        occurrences: defaultdict[str, list[int]] = defaultdict(list)
        lengths: list[int] = []
        for i, (title, body) in enumerate(zip(self._titles, self._bodies)):
            tokens = tokenize(title + " " + body)
            lengths.append(len(tokens) or 1)
            for term in tokens:
                occurrences[term].append(i)
        # term -> (indices of the documents that contain it, ascending; the
        # term's count in each). Each list is dropped as its posting is made,
        # so the two are never both held in full. Tuples of ints leave the
        # garbage collector's tracking, so a full collection skips them.
        # The tuples made after the collector's last pass are walked in its
        # next, which falls in the first searches. So the postings are made
        # in the order the terms first appear: a term first seen late is in
        # few documents, and those last tuples are short.
        # A term is in a document more than once exactly where its posting
        # is shorter than its occurrences; only those terms' highest counts
        # are recorded, since every other term's is 1.
        postings: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        max_tf: dict[str, int] = {}
        for term in list(occurrences):
            ids = occurrences.pop(term)
            counts = Counter(ids)
            postings[term] = (tuple(counts), tuple(counts.values()))
            if len(counts) != len(ids):
                max_tf[term] = max(counts.values())
        self._postings = postings
        self._max_tf = max_tf
        self._lengths = lengths
        self._min_length = min(lengths, default=1)

    def _idf(self, term: str) -> float:
        """ln(1 + n / df) for a term of the index."""
        return math.log(1.0 + len(self._ids) / len(self._postings[term][0]))

    def search_topk(self, query: str, k: int) -> list[SearchHit]:
        """The k best documents for `query`, best first.

        The query's term with the longest posting, L, is often in thousands
        of documents that rank nowhere. So the candidates, the documents of
        the other terms' postings, are scored first, each with its count of
        L. If the k-th of them scores above any document holding L alone
        can, they are the top k. Otherwise the documents holding L alone
        join them, scored a whole posting at a time since each adds only L.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self._ids:
            raise EmptyCorpusError("corpus is empty")
        terms = [term for term in tokenize(query) if term in self._postings]
        if not terms:
            return []
        longest = max(terms, key=lambda term: len(self._postings[term][0]))
        m = terms.count(longest)
        found, partial = self._candidate_sums(terms, longest)
        top = None
        if len(partial) >= k:
            cut, top = self._top(list(partial), list(partial.values()), k)
        if top is None or not self._above_lone(cut, longest, m):
            top = self._top(*self._with_lone(longest, m, found, partial), k)[1]
        return [SearchHit(doc_id=self._ids[i], title=self._titles[i],
                          snippet=self._bodies[i][:SNIPPET_CHARS], score=-neg)
                for neg, i in top]

    def _candidate_sums(self, terms: list[str],
                        longest: str) -> tuple[dict[int, int], dict[int, float]]:
        """The candidates, the documents of the postings of the terms other
        than `longest`, as two maps: from each that holds `longest` to its
        place in that term's posting, found by binary search; and from each
        to its sum of tf * idf over `terms`. The sums are added in query
        order, so that each is the same float a scan of the whole corpus
        computes."""
        ids, tfs = self._postings[longest]
        candidates: set[int] = set()
        for term in set(terms) - {longest}:
            candidates.update(self._postings[term][0])
        found: dict[int, int] = {}
        for i in candidates:
            j = bisect_left(ids, i)
            if j < len(ids) and ids[j] == i:
                found[i] = j
        idfs = {term: self._idf(term) for term in terms}
        partial: dict[int, float] = {}
        get = partial.get
        for term in terms:
            idf = idfs[term]
            if term == longest:
                pairs = zip(found, map(tfs.__getitem__, found.values()))
            else:
                pairs = zip(*self._postings[term])
            for i, tf in pairs:
                partial[i] = get(i, 0.0) + tf * idf
        return found, partial

    def _above_lone(self, cut: float, term: str, m: int) -> bool:
        """Whether `cut` is above the score of every document that holds
        `term` alone, for m occurrences of `term` in the query.

        Such a document scores at most m adds of max_tf * idf from 0.0,
        over the shortest length. Rounding is monotone, so the floats keep
        that order and the bound is exact. It must be beaten strictly: on a
        tie, a document holding `term` alone ranks first if its index is
        lower. The term's highest count was recorded when the index was
        built, so no entry of its posting is read here.
        """
        return cut > _copies(self._max_tf.get(term, 1) * self._idf(term), m) / self._min_length

    def _with_lone(self, term: str, m: int, found: dict[int, int],
                   partial: dict[int, float]) -> tuple[list[int], list[float]]:
        """Every document of `term`'s posting and every candidate, as
        parallel lists of indices and sums. A document of the posting that
        is no candidate holds `term` alone, so its sum is m adds of tf * idf
        from 0.0, and the posting's sums are made in a few passes over it,
        not one step per document."""
        ids, tfs = self._postings[term]
        adds = list(map(mul, tfs, repeat(self._idf(term), len(tfs))))
        sums = adds  # 0.0 + x is x
        for _ in range(m - 1):
            sums = list(map(add, sums, adds))
        indices = list(ids)
        for i, s in partial.items():
            j = found.get(i)
            if j is None:
                indices.append(i)
                sums.append(s)
            else:
                sums[j] = s
        return indices, sums

    def _top(self, indices: list[int], sums: list[float],
             k: int) -> tuple[float, list[tuple[float, int]]]:
        """The k-th best score and the k best (-score, index) pairs."""
        # Every matched score is > 0 (tf >= 1, idf >= log 2). The scores are
        # one list of floats, which the garbage collector does not track; the
        # k-th best of them is the cut, and only the documents at or above it
        # become (-score, index) pairs, so ties at the cut still rank by index.
        scores = list(map(truediv, sums, map(self._lengths.__getitem__, indices)))
        cut = heapq.nlargest(k, scores)[-1]
        return cut, sorted([(-s, i) for i, s in zip(indices, scores) if s >= cut])[:k]


def _copies(x: float, m: int) -> float:
    """`x` added m times from 0.0, as a search adds a repeated term."""
    total = 0.0
    for _ in range(m):
        total += x
    return total


def render_hits(hits: list[SearchHit]) -> str:
    if not hits:
        return "(no results)"
    lines = []
    for rank, h in enumerate(hits, 1):
        lines.append(f"{rank}. [{h.doc_id}] {h.title} (score {h.score:.4f})\n   {h.snippet}")
    return "\n".join(lines)


ToolFn = Callable[[dict], str]


class ToolRegistry:
    """Name -> (spec, callable). Built once at startup, read-only afterwards."""

    def __init__(self):
        self._tools: dict[str, tuple[ToolSpec, ToolFn]] = {}

    def register(self, spec: ToolSpec, fn: ToolFn) -> None:
        if spec.name in self._tools:
            raise ValueError(f"tool {spec.name!r} already registered")
        self._tools[spec.name] = (spec, fn)

    def names(self) -> frozenset[str]:
        return frozenset(self._tools)

    def call(self, name: str, arguments: dict) -> str:
        return self._tools[name][1](arguments)

    def describe(self, names=None) -> str:
        chosen = sorted(names) if names is not None else sorted(self._tools)
        if not chosen:
            return "(none)"
        lines = []
        for n in chosen:
            spec = self._tools[n][0]
            lines.append(f"- {spec.name}: {spec.description}\n  arguments schema: {spec.parameter_schema}")
        return "\n".join(lines)


SEARCH_SCHEMA = compact_json({
    "type": "object",
    "properties": {
        "query": {"type": "string"},
        "k": {"type": "integer", "minimum": 1},
    },
    "required": ["query"],
})


def make_corpus_search_tool(index: CorpusIndex, name: str = "search_topk",
                            default_k: int = 5) -> tuple[ToolSpec, ToolFn]:
    spec = ToolSpec(
        name=name,
        description="Search the local document corpus and return the top-k passages "
                    "ranked by lexical relevance.",
        parameter_schema=SEARCH_SCHEMA,
    )

    def fn(arguments: dict) -> str:
        query = str(arguments.get("query", ""))
        k = int(arguments.get("k", default_k))
        return render_hits(index.search_topk(query, k))

    return spec, fn


# ---------------------------------------------------------------------------
# Tool-use protocol
# ---------------------------------------------------------------------------

TOOL_PROTOCOL = """\
## Available Tools
{tools_block}

## Tool Protocol
To call a tool, reply with ONLY a fenced JSON block:
```json
{{"tool": "tool_name", "arguments": {{...}}}}
```
The tool result will be added to the conversation. When you have what you
need, reply with your final answer as plain text (no JSON). You have at most
{max_rounds} replies."""


@dataclass(frozen=True)
class ToolStepOutcome:
    output_text: str
    invocations: tuple[ToolInvocation, ...]
    flags: tuple[str, ...] = ()
    token_usage: TokenUsage = field(default_factory=TokenUsage)


def _tool_system_prompt(executor: ExecutorSpec, registry: ToolRegistry,
                        tool_names: tuple[str, ...]) -> str:
    protocol = TOOL_PROTOCOL.format(
        tools_block=registry.describe(tool_names),
        max_rounds=MAX_TOOL_ROUNDS,
    )
    return executor.prompt + "\n\n" + protocol


def run_tool_step(rt: Runtime, executor: ExecutorSpec, tool_names: tuple[str, ...],
                  input_envelope: str) -> ToolStepOutcome:
    """Bounded converse-and-call loop for one tool step, at the runtime's
    executor settings and with its tools.

    The model gets up to MAX_TOOL_ROUNDS replies; each reply is either a
    fenced JSON tool call or the final answer. Unknown tools and tool crashes
    are surfaced back into the conversation and flagged, never raised, so a
    misbehaving step still yields a usable trace.
    """
    registry = rt.tools
    allowed = tuple(tool_names)
    system = _tool_system_prompt(executor, registry, allowed)
    results: tuple[Message, ...] = ()
    invocations: list[ToolInvocation] = []
    flags: list[str] = []
    usage = TokenUsage()
    last_text = ""
    for _ in range(MAX_TOOL_ROUNDS):
        response = rt.client.complete(
            rt.executor_request(system, input_envelope, extra_messages=results))
        usage = usage + TokenUsage(response.input_tokens, response.output_tokens)
        last_text = response.content
        call = _parse_tool_call(response.content)
        if call is None:
            return ToolStepOutcome(output_text=response.content,
                                   invocations=tuple(invocations),
                                   flags=tuple(flags), token_usage=usage)
        tool_name, arguments = call
        query = compact_json(arguments)
        if tool_name not in allowed or tool_name not in registry.names():
            result = f"ERROR: unknown tool {tool_name!r}. Available tools: {', '.join(allowed)}"
            flags.append(f"unknown_tool:{tool_name}")
        else:
            try:
                result = registry.call(tool_name, arguments)
            except Exception as e:  # noqa: BLE001 - tool crashes become trace data
                result = f"ERROR: tool {tool_name!r} failed: {e}"
                flags.append(f"tool_error:{tool_name}")
        invocations.append(ToolInvocation(tool=tool_name, query=query, result=result))
        # Requests carry only system/user roles, so the call context is folded
        # into the result message instead of an assistant turn.
        results += (Message("user", f"Tool result for {tool_name}({query}):\n{result}"),)
    flags.append("round_limit_exceeded")
    return ToolStepOutcome(output_text=last_text, invocations=tuple(invocations),
                           flags=tuple(flags), token_usage=usage)


def _parse_tool_call(content: str) -> tuple[str, dict] | None:
    try:
        obj = extract_json(content)
    except JsonExtractError:
        return None
    if isinstance(obj, dict) and "tool" in obj:
        arguments = obj.get("arguments", {})
        if not isinstance(arguments, dict):
            arguments = {"value": arguments}
        return str(obj["tool"]), arguments
    return None
