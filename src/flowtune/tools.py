"""Callable tools and the bounded tool-use protocol.

Ships one concrete tool family: top-k lexical search over a small local
document corpus, a desk-scale stand-in for encyclopedia retrieval. Tool calls
travel as fenced JSON in the model conversation rather than provider-native
tool APIs, which keeps every backend (including replay) on the same wire
format.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .backend import JsonExtractError, Message, extract_json
from .model import ExecutorSpec, TokenUsage, ToolInvocation, compact_json

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


@dataclass(frozen=True)
class CorpusDoc:
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


def load_corpus(path: str | Path) -> list[CorpusDoc]:
    docs: list[CorpusDoc] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            doc_id = str(row["doc_id"])
            if doc_id in seen:
                raise DuplicateDocId(f"doc_id {doc_id!r} repeated at line {line_no}")
            seen.add(doc_id)
            docs.append(CorpusDoc(doc_id=doc_id, title=str(row["title"]), body=str(row["body"])))
    return docs


class CorpusIndex:
    """Deterministic tf-idf ranking with document-length normalization.

    A document's score for a query is the sum, over the query's terms in
    query order (repeats included), of tf * log(1 + n / df), divided by the
    document's token count (at least 1). Ties rank by doc id.

    The index is inverted: each term maps to its postings, the indices of
    the documents that contain it and the term's count in each. A query
    scores only the union of its terms' postings, adding the terms in query
    order so that every score is the same float a scan of the whole corpus
    computes. Documents are held in doc-id order, so an index comparison is
    the doc-id tie-break, and the file order of the corpus cannot change a
    ranking. The index is read-only once built, so threads may share it.
    """

    def __init__(self, docs: list[CorpusDoc]):
        self.docs = sorted(docs, key=attrgetter("doc_id"))
        for prev, doc in zip(self.docs, self.docs[1:]):
            if prev.doc_id == doc.doc_id:
                raise DuplicateDocId(f"doc_id {doc.doc_id!r} repeated")
        # term -> the index of each document, once per occurrence of the term
        # in it. Documents are added in order, so the indices ascend.
        occurrences: defaultdict[str, list[int]] = defaultdict(list)
        lengths: list[int] = []
        for i, doc in enumerate(self.docs):
            tokens = tokenize(doc.title + " " + doc.body)
            lengths.append(max(1, len(tokens)))
            for term in tokens:
                occurrences[term].append(i)
        # term -> (indices of the documents that contain it, ascending; the
        # term's count in each). Each list is dropped as its posting is made,
        # so the two are never both held in full. Tuples of ints leave the
        # garbage collector's tracking, so a full collection skips them.
        n = len(self.docs)
        postings: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        idf: dict[str, float] = {}
        while occurrences:
            term, ids = occurrences.popitem()
            counts = Counter(ids)
            postings[term] = (tuple(counts), tuple(counts.values()))
            idf[term] = math.log(1.0 + n / len(counts))
        self._postings = postings
        self._lengths = lengths
        self._idf = idf

    def search_topk(self, query: str, k: int) -> list[SearchHit]:
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.docs:
            raise EmptyCorpusError("corpus is empty")
        partial: dict[int, float] = {}
        get = partial.get
        for term in tokenize(query):
            posting = self._postings.get(term)
            if posting is None:
                continue
            idf = self._idf[term]
            for i, tf in zip(*posting):
                partial[i] = get(i, 0.0) + tf * idf
        lengths = self._lengths
        # Every matched score is > 0 (tf >= 1, idf >= log 2). A k-sized heap
        # on (-score, index) instead of sorting every matching document.
        top = heapq.nsmallest(k, [(-(s / lengths[i]), i) for i, s in partial.items()])
        hits = []
        for neg, i in top:
            d = self.docs[i]
            hits.append(SearchHit(doc_id=d.doc_id, title=d.title,
                                  snippet=d.body[:SNIPPET_CHARS], score=-neg))
        return hits


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

    def spec(self, name: str) -> ToolSpec:
        return self._tools[name][0]

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

    @property
    def round_limit_exceeded(self) -> bool:
        return "round_limit_exceeded" in self.flags


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
