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
from operator import attrgetter, truediv
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
    """The documents of a JSON-lines corpus, one object with `doc_id`, `title`
    and `body` per line. A line that is not such an object in UTF-8, such as
    one cut short, is a ValueError naming the corpus and the line."""
    docs: list[CorpusDoc] = []
    seen: set[str] = set()
    # Bytes, decoded row by row, in blocks of 64 KiB: as fast as text mode.
    with open(path, "rb", buffering=1 << 16) as f:
        for line_no, line in enumerate(f, 1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                row = json.loads(line)
                doc = CorpusDoc(doc_id=str(row["doc_id"]), title=str(row["title"]),
                                body=str(row["body"]))
            except (ValueError, LookupError, TypeError) as e:
                raise ValueError(f"corpus {path}, line {line_no}: unreadable row: {e!r}") from e
            if doc.doc_id in seen:
                raise DuplicateDocId(f"corpus {path}, line {line_no}: "
                                     f"doc_id {doc.doc_id!r} repeated")
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
    scores only the union of its terms' postings, adding the terms in query
    order so that every score is the same float a scan of the whole corpus
    computes. Documents are held in doc-id order, so an index comparison is
    the doc-id tie-break, and the file order of the corpus cannot change a
    ranking. The index is read-only once built, so threads may share it.
    """

    def __init__(self, docs: list[CorpusDoc]):
        ordered = sorted(docs, key=attrgetter("doc_id"))
        # Each field in its own tuple of strings, in doc-id order. Such tuples
        # leave the garbage collector's tracking, and the index keeps no
        # `CorpusDoc`, so a full collection walks no object per document.
        self._ids = tuple(map(attrgetter("doc_id"), ordered))
        self._titles = tuple(map(attrgetter("title"), ordered))
        self._bodies = tuple(map(attrgetter("body"), ordered))
        for prev, doc_id in zip(self._ids, self._ids[1:]):
            if prev == doc_id:
                raise DuplicateDocId(f"doc_id {doc_id!r} repeated")
        # term -> the index of each document, once per occurrence of the term
        # in it. Documents are added in order, so the indices ascend.
        occurrences: defaultdict[str, list[int]] = defaultdict(list)
        lengths: list[int] = []
        for i, doc in enumerate(ordered):
            tokens = tokenize(doc.title + " " + doc.body)
            lengths.append(max(1, len(tokens)))
            for term in tokens:
                occurrences[term].append(i)
        # term -> (indices of the documents that contain it, ascending; the
        # term's count in each). Each list is dropped as its posting is made,
        # so the two are never both held in full. Tuples of ints leave the
        # garbage collector's tracking, so a full collection skips them.
        n = len(self._ids)
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
        if not self._ids:
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
        if not partial:
            return []
        # Every matched score is > 0 (tf >= 1, idf >= log 2). The scores are
        # one list of floats, which the garbage collector does not track; the
        # k-th best of them is the cut, and only the documents at or above it
        # become (-score, index) pairs, so ties at the cut still rank by index.
        scores = list(map(truediv, partial.values(), map(self._lengths.__getitem__, partial)))
        cut = heapq.nlargest(k, scores)[-1]
        top = sorted([(-s, i) for i, s in zip(partial, scores) if s >= cut])[:k]
        return [SearchHit(doc_id=self._ids[i], title=self._titles[i],
                          snippet=self._bodies[i][:SNIPPET_CHARS], score=-neg)
                for neg, i in top]


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
