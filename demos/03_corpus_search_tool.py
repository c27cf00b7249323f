"""The lexical retrieval tool and the bounded tool-call protocol.

First plain top-k search over a toy corpus, then a full tool-executor step:
the (scripted) model emits a fenced JSON tool call, receives the search
results, and produces its final answer within the round budget.

Run with:  python3 demos/03_corpus_search_tool.py
"""

import json

from flowtune import ChatClient, CorpusIndex, LogicalClock, ModelSettings, RunLedger, Runtime
from flowtune import ScriptedMockBackend, ToolRegistry, make_corpus_search_tool
from flowtune.model import TOOL_EXECUTOR, ExecutorSpec
from flowtune.tools import CorpusDoc, run_tool_step

corpus = [
    CorpusDoc("otters", "River otters", "Otters live along rivers and eat fish daily."),
    CorpusDoc("bucknell", "Bucknell University",
              "Bucknell University was founded in 1846 in Lewisburg, Pennsylvania."),
    CorpusDoc("hoops", "Early basketball",
              "Early college basketball teams played short seasons against local clubs."),
]
index = CorpusIndex(corpus)

# --- direct search ----------------------------------------------------------
print("top-2 for 'when was Bucknell founded':")
for hit in index.search_topk("when was Bucknell founded", k=2):
    print(f"  {hit.doc_id:10s} score={hit.score:.4f}  {hit.title}")

print("\na query with no shared tokens returns nothing:",
      index.search_topk("zebra quantum", k=5))

# --- the tool-call protocol --------------------------------------------------
registry = ToolRegistry()
spec, fn = make_corpus_search_tool(index, name="search_topk")
registry.register(spec, fn)


def scripted_model(request):
    """Round 1: call the tool. Round 2: read the result and answer."""
    latest = request.messages[-1].content
    if "Tool result" not in latest:
        return "```json\n" + json.dumps(
            {"tool": "search_topk", "arguments": {"query": "Bucknell founded", "k": 1}}
        ) + "\n```"
    return "Bucknell University was founded in 1846."


executor = ExecutorSpec(
    name="Researcher", kind=TOOL_EXECUTOR,
    description="Answers questions using corpus search",
    prompt="Answer the question using the search tool, then state the answer plainly.",
    tool_names=("search_topk",),
)
client = ChatClient(ScriptedMockBackend(scripted_model), RunLedger(clock=LogicalClock()))
rt = Runtime(client, ModelSettings(executor_model="demo", max_output_tokens=256), tools=registry)
outcome = run_tool_step(rt, executor, ("search_topk",),
                        "## Original Question\nWhen was Bucknell University founded?"
                        "\n\n## Previous Step Output\n")

print("\ntool-step outcome:")
print(f"  final answer : {outcome.output_text}")
for call in outcome.invocations:
    print(f"  tool call    : {call.tool}({call.query})")
    print(f"  tool result  : {call.result.splitlines()[0]}")
print(f"  model rounds : {client.ledger.call_count} (hard cap is 4)")
