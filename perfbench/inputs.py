"""Seeded inputs for the benchmark workloads.

Everything the program under test receives is generated here from the
workload seed: datasets, the Zipf corpus, the scripted model (`MockModel`)
and its fault schedule, the replay store and the reference outputs that the
correctness checks compare against. Run as a script it writes one workload's
inputs into a directory, in a process of its own, so that generating them
does not count towards the peak memory of the process that runs the workload:

    python3 perfbench/inputs.py --workload tool_eval --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import logging
import math
import random
import re
import sys
import threading
from pathlib import Path

# Fixed workload shapes. The schedule is the engine's default (2 rounds of one
# structure step and five prompt steps per batch).
TRAIN_HTTP = {"steps": 4, "batch_size": 5, "batches": 2, "val": 5}
REPLAY_BUDGETED = {"steps": 8, "batch_size": 5, "batches": 8, "val": 5}
TOOL_EVAL = {"docs": 20_000, "vocab": 8_000, "body_words": 30, "questions": 12, "top_k": 5}

PRICES = {
    "executor": {"input_per_1m": "0.40", "output_per_1m": "1.60"},
    "meta": {"input_per_1m": "2.50", "output_per_1m": "10.00"},
}
# The replay run carries a client budget that it never reaches.
REPLAY_BUDGET = {"max_calls": 100_000, "max_cost_usd": 1000.0}

MALFORMED_PER_MILLE = 40  # first tries of meta replies answered with broken JSON
FAULT_503_PER_MILLE = 20  # first attempts of requests answered with HTTP 503
STUB_LATENCY_MS = 2.0  # how long the loopback stub holds each chat request

TOOL_NAME = "search_topk"
STAGE1_PROMPT = "Search stage 1: look up the first clues of the question."
STAGE2_PROMPT = "Search stage 2: look up the remaining clues and name the best document."
ANSWER_PROMPT = "Answer stage: repeat the document id you were given."

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


def vocabulary(rng: random.Random, size: int, syllables: int | None = None) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        w = _word(rng, syllables or rng.randint(2, 4))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


# Reply words do not depend on the seed; the seed picks among them.
REPLY_WORDS = vocabulary(random.Random(0), 256)


# ---------------------------------------------------------------------------
# Scripted model
# ---------------------------------------------------------------------------

def _digest(seed: int, parts) -> bytes:
    h = hashlib.sha256(str(seed).encode())
    for p in parts:
        h.update(b"\x00")
        h.update(p.encode("utf-8"))
    return h.digest()


def _words(digest: bytes, n: int, offset: int = 0) -> str:
    return " ".join(REPLY_WORDS[digest[(offset + i) % len(digest)]] for i in range(n))


def _fenced(obj) -> str:
    return "```json\n" + json.dumps(obj, indent=2) + "\n```"


def answer_for(question: str) -> str:
    """The training tasks' answer rule: every second word after the id."""
    return " ".join(question.split()[2::2])


def is_faulted(seed: int, key: str, per_mille: int) -> bool:
    return int.from_bytes(_digest(seed, ["fault", key])[:4], "big") % 1000 < per_mille


_ENVELOPE_RE = re.compile(r"^## Original Question\n(.*?)\n\n## Previous Step Output\n(.*)\Z", re.S)
_EXECUTOR_RE = re.compile(r"^  Executor: (\S+) \(", re.M)
_NAME_TAG_RE = re.compile(r"\[(E\d+n\d+)\]")
_TOP_HIT_RE = re.compile(r"^1\. \[([^\]]+)\]", re.M)


class MockModel:
    """The scripted model behind every workload, as a function of the messages.

    Purpose tags do not travel over HTTP, so replies dispatch on the system
    prompt: a meta template's system text names the template, a tool protocol
    marks a tool step, no system message marks a bootstrap call, and anything
    else is a forward step. Replies have fixed word counts, so token totals
    hardly depend on the seed. Structure edits follow a fixed cycle
    (apply, reject, keep), counted over the valid workflow decisions, so the
    call count does not depend on the seed either. A hash-chosen share of first
    tries of meta replies is malformed JSON, which the client repairs.
    """

    def __init__(self, seed: int, system_prompts: dict[str, str], steps: int = 4):
        self.seed = seed
        self.steps = steps
        self._template_of = {text: name for name, text in system_prompts.items()}
        self._decisions = 0
        self._lock = threading.Lock()

    def reply(self, model: str, messages: list[tuple[str, str]]) -> str:
        system = messages[0][1] if messages[0][0] == "system" else None
        user = messages[1][1] if system is not None else messages[0][1]
        digest = _digest(self.seed, [model] + [c for _, c in messages])
        if system is None:
            return self._answer(user, digest)
        template = self._template_of.get(system)
        if template is None:
            if "## Tool Protocol" in system:
                return self._tool_step(system, messages)
            return self._forward(system, user, digest)
        first_try = len(messages) == 2
        if first_try and is_faulted(self.seed, "json\x00" + user, MALFORMED_PER_MILLE):
            return '```json\n{"text_gradient": "unterminated\n```'
        return self._meta(template, user, digest)

    # -- forward ----------------------------------------------------------

    def _answer(self, question: str, digest: bytes) -> str:
        if digest[0] % 3 == 0:
            return answer_for(question)
        return _words(digest, len(answer_for(question).split()), 1)

    def _forward(self, system: str, user: str, digest: bytes) -> str:
        m = _ENVELOPE_RE.match(user)
        question, previous = (m.group(1), m.group(2)) if m else (user, "")
        if system == ANSWER_PROMPT:
            return previous
        return self._answer(question, digest)

    def _tool_step(self, system: str, messages: list[tuple[str, str]]) -> str:
        m = _ENVELOPE_RE.match(messages[1][1])
        question = m.group(1) if m else messages[1][1]
        qid, _, rest = question.partition(": ")
        index = int(qid[1:])
        queries = rest.split(" | ")
        results = [c for role, c in messages[2:] if c.startswith("Tool result for")]
        if system.startswith(STAGE1_PROMPT):
            planned = queries[:1 + index % 2]
        else:
            planned = queries[2:3 + (index // 2) % 2]
        if len(results) < len(planned):
            query = planned[len(results)]
            return _fenced({"tool": TOOL_NAME, "arguments": {"query": query, "k": TOOL_EVAL["top_k"]}})
        top = _TOP_HIT_RE.search(results[-1])
        top_id = top.group(1) if top else "none"
        return top_id if system.startswith(STAGE2_PROMPT) else f"first clue points to {top_id}"

    # -- meta -------------------------------------------------------------

    def _meta(self, template: str, user: str, digest: bytes) -> str:
        if template in ("grad_loss", "grad_backprop"):
            return _fenced({"text_gradient": _words(digest, 12)})
        if template == "grad_workflow":
            return _fenced({"reasoning": _words(digest, 6, 12), "text_gradient": _words(digest, 12)})
        if template == "optim_call":
            return _fenced({
                "updated_prompt": "Stage prompt: " + _words(digest, 10),
                "changes_made": [_words(digest, 4, 10)],
                "reasoning": _words(digest, 6, 14),
            })
        if template == "init_executor":
            tag = _NAME_TAG_RE.search(user)
            return _fenced({
                "name": tag.group(1) if tag else "Unnamed",
                "type": "LLMExecutor",
                "description": _words(digest, 5),
                "prompt": "Stage prompt: " + _words(digest, 12, 5),
            })
        if template == "optim_workflow":
            with self._lock:
                n = self._decisions
                self._decisions += 1
            return _fenced(self._plan(n, user, digest))
        raise ValueError(f"no scripted reply for template {template!r}")

    def _plan(self, n: int, user: str, digest: bytes) -> dict:
        reasoning = _words(digest, 6)
        if n > 0 and n % 3 == 0:
            return {"reasoning": reasoning, "should_update": False, "updated_execution_plan": []}
        current = _EXECUTOR_RE.findall(user)
        target = (n // 3) % self.steps + 1
        plan = []
        for j in range(1, self.steps + 1):
            step = {"step_id": j, "tools": [], "generation_guideline": ""}
            if n == 0 or j == target:
                name = f"E{j}n{n}"
                step.update(description=f"stage {j} [{name}] " + _words(digest, 4, j),
                            executor_type="new", executor_name=name,
                            generation_guideline=_words(digest, 8, j))
            else:
                step.update(description=f"stage {j} " + _words(digest, 4, j),
                            executor_type="reuse", executor_name=current[j - 1])
            plan.append(step)
        if n % 3 == 2:
            # Reusing an executor that does not exist makes the plan invalid.
            plan[target - 1].update(executor_type="reuse", executor_name=f"Ghost{n}",
                                    generation_guideline="")
        return {"reasoning": reasoning, "should_update": True, "updated_execution_plan": plan}


def scripted(mock: MockModel):
    """The mock as a `ScriptedMockBackend` script."""
    return lambda request: mock.reply(request.model_id,
                                      [(m.role, m.content) for m in request.messages])


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

def training_samples(rng: random.Random, count: int, prefix: str) -> list[dict]:
    rows = []
    for i in range(count):
        question = f"Q{i} {prefix}{i} " + " ".join(rng.choice(REPLY_WORDS) for _ in range(12))
        rows.append({"id": f"{prefix}{i}", "question": question, "answer": answer_for(question)})
    return rows


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Zipf corpus and the brute-force ranking reference
# ---------------------------------------------------------------------------

def zipf_corpus(rng: random.Random, docs: int, vocab_size: int, body_words: int):
    """Documents as word lists; word frequencies follow Zipf's law. Words
    have one length, so a search result's snippet has the same token count
    whatever the seed."""
    vocab = vocabulary(rng, vocab_size, syllables=3)
    cum = list(itertools.accumulate(1.0 / (r + 1) ** 1.07 for r in range(vocab_size)))
    corpus = []
    for i in range(docs):
        title = rng.choices(vocab, cum_weights=cum, k=2)
        body = rng.choices(vocab, cum_weights=cum, k=body_words)
        corpus.append((f"d{i:05d}", title, body))
    return vocab, corpus


class BruteForceRanker:
    """tf-idf with document-length normalisation, scored over every document.

    Kept apart from the engine's index on purpose: it works on the generated
    word lists and scans the whole corpus for each query. Each score uses the
    same sequence of floating-point operations as the specified ranking, so
    rankings compare exactly, ties broken by doc id.
    """

    def __init__(self, corpus):
        self.n = len(corpus)
        self.docs = []
        self.df: dict[str, int] = {}
        for doc_id, title, body in corpus:
            counts: dict[str, int] = {}
            for w in title + body:
                counts[w] = counts.get(w, 0) + 1
            self.docs.append((doc_id, counts, len(title) + len(body)))
            for w in counts:
                self.df[w] = self.df.get(w, 0) + 1

    def top_k(self, query: str, k: int) -> list[str]:
        terms = re.findall(r"[a-z0-9]+", query.lower())
        scored = []
        for doc_id, counts, length in self.docs:
            score = 0.0
            for t in terms:
                tf = counts.get(t, 0)
                if tf:
                    score += tf * math.log(1.0 + self.n / self.df[t])
            score /= max(1, length)
            if score > 0.0:
                scored.append((-score, doc_id))
        scored.sort()
        return [doc_id for _, doc_id in scored[:k]]


def tool_questions(rng: random.Random, ranker: BruteForceRanker, count: int):
    """Questions of four three-term clues: one common, one mid-frequency and
    one rare term each, so searches mix long and short postings."""
    by_df = sorted(ranker.df, key=lambda w: (-ranker.df[w], w))
    common = by_df[:30]
    mid = [w for w in by_df if 20 <= ranker.df[w] <= 200]
    rare = [w for w in by_df if ranker.df[w] <= 3]
    questions, answers = [], {}
    for i in range(count):
        clues = [f"{rng.choice(common)} {rng.choice(mid)} {rng.choice(rare)}" for _ in range(4)]
        stage2 = clues[2:3 + (i // 2) % 2]
        for q in clues[:1 + i % 2] + stage2:
            answers[q] = ranker.top_k(q, TOOL_EVAL["top_k"])
        questions.append({"id": f"t{i}", "question": f"Q{i}: " + " | ".join(clues),
                          "answer": answers[stage2[-1]][0]})
    return questions, answers


def tool_workflow() -> dict:
    """Checkpoint of the fixed three-step workflow: two search steps, one answer."""
    steps = [("Search1", "ToolExecutor", STAGE1_PROMPT, [TOOL_NAME]),
             ("Search2", "ToolExecutor", STAGE2_PROMPT, [TOOL_NAME]),
             ("Answer", "LLMExecutor", ANSWER_PROMPT, [])]
    return {
        "schema_version": 1,
        "revision": 0,
        "sketch": [{"step_id": i, "description": f"{name} step", "tools": tools,
                    "executor_type": kind, "executor_name": name, "generation_guideline": "",
                    "control": {"kind": "sequential"}}
                   for i, (name, kind, _, tools) in enumerate(steps, 1)],
        "executors": {name: {"name": name, "kind": kind, "description": f"{name} step",
                             "prompt": prompt, "tool_names": tools, "version": 0}
                      for name, kind, prompt, tools in steps},
    }


# ---------------------------------------------------------------------------
# Writing a workload's inputs
# ---------------------------------------------------------------------------

def generate(workload: str, seed: int, out: Path) -> None:
    import workloads  # imports flowtune; only the reference runs need it

    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tool_eval":
        shape = TOOL_EVAL
        _, corpus = zipf_corpus(rng, shape["docs"], shape["vocab"], shape["body_words"])
        write_jsonl(out / "corpus.jsonl", ({"doc_id": d, "title": " ".join(t), "body": " ".join(b)}
                                           for d, t, b in corpus))
        questions, answers = tool_questions(rng, BruteForceRanker(corpus), shape["questions"])
        write_jsonl(out / "questions.jsonl", questions)
        (out / "answers.json").write_text(json.dumps(answers, sort_keys=True), encoding="utf-8")
        (out / "workflow.json").write_text(json.dumps(tool_workflow(), indent=2), encoding="utf-8")
        return
    shape = TRAIN_HTTP if workload == "train_http" else REPLAY_BUDGETED
    write_jsonl(out / "train.jsonl",
                training_samples(rng, shape["batch_size"] * shape["batches"], "tr"))
    write_jsonl(out / "val.jsonl", training_samples(rng, shape["val"], "va"))
    # The reference run: the same schedule on the in-process scripted mock.
    workloads.reference_run(workload, seed, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    logging.getLogger("flowtune").addHandler(logging.NullHandler())
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
