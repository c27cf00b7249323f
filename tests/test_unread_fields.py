"""Every field the engine defines is read somewhere.

A field is a dataclass or `NamedTuple` field, or a public `self.<name>` an
`__init__` sets, in `src/flowtune`. It is read if `src/flowtune`,
`perfbench` or `demos` loads an attribute of that name, or names it in
`getattr(x, "<name>")`. The match is by name, so a field whose name some
other object's attribute shares counts as read; the scan finds fields that
nothing could read, not every one that nothing does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = ROOT / "src" / "flowtune"
READERS = (ENGINE, ROOT / "perfbench", ROOT / "demos")

# Fields nothing in the engine reads that stay, each with its reason.
ALLOWED = {
    "TrainResult.best_state": "the result of train, for a caller of the library",
    "TrainResult.final_state": "the result of train, for a caller of the library",
    "EvalSummary.per_sample": "the result of evaluate, for a caller of the library",
    "PerSampleEval.prediction": "the result of evaluate, for a caller of the library",
    "LedgerRow.idx": "unpacked by position into _ledger_line",
    "LedgerRow.in_tok": "unpacked by position into _ledger_line",
    "LedgerRow.out_tok": "unpacked by position into _ledger_line",
    "LedgerRow.warn": "unpacked by position into _ledger_line",
    "CorpusDoc.body": "taken apart by position in CorpusIndex.__init__",
    "DatasetParseError.line_no": "exception context: the line a caller can point at",
    "InvalidStateError.violations": "exception context: the violations a caller can list",
}


def _is_record(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases)


def fields(tree: ast.AST) -> set[str]:
    """`Class.name` of each public field defined in tree."""
    found = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_record(cls):
            found |= {f"{cls.name}.{node.target.id}" for node in cls.body
                      if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
        for init in cls.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                found |= {f"{cls.name}.{node.attr}" for node in ast.walk(init)
                          if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                          and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return {name for name in found if not name.split(".")[1].startswith("_")}


def reads(tree: ast.AST) -> set[str]:
    """The attribute names tree loads, directly or by `getattr`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            found.add(node.args[1].value)
    return found


def unread(defined: set[str], read: set[str]) -> list[str]:
    return sorted(name for name in defined if name.split(".")[1] not in read)


def _trees(*dirs: Path):
    for directory in dirs:
        for path in sorted(directory.rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_engine_field_is_read_or_allowed():
    defined = set().union(*map(fields, _trees(ENGINE)))
    read = set().union(*map(reads, _trees(*READERS)))
    assert "UpdateOutcome.applied" in defined and "ExecutorSpec.prompt" in defined
    assert sorted(set(ALLOWED) - defined) == [], "allowed names that are no field"
    assert [name for name in unread(defined, read) if name not in ALLOWED] == []


def test_the_scan_names_each_kind_of_field_nothing_reads():
    tree = ast.parse('''
@dataclass(frozen=True)
class Result:
    used: int
    spare: str = ""
    _private: int = 0

class Pair(NamedTuple):
    left: int
    right: int

class Failed(RuntimeError):
    def __init__(self, key, hint):
        self.key = key
        self.hint, self._cache = hint, None

def use(result, pair, error):
    return result.used, pair.left, getattr(error, "hint")
''')
    assert unread(fields(tree), reads(tree)) == ["Failed.key", "Pair.right", "Result.spare"]
