"""Meta-prompt template loading and placeholder substitution.

Templates ship as package data and can be overridden per file by pointing a
config at a directory holding files with the same names. Substitution only
touches `{name}` tokens whose names are passed in, so the JSON skeletons
inside the templates survive rendering untouched.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple

TEMPLATE_NAMES = (
    "grad_workflow",
    "grad_loss",
    "grad_backprop",
    "optim_workflow",
    "optim_call",
    "init_executor",
    "grad_all_steps",
    "optim_all_prompts",
    "grad_combined",
    "optim_combined",
)

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


@lru_cache(maxsize=64)
def split_template(template: str) -> tuple[str, ...]:
    """The template cut at its placeholders: literal text at even indices,
    placeholder names at odd ones. Cached, so a template is cut once."""
    return tuple(_PLACEHOLDER_RE.split(template))


def render_template(template: str, values: dict[str, object]) -> str:
    """Replace `{key}` for each provided key; leave all other braces alone.
    A value is inserted as is, never scanned for placeholders itself."""
    parts = list(split_template(template))
    for i in range(1, len(parts), 2):
        key = parts[i]
        parts[i] = str(values[key]) if key in values else "{" + key + "}"
    return "".join(parts)


class PromptPair(NamedTuple):
    """A template's system and user text. A named tuple that compares equal
    to the plain (system, user) pair; a changed copy is made with `_replace`."""

    system: str
    user: str


class PromptLibrary:
    def __init__(self, pairs: dict[str, PromptPair]):
        self._pairs = pairs

    def get(self, name: str) -> PromptPair:
        return self._pairs[name]

    def render(self, name: str, values: dict[str, object]) -> PromptPair:
        pair = self.get(name)
        return PromptPair(system=pair.system, user=render_template(pair.user, values))


def _read_default(filename: str) -> str:
    return resources.files("flowtune").joinpath("templates", filename).read_text(encoding="utf-8")


def load_templates(override_dir: str | Path | None = None) -> PromptLibrary:
    """Load the default templates, then apply per-file overrides if given."""
    override = Path(override_dir) if override_dir else None
    pairs = {}
    for name in TEMPLATE_NAMES:
        parts = {}
        for role in ("system", "user"):
            filename = f"{name}.{role}.txt"
            text = None
            if override is not None:
                candidate = override / filename
                if candidate.exists():
                    text = candidate.read_text(encoding="utf-8")
            if text is None:
                text = _read_default(filename)
            parts[role] = text
        pairs[name] = PromptPair(system=parts["system"], user=parts["user"])
    return PromptLibrary(pairs)
