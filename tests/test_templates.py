"""The shipped template files are goldens: every meta prompt must keep its
section headers, and rendering must never disturb the JSON skeletons."""

import re

import pytest

from flowtune import templates
from flowtune.templates import TEMPLATE_NAMES, load_templates, render_template

REQUIRED_USER_SECTIONS = {
    "grad_workflow": ["## Evaluation Result", "## Current Workflow Structure",
                      "## Execution Trace", "## Available Tools"],
    "grad_loss": ["## Evaluation Result", "## Final Step Execution",
                  "## Evaluation Metrics", "**Input received**:"],
    "grad_backprop": ["## Gradient from Next Step", "## This Step (Step {step_id})",
                      "## Your Task (Chain Rule)"],
    "optim_workflow": ["## Current Workflow Structure (W)", "## Current Agents",
                       "## Aggregated Workflow Gradients from {num_samples} samples",
                       "**executor_type rules:**"],
    "optim_call": ["## Current Agent", "## Aggregated Gradients",
                   "## Your Task: Apply TGD"],
    "init_executor": ["## Step Information", "## Generation Guideline",
                      "## Sample Questions This Executor Should Handle"],
}

REQUIRED_SYSTEM_PHRASES = {
    "grad_workflow": "WORKFLOW STRUCTURE",
    "grad_loss": "FINAL step",
    "grad_backprop": "CHAIN RULE",
    "optim_workflow": "designing an optimal workflow structure",
    "optim_call": "Textual Gradient Descent (TGD)",
    "init_executor": "initializing new agents in LLM workflows",
}


def test_all_templates_load_nonempty():
    lib = load_templates()
    for name in TEMPLATE_NAMES:
        pair = lib.get(name)
        assert pair.system.strip(), name
        assert pair.user.strip(), name
        assert pair.system.strip().endswith("Output valid JSON only."), name


@pytest.mark.parametrize("name", sorted(REQUIRED_USER_SECTIONS))
def test_user_templates_keep_their_sections(name):
    pair = load_templates().get(name)
    for section in REQUIRED_USER_SECTIONS[name]:
        assert section in pair.user, f"{name} lost {section!r}"


@pytest.mark.parametrize("name", sorted(REQUIRED_SYSTEM_PHRASES))
def test_system_templates_keep_their_role_statement(name):
    pair = load_templates().get(name)
    assert REQUIRED_SYSTEM_PHRASES[name] in pair.system


def test_render_replaces_only_known_placeholders():
    text = 'Ask: {question}\n```json\n{\n  "key": "value", "other": {nested}\n}\n```'
    rendered = render_template(text, {"question": "why?"})
    assert "why?" in rendered
    assert '"key": "value"' in rendered
    assert "{nested}" in rendered  # unknown placeholders survive untouched


def test_render_stringifies_values():
    assert render_template("Step {step_id}", {"step_id": 4}) == "Step 4"


def test_sections_survive_rendering_end_to_end():
    lib = load_templates()
    rendered = lib.render("grad_loss", {
        "workflow_sketch": "Step 1: answer",
        "question": "q", "ground_truth": "y", "metrics_info": "em",
        "step_id": 1, "step_description": "answer", "executor_name": "A",
        "executor_tools": "none", "step_input": "in", "step_output": "out",
        "evaluation_result": "wrong",
    })
    assert "## Evaluation Result" in rendered.user
    assert "{question}" not in rendered.user
    assert '"text_gradient"' in rendered.user  # the reply schema stays put


def test_override_directory_wins_per_file(tmp_path):
    (tmp_path / "grad_loss.system.txt").write_text("custom system\n")
    lib = load_templates(tmp_path)
    assert lib.get("grad_loss").system == "custom system\n"
    # untouched files still come from the package data
    assert "## Evaluation Result" in lib.get("grad_loss").user
    assert "CHAIN RULE" in lib.get("grad_backprop").system


# ---------------------------------------------------------------------------
# Rendering from split parts is byte-equal to one regex pass
# ---------------------------------------------------------------------------

def regex_render(template: str, values: dict[str, object]) -> str:
    """The oracle: one regex substitution pass over the template."""

    def sub(match: re.Match) -> str:
        key = match.group(1)
        return str(values[key]) if key in values else match.group(0)

    return re.sub(r"\{([A-Za-z_][A-Za-z0-9_]*)\}", sub, template)


def placeholder_values(template: str) -> dict[str, object]:
    """A value for every placeholder, some of which look like placeholders."""
    names = sorted(set(re.findall(r"\{([A-Za-z_][A-Za-z0-9_]*)\}", template)))
    return {name: (f"<{name}: {{question}} {{{name}}}>" if i % 2 else i)
            for i, name in enumerate(names)}


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_every_shipped_template_renders_as_the_regex_pass(name):
    pair = load_templates().get(name)
    for values in (placeholder_values(pair.user), {}, {"question": "q"}):
        assert render_template(pair.user, values) == regex_render(pair.user, values)
        assert load_templates().render(name, values).user == regex_render(pair.user, values)


@pytest.mark.parametrize("template", [
    "no placeholders at all",
    "",
    "{question}",
    "{question} starts",
    "ends with {question}",
    "{question}{question}{step_id}",
    'json {"a": {"b": 1}} and {0} and { question } and {question',
    "unknown {missing} next to {question} and {_private} and {x1}",
    "{{question}} doubled braces",
])
def test_edge_templates_render_as_the_regex_pass(template):
    values = {"question": "{step_id} {question}", "step_id": 7, "x1": ""}
    assert render_template(template, values) == regex_render(template, values)


def test_values_are_never_rescanned():
    assert render_template("{a}-{b}", {"a": "{b}", "b": "{a}"}) == "{b}-{a}"


def test_a_library_splits_each_template_once(monkeypatch):
    splits = []
    real = templates._PLACEHOLDER_RE

    class Counting:
        def split(self, text):
            splits.append(text)
            return real.split(text)

    monkeypatch.setattr(templates, "_PLACEHOLDER_RE", Counting())
    templates.split_template.cache_clear()
    lib = load_templates()
    for _ in range(20):
        for name in TEMPLATE_NAMES:
            lib.render(name, {"question": "q"})
    assert sorted(splits) == sorted(lib.get(name).user for name in TEMPLATE_NAMES)
