"""CI's -k steps still select what they name.

Each `-k "A or B or ..."` step of the Tier-1 workflow runs only its own
test files. A term that matches no test class or function there selects
nothing, and the step still passes on its other terms; so every term
must match a class or function defined in that step's files, the way -k
matches: as a substring of its name, ignoring case.
"""

import ast
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def k_steps(text):
    """Each pytest run line with -k, as (its test files, its or terms)."""
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("run:") and " -k " in line:
            argv = shlex.split(line.removeprefix("run:"))
            files = [arg for arg in argv if arg.endswith(".py")]
            yield files, argv[argv.index("-k") + 1].split(" or ")


def defined_names(path):
    """The classes and functions a test file defines, at any depth."""
    tree = ast.parse((ROOT / path).read_text())
    return {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }


def unmatched(text):
    """The terms of each -k step that match nothing in its own files."""
    missing = []
    for files, terms in k_steps(text):
        names = [name.lower() for path in files for name in defined_names(path)]
        missing += [
            (files, term) for term in terms if not any(term.lower() in name for name in names)
        ]
    return missing


def test_every_k_term_names_a_test_in_its_step():
    text = WORKFLOW.read_text()
    assert list(k_steps(text)), "no -k step found"
    assert unmatched(text) == []


def test_a_term_from_another_step_is_caught():
    step = (
        "run: python -m pytest -q tests/test_names.py"
        ' -k "test_the_scan_finds_an_unused_name or TestPinnedWorlds"'
    )
    assert unmatched(step) == [(["tests/test_names.py"], "TestPinnedWorlds")]
