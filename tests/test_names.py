"""src/gricsim defines only what the program uses.

An AST scan lists each module-level function, class and assigned name,
and each class's non-dunder method, that no code in src/gricsim
references: no loaded Name and no Attribute carries its name. The few
names kept for callers outside the package are listed here; any other
name the scan finds is dead code, or a caller that left.
"""

import ast
from collections import Counter
from pathlib import Path

import gricsim

SRC = Path(gricsim.__file__).parent

# Names src/gricsim defines for callers outside it: the package version,
# the one-config sweep that perfbench and the README call, and the worldv1
# reader the tests use.
KEPT = {"__init__.__version__", "harness.run_sweep", "worldgen.parse_world_text"}


def unreferenced(src):
    defs, refs = [], Counter()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.stem, node.name))
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    defs.append((path.stem, target.id))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{path.stem}.{node.name}", m.name)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                ]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                refs[n.id] += 1
            elif isinstance(n, ast.Attribute):
                refs[n.attr] += 1
    return {f"{module}.{name}" for module, name in defs if not refs[name]}


def test_every_name_is_used_or_kept():
    assert unreferenced(SRC) == KEPT


def test_the_scan_finds_an_unused_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n\n"
        "def used():\n    return LIMIT\n\n"
        "def unused():\n    return used()\n\n"
        "class Box:\n    def __init__(self):\n        self.n = 0\n\n"
        "    def size(self):\n        return self.n\n"
    )
    assert unreferenced(tmp_path) == {"a.unused", "a.Box", "a.Box.size"}
