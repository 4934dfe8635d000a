"""Every public top-level name in src/ has a user: a command's code or the acceptance tests."""

import ast
from pathlib import Path

import fusecast

SRC = Path(fusecast.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def test_each_public_name_is_used():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    for node in ast.walk(ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert unused == [], "wire these into a command or delete them"
