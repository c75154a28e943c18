"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hexstar"


def _module_level_private_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


def _references(tree):
    """Every name the module reads, looks up as an attribute, or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_module_name_is_used():
    # code that nothing needs gets deleted
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    dead = [f"{module}: {name}" for module, tree in trees.items()
            for name in _module_level_private_names(tree) if name not in used]
    assert dead == []
