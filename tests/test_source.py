"""Checks on the package source itself."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hexstar"


def _module_level_names(tree):
    """(name, defining statement) for each module-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((n.id, node) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def _module_level_private_names(tree):
    return (n for n, _ in _module_level_names(tree) if n.startswith("_") and not n.endswith("__"))


def _reads(node):
    """How often each name is read, or looked up as an attribute, under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   or isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store))


def _references(tree):
    """Every name the module reads, looks up as an attribute, or imports."""
    imported = (alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names)
    return set(_reads(tree)).union(imported)


def test_every_private_module_name_is_used():
    # code that nothing needs gets deleted
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    dead = [f"{module}: {name}" for module, tree in trees.items()
            for name in _module_level_private_names(tree) if name not in used]
    assert dead == []


def _empty_container(node):
    """True for {}, [], dict(), list() and set(): what a hand-made cache starts as."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set") and not node.args and not node.keywords)


def test_no_module_binds_an_empty_container():
    # an empty dict, list or set bound at module level is a hand-made cache;
    # every cache is an lru_cache, which the cache tools read and clear
    found = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             for name, node in _module_level_names(ast.parse(path.read_text()))
             if isinstance(node, (ast.Assign, ast.AnnAssign)) and _empty_container(node.value)]
    assert found == []


def _readme_section(title):
    text = (ROOT / "README.md").read_text()
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    return match.group(1) if match else ""


def test_every_public_name_has_a_caller():
    # a public name serves the pipeline, the benchmark or the documented
    # library; a reference that only tests call lives in tests/
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    bench = sum((_reads(ast.parse(path.read_text()))
                 for path in sorted((ROOT / "perfbench").glob("*.py"))), Counter())
    library = set(re.findall(r"\w+", _readme_section("Library")))
    unused = []
    for module, tree in trees.items():
        for name, node in _module_level_names(tree):
            if name.startswith("_"):
                continue
            in_src = (reads[module] - _reads(node))[name] or any(
                counts[name] for other, counts in reads.items() if other != module)
            if not (in_src or bench[name] or name in library):
                unused.append(f"{module}: {name}")
    assert unused == []


def test_only_the_geometry_and_the_coupling_classes_read_pair_distances():
    # the class table is the one reader of the pair structure; the CLI lists the geometry
    readers = {path.name for path in sorted(SRC.glob("*.py"))
               if _reads(ast.parse(path.read_text()))["distance_sq"]}
    assert readers <= {"lattice.py", "hamiltonian.py", "cli.py"}
