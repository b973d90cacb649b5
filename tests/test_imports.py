"""Every name a slnkit module imports at top level is used in it, and every
private name it defines at top level is used in it too."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "slnkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } - {"annotations"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _top_level_definitions(tree):
    """(name, defining statement) for each name a module binds at top level
    by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_private_names(path):
    """A private top-level name (_x, not a dunder) is loaded somewhere in its
    module outside its own definition, so no leftover helper or table stays
    behind once its last caller is gone."""
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = []
    for name, definition in _top_level_definitions(tree):
        if not name.startswith("_") or name.startswith("__"):
            continue
        inside = {id(sub) for sub in ast.walk(definition)}
        if not any(isinstance(sub, ast.Name) and sub.id == name
                   and isinstance(sub.ctx, ast.Load) and id(sub) not in inside
                   for sub in ast.walk(tree)):
            unused.append(name)
    assert unused == []
