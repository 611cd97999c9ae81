"""Every name a module of the package imports is used in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "algebroid"
# the package's __init__ imports to make its namespace: it uses none of them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import (from __future__ aside) that the module
    neither reads nor lists in __all__."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(name for name in bound if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom .a import b, c\n__all__ = ['c']\nos.sep\n"
    assert unused_imports(source) == ["b", "system"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
