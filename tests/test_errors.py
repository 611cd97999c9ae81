"""One error taxonomy: an error's class decides the CLI's exit code."""

import ast
import importlib
from pathlib import Path

import pytest

from algebroid.errors import CheckFailure, InputError

SRC = Path(__file__).resolve().parents[1] / "src" / "algebroid"
MODULES = sorted(SRC.glob("*.py"))
BARE = {"ValueError", "RuntimeError", "Exception"}


def bare_raises(source):
    """Line numbers of the raises of a bare ValueError, RuntimeError or
    Exception, called or not."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BARE:
                lines.append(node.lineno)
    return lines


def test_the_check_sees_a_bare_raise():
    source = "raise ValueError('a')\nraise RuntimeError\nraise KeyError('b')\nraise\nraise Exception()\n"
    assert bare_raises(source) == [1, 2, 5]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_bare_raise(module):
    assert bare_raises(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_error_class_has_one_base(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    names = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             and node.name.endswith(("Error", "Failure")) and not node.name.startswith("_")]
    loaded = importlib.import_module(f"algebroid.{module.stem}")
    for name in names:
        cls = getattr(loaded, name)
        if cls in (InputError, CheckFailure):
            continue
        assert issubclass(cls, InputError) != issubclass(cls, CheckFailure), name


def test_main_catches_only_the_two_bases():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    [main] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"]
    handlers = [ast.unparse(node.type) if node.type else "bare except"
                for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert sorted(handlers) == ["CheckFailure", "InputError"]
