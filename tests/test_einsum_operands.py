"""The batched modules contract by matmul: `paths` and `variations` hold no
einsum call with three or more operands."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "algebroid"
BATCHED = [SRC / "paths.py", SRC / "variations.py"]


def wide_einsums(source, limit=3):
    """Line numbers of the einsum calls (`np.einsum`, `numpy.einsum` or a
    bare `einsum`) with at least `limit` operands after the subscripts; a
    starred argument counts as wide, as its length is not known."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "einsum":
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        if starred or len(node.args) - 1 >= limit:
            lines.append(node.lineno)
    return lines


def test_the_check_sees_a_wide_einsum():
    source = (
        "import numpy as np\n"
        "np.einsum('i,i', a, b)\n"
        "np.einsum('i,j,ij', a, b, c, optimize=True)\n"
        "from numpy import einsum\n"
        "einsum('...', *ops)\n"
        "np.einsum('ij->ji', a)\n"
        "numpy.einsum('i,j,k,ijk', a, b, c, T)\n"
    )
    assert wide_einsums(source) == [3, 5, 7]


@pytest.mark.parametrize("module", BATCHED, ids=lambda p: p.name)
def test_no_einsum_with_three_operands(module):
    assert wide_einsums(module.read_text(encoding="utf-8")) == []
