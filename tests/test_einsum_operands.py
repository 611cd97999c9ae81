"""The batched modules contract by matmul: `paths`, `variations` and
`splitting` hold no einsum call with three or more operands, except inside
the independent oracle functions of `splitting`, which keep their own
contractions."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "algebroid"
# module -> the functions whose einsums are exempt
BATCHED = {
    "paths.py": (),
    "variations.py": (),
    "splitting.py": ("_vertical_algebra_curvature", "_classical_leaf_curvature"),
}


def wide_einsums(source, limit=3, exempt=()):
    """Line numbers of the einsum calls (`np.einsum`, `numpy.einsum` or a
    bare `einsum`) with at least `limit` operands after the subscripts,
    outside the functions named in `exempt` (nested functions included); a
    starred argument counts as wide, as its length is not known."""
    tree = ast.parse(source)
    skip = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in exempt
        for inner in ast.walk(node)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "einsum":
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        if starred or len(node.args) - 1 >= limit:
            lines.append(node.lineno)
    return sorted(lines)


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
    oracle = (
        "def oracle(a, b, c):\n"
        "    def inner():\n"
        "        return np.einsum('i,j,ij', a, b, c)\n"
        "    return np.einsum('i,j,ij', a, b, c)\n"
        "np.einsum('i,j,ij', a, b, c)\n"
    )
    assert wide_einsums(oracle) == [3, 4, 5]
    assert wide_einsums(oracle, exempt=("oracle",)) == [5]


@pytest.mark.parametrize("module", BATCHED)
def test_no_einsum_with_three_operands(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert wide_einsums(source, exempt=BATCHED[module]) == []
