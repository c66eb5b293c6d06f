"""Every computation in the package is exact: no source file of it
writes a float literal, names `float` or takes a floating square root."""

import ast
from pathlib import Path

import pytest

import virasoro

SOURCES = sorted(Path(virasoro.__file__).parent.glob("*.py"))


def _float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "sqrt"
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            yield node.lineno, "math.sqrt"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(alias.name == "sqrt" for alias in node.names):
                yield node.lineno, "math.sqrt"


def test_the_guard_sees_each_use():
    src = "import math\nfrom math import sqrt\nx = 0.5\ny = float(1)\nz = math.sqrt(2)\n"
    assert sorted(line for line, _ in _float_uses(ast.parse(src))) == [2, 3, 4, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_in_source(path):
    uses = sorted(_float_uses(ast.parse(path.read_text(), filename=str(path))))
    assert not uses, f"{path.name}: {uses}"
