"""Count policy of the library: a count taken from a caller (a satellite
number, a symmetry order, a sample count, a vertex id or label) goes through
``action.check_count``, which refuses 4.9, NaN and inf instead of truncating
them.  A public function or method (dunder methods included) that applies
``int()`` to a bare name or a subscript, the shapes a caller's count arrives
in, is refused; ``check_count`` itself is the one function allowed to.  A
numpy scalar is converted with ``.tolist()`` instead."""

import ast
from pathlib import Path

import pytest

import choreo

SOURCES = sorted(Path(choreo.__file__).parent.glob("*.py"))
HELPER = "check_count"


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def truncated_counts(tree):
    """(line, function, argument) of every one-argument int(x) call, x a bare
    name or a subscript, in a public function or method, nested bodies
    included."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if is_private(node.name) or node.name == HELPER:
            continue
        found += [
            (call.lineno, node.name, ast.unparse(call.args[0]))
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "int"
            and len(call.args) == 1
            and isinstance(call.args[0], (ast.Name, ast.Subscript))
        ]
    return sorted(found)


def test_count_guard_on_a_synthetic_source():
    source = (
        "def polygon(m0, satellites=4):\n"
        "    satellites = int(satellites)\n"
        "class Reduction:\n"
        "    def order(self, M, *, n):\n"
        "        return int(M) + int(self.M) + int(n, 2)\n"
        "    def __init__(self, node):\n"
        "        self.node = int(node)\n"
        "def _private(k):\n"
        "    return int(k)\n"
        "def fine(k, labels):\n"
        "    return [int(label) for label in labels] + [int(k + 1), int(len(labels))]\n"
        "async def walk(steps):\n"
        "    return int(steps)\n"
        "def check_count(count, name, least):\n"
        "    return int(count)\n"
        "def load(spec):\n"
        "    return int(spec['M']), int(spec.get('M'))\n"
    )
    assert truncated_counts(ast.parse(source)) == [
        (2, "polygon", "satellites"),
        (5, "order", "M"),
        (7, "__init__", "node"),
        (11, "fine", "label"),
        (13, "walk", "steps"),
        (17, "load", "spec['M']"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_public_function_truncates_its_parameter(path):
    assert truncated_counts(ast.parse(path.read_text(encoding="utf-8"))) == []
