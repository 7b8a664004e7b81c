"""Count policy of the library: a count taken from a caller (a satellite
number, a symmetry order, a sample count) goes through ``action.check_count``,
which refuses 4.9, NaN and inf instead of truncating them.  A public function
or method that applies ``int()`` directly to one of its own parameters is
refused; ``check_count`` itself is the one function allowed to."""

import ast
from pathlib import Path

import pytest

import choreo

SOURCES = sorted(Path(choreo.__file__).parent.glob("*.py"))
HELPER = "check_count"


def truncated_parameters(tree):
    """(line, function, parameter) of every int(p) call, p a parameter of the
    public function or method whose body holds the call."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_") or node.name == HELPER:
            continue
        a = node.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p}
        found += [
            (call.lineno, node.name, call.args[0].id)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "int"
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id in params
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
    )
    assert truncated_parameters(ast.parse(source)) == [
        (2, "polygon", "satellites"),
        (5, "order", "M"),
        (13, "walk", "steps"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_public_function_truncates_its_parameter(path):
    assert truncated_parameters(ast.parse(path.read_text(encoding="utf-8"))) == []
