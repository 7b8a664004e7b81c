"""Budget policy of the library: a search budget is a module constant, as
``_NUMBERING_NODE_CAP`` and ``_MAX_POPS`` are, never a keyword of the
function that searches.  A parameter named ``max_*``, ``*max``, ``*_cap``
or ``cap`` is refused; tests that need a smaller budget patch the
constant."""

import ast
from pathlib import Path

import pytest

import choreo

SOURCES = sorted(Path(choreo.__file__).parent.glob("*.py"))


def is_budget_name(name):
    return name == "cap" or name.startswith("max_") or name.endswith(("max", "_cap"))


def budget_parameters(tree):
    """(line, function, parameter) of every parameter with a budget name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            name = getattr(node, "name", "<lambda>")
            found += [(p.lineno, name, p.arg) for p in params if p is not None and is_budget_name(p.arg)]
    return sorted(found)


def test_budget_guard_on_a_synthetic_source():
    source = (
        "_MAX_POPS = 10\n"
        "def search(cone, *, max_pops=5):\n"
        "    pass\n"
        "def close(gens, cap=200):\n"
        "    pass\n"
        "class A:\n"
        "    async def walk(self, turn_cap, /, *, spent=0, **max_extra):\n"
        "        pass\n"
        "f = lambda combo_cap: combo_cap\n"
        "def fine(capacity, maximum, caps, budget, spent):\n"
        "    return _MAX_POPS\n"
        "def pops(poly, M, fmax, pole_perm):\n"
        "    pass\n"
    )
    assert budget_parameters(ast.parse(source)) == [
        (2, "search", "max_pops"),
        (4, "close", "cap"),
        (7, "walk", "max_extra"),
        (7, "walk", "turn_cap"),
        (9, "<lambda>", "combo_cap"),
        (12, "pops", "fmax"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_takes_a_budget_keyword(path):
    assert budget_parameters(ast.parse(path.read_text(encoding="utf-8"))) == []
