"""No test module binds a library name that starts with ``test``.

The library has functions named ``test_loop*``.  Imported by name into a
test module, pytest would collect and call them as tests; the test modules
reach them through their module instead (``H.test_loop``)."""

import ast
from pathlib import Path

import pytest

TEST_MODULES = sorted(Path(__file__).parent.glob("test_*.py"))


def choreo_test_bindings(tree):
    """(line, name) of every name starting with ``test`` that an import from
    choreo binds, and of every star import from choreo."""
    return sorted(
        (node.lineno, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "choreo"
        for alias in node.names
        if alias.name == "*" or (alias.asname or alias.name).startswith("test")
    )


def test_guard_on_a_synthetic_source():
    source = (
        "from choreo import homotopy as H\n"
        "from choreo.homotopy import test_loop\n"
        "from choreo.estimates import (\n"
        "    test_loop_action_exact as exact,\n"
        "    zeta as test_zeta,\n"
        ")\n"
        "from choreo.estimates import *\n"
        "from tests_helpers import test_loop\n"
        "def helper():\n"
        "    from choreo.homotopy import test_loop\n"
    )
    assert choreo_test_bindings(ast.parse(source)) == [
        (2, "test_loop"), (3, "test_zeta"), (7, "*"), (10, "test_loop"),
    ]


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_test_module_binds_a_choreo_test_name(path):
    assert choreo_test_bindings(ast.parse(path.read_text(encoding="utf-8"))) == []
