"""Cache policy of the library: a derived table is a cached_property of the
object that owns it, and lru_cache keys only the tag-keyed constructors.  A
module-level registry or a hand-rolled ``*_cache`` attribute is refused."""

import ast
from pathlib import Path

import pytest

import choreo

SOURCES = sorted(Path(choreo.__file__).parent.glob("*.py"))


def is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "set")
        and not node.args
        and not node.keywords
    )


def cache_violations(tree):
    """(line, name) of module-level names bound to an empty dict or set, and
    of attributes whose name ends in _cache (functools.lru_cache aside)."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            if is_empty_container(stmt.value):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                found += [(stmt.lineno, ast.unparse(t)) for t in targets]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.endswith("_cache"):
            if node.attr != "lru_cache":
                found.append((node.lineno, node.attr))
    return sorted(found)


def test_guard_catches_both_patterns():
    assert any(path.name == "homotopy.py" for path in SOURCES)
    source = (
        "import functools\n"
        "_REGISTRY = {}\n"
        "_SEEN: set = set()\n"
        "_TABLE = dict()\n"
        "_FULL = {1: 2}\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._perm_cache = {}\n"
        "    @functools.lru_cache\n"
        "    def f(self):\n"
        "        return {}\n"
    )
    assert cache_violations(ast.parse(source)) == [
        (2, "_REGISTRY"), (3, "_SEEN"), (4, "_TABLE"), (8, "_perm_cache"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_hand_rolled_caches(path):
    assert cache_violations(ast.parse(path.read_text(encoding="utf-8"))) == []
