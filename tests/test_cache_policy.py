"""Cache policy of the library: a derived table is a cached_property of the
object that owns it, and an unbounded lru_cache keys only the tag-keyed
constructors.  A module-level registry, a hand-rolled ``*_cache`` attribute
or an unbounded cache on any other function is refused."""

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


TAG_KEYED = ("_build_archimedean_cached", "published_numbering")


def is_unbounded_cache(node):
    """functools.cache, or lru_cache with maxsize None (bare lru_cache keeps 128)."""
    name = ast.unparse(node.func if isinstance(node, ast.Call) else node).split(".")[-1]
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(node, ast.Call):
        return False
    sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def unbounded_caches(tree):
    """(line, name) of functions other than the tag-keyed constructors that
    carry an unbounded cache."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in TAG_KEYED
        and any(is_unbounded_cache(d) for d in node.decorator_list)
    )


def test_unbounded_cache_guard_on_a_synthetic_source():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def published_numbering(tag):\n"
        "    pass\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def by_alpha(alpha):\n"
        "    pass\n"
        "@lru_cache(None)\n"
        "def by_point(x):\n"
        "    pass\n"
        "@functools.cache\n"
        "def by_name(name):\n"
        "    pass\n"
        "@cache\n"
        "def by_row(row):\n"
        "    pass\n"
        "@lru_cache(maxsize=64)\n"
        "def bounded(alpha):\n"
        "    pass\n"
        "@lru_cache\n"
        "def default_bound(alpha):\n"
        "    pass\n"
    )
    assert unbounded_caches(ast.parse(source)) == [
        (7, "by_alpha"), (10, "by_point"), (13, "by_name"), (16, "by_row"),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_tag_keyed_constructors_cache_without_bound(path):
    assert unbounded_caches(ast.parse(path.read_text(encoding="utf-8"))) == []


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
