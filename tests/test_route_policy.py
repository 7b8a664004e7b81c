"""Route policy of the homotopy module: a junction option is a descriptor
(fan, i_in, s), and ``_route`` turns it into its chambers.  Only
``_skeleton_realizes`` may name it, for the resolutions the winding filter
hands over, so the search builds no route that it does not reduce."""

import ast
from pathlib import Path

import choreo

SOURCE = Path(choreo.__file__).parent / "homotopy.py"
BUILDER = "_route"
ALLOWED = ("_skeleton_realizes",)


def route_uses(tree):
    """(line, scope) of every reference to the route builder outside its own
    definition, scope being the outermost enclosing function or class, or
    <module>."""
    found = []
    for stmt in tree.body:
        scope = getattr(stmt, "name", "<module>")
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == BUILDER:
            continue
        found += [
            (node.lineno, scope)
            for node in ast.walk(stmt)
            if (isinstance(node, ast.Name) and node.id == BUILDER)
            or (isinstance(node, ast.Attribute) and node.attr == BUILDER)
        ]
    return sorted(found)


def stray_route_uses(tree):
    return [(line, scope) for line, scope in route_uses(tree) if scope not in ALLOWED]


def test_route_guard_on_a_synthetic_source():
    source = (
        "def _route(fan, i_in, s):\n"
        "    return [] if s == 0 else _route(fan, i_in, s - 1)\n"
        "def _skeleton_realizes(options, sel):\n"
        "    return [_route(*o) for o in sel]\n"
        "class _SearchOptions(dict):\n"
        "    def __missing__(self, key):\n"
        "        return [_route(*key)]\n"
        "def _resolutions(options):\n"
        "    build = H._route\n"
        "    return build\n"
        "def min_total_angle(cone):\n"
        "    def inner(d):\n"
        "        return _route(*d)\n"
        "    return inner\n"
        "_default = _route\n"
    )
    tree = ast.parse(source)
    assert stray_route_uses(tree) == [
        (7, "_SearchOptions"), (9, "_resolutions"), (13, "min_total_angle"), (15, "<module>"),
    ]
    assert [line for line, _ in route_uses(tree)] == [4, 7, 9, 13, 15]


def test_only_the_reduction_builds_routes():
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"))
    assert stray_route_uses(tree) == []
    assert {scope for _, scope in route_uses(tree)} == set(ALLOWED)
