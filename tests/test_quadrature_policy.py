"""Quadrature policy of the estimates module: ``zeta`` reads the edge
quadratics at the nodes of both rules from the node table ``_edge_nodes``,
built once per edge and rule pair.  No other function of the module may
read the polyhedron's ``edge_quadratics``, so the quadratics cannot come
back into a per-call evaluation."""

import ast
from pathlib import Path

import choreo

SOURCE = Path(choreo.__file__).parent / "estimates.py"
TABLE = "edge_quadratics"
ALLOWED = ("_edge_nodes",)


def table_reads(tree):
    """(line, scope) of every attribute, name or string naming the table,
    scope being the outermost enclosing function or class, or <module>."""
    found = []
    for stmt in tree.body:
        scope = getattr(stmt, "name", "<module>")
        found += [
            (node.lineno, scope)
            for node in ast.walk(stmt)
            if (isinstance(node, ast.Attribute) and node.attr == TABLE)
            or (isinstance(node, ast.Name) and node.id == TABLE)
            or (isinstance(node, ast.Constant) and node.value == TABLE)
        ]
    return sorted(found)


def stray_table_reads(tree):
    return [(line, scope) for line, scope in table_reads(tree) if scope not in ALLOWED]


def test_table_guard_on_a_synthetic_source():
    source = (
        '"""Reads ``edge_quadratics`` once."""\n'
        "def _edge_nodes(tag, which):\n"
        "    return build_archimedean(tag).edge_quadratics[which]\n"
        "def zeta(group, alpha, which):\n"
        "    c0, c1, c2, mult = build_archimedean(group).edge_quadratics[which]\n"
        "def delta_min(group, which):\n"
        "    return getattr(build_archimedean(group), 'edge_quadratics')\n"
        "class Edge:\n"
        "    def squares(self, edge_quadratics):\n"
        "        return edge_quadratics[0]\n"
        "def tilde_U0(group, alpha):\n"
        "    def inner(poly):\n"
        "        return poly.edge_quadratics\n"
        "    return inner\n"
        "_table = operator.attrgetter('edge_quadratics')\n"
    )
    tree = ast.parse(source)
    assert stray_table_reads(tree) == [
        (5, "zeta"), (7, "delta_min"), (10, "Edge"), (13, "tilde_U0"), (15, "<module>"),
    ]
    assert [line for line, _ in table_reads(tree)] == [3, 5, 7, 10, 13, 15]


def test_only_the_node_table_reads_the_edge_quadratics():
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"))
    assert stray_table_reads(tree) == []
    assert {scope for _, scope in table_reads(tree)} == set(ALLOWED)
