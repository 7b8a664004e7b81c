"""Option inventory of the library: every defaulted parameter of a public
function or method of ``choreo``, by name.  A parameter added or removed
fails this test until OPTIONS changes with it, so every new option shows up
as a reviewed diff.  Public means a name without a leading underscore,
reached through public classes only; dunder methods, dataclass fields and
functions nested in functions are not counted."""

import ast
from pathlib import Path

import choreo

SOURCES = sorted(Path(choreo.__file__).parent.glob("*.py"))

OPTIONS = [
    "action.action(epsilon)",
    "action.gradient(epsilon)",
    "estimates.certify_no_total_collisions(label)",
    "estimates.general_lower_bound(formula)",
    "estimates.hiphop_collision_bound(satellites)",
    "estimates.hiphop_exclusion(satellites)",
    "estimates.klein_test_loop_bound(rho)",
    "estimates.rotating_polygon_action(satellites)",
    "groups.builtin_group(n)",
    "homotopy.catalog_cone(alpha)",
    "homotopy.catalog_cone(central_mass)",
    "homotopy.catalog_cone(period)",
]


def defaulted_parameters(tree, module):
    """Sorted "module.qualified_name(parameter)" of every defaulted
    parameter of a public function or method in the parsed module."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if getattr(child, "name", "_").startswith("_"):
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [*a.posonlyargs, *a.args]
                names = [p.arg for p in positional[len(positional) - len(a.defaults):]]
                names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found.extend(f"{module}.{prefix}{child.name}({name})" for name in names)

    visit(tree, "")
    return sorted(found)


def test_inventory_on_a_synthetic_source():
    source = (
        "def solve(x, tol=1e-9, *, steps=10, flag):\n"
        "    def inner(y=1):\n"
        "        pass\n"
        "def _private(z=0):\n"
        "    pass\n"
        "class Solver:\n"
        "    def __init__(self, a, /, b=2):\n"
        "        pass\n"
        "    async def run(self, c=3, *args, d=None, **kw):\n"
        "        pass\n"
        "    def _helper(self, e=4):\n"
        "        pass\n"
        "    class Inner:\n"
        "        def go(self, f=5):\n"
        "            pass\n"
        "class _Hidden:\n"
        "    def run(self, g=6):\n"
        "        pass\n"
        "h = lambda i=7: i\n"
    )
    assert defaulted_parameters(ast.parse(source), "m") == [
        "m.Solver.Inner.go(f)",
        "m.Solver.run(c)",
        "m.Solver.run(d)",
        "m.solve(steps)",
        "m.solve(tol)",
    ]


def test_public_options_are_the_listed_ones():
    found = []
    for path in SOURCES:
        found += defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == OPTIONS
