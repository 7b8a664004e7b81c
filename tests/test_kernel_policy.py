"""Kernel policy of the action module: the pair kernel ``_potential`` runs
once per objective evaluation.  action and gradient read it through the
loop's kept evaluation (``_evaluate``), and ``discrete_energy`` runs it on
every node; no other function of the module may name it, so a second kernel
pass cannot creep back into action or gradient."""

import ast
from pathlib import Path

import choreo

SOURCE = Path(choreo.__file__).parent / "action.py"
KERNEL = "_potential"
ALLOWED = ("_evaluate", "discrete_energy")


def kernel_uses(tree):
    """(line, scope) of every reference to the kernel outside its own
    definition, scope being the outermost enclosing function or class, or
    <module>."""
    found = []
    for stmt in tree.body:
        scope = getattr(stmt, "name", "<module>")
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == KERNEL:
            continue
        found += [
            (node.lineno, scope)
            for node in ast.walk(stmt)
            if (isinstance(node, ast.Name) and node.id == KERNEL)
            or (isinstance(node, ast.Attribute) and node.attr == KERNEL)
        ]
    return sorted(found)


def stray_kernel_uses(tree):
    return [(line, scope) for line, scope in kernel_uses(tree) if scope not in ALLOWED]


def test_kernel_guard_on_a_synthetic_source():
    source = (
        "def _potential(pts, with_gradient=False):\n"
        "    return _potential(pts[:0]) if len(pts) > 9 else pts\n"
        "def _evaluate(loop):\n"
        "    return _potential(loop.points, with_gradient=True)\n"
        "def action(loop):\n"
        "    return _potential(loop.points)\n"
        "def gradient(loop):\n"
        "    kernel = _potential\n"
        "    return kernel(loop.points)\n"
        "class Loop:\n"
        "    def energy(self):\n"
        "        return A._potential(self.points)\n"
        "def discrete_energy(loop):\n"
        "    def inner():\n"
        "        return _potential(loop.points)\n"
        "    return inner()\n"
        "_default = _potential\n"
    )
    tree = ast.parse(source)
    assert stray_kernel_uses(tree) == [(6, "action"), (8, "gradient"), (12, "Loop"), (17, "<module>")]
    assert [line for line, _ in kernel_uses(tree)] == [4, 6, 8, 12, 15, 17]


def test_only_the_shared_evaluation_and_the_energy_run_the_kernel():
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"))
    assert stray_kernel_uses(tree) == []
    assert {scope for _, scope in kernel_uses(tree)} == set(ALLOWED)
