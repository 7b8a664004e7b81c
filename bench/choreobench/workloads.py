"""The three seeded workloads: input generators, operations and checks.

A workload turns ``(seed, pass index)`` into a pass of plain input specs
(``make_pass``).  ``prepare`` builds library objects from a spec outside the
timed region and returns its ops.  The runner times ``Op.run`` and then
validates the result with ``Op.check``; a check that returns a reason, or an
op or check that raises, counts the op as failed.

Every pass visits each row the workload covers exactly once, so runs of any
length, and runs with different seeds, measure the same mix of rows.  The
other inputs (conjugating elements, exponents, masses, sample counts,
perturbations) are drawn afresh for every pass.

The ops call ``choreo`` only through its public names, and only through
the tracer handed to them, so a traced run gets a span per call.
"""

import math
from dataclasses import dataclass

import numpy as np
from choreo import action, estimates, homotopy, reference_tables

TWO_PI = 2.0 * math.pi
CATALOG = tuple((e.tag, e.name) for e in reference_tables.LOOP_CATALOG)

# min_total_angle of every row that finishes in under a second, pinned from
# the library when this benchmark was added; conjugation leaves them all
# unchanged.
# Left out: T nu6, O nu1, O nu2 (15-61 s each), I nu1 (478 s) and I nu2
# (no value after 580 s).
ARC_ANGLES = {
    ("T", "nu1"): 6.283185307180,
    ("T", "nu2"): 4.923837669363,
    ("T", "nu3"): 5.731899708747,
    ("T", "nu4"): 5.731899708747,
    ("T", "nu5"): 3.821266472498,
    ("O", "nu3"): 5.731899708747,
    ("O", "nu4"): 4.923837669363,
    ("O", "nu5"): 4.188790204786,
    ("O", "nu6"): 4.923837669363,
    ("O", "nu7"): 3.141592653590,
    ("O", "nu8"): 3.141592653590,
    ("O", "nu9"): 5.731899708747,
    ("I", "nu3"): 5.535743588970,
    ("I", "nu4"): 3.648638281135,
}
ARC_TOL = 1e-6

# descent: sample counts are log-uniform in [N_MIN, N_MAX], stratified per
# group so every pass spans the whole range for T, O and I alike; counts
# below SIZE_SPLIT are "small" (per-call overhead dominates), the rest
# "large" (arithmetic and the Python node loops dominate).  Within a
# stratum the position moves by GOLDEN from pass to pass, from a seeded
# start, so the counts of a whole run fill the range evenly whatever the
# seed.
N_MIN, N_MAX, SIZE_SPLIT = 256, 4096, 1024
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BATCH = 3             # perturbations per (cone, n), as an optimizer revisits n
PERTURBATION = 0.01   # size of the seeded perturbation of the comparison loop
FD_STEP, FD_TOL = 1e-6, 1e-6
ROTATION_TOL = 1e-10
ROW_TOL = 1e-9


def catalog_cones():
    """ConeSpec of every catalog row at its published parameters."""
    return {key: homotopy.catalog_cone(*key) for key in CATALOG}


def part_of(key):
    return f"{key[0]}-{key[1]}"


@dataclass
class Op:
    """One timed unit of work: ``run(tracer)`` then ``check(result)``.

    ``extra(tracer, result)`` runs in traced runs only, outside the op's
    span, for calls that break the op's cost down further.
    """

    attrs: dict
    run: object
    check: object
    extra: object = None


@dataclass
class Certify:
    """One op certifies one catalog row on a conjugated cone.

    The cone is rebuilt from the vertex ids conjugated by a seeded group
    element, at a seeded exponent, central mass and period.  Pass 0, the
    untimed warm-up, uses the published parameters, where every row must
    pass.
    """

    cones: dict
    name = "certify"
    nested = (
        "estimates.zeta",
        "estimates.delta_min",
        "estimates.tilde_U0",
        "estimates.test_loop_action_exact",
    )

    def make_pass(self, seed, index):
        rng = np.random.default_rng([seed, 1, index])
        specs = []
        for r in rng.permutation(len(CATALOG)):
            key = CATALOG[r]
            base = self.cones[key]
            spec = {"row": key, "element": int(rng.integers(base.group.order))}
            if index == 0:
                spec.update(alpha=base.alpha, central_mass=0.0, period=TWO_PI, published=True)
            else:
                spec.update(
                    alpha=float(rng.uniform(1.0, 1.95)),
                    central_mass=float(rng.uniform(0.0, 5.0)),
                    period=float(math.exp(rng.uniform(math.log(math.pi), math.log(4.0 * math.pi)))),
                    published=False,
                )
            specs.append(spec)
        return specs

    def prepare(self, spec):
        base = self.cones[spec["row"]]
        poly = base.nu.polyhedron
        ids = base.nu.transformed(base.group.elements[spec["element"]]).vertex_ids
        M = base.extra_symmetry[1]
        alpha, m0, period = spec["alpha"], spec["central_mass"], spec["period"]

        def run(t):
            nu = homotopy.VertexSequence(poly, ids)
            R = t.call("homotopy.find_extra_symmetry", homotopy.find_extra_symmetry, nu, M)[0]
            cone = t.call(
                "homotopy.ConeSpec", homotopy.ConeSpec,
                group=base.group, nu=nu, alpha=alpha, extra_symmetry=(R, M),
                period=period, central_mass=m0,
            )
            cert = t.call(
                "estimates.certify_no_total_collisions", estimates.certify_no_total_collisions, cone
            )
            bound = None
            if alpha > 1.0:
                bound = t.call(
                    "estimates.test_loop_action_bound", estimates.test_loop_action_bound, cone
                )
            return cert, bound

        def check(result):
            cert, bound = result
            if spec["published"] and not cert.passed:
                return "certificate fails at the published parameters"
            reference = homotopy.ConeSpec(
                group=base.group, nu=base.nu, alpha=alpha, extra_symmetry=base.extra_symmetry,
                period=period, central_mass=m0,
            )
            want = estimates.certify_no_total_collisions(reference).row()
            if not np.allclose(cert.row(), want, rtol=ROW_TOL, atol=0.0):
                return f"conjugated row {cert.row()} differs from {want}"
            if bound is not None and not cert.direct_lhs <= bound:
                return f"test-loop action {cert.direct_lhs} exceeds its bound {bound}"
            return None

        attrs = {"workload": self.name, "row": spec["row"], "part": None, "order": base.group.order}
        return [Op(attrs, run, check)]


@dataclass
class Arcs:
    """One op is ``min_total_angle`` on one row, conjugated by a seeded element.

    The search costs up to four times more for some elements than for
    others, so each row steps through a seeded permutation of its group,
    one element per pass: a run meets as many distinct elements per row as
    it has passes, whatever the seed.
    """

    cones: dict
    name = "arcs"
    nested = ()

    def make_pass(self, seed, index):
        rng = np.random.default_rng([seed, 2, index])
        rows = tuple(ARC_ANGLES)
        specs = []
        for r in rng.permutation(len(rows)):
            order = self.cones[rows[r]].group.order
            elements = np.random.default_rng([seed, 4, CATALOG.index(rows[r])]).permutation(order)
            specs.append({"row": rows[r], "element": int(elements[index % order])})
        return specs

    def prepare(self, spec):
        base = self.cones[spec["row"]]
        nu = base.nu.transformed(base.group.elements[spec["element"]])
        M = base.extra_symmetry[1]
        cone = homotopy.ConeSpec(
            group=base.group, nu=nu, alpha=base.alpha,
            extra_symmetry=(homotopy.find_extra_symmetry(nu, M)[0], M),
            period=base.period, central_mass=base.central_mass,
        )
        attrs = {
            "workload": self.name,
            "row": spec["row"],
            "part": part_of(spec["row"]),
            "order": base.group.order,
        }

        def run(t):
            result = t.call("homotopy.min_total_angle", homotopy.min_total_angle, cone)
            attrs["arcs"] = len(result.arc_angles)
            return result

        def check(result):
            want = ARC_ANGLES[spec["row"]]
            if abs(result.total_angle - want) > ARC_TOL:
                return f"total angle {result.total_angle!r} differs from the pinned {want!r}"
            if not homotopy.cyclic_words_equal(result.word, cone.reduced_word):
                return "skeleton word is not the cone's class"
            return None

        return [Op(attrs, run, check)]


@dataclass
class Descent:
    """One op is one objective evaluation in reduced coordinates:
    ``lift`` -> ``LoopPath`` (symmetry check) -> ``action`` -> ``gradient``.

    Each catalog row gets one (cone, n) per pass, n from a stratified
    sequence over the passes (see GOLDEN), with a seeded central mass
    and BATCH seeded perturbations of its symmetrized comparison loop.  The
    first op of a batch is also checked against a central finite difference
    and against a rotation of the loop by a group element.
    """

    cones: dict
    name = "descent"
    nested = (
        "action.SymmetryReduction.node_images",
        "action.SymmetryReduction.reduce_gradient",
    )

    def make_pass(self, seed, index):
        rng = np.random.default_rng([seed, 3, index])
        starts = np.random.default_rng([seed, 3]).uniform(size=(3, len(CATALOG)))
        counts = {}
        for g, tag in enumerate(("T", "O", "I")):
            rows = [key for key in CATALOG if key[0] == tag]
            for key, stratum in zip(rows, rng.permutation(len(rows))):
                u = (stratum + (starts[g, stratum] + index * GOLDEN) % 1.0) / len(rows)
                cone = self.cones[key]
                step = math.lcm(cone.nu.steps, cone.extra_symmetry[1])
                counts[key] = max(step, round(N_MIN * (N_MAX / N_MIN) ** u / step) * step)
        specs = []
        for r in rng.permutation(len(CATALOG)):
            key = CATALOG[r]
            base = self.cones[key]
            shape = (counts[key] // base.extra_symmetry[1], 3)
            specs.append({
                "row": key,
                "n": counts[key],
                "central_mass": float(rng.uniform(0.1, 5.0)),
                "noise": [rng.standard_normal(shape) for _ in range(BATCH)],
                "direction": rng.standard_normal(shape),
                "element": int(rng.integers(base.group.order)),
            })
        return specs

    def prepare(self, spec):
        n = spec["n"]
        cone = homotopy.catalog_cone(*spec["row"], central_mass=spec["central_mass"])
        R, M = cone.extra_symmetry
        red = action.SymmetryReduction("extra", matrix=R, M=M)
        comparison = action.apply_symmetry_reduction(homotopy.test_loop(cone.nu, cone.period, n), red)
        z0 = red.restrict(comparison.points)
        attrs = {
            "workload": self.name,
            "row": spec["row"],
            "part": "small" if n < SIZE_SPLIT else "large",
            "n": n,
            "order": cone.group.order,
        }

        def run(t, z):
            pts = t.call("action.SymmetryReduction.lift", red.lift, z, n)
            loop = t.call("action.LoopPath", action.LoopPath, pts, cone.period, red)
            value = t.call("action.action", action.action, loop, cone)
            grad = t.call("action.gradient", action.gradient, loop, cone)
            return z, loop, value, grad

        def objective(z):
            return float(action.action(action.LoopPath(red.lift(z, n), cone.period, red), cone))

        def check(result, first):
            z, loop, value, grad = result
            if grad.shape != z.shape or not np.all(np.isfinite(grad)):
                return f"reduced gradient has shape {grad.shape} or is not finite"
            if not math.isfinite(float(value)):
                return "action is not finite"
            if not first:
                return None
            d = spec["direction"]
            fd = (objective(z + FD_STEP * d) - objective(z - FD_STEP * d)) / (2.0 * FD_STEP)
            exact = float(np.sum(grad * d))
            if abs(fd - exact) > FD_TOL * np.linalg.norm(grad) * np.linalg.norm(d):
                return f"finite difference {fd!r} disagrees with the gradient {exact!r}"
            g = cone.group.elements[spec["element"]]
            rotated = float(action.action(action.LoopPath(loop.points @ g.T, cone.period), cone))
            if abs(rotated - float(value)) > ROTATION_TOL * abs(float(value)):
                return f"action changes from {float(value)!r} to {rotated!r} under a group element"
            return None

        def extra(t, result):
            _, loop, _, _ = result
            full = action.LoopPath(loop.points, loop.period)
            t.call("action.gradient_full", action.gradient, full, cone)
            if n >= SIZE_SPLIT:
                t.call("action.discrete_energy", action.discrete_energy, loop, cone)

        ops = []
        for k, noise in enumerate(spec["noise"]):
            z = z0 + PERTURBATION * noise
            ops.append(Op(
                attrs,
                lambda t, z=z: run(t, z),
                lambda result, first=(k == 0): check(result, first),
                extra,
            ))
        return ops


def suite(cones):
    """The workloads by name."""
    return {w.name: w for w in (Certify(cones), Arcs(cones), Descent(cones))}
