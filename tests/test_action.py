"""Action evaluation, gradients, reductions, rescaling."""

import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from choreo import action as A
from choreo import homotopy as H
from choreo.action import (
    ActionBreakdown,
    CollisionError,
    LoopPath,
    SymmetryReduction,
    action,
    apply_symmetry_reduction,
    discrete_energy,
    gradient,
    rescale_parameter,
    second_variation_vertical,
)
from choreo.estimates import general_lower_bound, klein_test_loop_bound
from choreo.groups import builtin_group, generate_group
from choreo.reference_tables import LOOP_CATALOG


def cone_for(tag, alpha=1.0, m0=0.0):
    return SimpleNamespace(group=builtin_group(tag), alpha=alpha, central_mass=m0)


def square_solution(m0, T, n):
    """The rotating-square circular solution of the vertical group.

    Radius from the circular force balance rho^3 omega^2 = mu with
    mu = 1/sqrt(2) + 1/4 + m0.
    """
    mu = 1.0 / np.sqrt(2.0) + 0.25 + m0
    omega = 2.0 * np.pi / T
    rho = (mu / omega**2) ** (1.0 / 3.0)
    t = np.arange(n) * (T / n)
    pts = np.stack(
        [rho * np.cos(omega * t), rho * np.sin(omega * t), np.zeros(n)], axis=1
    )
    return LoopPath(points=pts, period=T, reduction=SymmetryReduction("italian"))


def square_action_value(m0, T):
    """Closed-form action of the rotating square: 6 mu^(2/3) (2 pi)^(2/3) T^(1/3)."""
    mu = 1.0 / np.sqrt(2.0) + 0.25 + m0
    return 6.0 * mu ** (2.0 / 3.0) * (2.0 * np.pi) ** (2.0 / 3.0) * T ** (1.0 / 3.0)


def random_symmetric_loop(tag, reduction, n, seed, period=2.0 * np.pi):
    """A smooth random loop satisfying the reduction, away from collisions."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * (2.0 * np.pi / n)
    if tag == "KLEIN":
        base = np.stack(
            [0.4 * np.cos(2 * t), 1.6 * np.cos(t), 1.6 * np.sin(t)], axis=1
        )
    else:
        base = np.stack([1.6 * np.cos(t), 1.6 * np.sin(t), 0.3 * np.cos(t)], axis=1)
    noise = np.zeros((n, 3))
    for k in range(1, 4):
        amp = 0.08 / k
        noise += amp * np.cos(k * t)[:, None] * rng.normal(size=3)
        noise += amp * np.sin(k * t)[:, None] * rng.normal(size=3)
    pts = reduction.project(base + noise)
    return LoopPath(points=pts, period=period, reduction=reduction)


# ---------------------------------------------------------------------------
# basic values


def test_rescale_parameter():
    assert rescale_parameter(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rescale_parameter(1.5) == pytest.approx(2.0 / 7.0, abs=1e-15)
    assert rescale_parameter(1.999999) == pytest.approx(0.25, abs=1e-6)
    with pytest.raises(ValueError):
        rescale_parameter(2.0)
    with pytest.raises(ValueError):
        rescale_parameter(0.5)


def test_square_solution_action_matches_closed_form():
    T = 2.0 * np.pi
    loop = square_solution(0.0, T, 512)
    a = action(loop, cone_for("Z4", m0=0.0))
    exact = square_action_value(0.0, T)
    assert abs(a.total - exact) / exact < 1e-5
    # breakdown consistency
    assert a.total == pytest.approx(a.kinetic + a.central + a.mutual, rel=1e-12)
    assert a.central == 0.0
    assert a.kinetic > 0 and a.mutual > 0


def test_square_solution_action_with_central_mass():
    T = 2.0 * np.pi
    for m0 in (0.5, 3.0):
        loop = square_solution(m0, T, 1024)
        a = action(loop, cone_for("Z4", m0=m0))
        exact = square_action_value(m0, T)
        assert abs(a.total - exact) / exact < 1e-5


def test_collision_error_reports_node():
    n = 64
    t = np.arange(n) * (2 * np.pi / n)
    pts = np.stack([np.cos(t), np.sin(t), 0.2 + 0 * t], axis=1)
    pts[5] = [0.0, 0.0, 1.0]  # on the Z4 axis
    loop = LoopPath(points=pts, period=2 * np.pi)
    with pytest.raises(CollisionError) as err:
        action(loop, cone_for("Z4"))
    assert err.value.node == 5


def test_collision_error_reports_lowest_node_of_a_polyhedral_pair_collision():
    group = builtin_group("I")
    axes = {k: group.poles[0][group.poles[1] == k] for k in (3, 5)}
    n = 1024
    t = np.arange(n) * (2 * np.pi / n)
    pts = np.stack([1.3 * np.cos(t), 1.1 * np.sin(t), 0.5 * np.cos(t + 0.4)], axis=1)
    pts[5] = 1.2 * axes[3][0]
    pts[300] = 1.1 * axes[5][0]  # same block of nodes as node 5
    pts[700] = 0.9 * axes[3][7]  # another 3-fold axis, in a later block
    cone = SimpleNamespace(group=group, alpha=1.5, central_mass=0.8)
    loop = LoopPath(points=pts, period=2 * np.pi)
    for evaluate in (action, gradient, discrete_energy):
        with pytest.raises(CollisionError, match="collision set") as err:
            evaluate(loop, cone)
        assert err.value.node == 5
    pts[900] = 0.0  # the origin is checked before any pair collision
    with pytest.raises(CollisionError, match="origin") as err:
        action(LoopPath(points=pts, period=2 * np.pi), cone)
    assert err.value.node == 900


def test_scaling_homogeneity():
    cone = cone_for("KLEIN", alpha=1.3, m0=2.0)
    red = SymmetryReduction("klein_reflections")
    loop = random_symmetric_loop("KLEIN", red, 128, seed=1)
    a = action(loop, cone)
    for lam in (0.7, 1.9):
        scaled = loop.with_points(lam * loop.points)
        b = action(scaled, cone)
        assert b.kinetic == pytest.approx(lam**2 * a.kinetic, rel=1e-12)
        assert b.central == pytest.approx(lam ** (-1.3) * a.central, rel=1e-12)
        assert b.mutual == pytest.approx(lam ** (-1.3) * a.mutual, rel=1e-12)


def test_rescaling_identity():
    # A(u) = N m0^(2/(2+a)) * A_eps(v) at eps = 1/m0, u = m0^beta v
    alpha = 1.4
    m0 = 7.3
    beta = rescale_parameter(alpha)
    cone = cone_for("KLEIN", alpha=alpha, m0=m0)
    red = SymmetryReduction("klein_reflections")
    v = random_symmetric_loop("KLEIN", red, 96, seed=2)
    u = v.with_points(m0**beta * v.points)
    a_u = action(u, cone).total
    a_v = action(v, cone, epsilon=1.0 / m0).total
    N = cone.group.order
    assert a_u == pytest.approx(N * m0 ** (2.0 * beta) * a_v, rel=1e-10)


def test_rescaled_monotone_in_eps():
    cone = cone_for("KLEIN", alpha=1.0)
    red = SymmetryReduction("klein_reflections")
    loop = random_symmetric_loop("KLEIN", red, 96, seed=3)
    vals = [action(loop, cone, epsilon=e).total for e in (0.0, 0.01, 0.1, 1.0)]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


def test_rescaled_eps0_circle():
    # pure central problem on the unit-frequency circle: radius (T/2pi)^(2/3);
    # the forward-difference kinetic term carries a (pi/n)^2/3 relative error
    # on one third of the total, so n = 2048 comfortably reaches 1e-6
    T = 2.0 * np.pi
    n = 2048
    rho = (T / (2 * np.pi)) ** (2.0 / 3.0)
    t = np.arange(n) * (T / n)
    pts = np.stack([rho * np.cos(t), rho * np.sin(t), np.zeros(n)], axis=1)
    loop = LoopPath(points=pts, period=T)
    val = action(loop, cone_for("KLEIN"), epsilon=0.0).total
    exact = 1.5 * (2 * np.pi) ** (2.0 / 3.0) * T ** (1.0 / 3.0)  # = 3 pi here
    assert abs(val - exact) / exact < 1e-6
    assert exact == pytest.approx(3 * np.pi, rel=1e-14)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("evaluate", [action, gradient], ids=["action", "gradient"])
def test_rescaled_functional_refuses_a_non_finite_epsilon(evaluate, value):
    # epsilon = nan used to give a NaN mutual part, and the gradient at
    # epsilon = inf -inf and NaN entries
    red = SymmetryReduction("klein_reflections")
    loop = random_symmetric_loop("KLEIN", red, 32, seed=3)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        evaluate(loop, cone_for("KLEIN"), epsilon=value)


@pytest.mark.parametrize(
    "tag,alpha,m0",
    [("T", 1.0, 0.7), ("O", 1.5, 2.0), ("I", 1.2, 0.3), ("Z4", 1.7, 1.1), ("KLEIN", 1.0, 0.9)],
)
def test_action_matches_direct_body_sum(tag, alpha, m0):
    # the (1+N)-body potential over the constellation {R u_j}: every
    # unordered pair of satellites plus each satellite against the centre
    group = builtin_group(tag)
    n = 16
    rng = np.random.default_rng(13)
    t = np.arange(n) * (2 * np.pi / n)
    pts = np.stack([1.3 * np.cos(t), 1.1 * np.sin(t), 0.5 * np.cos(t + 0.4)], axis=1)
    pts += 0.1 * rng.normal(size=pts.shape)
    loop = LoopPath(points=pts, period=2 * np.pi)
    a = action(loop, SimpleNamespace(group=group, alpha=alpha, central_mass=m0))

    h = loop.period / n
    bodies = np.einsum("gij,nj->gni", np.array(group.elements), pts)
    first, second = np.triu_indices(group.order, 1)
    pair_dist = np.linalg.norm(bodies[first] - bodies[second], axis=-1)
    mutual = h * np.sum(pair_dist ** (-alpha))
    central = h * m0 * np.sum(np.linalg.norm(bodies, axis=-1) ** (-alpha))
    assert a.mutual == pytest.approx(mutual, rel=1e-12)
    assert a.central == pytest.approx(central, rel=1e-12)


def test_quadrature_second_order():
    cone = cone_for("Z4", alpha=1.0, m0=1.0)
    red = SymmetryReduction("italian")

    def val(n):
        loop = random_symmetric_loop("Z4", red, n, seed=4)
        return action(loop, cone).total

    # same smooth loop sampled at n, 2n, 4n: differences shrink by ~4
    d1 = val(128) - val(256)
    d2 = val(256) - val(512)
    assert d1 / d2 == pytest.approx(4.0, rel=0.2)


def test_frame_equivariance():
    from choreo.groups import RotationGroup

    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    G = builtin_group("KLEIN")
    conj = RotationGroup(
        tag="KLEIN-conj",
        elements=generate_group([Q @ R @ Q.T for R in G.generators]),
    )
    cone = SimpleNamespace(group=G, alpha=1.2, central_mass=0.7)
    cone_c = SimpleNamespace(group=conj, alpha=1.2, central_mass=0.7)
    red = SymmetryReduction("klein_reflections")
    loop = random_symmetric_loop("KLEIN", red, 128, seed=5)
    rotated = LoopPath(points=loop.points @ Q.T, period=loop.period)
    a = action(loop, cone).total
    b = action(rotated, cone_c).total
    assert b == pytest.approx(a, rel=1e-10)


# ---------------------------------------------------------------------------
# reductions


def test_italian_projection_exact():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(64, 3)) + np.array([3.0, 0, 0])
    red = SymmetryReduction("italian")
    sym = red.project(pts)
    assert np.allclose(sym[32:], -sym[:32], atol=1e-14)
    assert np.allclose(red.project(sym), sym, atol=1e-14)


def test_klein_projection_exact():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(64, 3)) + np.array([0.0, 2.0, 0.0])
    red = SymmetryReduction("klein_reflections")
    sym = red.project(pts)
    R3 = np.diag([1.0, 1.0, -1.0])
    R2 = np.diag([1.0, -1.0, 1.0])
    n = 64
    for j in range(n):
        assert np.allclose(sym[j], R3 @ sym[(-j) % n], atol=1e-13)
        assert np.allclose(sym[j], R2 @ sym[(n // 2 - j) % n], atol=1e-13)
    # boundary pinning
    assert abs(sym[0][2]) < 1e-14
    assert abs(sym[n // 4][1]) < 1e-14
    assert np.allclose(red.project(sym), sym, atol=1e-14)


def test_extra_projection_exact():
    R = builtin_group("O").generators[0]  # quarter turn about e3
    red = SymmetryReduction("extra", matrix=R, M=4)
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(48, 3)) + np.array([2.0, 1.0, 0.5])
    sym = red.project(pts)
    for j in range(48):
        assert np.allclose(sym[(j + 12) % 48], R @ sym[j], atol=1e-13)
    assert np.allclose(red.project(sym), sym, atol=1e-14)


def test_lift_restrict_round_trip():
    for tag, red in (
        ("Z4", SymmetryReduction("italian")),
        ("KLEIN", SymmetryReduction("klein_reflections")),
        ("O", SymmetryReduction("extra", matrix=builtin_group("O").generators[0], M=4)),
    ):
        loop = random_symmetric_loop(tag, red, 64, seed=9)
        z = red.restrict(loop.points)
        back = red.lift(z, 64)
        assert np.allclose(back, loop.points, atol=1e-12)


def test_apply_symmetry_reduction_idempotent():
    red = SymmetryReduction("italian")
    rng = np.random.default_rng(10)
    t = np.arange(64) * (2 * np.pi / 64)
    pts = np.stack([2 * np.cos(t), 2 * np.sin(t), 0.1 * np.cos(3 * t)], axis=1)
    pts += 0.05 * rng.normal(size=(64, 3))
    loop = LoopPath(points=pts, period=2 * np.pi)
    once = apply_symmetry_reduction(loop, red)
    twice = apply_symmetry_reduction(once, red)
    assert np.allclose(once.points, twice.points, atol=1e-14)
    assert red.violation(once.points) < 1e-13


def reference_node_images(red, n):
    """Node-by-node construction of SymmetryReduction.node_images."""
    free = red.free_nodes(n)
    rep = -np.ones(n, dtype=int)
    mats = np.zeros((n, 3, 3))
    counts = np.zeros(n, dtype=int)
    for shift, flip, A in red.transforms(n):
        for j in free:
            i = (flip * j + shift) % n
            if rep[i] == -1 or rep[i] == j:
                rep[i] = j
                mats[i] += A.T
                counts[i] += 1
    mats /= counts[:, None, None]
    return rep, mats


def reference_lift(red, z, n):
    rep, mats = reference_node_images(red, n)
    return np.array([mats[i] @ z[rep[i]] for i in range(n)])


def reference_reduce_gradient(red, grad, n):
    rep, mats = reference_node_images(red, n)
    out = np.zeros((len(red.free_nodes(n)), 3))
    for i in range(n):
        out[rep[i]] += mats[i].T @ grad[i]
    return out


def parent_lift(red, z, n):
    """SymmetryReduction.lift as one einsum over all n node matrices (the
    body the cyclic kinds' block product replaced; klein still runs it)."""
    rep, mats = red.node_images(n)
    z = np.asarray(z, float).reshape(len(red.free_nodes(n)), 3)
    return np.einsum("nij,nj->ni", mats, np.take(z, rep, axis=0))


def parent_reduce_gradient(red, grad, n):
    """SymmetryReduction.reduce_gradient as a per-node einsum and three
    bincount sums (the body the cyclic kinds' block product replaced)."""
    rep, mats = red.node_images(n)
    terms = np.einsum("nji,nj->in", mats, grad)
    m = len(red.free_nodes(n))
    return np.stack([np.bincount(rep, weights=t, minlength=m) for t in terms], axis=1)


NODE_LOOP_REDUCTIONS = {
    "italian": SymmetryReduction("italian"),
    "klein": SymmetryReduction("klein_reflections"),
    "extra-O4": SymmetryReduction("extra", matrix=builtin_group("O").generators[0], M=4),
    "extra-T3": SymmetryReduction("extra", matrix=builtin_group("T").generators[1], M=3),
    # the order-5 element of I nu3 and the half-turn of T nu1, not -I
    "extra-I5": SymmetryReduction("extra", *H.catalog_cone("I", "nu3").extra_symmetry),
    "extra-T2": SymmetryReduction("extra", *H.catalog_cone("T", "nu1").extra_symmetry),
}


# 1,500 and 4,096 nodes are sizes the descent benchmark runs; each
# reduction is checked at every count its divisor divides
@pytest.mark.parametrize(
    "red, n",
    [
        pytest.param(red, n, id=f"{name}-{n}")
        for name, red in NODE_LOOP_REDUCTIONS.items()
        for n in (12, 60, 240, 1200, 1500, 4096)
        if n % red.divisor() == 0
    ],
)
def test_reduction_matches_node_loop(red, n):
    rep, mats = red.node_images(n)
    ref_rep, ref_mats = reference_node_images(red, n)
    assert np.array_equal(rep, ref_rep)
    assert np.array_equal(mats, ref_mats)
    if red.kind == "klein_reflections":
        # boundary nodes average over their stabilizer: u_0 lies in {x3 = 0}
        assert np.linalg.det(mats[0]) == 0.0 and np.linalg.det(mats[n // 4]) == 0.0

    rng = np.random.default_rng(n)
    z = rng.normal(size=(len(red.free_nodes(n)), 3))
    g = rng.normal(size=(n, 3))
    lifted = red.lift(z, n)
    reduced = red.reduce_gradient(g, n)
    assert np.max(np.abs(lifted - reference_lift(red, z, n))) <= 1e-14
    assert np.max(np.abs(reduced - reference_reduce_gradient(red, g, n))) <= 1e-14
    assert np.sum(lifted * g) == pytest.approx(np.sum(z * reduced), rel=1e-12)
    if red.kind == "klein_reflections":
        # klein keeps its per-node bodies: bit for bit the parent's
        assert same_bytes(lifted, parent_lift(red, z, n))
        assert same_bytes(reduced, parent_reduce_gradient(red, g, n))


@pytest.mark.parametrize("name", ["italian", "extra-O4", "extra-I5"])
def test_cyclic_lift_and_pull_back_read_the_node_images_once(name, monkeypatch):
    """The block matrices have one owner: lift and reduce_gradient each ask
    node_images once, kept tables or not (a traced descent run nests their
    node_images span inside theirs)."""
    base = NODE_LOOP_REDUCTIONS[name]
    red = SymmetryReduction(base.kind, base.matrix, base.M)
    calls, images = [], SymmetryReduction.node_images

    def counted(self, n):
        calls.append(n)
        return images(self, n)

    monkeypatch.setattr(SymmetryReduction, "node_images", counted)
    z = np.random.default_rng(3).normal(size=(1500 // red.M, 3))
    for _ in range(2):
        calls.clear()
        red.lift(z, 1500)
        assert calls == [1500]
        red.reduce_gradient(np.ones((1500, 3)), 1500)
        assert calls == [1500, 1500]


@pytest.mark.parametrize("name", list(NODE_LOOP_REDUCTIONS))
def test_free_nodes_are_a_prefix(name):
    """lift, restrict, the orbit kernel and gradient read the free nodes as
    the first len(free_nodes(n)) rows of the loop."""
    red = NODE_LOOP_REDUCTIONS[name]
    for n in (12, 60, 1500, 4096):
        if n % red.divisor() == 0:
            free = red.free_nodes(n)
            assert np.array_equal(free, np.arange(len(free))), n
            pts = red.project(np.random.default_rng(n).normal(size=(n, 3)))
            z = red.restrict(pts)
            assert same_bytes(z, pts[free]) and not np.shares_memory(z, pts), n


# Stated before the first run: lifted points, action and reduced gradient of
# the block products within 1e-13 of the per-node bodies, relative to the
# largest entry.  They differ only in the summation order of 3M products.
CATALOG_BLOCK_RTOL = 1e-13


@pytest.mark.parametrize("tag, name", [(e.tag, e.name) for e in LOOP_CATALOG], ids=lambda v: v)
def test_block_objective_matches_the_per_node_bodies(tag, name, monkeypatch):
    """One descent op, lift -> LoopPath -> action -> gradient, on each
    catalog row at about 1,500 nodes, against the parent's lift and
    reduce_gradient."""
    cone = H.catalog_cone(tag, name, central_mass=1.3)
    step = math.lcm(cone.nu.steps, cone.extra_symmetry[1])
    n = 1500 // step * step
    base = catalog_loop(cone, n)
    red, z = base.reduction, base.reduction.restrict(base.points)

    def objective():
        loop = LoopPath(red.lift(z, n), cone.period, red)
        return loop.points, action(loop, cone), gradient(loop, cone)

    got = objective()
    monkeypatch.setattr(SymmetryReduction, "lift", parent_lift)
    monkeypatch.setattr(SymmetryReduction, "reduce_gradient", parent_reduce_gradient)
    want = objective()
    for a, b in ((got[0], want[0]), (got[2], want[2])):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= CATALOG_BLOCK_RTOL * np.max(np.abs(b))
    for part in ("kinetic", "central", "mutual"):
        a, b = getattr(got[1], part), getattr(want[1], part)
        assert abs(a - b) <= CATALOG_BLOCK_RTOL * abs(b), part


def reference_project(red, points):
    """The group average with one index array per transform (the gather
    that project's slices replaced)."""
    n = len(points)
    acc = np.zeros_like(points)
    trs = red.transforms(n)
    for shift, flip, A_ in trs:
        acc += points[(flip * np.arange(n) + shift) % n] @ A_.T
    return acc / len(trs)


PROJECT_REDUCTIONS = {
    "italian": SymmetryReduction("italian"),
    "klein": SymmetryReduction("klein_reflections"),
    "extra-O4": SymmetryReduction("extra", matrix=builtin_group("O").generators[0], M=4),
    "extra-T3": SymmetryReduction("extra", matrix=builtin_group("T").generators[1], M=3),
}


# 1,500 and 4,096 nodes are sizes the descent benchmark runs; each
# reduction is checked at every count its divisor divides
@pytest.mark.parametrize(
    "red, n",
    [
        pytest.param(red, n, id=f"{name}-{n}")
        for n in (12, 60, 1200, 1500, 4096)
        for name, red in PROJECT_REDUCTIONS.items()
        if n % red.divisor() == 0
    ],
)
def test_project_matches_the_index_formula(red, n):
    pts = np.random.default_rng([n, 5]).normal(size=(n, 3))
    assert np.array_equal(red.project(pts), reference_project(red, pts))


def test_incompatible_sample_count():
    red = SymmetryReduction("klein_reflections")
    with pytest.raises(ValueError):
        red.transforms(66)


# ---------------------------------------------------------------------------
# the tables a reduction keeps for its most recent n


def per_call_transforms(red, n):
    """SymmetryReduction.transforms as it was built on every call."""
    if n % red.divisor() != 0:
        raise ValueError(f"sample count {n} not divisible by {red.divisor()}")
    if red.kind == "italian":
        return [(0, 1, np.eye(3)), (n // 2, 1, -np.eye(3))]
    if red.kind == "klein_reflections":
        return [
            (0, 1, np.eye(3)),
            (0, -1, A.REFLECT_X3),
            (n // 2, -1, A.REFLECT_X2),
            (n // 2, 1, A.REFLECT_X2 @ A.REFLECT_X3),
        ]
    R = np.asarray(red.matrix, float)
    out = []
    step = n // int(red.M)
    A_ = np.eye(3)
    for k in range(int(red.M)):
        out.append(((n - k * step) % n, 1, A_))
        A_ = R @ A_
    return out


def per_call_free_nodes(red, n):
    if red.kind == "italian":
        return np.arange(n // 2)
    if red.kind == "klein_reflections":
        return np.arange(n // 4 + 1)
    return np.arange(n // int(red.M))


def per_call_node_images(red, n):
    """SymmetryReduction.node_images as it was built on every call."""
    free = per_call_free_nodes(red, n)
    shifts, flips, As = zip(*per_call_transforms(red, n))
    images = (np.multiply.outer(flips, free) + np.array(shifts)[:, None]) % n
    counts = np.bincount(images.ravel(), minlength=n)
    rep = np.empty(n, dtype=int)
    rep[images] = free
    which = np.empty(n, dtype=int)
    which[images] = np.arange(len(As))[:, None]
    AT = np.array(As).transpose(0, 2, 1) + 0.0
    mats = np.take(AT, which, axis=0)
    shared = np.flatnonzero(counts > 1)
    if len(shared):
        hit = images[:, rep[shared]] == shared
        total = np.add.reduce(hit[:, :, None, None] * AT[:, None], axis=0)
        mats[shared] = total / counts[shared, None, None]
    return rep, mats


def per_call_orbit_weights(red, n, group):
    """SymmetryReduction.orbit_weights as it was built on every call."""
    gens = {"italian": [-np.eye(3)], "klein_reflections": [A.REFLECT_X3, A.REFLECT_X2]}
    gens = gens.get(red.kind) or [np.asarray(red.matrix, float)]
    if not all(A._signed_member(g, group) for g in gens):
        return None
    free = per_call_free_nodes(red, n)
    w = np.full(len(free), float(red.divisor()))
    if red.kind == "klein_reflections":
        w[[0, -1]] = 2.0
    return free, w


ORDER3 = SymmetryReduction("extra", matrix=builtin_group("T").generators[1], M=3)
KEPT_CASES = [
    (SymmetryReduction("italian"), ["Z4", "O", "Z4"]),
    (SymmetryReduction("klein_reflections"), ["KLEIN", "Z4", "KLEIN"]),
    (SymmetryReduction("extra", matrix=builtin_group("O").generators[0], M=4), ["O", "T", "O"]),
    (ORDER3, ["T", "Z4", "T"]),
]


@pytest.mark.parametrize("red, tags", KEPT_CASES, ids=["italian", "klein", "extra-O4", "extra-T3"])
def test_kept_tables_match_the_per_call_bodies(red, tags):
    # a fresh reduction per case; n and the group change at every step, so
    # a table kept past its n or its group shows up as a mismatch (the
    # klein and extra tables do not apply on the middle group)
    red = SymmetryReduction(red.kind, red.matrix, red.M)
    for n, tag in zip((12, 1200, 12), tags):
        trs = red.transforms(n)
        want = per_call_transforms(red, n)
        assert isinstance(trs, tuple) and len(trs) == len(want)
        for (shift, flip, A_), (s, f, B) in zip(trs, want):
            assert (shift, flip) == (s, f) and np.array_equal(A_, B)
        assert np.array_equal(red.free_nodes(n), per_call_free_nodes(red, n))
        for got, ref in zip(red.node_images(n), per_call_node_images(red, n)):
            assert np.array_equal(got, ref)
        group = builtin_group(tag)
        got, ref = red.orbit_weights(n, group), per_call_orbit_weights(red, n, group)
        assert (got is None) == (ref is None), (n, tag)
        if ref is not None:
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("red", [case[0] for case in KEPT_CASES], ids=["italian", "klein", "extra-O4", "extra-T3"])
def test_kept_tables_are_read_only(red):
    n = 24
    kept = [red.free_nodes(n), *red.node_images(n), *red.orbit_weights(n, builtin_group("O" if red.M == 4 else "T"))]
    kept += [A_ for _, _, A_ in red.transforms(n)]
    for a in kept:
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_reduction_keeps_its_own_copy_of_the_matrix():
    R = builtin_group("O").generators[0].copy()
    red = SymmetryReduction("extra", matrix=R, M=4)
    pristine = SymmetryReduction("extra", matrix=R.copy(), M=4)
    red.node_images(12)
    R[:] = np.eye(3)  # the caller reuses its array
    assert not red.matrix.flags.writeable
    assert np.array_equal(red.matrix, pristine.matrix)
    for n in (12, 60):  # the kept table, then a rebuild at a new n
        for got, ref in zip(red.node_images(n), per_call_node_images(pristine, n)):
            assert np.array_equal(got, ref)


def test_one_build_per_reduction_and_sample_count(caplog):
    # three objective evaluations at one (reduction, n), as a minimizer makes
    cone = cone_for("T", alpha=1.37, m0=1.3)
    z0 = ORDER3.restrict(random_symmetric_loop("T", ORDER3, 48, seed=2).points)
    red = SymmetryReduction("extra", matrix=ORDER3.matrix, M=3)
    caplog.set_level("DEBUG", logger="choreo.action")
    for k in range(3):
        loop = LoopPath(red.lift(z0 + 0.01 * k, 48), 2.0 * np.pi, red)
        action(loop, cone)
        gradient(loop, cone)
    lines = [r.getMessage() for r in caplog.records if r.name == "choreo.action"]
    assert lines == [
        "extra reduction (M=3): built the tables of n=48, 16 free nodes",
        f"extra reduction (M=3): orbit table of n=48, 16 free nodes, applies on {cone.group}",
    ]


def test_italian_is_the_extra_reduction_of_minus_identity():
    italian = SymmetryReduction("italian")
    assert (italian.M, italian.matrix.tolist()) == (2, (-np.eye(3)).tolist())
    assert italian.divisor() == 2
    extra = SymmetryReduction("extra", matrix=-np.eye(3), M=2)
    group = builtin_group("O")
    for n in (12, 60, 1200):
        for (s1, f1, A1), (s2, f2, A2) in zip(italian.transforms(n), extra.transforms(n), strict=True):
            assert (s1, f1) == (s2, f2) and np.array_equal(A1, A2)
        for got, want in zip(italian.node_images(n), extra.node_images(n)):
            assert np.array_equal(got, want)
        for got, want in zip(italian.orbit_weights(n, group), extra.orbit_weights(n, group)):
            assert np.array_equal(got, want)
    # the same matrix and M may be restated, no other
    assert SymmetryReduction("italian", -np.eye(3), 2).M == 2
    for matrix, M in ((None, 4), (A.REFLECT_X2, None), (-np.eye(3), 1), (np.eye(3), 2)):
        with pytest.raises(ValueError, match="-I with M = 2"):
            SymmetryReduction("italian", matrix, M)


def test_reductions_and_loops_compare_by_identity():
    # the generated == compared the matrix arrays and raised on them, and
    # hash raised TypeError
    R = builtin_group("O").generators[0]
    a, b = SymmetryReduction("extra", R, 4), SymmetryReduction("extra", R, 4)
    assert a != b and a == a
    assert len({a, b, hash(a), hash(b)}) == 4
    pts = np.random.default_rng(3).normal(size=(8, 3))
    p, q = LoopPath(pts, 1.0), LoopPath(pts, 1.0)
    assert p != q and p == p
    assert len({p, q}) == 2


@pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0], ids=["nan", "inf", "-inf", "zero"])
def test_loop_path_refuses_a_non_finite_or_nonpositive_period(period):
    # a NaN period used to give a NaN action
    with pytest.raises(ValueError, match="positive and finite"):
        LoopPath(np.ones((4, 3)), period)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "empty"])
def test_loop_path_refuses_non_finite_or_empty_points(bad):
    # a NaN node used to give a NaN action, and an empty loop a
    # ZeroDivisionError inside action
    pts = np.random.default_rng(5).normal(size=(8, 3))
    if bad == "empty":
        pts, match = pts[:0], "nonempty"
    else:
        pts[3, 1], match = float(bad), "finite"
    with pytest.raises(ValueError, match=match):
        LoopPath(pts, 1.0)


def test_loop_path_refuses_a_nan_node_of_a_symmetric_loop():
    # the violation test v > tol is False for NaN, so the reduction let it in
    red = SymmetryReduction("italian")
    pts = red.project(np.random.default_rng(6).normal(size=(8, 3)))
    pts[[1, 5]] = math.nan
    with pytest.raises(ValueError, match="finite"):
        LoopPath(pts, 1.0, red)


# ---------------------------------------------------------------------------
# the symmetry check of a LoopPath against the group-average check it replaced


def reference_violation(red, pts):
    """The check LoopPath made before it compared generators: the largest
    component of the loop's distance to its group average."""
    return float(np.max(np.abs(pts - red.project(pts))))


def parent_admits(red, pts):
    return reference_violation(red, pts) <= 1e-12 * max(1.0, float(np.max(np.abs(pts))))


def admits(red, pts):
    try:
        LoopPath(pts, 1.0, red)
    except ValueError as err:
        assert "violates its symmetry reduction" in str(err)
        return False
    return True


# every kind and M = 1..5: extra-T2 is T nu1's half-turn, extra-I5 I nu3's
# order-5 element (not a signed permutation), extra-1 the identity of order 1
CHECK_REDUCTIONS = {**NODE_LOOP_REDUCTIONS, "extra-1": SymmetryReduction("extra", matrix=np.eye(3), M=1)}


def symmetric_points(red, n, seed=1):
    tag = "KLEIN" if red.kind == "klein_reflections" else "O"
    return random_symmetric_loop(tag, red, n, seed).points.copy()


@pytest.mark.parametrize(
    "name, n, nodes, axis",
    [
        (name, 60, (node,), 1)
        for name in ("italian", "extra-T3", "extra-I5")
        for node in (7, 59, 0)  # an interior node, and two of the blocks the shift wraps between
    ]
    + [
        ("klein", n, tuple(k * n // 4 for k in ks), axis)
        for n in (4, 60)
        for ks, axis in (((0,), 2), ((2,), 2), ((1,), 1), ((3,), 1), ((0, 2), 2), ((1, 3), 1))
    ],
    ids=lambda v: str(v),
)
def test_loop_path_refuses_a_planted_symmetry_break(name, n, nodes, axis):
    """A break of 1e-9 in one component is refused.  The klein cases put it
    at the nodes a reflection fixes, in the component that reflection pins:
    x3 at nodes 0 and n/2, x2 at n/4 and 3n/4.  Planted at both nodes of a
    pair, only the fixing reflection's comparisons at those nodes see it."""
    red = CHECK_REDUCTIONS[name]
    pts = symmetric_points(red, n)
    assert admits(red, pts)
    pts[list(nodes), axis] += 1e-9
    assert not parent_admits(red, pts)
    with pytest.raises(ValueError, match="violates its symmetry reduction"):
        LoopPath(pts, 1.0, red)


def reference_residual(red, pts):
    """violation by the index formula: node (j + n/M) mod n against R @ node
    j, or node j against X3 @ node -j and X2 @ node n/2 - j, over all j."""
    n, j = len(pts), np.arange(len(pts))
    if red.kind == "klein_reflections":
        pairs = [(j, -j % n, A.REFLECT_X3), (j, (n // 2 - j) % n, A.REFLECT_X2)]
    else:
        pairs = [((j + n // red.M) % n, j, red.matrix)] if red.M > 1 else []
    return max([float(np.max(np.abs(pts[a] - pts[b] @ R_.T))) for a, b, R_ in pairs], default=0.0)


@pytest.mark.parametrize("name", list(CHECK_REDUCTIONS))
def test_violation_compares_every_node_with_its_generator_images(name):
    """A break at each node and axis in turn, wrap-around blocks and fixed
    nodes included, moves violation as the index formula says."""
    red = CHECK_REDUCTIONS[name]
    for n in (4, 12) if red.kind == "klein_reflections" else (red.M * 3,):
        base = symmetric_points(red, n)
        for node, axis in np.ndindex(n, 3):
            pts = base.copy()
            pts[node, axis] += 1e-3
            ulps = 8 * np.spacing(np.max(np.abs(pts)))
            assert abs(red.violation(pts) - reference_residual(red, pts)) <= ulps, (n, node, axis)


def test_order_one_reduction_constrains_nothing():
    # u(t + T) = u(t) holds for every loop: both checks admit any break
    red = CHECK_REDUCTIONS["extra-1"]
    pts = np.random.default_rng(4).normal(size=(60, 3))
    assert red.violation(pts) == 0.0 and red.violation_factor() == 0.0
    assert admits(red, pts) and parent_admits(red, pts)


def tilted_t3(eps):
    """T's order-3 generator times the rotation by eps about e3: R^3 misses
    the identity by 2 eps in the row-sum norm, and violation_factor() at
    M = 3 is 1.244, so the tolerance 1e-12 falls at eps = 4.0e-13."""
    c, s = math.cos(eps), math.sin(eps)
    return builtin_group("T").generators[1] @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("eps", [1e-10, 1e-12, 5e-13])
def test_extra_reduction_refuses_an_order_its_lifts_would_break(eps):
    """Past the threshold a unit loop along the worst row of R^3 - I breaks
    the LoopPath check in its wrap-around block, so the matrix is refused."""
    R = tilted_t3(eps)
    miss = np.abs(np.linalg.matrix_power(R, 3) - np.eye(3)).sum(axis=1)
    z = np.sign(np.linalg.matrix_power(R, 3) - np.eye(3))[np.argmax(miss)]
    residual = np.max(np.abs(R @ (np.linalg.matrix_power(R, 2) @ z) - z))
    assert CHECK_REDUCTIONS["extra-T3"].violation_factor() * residual > 1e-12 * max(1.0, np.max(np.abs(z)))
    with pytest.raises(ValueError, match="must have order M"):
        SymmetryReduction("extra", matrix=R, M=3)


@pytest.mark.parametrize("eps", [3e-13, 1e-13, 0.0])
def test_extra_reduction_admits_every_lift_of_an_order_it_accepts(eps):
    red = SymmetryReduction("extra", matrix=tilted_t3(eps), M=3)
    rng = np.random.default_rng(5)
    for scale in (1e-3, 1.0, 1e3):
        for n in (3, 60, 1500):
            z = scale * rng.uniform(-1.0, 1.0, size=(n // 3, 3))
            z[0] = scale * np.sign(np.linalg.matrix_power(red.matrix, 3) - np.eye(3))[0]
            assert LoopPath(red.lift(z, n), 1.0, red).n == n


@pytest.mark.parametrize("name, n", [("klein", 66), ("extra-T3", 10), ("extra-I5", 12), ("italian", 9)])
def test_loop_path_refuses_a_sample_count_the_divisor_does_not_divide(name, n):
    red = CHECK_REDUCTIONS[name]
    message = f"sample count {n} not divisible by {red.divisor()} as required by the {red.kind} reduction"
    with pytest.raises(ValueError, match=message):
        LoopPath(np.ones((n, 3)), 1.0, red)


@pytest.mark.parametrize("name", list(CHECK_REDUCTIONS))
def test_generator_residual_bounds_the_distance_to_the_group_average(name):
    """max|x - project(x)| <= violation_factor() * violation(x) on loops far
    from symmetric, with equality at M = 2; both sides round the points, so
    they may differ by a few units in the last place of the loop's scale."""
    red = CHECK_REDUCTIONS[name]
    c = red.violation_factor()
    rng = np.random.default_rng(len(name))
    for n in (4, 12, 60, 1500):
        if n % red.divisor() == 0:
            for size in (1e-6, 1.0):
                pts = symmetric_points(red, n) + size * rng.normal(size=(n, 3))
                ulps = 8 * np.spacing(np.max(np.abs(pts)))
                ref, bound = reference_violation(red, pts), c * red.violation(pts)
                assert ref <= bound + ulps, (n, size)
                if red.M == 2:
                    assert abs(ref - bound) <= ulps, (n, size)


@pytest.mark.parametrize("name", list(CHECK_REDUCTIONS))
def test_symmetry_check_admits_no_loop_the_group_average_check_refuses(name):
    """Breaks from 1e-15 to 1e-9 of the loop's scale, at one node or spread
    over all, on loops of 60 and 1,500 nodes.  Every loop the check admits
    is within 1e-12 of its group average; for italian the two checks admit
    the same loops."""
    red = CHECK_REDUCTIONS[name]
    rng = np.random.default_rng(len(name) + 7)
    outcomes = set()
    for n in (60, 1500):
        base = symmetric_points(red, n, seed=n)
        scale = max(1.0, float(np.max(np.abs(base))))
        for eps in np.logspace(-15, -9, 13):
            for spread in (False, True):
                pts = base.copy()
                if spread:
                    pts += eps * scale * rng.uniform(-1.0, 1.0, size=pts.shape)
                else:
                    pts[rng.integers(n), rng.integers(3)] += eps * scale * rng.choice([-1.0, 1.0])
                got, want = admits(red, pts), parent_admits(red, pts)
                assert want or not got, (n, eps, spread)
                if red.kind == "italian":
                    assert got == want, (n, eps, spread)
                outcomes.add(got)
    # the breaks reach past the bound except at M = 1, which constrains nothing
    assert outcomes == ({True} if red.M == 1 else {True, False})


@pytest.mark.parametrize("tag, name", [(e.tag, e.name) for e in LOOP_CATALOG], ids=lambda v: v)
def test_symmetry_check_admits_the_loops_the_library_builds(tag, name):
    """The descent workload's loops: lifted perturbations of the projected
    comparison loop, at one step and at the largest count up to 4,096."""
    cone = H.catalog_cone(tag, name, central_mass=1.3)
    R, M = cone.extra_symmetry
    red = SymmetryReduction("extra", matrix=R, M=M)
    step = math.lcm(cone.nu.steps, M)
    for n in (step, 4096 // step * step):
        projected = apply_symmetry_reduction(H.test_loop(cone.nu, cone.period, n), red)
        lifted = catalog_loop(cone, n)
        for pts in (projected.points, lifted.points):
            assert admits(red, pts) and parent_admits(red, pts)


def test_symmetry_check_admits_the_random_symmetric_loops():
    for tag, kind in (("Z4", "italian"), ("KLEIN", "klein_reflections")):
        for n in (4, 12, 240, 4096):
            red = SymmetryReduction(kind)
            loop = random_symmetric_loop(tag, red, n, n)  # LoopPath admits it
            assert parent_admits(red, loop.points)


def test_symmetric_loops_are_checked_without_the_group_average(monkeypatch):
    loops = {name: symmetric_points(red, 60) for name, red in CHECK_REDUCTIONS.items()}
    calls, project = [], SymmetryReduction.project

    def counted(self, points):
        calls.append(len(points))
        return project(self, points)

    monkeypatch.setattr(SymmetryReduction, "project", counted)
    for name, red in CHECK_REDUCTIONS.items():
        calls.clear()
        loop = LoopPath(loops[name], 1.0, red)
        assert calls == [], name
        apply_symmetry_reduction(loop, red)
        assert calls == [60], name


def test_check_count_takes_whole_numbers_only():
    for value in (4, 4.0, np.int64(4), np.float64(4.0)):
        assert type(A.check_count(value, "k", 4)) is int
        assert A.check_count(value, "k", 4) == 4
    for value in (4.9, 3.9999, math.nan, math.inf, -math.inf, 3, -4, None, "4"):
        with pytest.raises(ValueError, match="k must be a positive integer >= 4"):
            A.check_count(value, "k", 4)


def test_range_checks_refuse_a_non_number():
    """A non-number gets the range check's ValueError, not a TypeError from
    inside its comparison; a real number of any type is still compared."""
    with pytest.raises(ValueError, match="u0 must be positive and finite"):
        general_lower_bound(4.0, "1", 1.0, 6.0, 2)
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        klein_test_loop_bound(0.0, 6.0, "1")
    with pytest.raises(ValueError, match="central mass must be nonnegative and finite"):
        second_variation_vertical(None, 6.0)
    for value in ("1", None, b"1", [1.5], 1.5j):
        with pytest.raises(ValueError, match="alpha must lie in"):
            A.check_alpha(value)
        with pytest.raises(ValueError, match="x must be positive"):
            A.check_positive(value, "x")
        with pytest.raises(ValueError, match="x must be nonnegative"):
            A.check_nonnegative(value, "x")
    for value in (1.5, 1, np.float64(1.5), np.int64(1), Fraction(3, 2)):
        A.check_alpha(value)
        A.check_positive(value, "x")
        A.check_nonnegative(value, "x")


QUARTER_TURN = builtin_group("O").generators[0]


@pytest.mark.parametrize(
    "matrix, M",
    [(QUARTER_TURN, 4.5), (QUARTER_TURN, 0), (-np.eye(3), -2), (QUARTER_TURN, math.inf)],
    ids=["4.5", "0", "minus-2", "inf"],
)
def test_symmetry_reduction_refuses_a_non_integer_or_non_positive_order(matrix, M):
    # 4.5 was read as 4, and M = 0 or -2 passed the order check R^M = I
    with pytest.raises(ValueError, match="order M must be a positive integer"):
        SymmetryReduction("extra", matrix, M)


def test_klein_reduction_refuses_a_matrix_or_an_order():
    # a matrix and M = 3 were kept, and the table log read "M=3"
    for matrix, M in ((np.eye(3), 3), (None, 3), (np.eye(3), None)):
        with pytest.raises(ValueError, match="takes no matrix or M"):
            SymmetryReduction("klein_reflections", matrix=matrix, M=M)


def test_extra_reduction_refuses_a_matrix_that_is_not_3x3():
    # a 2x2 matrix failed in numpy with "operands could not be broadcast"
    for matrix in (np.eye(2), np.eye(4), np.ones(3), 1.0):
        with pytest.raises(ValueError, match="3x3 orthogonal"):
            SymmetryReduction("extra", matrix=matrix, M=1)


def test_extra_reduction_refuses_a_non_orthogonal_matrix_of_order_m():
    # R has order 3 but is not orthogonal: it was accepted, and its group
    # average left a residual not orthogonal to the invariant loops
    R = np.array([[0.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(np.linalg.matrix_power(R, 3), np.eye(3))
    with pytest.raises(ValueError, match="3x3 orthogonal"):
        SymmetryReduction("extra", matrix=R, M=3)
    # an orthogonal matrix of the same order passes, as before
    assert SymmetryReduction("extra", matrix=builtin_group("T").generators[1], M=3).M == 3


def test_symmetry_reduction_reads_an_integral_order_as_an_int():
    for M in (4.0, np.int64(4)):
        red = SymmetryReduction("extra", QUARTER_TURN, M)
        assert type(red.M) is int and red.divisor() == 4
        assert len(red.transforms(8)) == 4


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize(
    "tag,red_kind",
    [("Z4", "italian"), ("KLEIN", "klein_reflections"), ("O", "extra")],
)
def test_gradient_matches_finite_differences(tag, red_kind):
    if red_kind == "extra":
        red = SymmetryReduction(
            "extra", matrix=builtin_group("O").generators[0], M=4
        )
    else:
        red = SymmetryReduction(red_kind)
    cone = cone_for(tag, alpha=1.0 if tag != "O" else 1.0, m0=1.5)
    n = 48
    loop = random_symmetric_loop(tag, red, n, seed=12)
    z = red.restrict(loop.points)
    g = gradient(loop, cone)
    assert g.shape == z.shape

    def f(zz):
        pts = red.lift(zz, n)
        return action(LoopPath(points=pts, period=loop.period), cone).total

    h = 1e-6
    fd = np.zeros_like(z)
    for i in range(z.shape[0]):
        for c in range(3):
            zp = z.copy()
            zp[i, c] += h
            zm = z.copy()
            zm[i, c] -= h
            fd[i, c] = (f(zp) - f(zm)) / (2 * h)
    err = np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))
    assert err < 1e-6


def test_gradient_full_space_matches_fd():
    cone = cone_for("KLEIN", alpha=1.0, m0=0.3)
    n = 32
    t = np.arange(n) * (2 * np.pi / n)
    pts = np.stack([0.3 * np.cos(2 * t), 1.4 * np.cos(t), 1.4 * np.sin(t)], axis=1)
    loop = LoopPath(points=pts, period=2 * np.pi)
    g = gradient(loop, cone)
    h = 1e-6
    fd = np.zeros_like(pts)
    for i in range(n):
        for c in range(3):
            pp = pts.copy()
            pp[i, c] += h
            pm = pts.copy()
            pm[i, c] -= h
            fd[i, c] = (
                action(LoopPath(points=pp, period=2 * np.pi), cone).total
                - action(LoopPath(points=pm, period=2 * np.pi), cone).total
            ) / (2 * h)
    assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-6


@pytest.mark.parametrize("epsilon", [0.0, 0.1])
def test_rescaled_gradient_matches_fd(epsilon):
    cone = cone_for("O", alpha=1.3)
    n = 24
    t = np.arange(n) * (2 * np.pi / n)
    pts = np.stack([1.2 * np.cos(t), 0.9 * np.sin(t) + 0.3, 0.4 * np.cos(2 * t) + 0.2], axis=1)

    def f(p):
        return action(LoopPath(points=p, period=2 * np.pi), cone, epsilon=epsilon).total

    g = gradient(LoopPath(points=pts, period=2 * np.pi), cone, epsilon)
    h = 1e-6
    fd = np.zeros_like(pts)
    for i in range(n):
        for c in range(3):
            step = np.zeros_like(pts)
            step[i, c] = h
            fd[i, c] = (f(pts + step) - f(pts - step)) / (2 * h)
    assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-6


def test_gradient_small_at_square_solution():
    # the square solution is a critical point within the horizontal subspace
    T = 2 * np.pi
    loop = square_solution(0.0, T, 512)
    cone = cone_for("Z4", m0=0.0)
    g = gradient(LoopPath(loop.points, loop.period), cone)  # no reduction: full grad
    assert g.shape == (512, 3)
    horiz = g[:, :2]
    scale = action(loop, cone).total
    assert np.linalg.norm(horiz, ord=np.inf) <= 1e-4 * scale


def test_energy_constant_on_square_solution():
    loop = square_solution(0.4, 2 * np.pi, 1024)
    cone = cone_for("Z4", m0=0.4)
    e = discrete_energy(loop, cone)
    assert np.max(np.abs(e - e.mean())) <= 1e-10 * max(1.0, abs(e.mean()))


# ---------------------------------------------------------------------------
# second variation


def test_second_variation_value():
    T = 2 * np.pi
    val = second_variation_vertical(0.0, T)
    ratio = np.sqrt(2.0) / (1.0 / np.sqrt(2.0) + 0.25)
    assert val == pytest.approx(np.pi * (1.0 - ratio), rel=1e-12)
    assert val / np.pi == pytest.approx(-0.4775922, abs=1e-6)


def test_second_variation_negative_all_m0():
    for m0 in (0.0, 0.1, 1.0, 10.0, 1e4):
        assert second_variation_vertical(m0, 2 * np.pi) < 0


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_second_variation_refuses_a_non_finite_mass_or_period(value):
    # a NaN period used to give a NaN second variation
    with pytest.raises(ValueError, match="central mass must be nonnegative and finite"):
        second_variation_vertical(value, 2 * np.pi)
    with pytest.raises(ValueError, match="period must be positive and finite"):
        second_variation_vertical(0.5, value)


def test_second_variation_vanishes_at_large_m0():
    vals = [abs(second_variation_vertical(m0, 1.0)) for m0 in (1e2, 1e4, 1e6)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-5


def test_rayleigh_quotient_matches_closed_form():
    # discretized second difference of the action at the square solution
    # along w = cos(omega t) e3, against the closed form
    T = 2 * np.pi
    n = 2048
    m0 = 0.7
    cone = cone_for("Z4", m0=m0)
    base = square_solution(m0, T, n)
    t = base.times
    w = np.zeros((n, 3))
    w[:, 2] = np.cos(2 * np.pi * t / T)
    a0 = action(base, cone).total

    def at(s):
        return action(LoopPath(points=base.points + s * w, period=T), cone).total

    h = 1e-4
    second = (at(h) - 2 * a0 + at(-h)) / h**2
    # the closed form is the per-satellite quadratic form, so the full
    # second derivative of the 4-satellite action is 4 times it
    closed = second_variation_vertical(m0, T)
    assert second == pytest.approx(4.0 * closed, rel=5e-3)


# ---------------------------------------------------------------------------
# pair-form kernel against the per-element loop


def reference_potential(pts, group, alpha, m0, mutual, with_gradient=False):
    """The loop over the |G| - 1 difference matrices that the pair-form
    kernel replaced (reference); collision checks left out."""
    r = np.linalg.norm(pts, axis=1)
    central = m0 * r ** (-alpha)
    pair = np.zeros(len(pts))
    pair_grad = np.zeros_like(pts)
    eye = group.identity_index
    for i, R in enumerate(group.elements):
        if i == eye or not mutual:
            continue
        D = R - np.eye(3)
        w = pts @ D.T
        d = np.linalg.norm(w, axis=1)
        p = d ** (-alpha)
        pair += p
        pair_grad += (w * (p / (d * d))[:, None]) @ D
    grad = -alpha * ((central / (r * r))[:, None] * pts + 0.5 * mutual * pair_grad)
    return central, 0.5 * mutual * pair, grad if with_gradient else None


KERNEL_GROUPS = {"T": None, "O": None, "I": None, "Z4": None, "KLEIN": None, "Z2N": 3}


def wavy_points(n, seed):
    """A smooth closed curve with seeded low harmonics, away from the axes."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * (2 * np.pi / n)
    pts = np.stack([1.3 * np.cos(t), 1.1 * np.sin(t), 0.5 * np.cos(t + 0.4)], axis=1)
    for k in range(1, 4):
        pts += (0.08 / k) * np.cos(k * t)[:, None] * rng.normal(size=3)
        pts += (0.08 / k) * np.sin(k * t)[:, None] * rng.normal(size=3)
    return pts


def kernel_values(loop, cone):
    """Everything the kernel feeds, keyed by name."""
    group, alpha, m0 = cone.group, cone.alpha, cone.central_mass
    central, pair, grad = A._potential(loop.points, group, alpha, m0, 0.6, with_gradient=True)
    out = {"central": central, "pair": pair, "potential_gradient": grad}
    for eps in (None, 0.3):
        parts = action(loop, cone, epsilon=eps)
        for name in ("kinetic", "central", "mutual"):
            out[f"{name}@{eps}"] = getattr(parts, name)
        out[f"gradient_full@{eps}"] = gradient(LoopPath(loop.points, loop.period), cone, epsilon=eps)
        if loop.reduction is not None:
            out[f"gradient_reduced@{eps}"] = gradient(loop, cone, epsilon=eps)
    out["discrete_energy"] = discrete_energy(loop, cone)
    return out


@pytest.mark.parametrize("n", [12, 513, 1537])
@pytest.mark.parametrize("tag", list(KERNEL_GROUPS))
def test_pair_form_kernel_matches_element_loop(tag, n, monkeypatch):
    # n = 513 and 1537 leave a partial last block of nodes; 1537 = 29 * 53
    # admits no reduction, so the reduced gradient is checked at 12 and 513
    group = builtin_group(tag, n=KERNEL_GROUPS[tag])
    pts = wavy_points(n, [n, group.order])
    reduction = ORDER3 if n % 3 == 0 else None
    if reduction is not None:
        pts = reduction.project(pts)
    cone = SimpleNamespace(group=group, alpha=1.37, central_mass=1.7)
    # each side gets its own loop, so neither reads the kernel pass the
    # other one's loop keeps
    got = kernel_values(LoopPath(points=pts, period=2.1, reduction=reduction), cone)
    monkeypatch.setattr(A, "_potential", reference_potential)
    want = kernel_values(LoopPath(points=pts, period=2.1, reduction=reduction), cone)
    assert got.keys() == want.keys()
    assert ("gradient_reduced@None" in got) == (reduction is not None)
    for name in want:
        scale = np.max(np.abs(want[name]))
        assert np.max(np.abs(np.asarray(got[name]) - want[name])) <= 1e-13 * scale, name


@pytest.mark.parametrize("alpha", [1.0, 1.5])
@pytest.mark.parametrize("tag", ["Z4", "KLEIN", "T", "O", "I"])
def test_kernel_gradient_is_the_newton_force(tag, alpha):
    """The kernel's potential gradient at u is the force on the body at u,
    summed body by body with every other body held fixed: the central mass
    m0 at the origin and the |G| - 1 copies R u, each of weight mutual, where
    grad_u m |u - x|^-alpha = -alpha m (u - x) |u - x|^-(alpha + 2).  The
    pair potential moves every copy with u; pairing R with R^-1 makes the
    two agree (symmetric criticality)."""
    group = builtin_group(tag)
    m0, mutual = 0.7, 0.6
    pts = np.random.default_rng([17, group.order]).normal(size=(64, 3))
    _, _, grad = A._potential(pts, group, alpha, m0, mutual, with_gradient=True)
    others = [R for g, R in enumerate(group.elements) if g != group.identity_index]
    force = np.empty_like(pts)
    for j, u in enumerate(pts):
        bodies = [(m0, np.zeros(3))] + [(mutual, R @ u) for R in others]
        force[j] = sum(-alpha * m * (u - x) / np.linalg.norm(u - x) ** (alpha + 2) for m, x in bodies)
    error = np.linalg.norm(grad - force, axis=1) / np.linalg.norm(force, axis=1)
    assert error.max() <= 1e-13


def roll_kinetic(pts, period, factor):
    """_kinetic with its difference taken by np.roll."""
    h = period / len(pts)
    diff = np.roll(pts, -1, axis=0) - pts
    return factor * float(np.sum(diff * diff)) / (2.0 * h)


def roll_gradient(loop, cone, epsilon=None):
    """gradient of a loop without a reduction, stretch taken by np.roll."""
    pts, n = loop.points, loop.n
    h = loop.period / n
    m0, mutual, prefactor = A._coefficients(cone, epsilon)
    _, _, grad = A._potential(pts, cone.group, cone.alpha, m0, mutual, with_gradient=True)
    stretch = 2.0 * pts - np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    out = stretch / h
    out[np.arange(n)] += h * np.ones(n)[:, None] * grad
    return prefactor * out


def roll_energy(loop, cone):
    """discrete_energy with its centred difference taken by np.roll."""
    pts = loop.points
    h = loop.period / loop.n
    vel = (np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)) / (2.0 * h)
    kin = 0.5 * np.sum(vel * vel, axis=1)
    central, pair, _ = A._potential(pts, cone.group, cone.alpha, cone.central_mass, 1.0)
    return kin - (central + pair)


@pytest.mark.parametrize("n", [1, 2, 3, 12, 513])
def test_slice_differences_match_np_roll(n):
    cone = cone_for("O", alpha=1.37, m0=1.7)
    pts = np.random.default_rng([n, 11]).normal(size=(n, 3)) + [2.0, 0.3, 0.1]
    loop = LoopPath(pts, 2.1)
    assert A._kinetic(loop.points, loop.period, 3.0) == roll_kinetic(loop.points, loop.period, 3.0)
    assert action(loop, cone).kinetic == roll_kinetic(loop.points, loop.period, cone.group.order)
    for eps in (None, 0.3):
        assert np.array_equal(gradient(loop, cone, eps), roll_gradient(loop, cone, eps))
    assert np.array_equal(discrete_energy(loop, cone), roll_energy(loop, cone))


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_pair_term_near_a_pole_axis_matches_mpmath(tag):
    # u = a + delta e with e orthogonal to the pole axis a: rotations about
    # a bring copies within ~delta, and float rounding in (R - I)u costs a
    # relative eps |u| / delta at best; the reference sums the float group
    # elements exactly at 40 digits
    group = builtin_group(tag)
    eye = group.identity_index
    others = [R for i, R in enumerate(group.elements) if i != eye]
    alpha = 1.5
    for a in group.poles[0]:
        e = np.cross(a, [0.3, -0.5, 0.8])
        e /= np.linalg.norm(e)
        for delta in (1e-3, 1e-6):
            u = a + delta * e
            pair = A._potential(u[None], group, alpha, 1.0, 1.0)[1][0]
            with mpmath.workdps(40):
                uu = mpmath.matrix([mpmath.mpf(c) for c in u])
                total = mpmath.mpf(0)
                for R in others:
                    D = mpmath.matrix(R.tolist()) - mpmath.eye(3)
                    total += mpmath.norm(D * uu) ** mpmath.mpf(-alpha)
                ref = float(total / 2)
            bound = np.finfo(float).eps * np.linalg.norm(u) / delta
            assert abs(pair - ref) <= bound * ref, (pole, delta)


# ---------------------------------------------------------------------------
# the kernel's per-call block buffers against the per-block temporaries


def parent_potential(pts, group, alpha, m0, mutual, with_gradient=False):
    """_potential with fresh temporaries for every block of 512 nodes, the
    body that the per-call buffers replaced (reference)."""
    r = np.linalg.norm(pts, axis=1)
    bad = np.flatnonzero(r < A._COLLISION_FLOOR)
    if len(bad):
        raise CollisionError(bad[0], f"loop node {bad[0]} is at the origin")
    central = m0 * r ** (-alpha)
    pair = np.zeros(len(pts))
    pair_grad = np.zeros_like(pts) if with_gradient else None
    F, mult = group.pair_forms
    for s in range(0, len(pts) if mutual else 0, 512):
        y = (pts[s:s + 512] @ F).reshape(-1, 3, len(mult))
        d2 = np.einsum("brk,brk->bk", y, y)
        if d2.min() < A._COLLISION_FLOOR**2:
            raise CollisionError(s + np.flatnonzero(d2.min(axis=1) < A._COLLISION_FLOOR**2)[0])
        p = d2 ** (-0.5 * alpha)
        pair[s:s + len(y)] = p @ mult
        if with_gradient:
            w = (y * (mult * p / d2)[:, None, :]).reshape(len(y), -1)
            pair_grad[s:s + len(y)] = w @ F.T
    grad = None
    if with_gradient:
        grad = -alpha * ((central / (r * r))[:, None] * pts + 0.5 * mutual * pair_grad)
    return central, 0.5 * mutual * pair, grad


# 511 to 513 straddle one block; 1,100 ends in a partial third block, 1,537
# and 2,049 in a one-node block
@pytest.mark.parametrize("n", [1, 511, 512, 513, 1100, 1537, 2049])
@pytest.mark.parametrize("tag", list(KERNEL_GROUPS))
def test_block_buffers_match_the_parent_kernel(tag, n):
    group = builtin_group(tag, n=KERNEL_GROUPS[tag])
    pts = wavy_points(n, [n, group.order, 3])
    for mutual in (0.0, 0.6):
        for with_gradient in (False, True):
            got = A._potential(pts, group, 1.37, 1.7, mutual, with_gradient)
            want = parent_potential(pts, group, 1.37, 1.7, mutual, with_gradient)
            case = (mutual, with_gradient)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), case
            if with_gradient:
                assert np.array_equal(got[2], want[2]), case
            else:
                assert got[2] is None and want[2] is None, case


# the reduced loop's kernel sees its n // 3 = 513 or 1,100 free nodes, the
# full-node gradient and discrete_energy all n, so both paths cross a block
@pytest.mark.parametrize("n", [1539, 3300])
@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_objective_is_bitwise_the_parent_kernels(tag, n, monkeypatch):
    cone = SimpleNamespace(group=builtin_group(tag), alpha=1.37, central_mass=1.7)
    pts = ORDER3.project(wavy_points(n, [n, 7]))

    def evaluate():
        out = {}
        for eps in (None, 0.3):
            loop = LoopPath(pts, 2.1, ORDER3)
            out[f"action@{eps}"] = action(loop, cone, eps)
            out[f"gradient_reduced@{eps}"] = gradient(loop, cone, eps)
            out[f"gradient_full@{eps}"] = gradient(LoopPath(pts, 2.1), cone, eps)
        out["discrete_energy"] = discrete_energy(LoopPath(pts, 2.1, ORDER3), cone)
        return out

    got = evaluate()
    monkeypatch.setattr(A, "_potential", parent_potential)
    want = evaluate()
    assert got.keys() == want.keys()
    for name in want:
        if name.startswith("action"):
            assert got[name] == want[name], name
        else:
            assert same_bytes(got[name], want[name]), name


@pytest.mark.parametrize("node", [1100, 1536], ids=["third-block", "last-block"])
def test_collision_past_the_first_block_names_its_node(node):
    # 1,537 nodes make blocks 0-511, 512-1023, 1024-1535 and the lone 1536
    group = builtin_group("I")
    axis = group.poles[0][group.poles[1] == 5][0]
    pts = wavy_points(1537, 23)
    pts[node] = 1.2 * axis
    cone = SimpleNamespace(group=group, alpha=1.5, central_mass=0.8)
    loop = LoopPath(pts, 2 * np.pi)
    for evaluate in (action, gradient, discrete_energy):
        with pytest.raises(CollisionError, match="collision set") as err:
            evaluate(loop, cone)
        assert err.value.node == node
        assert loop._slot == [None]


# ---------------------------------------------------------------------------
# the orbit kernel against the full-node evaluation


def catalog_loop(cone, n):
    """A perturbed comparison loop of the cone, carrying its extra symmetry."""
    R, M = cone.extra_symmetry
    red = SymmetryReduction("extra", matrix=R, M=M)
    base = red.restrict(apply_symmetry_reduction(H.test_loop(cone.nu, cone.period, n), red).points)
    z = base + 0.01 * np.random.default_rng(n).normal(size=base.shape)
    return LoopPath(red.lift(z, n), cone.period, red)


def reduced_loops():
    """(id, cone, loop) for every catalog row at three sample counts, plus
    the italian and klein reductions on their own groups."""
    for e in LOOP_CATALOG:
        cone = H.catalog_cone(e.tag, e.name, central_mass=1.3)
        step = math.lcm(cone.nu.steps, cone.extra_symmetry[1])
        for n in (step, 9 * step, 4096 // step * step):
            yield f"{e.tag}-{e.name}-{n}", cone, catalog_loop(cone, n)
    for tag, kind in (("Z4", "italian"), ("KLEIN", "klein_reflections")):
        for n in (12, 240):
            red = SymmetryReduction(kind)
            yield f"{tag}-{kind}-{n}", cone_for(tag, alpha=1.37, m0=1.3), random_symmetric_loop(tag, red, n, n)


REDUCED = list(reduced_loops())


@pytest.mark.parametrize("cone, loop", [case[1:] for case in REDUCED], ids=[case[0] for case in REDUCED])
def test_orbit_kernel_matches_the_full_node_evaluation(cone, loop):
    red = loop.reduction
    assert red.orbit_weights(loop.n, cone.group) is not None
    full = LoopPath(loop.points, loop.period)
    for eps in (None, 0.3):
        got, want = action(loop, cone, eps), action(full, cone, eps)
        assert got.kinetic == want.kinetic
        for part in ("central", "mutual"):
            assert getattr(got, part) == pytest.approx(getattr(want, part), rel=1e-13, abs=0.0), part
        g = gradient(loop, cone, eps)
        g_full = red.reduce_gradient(gradient(full, cone, eps), loop.n)
        assert np.max(np.abs(g - g_full)) <= 1e-13 * np.max(np.abs(g_full))


@pytest.mark.parametrize(
    "tag, red, weights",
    [
        ("O", SymmetryReduction("italian"), [2.0] * 6),
        ("KLEIN", SymmetryReduction("klein_reflections"), [2.0, 4.0, 4.0, 2.0]),
        ("O", SymmetryReduction("extra", matrix=builtin_group("O").generators[0], M=4), [4.0] * 3),
    ],
    ids=["italian", "klein", "extra-O4"],
)
def test_orbit_weights_count_each_orbit(tag, red, weights):
    free, w = red.orbit_weights(12, builtin_group(tag))
    assert np.array_equal(free, red.free_nodes(12))
    assert w.tolist() == weights
    # the orbits partition the nodes
    assert w.sum() == 12


def test_orbit_weights_need_the_transforms_in_the_group():
    # T's order-3 rotation is in neither Z4 nor KLEIN up to sign, and
    # KLEIN's mirror X2 is not in Z4 up to sign
    assert ORDER3.orbit_weights(12, builtin_group("T")) is not None
    for tag in ("Z4", "KLEIN"):
        assert ORDER3.orbit_weights(12, builtin_group(tag)) is None
    assert SymmetryReduction("klein_reflections").orbit_weights(12, builtin_group("Z4")) is None
    assert SymmetryReduction("italian").orbit_weights(12, builtin_group("Z4")) is not None


@pytest.mark.parametrize(
    "tag, red, rows",
    [
        ("T", ORDER3, lambda n: n // 3),
        ("O", SymmetryReduction("extra", matrix=builtin_group("O").generators[0], M=4), lambda n: n // 4),
        ("Z4", SymmetryReduction("italian"), lambda n: n // 2),
        ("KLEIN", SymmetryReduction("klein_reflections"), lambda n: n // 4 + 1),
        ("Z4", ORDER3, lambda n: n),
    ],
    ids=["T-order3", "O-order4", "Z4-italian", "KLEIN-klein", "Z4-order3"],
)
def test_potential_sees_one_node_per_orbit(tag, red, rows, monkeypatch):
    n = 24
    cone = cone_for(tag, alpha=1.37, m0=1.3)
    loop = random_symmetric_loop(tag, red, n, seed=4)
    seen = []
    kernel = A._potential

    def counted(pts, *args, **kwargs):
        seen.append(len(pts))
        return kernel(pts, *args, **kwargs)

    monkeypatch.setattr(A, "_potential", counted)
    action(loop, cone)
    gradient(loop, cone)
    assert seen == [rows(n)]
    seen.clear()
    full = LoopPath(loop.points, loop.period)
    action(full, cone)
    gradient(full, cone)
    assert seen == [n]


def test_orbit_kernel_checks_collisions_at_the_free_nodes():
    # LoopPath admits a loop within 1e-12 * max(1, max|points|) of its group
    # average (violation_factor() * violation, c = 1/2 for italian, bounds
    # the distance), ten times the collision floor at unit scale, so a node
    # can lie within the floor of the origin while its free node lies
    # outside it.  The orbit kernel reads each orbit off its free
    # node: such a loop evaluates to a large finite value, which the
    # full-node kernel refuses; a free node within the floor raises.
    n = 16
    t = np.arange(n) * (2 * np.pi / n)
    circle = np.stack([np.cos(t), np.sin(t), 0.3 * np.sin(t)], axis=1)
    x = np.array([0.6, 0.8, 0.0])
    cone = cone_for("Z4", alpha=1.0, m0=1.0)
    red = SymmetryReduction("italian")  # free nodes 0..7; node 11 is -node 3

    pts = circle.copy()
    pts[3], pts[11] = 3e-13 * x, -3e-14 * x
    loop = LoopPath(pts, 2 * np.pi, red)
    with pytest.raises(CollisionError, match="origin") as err:
        action(LoopPath(pts, 2 * np.pi), cone)
    assert err.value.node == 11
    assert 1e12 < action(loop, cone).total < np.inf
    assert np.all(np.isfinite(gradient(loop, cone)))

    pts[3], pts[11] = 3e-14 * x, -3e-13 * x
    loop = LoopPath(pts, 2 * np.pi, red)
    for evaluate in (action, gradient):
        with pytest.raises(CollisionError, match="origin") as err:
            evaluate(loop, cone)
        assert err.value.node == 3


# ---------------------------------------------------------------------------
# one kernel pass per loop and cone


def reference_orbit_table(loop, group):
    """The loop's orbit table, or every node with weight 1 when it has none."""
    n = loop.n
    table = None if loop.reduction is None else loop.reduction.orbit_weights(n, group)
    return table if table is not None else (np.arange(n), np.ones(n))


def reference_action(loop, cone, epsilon=None):
    """action with a value-only kernel pass of its own (reference)."""
    pts = np.asarray(loop.points, float)
    h = loop.period / len(pts)
    m0, mutual, prefactor = A._coefficients(cone, epsilon)
    free, w = reference_orbit_table(loop, cone.group)
    central, pair, _ = A._potential(pts[free], cone.group, cone.alpha, m0, mutual)
    return ActionBreakdown(
        kinetic=A._kinetic(pts, loop.period, prefactor),
        central=prefactor * h * float(np.sum(w * central)),
        mutual=prefactor * h * float(np.sum(w * pair)),
    )


def reference_gradient(loop, cone, epsilon=None):
    """gradient with a kernel pass of its own (reference)."""
    pts = np.asarray(loop.points, float)
    h = loop.period / len(pts)
    m0, mutual, prefactor = A._coefficients(cone, epsilon)
    free, w = reference_orbit_table(loop, cone.group)
    _, _, grad = A._potential(pts[free], cone.group, cone.alpha, m0, mutual, with_gradient=True)
    stretch = 2.0 * pts
    stretch[:-1] -= pts[1:]
    stretch[-1] -= pts[0]
    stretch[1:] -= pts[:-1]
    stretch[0] -= pts[-1]
    out = stretch / h
    out[free] += h * w[:, None] * grad
    out = prefactor * out
    if loop.reduction is None:
        return out
    return loop.reduction.reduce_gradient(out, len(pts))


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("tag, name", [(e.tag, e.name) for e in LOOP_CATALOG], ids=lambda v: v)
def test_shared_kernel_pass_matches_the_separate_passes(tag, name):
    """action and gradient read one kernel pass in either order and agree
    bit for bit with the bodies that ran a pass each: 19 rows x m0 in
    {0, 2.5} x two sample counts x epsilon in {None, 0, 0.3}."""
    for m0 in (0.0, 2.5):
        cone = H.catalog_cone(tag, name, central_mass=m0)
        step = math.lcm(cone.nu.steps, cone.extra_symmetry[1])
        for n in (step, 4096 // step * step):
            base = catalog_loop(cone, n)
            for eps in (None, 0.0, 0.3):
                want_a = reference_action(base.with_points(base.points), cone, eps)
                want_g = reference_gradient(base.with_points(base.points), cone, eps)
                first = base.with_points(base.points)
                got_a, got_g = action(first, cone, eps), gradient(first, cone, eps)
                second = base.with_points(base.points)
                got_g2, got_a2 = gradient(second, cone, eps), action(second, cone, eps)
                case = (m0, n, eps)
                assert got_a == want_a and got_a2 == want_a, case
                assert same_bytes(got_g, want_g) and same_bytes(got_g2, want_g), case


def test_a_loop_keeps_one_kernel_pass_per_cone(monkeypatch):
    """The kept pass is keyed by the group's identity, alpha, m0 and the
    mutual weight, holds the last key only, belongs to one LoopPath, and is
    not kept when the kernel raises."""
    n = 24
    cone = cone_for("T", alpha=1.37, m0=1.3)
    loop = random_symmetric_loop("T", ORDER3, n, seed=4)
    calls = []
    kernel = A._potential

    def counted(pts, *args, **kwargs):
        calls.append(len(pts))
        return kernel(pts, *args, **kwargs)

    monkeypatch.setattr(A, "_potential", counted)

    def passes(evaluations):
        calls.clear()
        for evaluate, lp, c, eps in evaluations:
            evaluate(lp, c, eps)
        return len(calls)

    assert passes([(action, loop, cone, None), (gradient, loop, cone, None)]) == 1
    assert passes([(gradient, loop, cone, None), (action, loop, cone, None)]) == 0
    others = [
        SimpleNamespace(group=cone.group, alpha=1.5, central_mass=1.3),
        SimpleNamespace(group=cone.group, alpha=1.37, central_mass=2.0),
        SimpleNamespace(group=builtin_group("T"), alpha=1.37, central_mass=1.3),
    ]
    for other in others:
        assert passes([(action, loop, other, None), (gradient, loop, other, None)]) == 1
    for eps in (0.0, 0.3, None):
        assert passes([(gradient, loop, cone, eps), (action, loop, cone, eps)]) == 1
    # the rescaled functional at epsilon 1 runs the kernel of the physical
    # action of unit central mass; only the prefactor tells them apart
    unit = SimpleNamespace(group=cone.group, alpha=1.37, central_mass=1.0)
    assert passes([(action, loop, unit, 1.0), (gradient, loop, unit, None)]) == 1
    assert same_bytes(gradient(loop, unit), reference_gradient(loop, unit))
    assert action(loop, unit, 1.0) == reference_action(loop, unit, 1.0)
    twin = LoopPath(loop.points, loop.period, loop.reduction)
    assert passes([(action, twin, cone, None), (gradient, twin, cone, None)]) == 1
    assert passes([(action, loop.with_points(loop.points), cone, None)]) == 1

    pts = np.array(loop.points)
    pts[[0, 8, 16]] = 0.0  # free node 0 and its images at the origin
    hit = LoopPath(pts, loop.period, ORDER3)
    calls.clear()
    for evaluate in (action, gradient, action):
        with pytest.raises(CollisionError, match="origin"):
            evaluate(hit, cone)
    assert len(calls) == 3
