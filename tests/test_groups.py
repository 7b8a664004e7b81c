"""Group construction, poles, collision distances, tessellations."""

import math
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choreo import groups
from choreo import homotopy as H
from choreo.groups import (
    Pole,
    RotationGroup,
    builtin_group,
    collision_distance,
    full_group_tessellation,
    generate_group,
    matrix_key,
    pole_orbits,
    poles,
    rotation_matrix,
    spherical_triangle_area,
)

ALL_TAGS = ["Z4", "KLEIN", "T", "O", "I"]


def group_of(tag, n=None):
    return builtin_group(tag, n=n)


# ---------------------------------------------------------------------------
# construction and closure


def test_builtin_orders():
    assert builtin_group("Z4").order == 4
    assert builtin_group("KLEIN").order == 4
    assert builtin_group("T").order == 12
    assert builtin_group("O").order == 24
    assert builtin_group("I").order == 60
    for n in (2, 3, 5, 7):
        assert builtin_group("Z2N", n=n).order == 2 * n


def test_z4_generator_is_rotoreflection():
    G = builtin_group("Z4")
    dets = sorted(round(float(np.linalg.det(R))) for R in G)
    assert dets == [-1, -1, 1, 1]
    # the square of the generator is the half turn about e3
    gen = G.generators[0]
    assert np.allclose(gen @ gen, np.diag([-1.0, -1.0, 1.0]))


def test_z2n_matches_z4_for_n2():
    a = builtin_group("Z4")
    b = builtin_group("Z2N", n=2)
    keys_a = {matrix_key(R) for R in a}
    keys_b = {matrix_key(R) for R in b}
    assert keys_a == keys_b


def test_closure_is_a_group():
    for tag in ALL_TAGS:
        G = builtin_group(tag)
        keys = {matrix_key(R) for R in G}
        assert matrix_key(np.eye(3)) in keys
        for A in G:
            assert matrix_key(A.T) in keys  # inverse
            for B in G:
                assert matrix_key(A @ B) in keys  # product


def test_element_order_is_deterministic():
    for tag in ALL_TAGS:
        a = builtin_group(tag)
        b = builtin_group(tag)
        for R, S in zip(a, b):
            assert np.array_equal(R, S)


def test_generate_group_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        generate_group([np.diag([1.0, 2.0, 1.0])])


def test_generate_group_cap(monkeypatch):
    # an irrational rotation never closes; the cap must trip
    monkeypatch.setattr(groups, "_CLOSURE_CAP", 50)
    R = rotation_matrix([0, 0, 1], 1.0)
    with pytest.raises(ValueError, match="cap of 50"):
        generate_group([R])


def test_polyhedral_groups_are_proper():
    for tag in ("T", "O", "I"):
        G = builtin_group(tag)
        assert all(np.linalg.det(R) > 0 for R in G)


# ---------------------------------------------------------------------------
# element index and element orders


@pytest.mark.parametrize(
    "tag,n", [("T", None), ("O", None), ("I", None), ("Z4", None), ("KLEIN", None), ("Z2N", 3)]
)
def test_element_orders_match_matrix_powers(tag, n):
    """M % order == 0 is the old test R^M = I by matrix_power, for M <= 120."""
    G = builtin_group(tag, n=n)
    assert len(G.element_orders) == G.order
    for R, order in zip(G.elements, G.element_orders):
        for M in range(1, 121):
            power_is_identity = np.allclose(np.linalg.matrix_power(R, M), np.eye(3), atol=1e-9)
            assert (M % order == 0) == power_is_identity


def test_element_orders_reject_a_malformed_element_list():
    G = RotationGroup(tag="bad", elements=[np.eye(3), rotation_matrix([0, 0, 1], 1.0)])
    with pytest.raises(ValueError, match="no power"):
        G.element_orders


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_index_locates_elements_and_rejects_others(tag):
    G = builtin_group(tag)
    for i, R in enumerate(G.elements):
        assert G.index(R) == i
        assert G.index(R + 1e-12) == i
    assert np.array_equal(G.elements[G.identity_index], np.eye(3))
    with pytest.raises(KeyError):
        G.index(-np.eye(3))
    with pytest.raises(ValueError, match="no identity"):
        RotationGroup(tag="bad", elements=[-np.eye(3)]).identity_index


@pytest.mark.parametrize(
    "tag,n", [("Z4", None), ("Z2N", 3), ("KLEIN", None), ("T", None), ("O", None), ("I", None)]
)
def test_products_index_every_pair_product(tag, n):
    G = builtin_group(tag, n=n)
    table = G.products
    assert type(table) is tuple and all(type(row) is tuple for row in table)
    assert table is G.products
    everyone = list(range(G.order))
    for g, A in enumerate(G.elements):
        assert [table[g][h] for h in everyone] == [G.index(A @ B) for B in G.elements]
        assert sorted(table[g]) == everyone
        assert sorted(row[g] for row in table) == everyone
    eye = G.identity_index
    assert list(table[eye]) == everyone
    assert [row[eye] for row in table] == everyone


# ---------------------------------------------------------------------------
# poles


def pole_census(group):
    """How many poles have each order."""
    return Counter(p.order for p in poles(group))


def test_pole_census_t():
    c = pole_census(builtin_group("T"))
    assert c == {3: 8, 2: 6}


def test_pole_census_o():
    c = pole_census(builtin_group("O"))
    assert c == {4: 6, 3: 8, 2: 12}


def test_pole_census_i():
    c = pole_census(builtin_group("I"))
    assert c == {5: 12, 3: 20, 2: 30}


def test_z4_poles():
    ps = poles(builtin_group("Z4"))
    assert len(ps) == 2
    for p in ps:
        assert p.order == 2
        assert abs(abs(p.point[2]) - 1.0) < 1e-12


def test_klein_poles():
    ps = poles(builtin_group("KLEIN"))
    assert len(ps) == 6
    assert all(p.order == 2 for p in ps)


def test_poles_are_unit_and_closed_under_group():
    for tag in ("T", "O", "I"):
        G = builtin_group(tag)
        ps = poles(G)
        pts = {matrix_key(p.point) for p in ps}
        for p in ps:
            assert abs(np.linalg.norm(p.point) - 1.0) < 1e-12
            for R in G:
                assert matrix_key(R @ p.point) in pts


def reference_pole_orders(elements, pole_list):
    """Stabilizer orders counted with a det and a norm per (pole, element)
    pair, as before the one-pass count (reference)."""
    return [
        sum(1 for R in elements if np.linalg.det(R) > 0 and np.linalg.norm(R @ p.point - p.point) < 1e-9)
        for p in pole_list
    ]


@pytest.mark.parametrize("tag,n", [("T", None), ("O", None), ("I", None), ("Z4", None), ("KLEIN", None), ("Z2N", 3)])
def test_pole_orders_match_the_per_pair_loop(tag, n):
    G = group_of(tag, n)
    ps = poles(G)
    assert ps
    assert [p.order for p in ps] == reference_pole_orders(G.elements, ps)
    assert all(type(p.order) is int for p in ps)
    plain = poles([np.array(R) for R in G.elements])
    assert [p.order for p in plain] == [p.order for p in ps]
    assert [p.point.tobytes() for p in plain] == [p.point.tobytes() for p in ps]


def test_poles_of_the_trivial_group_are_empty():
    assert poles([np.eye(3)]) == []


def test_pole_orbits_sizes():
    G = builtin_group("O")
    orbs = pole_orbits(G)
    sizes = sorted(len(o) for o in orbs)
    assert sizes == [6, 8, 12]


def test_stabilizer_is_cyclic():
    # the proper rotations fixing a pole of order o are exactly the powers
    # of the primitive rotation by 2*pi/o about it
    for tag in ("T", "O", "I"):
        G = builtin_group(tag)
        for p in poles(G):
            R1 = rotation_matrix(p.point, 2.0 * np.pi / p.order)
            powers = {matrix_key(np.linalg.matrix_power(R1, k)) for k in range(p.order)}
            stab = {
                matrix_key(R)
                for R in G
                if np.linalg.det(R) > 0 and np.linalg.norm(R @ p.point - p.point) < 1e-9
            }
            assert stab == powers


@pytest.mark.parametrize(
    "tag,n,forms",
    [("T", None, 7), ("O", None, 16), ("I", None, 37), ("Z4", None, 2), ("KLEIN", None, 3),
     ("Z2N", 3, 3)],
)
def test_pair_forms_cover_every_element_once(tag, n, forms):
    G = builtin_group(tag, n=n)
    F, mult = G.pair_forms
    assert F.shape == (3, 3 * forms) and mult.shape == (forms,)
    assert not F.flags.writeable and not mult.flags.writeable
    assert mult.sum() == G.order - 1
    # form j has the columns j, j + k, j + 2k: the rows of its R - I
    Q = [F[:, j::forms] @ F[:, j::forms].T for j in range(forms)]
    counts = np.zeros(forms)
    u = np.random.default_rng(3).normal(size=(5, 3))
    for i, R in enumerate(G.elements):
        if i == G.identity_index:
            continue
        D = R - np.eye(3)
        match = [j for j in range(forms) if np.allclose(Q[j], D.T @ D, atol=1e-12)]
        assert len(match) == 1
        counts[match[0]] += 1
        d2 = np.einsum("ni,ij,nj->n", u, Q[match[0]], u)
        assert np.allclose(d2, np.sum((u @ D.T) ** 2, axis=1), rtol=1e-13)
    assert np.array_equal(counts, mult)
    # R and R^-1 = R^T share a form, so no form holds more than two elements
    assert set(mult) <= {1.0, 2.0}


# ---------------------------------------------------------------------------
# collision set distances


def first_positive(v):
    """v with its first nonzero coordinate positive."""
    return -v if v[np.flatnonzero(np.abs(v) > 1e-9)[0]] < 0 else v


def reference_fixed_point_sets(group):
    """The fixed sets as collision_distance derived them on every call, one
    SVD per element, kept to check the per-group table against.  Each
    vector's first nonzero coordinate is positive."""
    lines = {}
    planes = {}
    origin_only = False
    for R in group:
        if np.allclose(R, np.eye(3), atol=1e-9):
            continue
        _, s, Vt = np.linalg.svd(R - np.eye(3))
        basis = Vt[s < 1e-9]
        if len(basis) == 0:
            origin_only = True
        elif len(basis) == 1:
            d = first_positive(basis[0] / np.linalg.norm(basis[0]))
            lines[matrix_key(d)] = d
        elif len(basis) == 2:
            nrm = np.cross(basis[0], basis[1])
            nrm = first_positive(nrm / np.linalg.norm(nrm))
            planes[matrix_key(nrm)] = nrm
        else:
            raise ValueError("non-identity element fixes all of R^3")
    line_list = [lines[k] for k in sorted(lines.keys())]
    plane_list = [planes[k] for k in sorted(planes.keys())]
    return line_list, plane_list, origin_only


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_fixed_sets_match_the_per_call_body(tag):
    # the lines are read off the poles now, which round differently from
    # the SVD basis: at most 2.3e-16 apart on I, equal on Z4 and KLEIN
    G = builtin_group(tag)
    lines, planes, origin_only = G.fixed_sets
    want_lines, want_planes, want_origin_only = reference_fixed_point_sets(G)
    assert origin_only == want_origin_only
    assert len(lines) == len(want_lines) and len(planes) == len(want_planes)
    for got, want in zip((*lines, *planes), (*want_lines, *want_planes)):
        assert np.max(np.abs(got - want)) <= 5e-16
        assert not got.flags.writeable
    assert G.fixed_sets is G.fixed_sets


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_fixed_lines_are_the_first_positive_poles(tag):
    G = builtin_group(tag)
    want = [p.point for p in poles(G) if np.array_equal(first_positive(p.point), p.point)]
    assert len(want) == len(poles(G)) // 2
    assert [d.tolist() for d in G.fixed_sets[0]] == [p.tolist() for p in want]


# Groups with improper elements: a mirror and its rotoreflections (C4h), and
# the full octahedral group, whose mirrors are normal to the coordinate axes
# and to the face diagonals, and whose -I and rotoreflections fix only 0.
IMPROPER = {
    "C4h": [np.diag([1.0, 1.0, -1.0]), rotation_matrix([0, 0, 1], np.pi / 2)],
    "Oh": [*builtin_group("O").generators, -np.eye(3)],
}


@pytest.mark.parametrize("name", sorted(IMPROPER))
def test_fixed_sets_of_improper_groups_match_the_per_call_body(name):
    G = RotationGroup(name, generate_group(IMPROPER[name]))
    lines, planes, origin_only = G.fixed_sets
    want_lines, want_planes, want_origin_only = reference_fixed_point_sets(G)
    assert origin_only and want_origin_only
    assert len(planes) == len(want_planes) == {"C4h": 1, "Oh": 9}[name]
    assert len(lines) == len(want_lines)
    for got, want in zip((*lines, *planes), (*want_lines, *want_planes)):
        assert np.max(np.abs(got - want)) <= 5e-16


@pytest.mark.parametrize("tag, axes", [("Z4", 1), ("KLEIN", 3), ("T", 7), ("O", 13), ("I", 31)])
def test_fixed_sets_list_each_axis_once(tag, axes):
    G = builtin_group(tag)
    lines = np.array(G.fixed_sets[0])
    assert len(lines) == axes
    assert len(poles(G)) == 2 * axes
    for p in poles(G):
        # every pole lies on exactly one fixed line, up to sign
        assert np.sum(np.abs(np.abs(lines @ p.point) - 1.0) < 1e-9) == 1, p


def distance_to_pole_axes(x, group):
    """Distance from each point to the nearest rotation axis, read off the
    poles rather than the fixed-set table."""
    axes = np.array([p.point for p in poles(group)])
    residual = x[:, None, :] - (x @ axes.T)[:, :, None] * axes
    return np.linalg.norm(residual, axis=-1).min(axis=1)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_collision_distance_takes_point_arrays(tag):
    G = builtin_group(tag)
    pts = 2.0 * np.random.default_rng([7, G.order]).normal(size=(480, 3))
    got = collision_distance(pts, G)
    assert got.shape == (480,)
    assert np.max(np.abs(got - distance_to_pole_axes(pts, G))) <= 1e-14
    assert np.array_equal(collision_distance(pts.reshape(4, 120, 3), G), got.reshape(4, 120))
    with pytest.raises(ValueError):
        collision_distance(pts.reshape(-1, 6), G)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_collision_distance_resolves_points_near_an_axis(tag):
    # sqrt(|x|^2 - (x.d)^2) cancels to ~1e-8 here; the residual x - (x.d)d
    # keeps the 1e-10 offset up to a relative rounding of about eps |x| / 1e-10
    G = builtin_group(tag)
    rng = np.random.default_rng([8, G.order])
    for d in G.fixed_sets[0]:
        e = np.cross(d, rng.normal(size=3))
        x = d + 1e-10 * e / np.linalg.norm(e)
        assert collision_distance(x, G) == pytest.approx(1e-10, rel=1e-5)


def test_collision_distance_beside_a_coordinate_axis_is_exact():
    # (x.d)d is exactly (1, 0, 0); the squared form returns 0.0 here
    G = builtin_group("KLEIN")
    assert collision_distance(np.array([1.0, 1e-10, 0.0]), G) == 1e-10


def test_collision_distance_z4_is_axis_distance():
    G = builtin_group("Z4")
    lines, planes, origin_only = G.fixed_sets
    assert len(lines) == 1 and not planes
    x = np.array([0.3, -0.4, 7.0])
    assert collision_distance(x, G) == pytest.approx(0.5, abs=1e-12)


def test_collision_distance_klein_example():
    G = builtin_group("KLEIN")
    x = np.ones(3) / np.sqrt(3.0)
    assert collision_distance(x, G) == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)


def test_collision_distance_vectorized():
    G = builtin_group("KLEIN")
    pts = np.random.default_rng(0).normal(size=(11, 3))
    d = collision_distance(pts, G)
    assert d.shape == (11,)
    for i in range(11):
        assert d[i] == pytest.approx(collision_distance(pts[i], G), abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(ALL_TAGS),
    st.tuples(
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
    ),
    st.integers(0, 59),
)
def test_collision_distance_is_group_invariant(tag, xyz, ridx):
    G = builtin_group(tag)
    R = G.elements[ridx % G.order]
    x = np.array(xyz)
    assert collision_distance(R @ x, G) == pytest.approx(
        collision_distance(x, G), abs=1e-10
    )


def test_collision_distance_zero_on_poles():
    for tag in ("T", "O", "I"):
        G = builtin_group(tag)
        for p in poles(G):
            assert collision_distance(1.7 * p.point, G) < 1e-9


# ---------------------------------------------------------------------------
# tessellation


@pytest.mark.parametrize("n", [2.5, 3.7, math.inf], ids=["2.5", "3.7", "inf"])
def test_z2n_refuses_a_non_integer_n(n):
    # 2.5 was read as 2, giving Z4
    with pytest.raises(ValueError, match="n must be a positive integer >= 2"):
        builtin_group("Z2N", n)


@pytest.mark.parametrize(
    "tag,n", [("T", 7), ("Z4", 4.9), ("KLEIN", -3), ("o", 2), ("I", 0)],
    ids=["T-7", "Z4-4.9", "KLEIN-minus-3", "o-2", "I-0"],
)
def test_builtin_group_refuses_n_for_a_tag_other_than_z2n(tag, n):
    # each returned the tag's own group and ignored n
    with pytest.raises(ValueError, match="n is read for Z2N only"):
        builtin_group(tag, n)


def test_z2n_reads_an_integral_n_as_an_int():
    assert [builtin_group("Z2N", n).order for n in (3.0, np.int64(3))] == [6, 6]


def test_tessellation_refuses_a_side_off_every_mirror_wall(monkeypatch):
    # One pole orbit of T turned by 0.02 rad about a generic axis keeps the
    # orbits and the chamber count, but a side reaching a turned pole no
    # longer lies on a plane whose reflection keeps the pole set.
    group = builtin_group("T")
    pole_list = poles(group)
    orbits = pole_orbits(group, pole_list)
    turn = rotation_matrix([0.3, -0.5, 0.8], 0.02)
    turned = list(pole_list)
    for i in orbits[0]:
        turned[i] = Pole(point=turn @ pole_list[i].point, order=pole_list[i].order)
    monkeypatch.setattr(groups, "poles", lambda g: turned)
    monkeypatch.setattr(groups, "pole_orbits", lambda g, pole_list=None: orbits)
    with pytest.raises(ValueError, match="not on a mirror wall"):
        full_group_tessellation(builtin_group("T"))


def test_tessellation_counts():
    for tag, n_tris, n_refl in (("T", 24, 6), ("O", 48, 9), ("I", 120, 15)):
        tess = full_group_tessellation(builtin_group(tag))
        assert len(tess.triangles) == n_tris
        assert len(tess.wall_normals) == n_refl


def test_separate_builds_compare_by_identity():
    """Array fields make field-wise == ambiguous; equality is identity."""
    first, second = (full_group_tessellation(builtin_group("T")) for _ in range(2))
    assert first == first and not first != first
    assert first != second and not first == second
    assert first.group != second.group and first.poles[0] != second.poles[0]
    assert len({first, second, first.group, second.group}) == 4


def test_tessellation_rejects_non_polyhedral():
    with pytest.raises(ValueError):
        full_group_tessellation(builtin_group("KLEIN"))


def test_tessellation_vertex_orders_o():
    tess = full_group_tessellation(builtin_group("O"))
    for a, b, c in tess.triangles:
        orders = (tess.poles[a].order, tess.poles[b].order, tess.poles[c].order)
        assert orders == (4, 3, 2)


def test_tessellation_right_angle_at_order2():
    # at the third vertex the two edges meet at pi/2
    for tag in ("T", "O", "I"):
        tess = full_group_tessellation(builtin_group(tag))
        for i in range(len(tess.triangles)):
            a, b, c = tess.triangle_points(i)
            u = a - (c @ a) * c
            v = b - (c @ b) * c
            cosang = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
            assert abs(cosang) < 1e-9


def test_tessellation_total_area():
    for tag in ("T", "O", "I"):
        tess = full_group_tessellation(builtin_group(tag))
        total = sum(
            spherical_triangle_area(*tess.triangle_points(i))
            for i in range(len(tess.triangles))
        )
        assert total == pytest.approx(4.0 * np.pi, abs=1e-9)


def test_tessellation_neighbors():
    tess = full_group_tessellation(builtin_group("O"))
    for i, ns in enumerate(tess.neighbors):
        assert len(ns) == 3
        for j in ns:
            shared = set(tess.triangles[i]) & set(tess.triangles[j])
            assert len(shared) == 2
            assert i in tess.neighbors[j]


def wall_reflections(tess):
    """The Householder matrix I - 2 n n^T of every wall normal n."""
    return [np.eye(3) - 2.0 * np.outer(n, n) for n in tess.wall_normals]


def test_reflections_preserve_pole_set():
    tess = full_group_tessellation(builtin_group("I"))
    pts = tess.points
    keys = {matrix_key(p) for p in pts}
    for S in wall_reflections(tess):
        assert float(np.linalg.det(S)) == pytest.approx(-1.0, abs=1e-12)
        for p in pts:
            assert matrix_key(S @ p) in keys


def reference_reflections(tess):
    """The wall reflections as built before each wall was checked once: every
    triangle edge is pole-checked and the last copy of each reflection kept."""
    pts = tess.points
    pole_keys = {matrix_key(p) for p in pts}
    refl = {}
    for ia, ib, ic in tess.triangles:
        for i, j in ((ia, ib), (ib, ic), (ia, ic)):
            nrm = np.cross(pts[i], pts[j])
            norm = np.linalg.norm(nrm)
            if norm < 1e-12:
                continue
            nrm = nrm / norm
            S = np.eye(3) - 2.0 * np.outer(nrm, nrm)
            if all(matrix_key(S @ p) in pole_keys for p in pts):
                refl[matrix_key(S)] = S
    return [refl[k] for k in sorted(refl.keys())]


@pytest.mark.parametrize("tag,walls", [("T", 6), ("O", 9), ("I", 15)])
def test_reflections_match_the_every_edge_loop(tag, walls):
    """The walls' reflections are the every-edge loop's, one per wall, and
    each normal is a unit vector with its first nonzero coordinate positive."""
    tess = full_group_tessellation(builtin_group(tag))
    assert tess.wall_normals.shape == (walls, 3)
    reference = reference_reflections(tess)
    built = sorted(wall_reflections(tess), key=matrix_key)
    assert [matrix_key(S) for S in built] == [matrix_key(S) for S in reference]
    for S, R in zip(built, reference):
        assert np.allclose(S, R, atol=1e-12)
    for n in tess.wall_normals:
        assert abs(np.linalg.norm(n) - 1.0) < 1e-15
        assert n[np.abs(n) > 1e-9][0] > 0.0


def test_wall_normals_are_stored_read_only():
    tess = full_group_tessellation(builtin_group("O"))
    assert "wall_normals" in vars(tess)
    assert not tess.wall_normals.flags.writeable
    with pytest.raises(ValueError):
        tess.wall_normals[0, 0] = 1.0


@lru_cache(maxsize=None)
def reference_chamber_normals(tess):
    """Unit normals (chamber, side, xyz) of the side planes, pointing inward,
    from cross products of the corners (reference)."""
    normals = np.empty((len(tess.triangles), 3, 3))
    for ti, (a, b, c) in enumerate(tess.triangles):
        pa, pb, pc = tess.points[a], tess.points[b], tess.points[c]
        for k, (u, v, w) in enumerate(((pa, pb, pc), (pb, pc, pa), (pc, pa, pb))):
            n = np.cross(u, v)
            n /= np.linalg.norm(n)
            if n @ w < 0.0:
                n = -n
            normals[ti, k] = n
    return normals


def reference_locate(tess, x):
    """The chamber whose least side margin is largest, one chamber at a time
    (reference)."""
    unit = np.asarray(x, dtype=float) / np.linalg.norm(x)
    margins = [min(n @ unit for n in normals) for normals in reference_chamber_normals(tess)]
    return margins.index(max(margins))


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_locate_takes_one_point_or_a_batch(tag):
    """An (N, 3) batch locates like its points one at a time, and a chamber's
    centroid lies in that chamber."""
    tess = full_group_tessellation(builtin_group(tag))
    centroids = [tess.triangle_points(t).mean(axis=0) for t in range(len(tess.triangles))]
    pts = np.concatenate([np.random.default_rng(7).normal(size=(200, 3)), centroids])
    singles = [tess.locate(p) for p in pts]
    assert all(type(t) is int for t in singles)
    assert singles == [reference_locate(tess, p) for p in pts]
    assert tess.locate(pts) == singles
    assert tess.locate(pts[:1]) == singles[:1]
    assert singles[200:] == list(range(len(tess.triangles)))


def reference_batch_locate(tess, x):
    """locate as it read the cross-product side normals, batched (reference)."""
    v = np.asarray(x, dtype=float)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    sides = np.einsum("tks,...s->...tk", reference_chamber_normals(tess), v)
    margins = np.minimum(np.minimum(sides[..., 0], sides[..., 1]), sides[..., 2])
    if (margins.max(axis=-1) < -1e-9).any():
        raise ValueError("point does not lie in any chamber")
    return margins.argmax(axis=-1).tolist()


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_locate_matches_the_cross_product_normals(tag):
    """Reading the stored wall normals through the side record, locate picks
    the chamber the cross-product side normals pick, on random points and on
    the chamber centroids."""
    tess = full_group_tessellation(builtin_group(tag))
    centroids = [tess.triangle_points(t).mean(axis=0) for t in range(len(tess.triangles))]
    pts = np.concatenate([np.random.default_rng(11).normal(size=(20_000, 3)), centroids])
    assert tess.locate(pts) == reference_batch_locate(tess, pts)


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_chamber_tables_match_the_cross_product_locate(tag, monkeypatch):
    """A polyhedron built afresh with locate reading the cross-product side
    normals has the same vertex-edge and successor-arc tables."""
    kept = H.build_archimedean(tag)
    tables = ("edge_chambers", "arc_runs")
    expected = [getattr(kept, name) for name in tables]
    monkeypatch.setattr(groups.Tessellation, "locate", reference_batch_locate)
    fresh = H._build_archimedean_cached.__wrapped__(tag)
    assert fresh is not kept
    assert [getattr(fresh, name) for name in tables] == expected


def reference_walls_and_neighbors(pts, triangles):
    """The wall normals and the neighbours, built in two passes over the
    triangle edges (reference)."""
    by_edge = {}
    for t, (ia, ib, ic) in enumerate(triangles):
        for e in ((ia, ib), (ib, ic), (ia, ic)):
            by_edge.setdefault(frozenset(e), []).append(t)
    neighbors = [[] for _ in triangles]
    for e, ts in by_edge.items():
        assert len(ts) == 2
        neighbors[ts[0]].append(ts[1])
        neighbors[ts[1]].append(ts[0])
    neighbors = [tuple(sorted(ns)) for ns in neighbors]

    pole_keys = {matrix_key(p) for p in pts}
    tried, walls = set(), {}
    for ia, ib, ic in triangles:
        for i, j in ((ia, ib), (ib, ic), (ia, ic)):
            nrm = np.cross(pts[i], pts[j])
            norm = np.linalg.norm(nrm)
            if norm < 1e-12:
                continue
            nrm = groups._first_positive(nrm)
            key = matrix_key(nrm)
            if key in tried:
                continue
            tried.add(key)
            if all(matrix_key(p - 2.0 * (p @ nrm) * nrm) in pole_keys for p in pts):
                walls[key] = nrm
    return np.array([walls[k] for k in sorted(walls)]), neighbors


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_one_side_pass_builds_the_walls_and_neighbors_of_two(tag):
    tess = full_group_tessellation(builtin_group(tag))
    walls, neighbors = reference_walls_and_neighbors(tess.points, tess.triangles)
    assert tess.wall_normals.tobytes() == walls.tobytes()
    assert tess.neighbors == neighbors


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_side_record_reads_each_side_once(tag):
    """Side k of chamber t lies opposite corner k.  The chamber across holds
    its two other corners and records the same wall with the opposite sign,
    and the signed stored normal is the inward cross-product normal."""
    tess = full_group_tessellation(builtin_group(tag))
    sides = tess.sides
    assert sides.shape == (len(tess.triangles), 3, 3)
    assert not sides.flags.writeable
    # reference side r joins corners r and r + 1, so it is opposite r + 2
    inward = reference_chamber_normals(tess)[:, [1, 2, 0]]
    for t, tri in enumerate(tess.triangles):
        for k, (wall, sign, u) in enumerate(sides[t].tolist()):
            assert sign in (1, -1)
            assert u != t and set(tri) - {tri[k]} < set(tess.triangles[u])
            assert [row for row in sides[u].tolist() if row[2] == t] == [[wall, -sign, t]]
            assert np.abs(sign * tess.wall_normals[wall] - inward[t, k]).max() <= 1e-15
        assert len(set(sides[t, :, 0].tolist())) == 3


NO_DIRECTION = [[0.0, 0.0, 0.0], [np.nan, 0.2, 0.3], [np.inf, 0.0, 0.0], [0.1, -np.inf, np.inf]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", NO_DIRECTION, ids=["zero", "nan", "inf", "infs"])
def test_locate_refuses_a_point_without_direction(bad):
    tess = full_group_tessellation(builtin_group("O"))
    with pytest.raises(ValueError, match="finite nonzero"):
        tess.locate(np.array(bad))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", NO_DIRECTION, ids=["zero", "nan", "inf", "infs"])
def test_locate_refuses_a_batch_with_a_point_without_direction(bad):
    tess = full_group_tessellation(builtin_group("O"))
    batch = np.array([[0.3, 0.2, 0.9], bad, [-0.5, 0.1, 0.4]])
    with pytest.raises(ValueError, match="finite nonzero"):
        tess.locate(batch)
    assert len(tess.locate(batch[[0, 2]])) == 2


def reference_pole_permutation(tess, R):
    """The per-element pole map the tessellation tables replaced."""
    index = {matrix_key(p): i for i, p in enumerate(tess.points)}
    return tuple(index[matrix_key(R @ p)] for p in tess.points)


def reference_triangle_permutation(tess, R):
    pperm = reference_pole_permutation(tess, R)
    index = {frozenset(t): ti for ti, t in enumerate(tess.triangles)}
    return tuple(index[frozenset(pperm[v] for v in t)] for t in tess.triangles)


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_permutation_tables_match_per_element_maps(tag):
    tess = full_group_tessellation(builtin_group(tag))
    G = tess.group
    assert len(tess.pole_permutations) == len(tess.triangle_permutations) == G.order
    for g, R in enumerate(G.elements):
        assert tess.pole_permutations[g] == reference_pole_permutation(tess, R)
        assert tess.triangle_permutations[g] == reference_triangle_permutation(tess, R)


def test_tessellation_points_are_built_once_and_read_only():
    tess = full_group_tessellation(builtin_group("O"))
    assert tess.points is tess.points
    assert not tess.points.flags.writeable
    assert np.array_equal(tess.points, [p.point for p in tess.poles])


def reference_widest_chords(tess, triangle):
    """Max of |u x p| over one chamber, pole by pole, as tilde_U0 evaluated
    it before the chord table (reference)."""
    corners = tess.triangle_points(triangle)
    row = []
    for pole in tess.poles:
        dots = corners @ pole.point
        if dots.min() > 0.0 or dots.max() < 0.0:
            row.append(float(np.linalg.norm(np.cross(corners, pole.point), axis=1).max()))
        else:
            row.append(1.0)
    return row


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_widest_chords_match_the_per_pole_loop(tag):
    tess = full_group_tessellation(builtin_group(tag))
    table = tess.widest_chords
    assert table is tess.widest_chords
    assert not table.flags.writeable
    assert table.shape == (len(tess.triangles), len(tess.poles))
    for t in range(len(tess.triangles)):
        assert table[t].tolist() == reference_widest_chords(tess, t)
    # every chamber sees some axis plane cross it and some axis at a corner
    assert (table == 1.0).any(axis=1).all() and (table < 1.0).any(axis=1).all()
