"""Group construction, poles, collision distances, tessellations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choreo.groups import (
    Pole,
    RotationGroup,
    builtin_group,
    collision_distance,
    fixed_point_sets,
    full_group_tessellation,
    generate_group,
    matrix_key,
    pole_census,
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


def test_generate_group_cap():
    # an irrational rotation never closes; the cap must trip
    R = rotation_matrix([0, 0, 1], 1.0)
    with pytest.raises(ValueError):
        generate_group([R], cap=50)


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


# ---------------------------------------------------------------------------
# poles


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


def test_collision_distance_z4_is_axis_distance():
    G = builtin_group("Z4")
    lines, planes, origin_only = fixed_point_sets(G)
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


def reference_locate(tess, x):
    """The chamber whose least side margin is largest, one chamber at a time
    (reference)."""
    unit = np.asarray(x, dtype=float) / np.linalg.norm(x)
    margins = [min(n @ unit for n in normals) for normals in tess._chamber_normals]
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
