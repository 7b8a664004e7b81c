"""Tests for the level-estimate constants and collision-exclusion certificates."""

import json
import logging
import math
from collections import Counter
from functools import cached_property

import mpmath
import numpy as np
import pytest
from scipy import integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from choreo import estimates as E
from choreo import homotopy as H
from choreo.action import LoopPath, action
from choreo.estimates import (
    CollisionBound,
    certify_no_total_collisions,
    delta_min,
    general_lower_bound,
    hiphop_collision_bound,
    hiphop_exclusion,
    k_alpha_p,
    klein_collision_bound,
    klein_exclusion,
    klein_test_loop_bound,
    rotating_polygon_action,
    tilde_U0,
    zeta,
)
from choreo.groups import builtin_group
from choreo.homotopy import ConeSpec, build_archimedean, catalog_cone
from choreo.reference_tables import (
    ALPHA1_BOUNDS,
    ALPHA_GT1_BOUNDS,
    GROUP_CONSTANT_DEVIATIONS,
    GROUP_CONSTANTS,
    LOOP_CATALOG,
    catalog_entry,
)

TWO_PI = 2.0 * math.pi

# Targets of the adaptive reference quadratures below.
QUAD_ABS = 1e-10
QUAD_REL = 1e-12

# Frozen quadrature oracles, recomputed from scratch and pinned tightly.
# Agreement with the published five-decimal rounded values is asserted
# separately so that table misprints surface as explicit deviations.
ZETA_ORACLE = {
    "T": (2.197224577336219, 9.508383264061964, 9.508383264061964),
    "O": (2.0923483214534295, 20.322440360783954, 19.739947527681867),
    "I": (2.0344695483460256, 53.990308292403334, 52.57614488721692),
}
DELTA_ORACLE = {
    "T": (0.5, 0.5),
    "O": (0.35740674433659325, 0.5054494651244236),
    "I": (0.22391897979451345, 0.3623085200337234),
}
U_FLOOR_ORACLE = {
    ("T", 1.0): 6.3712632552374755,
    ("O", 1.0): 14.405666928910223,
    ("I", 1.0): 41.0390542680998,
    ("T", 1.7): 4.359952924959076,
    ("T", 1.85): 4.020761287685928,
    ("T", 1.86): 3.9991248268103723,
    ("O", 1.6): 11.033579872174421,
    ("O", 1.7): 10.564911527887574,
    ("O", 1.75): 10.339255022956252,
    ("O", 1.8): 10.119174988851057,
}

# Certificate cells whose published values deviate from a truthful
# recomputation by more than the 1e-3 relative test threshold.  Columns:
# 0 potential lhs, 1 potential rhs, 2 central lhs, 3 central rhs.
# The tetrahedral alpha = 1 rows carry a transposed digit in column 0
# (76.6704 and 115.0056 against the recomputed 76.0671 and 114.1006).
# The octahedral nu3 row divides by a wrong edge length in column 3.
# The tetrahedral alpha > 1 rows divide column 0 by 0.35740 where the
# recomputed chord distance is exactly 0.5.  The octahedral nu6 row was
# evaluated with the stated side counts (12, 2, 14), which no embedding
# realizes; the realized counts (12, 4, 16) shift all four columns.
PUBLISHED_DEVIATIONS = {
    ("T", "nu1"): (0,),
    ("T", "nu2"): (0,),
    ("T", "nu3"): (0,),
    ("O", "nu3"): (3,),
    ("T", "nu4"): (0,),
    ("T", "nu5"): (0,),
    ("T", "nu6"): (0,),
    ("O", "nu6"): (0, 1, 2, 3),
}

# Closed forms of the chord ratio 8/(4 - ell^2) for the edge length ell of
# the tetrahedron (ell = 1), the rhombicuboctahedron (ell^2 = 4/(5 + 2 sqrt 2))
# and the rhombicosidodecahedron (ell^2 = 4/(11 + 4 sqrt 5)).
CHORD_RATIO = {
    "T": 8.0 / 3.0,
    "O": 3.0 - math.sqrt(2.0) / 2.0,
    "I": (11.0 + 4.0 * math.sqrt(5.0)) / (5.0 + 2.0 * math.sqrt(5.0)),
}


def table_cone(tag, name, m0=0.0):
    return catalog_cone(tag, name, central_mass=m0)


# ---------------------------------------------------------------------------
# k_alpha_p


def test_k_alpha_p_order_two_is_one():
    assert k_alpha_p(1.0, 2) == 1.0


def test_k_alpha_p_order_four():
    assert abs(k_alpha_p(1.0, 4) - (1.0 + 2.0 * math.sqrt(2.0))) < 1e-12


def test_k_alpha_p_fractional_exponent():
    expected = 2.0 / math.sin(math.pi / 3.0) ** 1.5
    assert abs(k_alpha_p(1.5, 3) - expected) < 1e-12


def test_k_alpha_p_rejects_bad_arguments():
    with pytest.raises(ValueError):
        k_alpha_p(1.0, 1)
    with pytest.raises(ValueError):
        k_alpha_p(2.0, 3)
    with pytest.raises(ValueError):
        k_alpha_p(0.5, 3)


# ---------------------------------------------------------------------------
# zeta


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_zeta_matches_frozen_oracles(tag):
    for which in (0, 1, 2):
        assert abs(zeta(tag, 1.0, which) - ZETA_ORACLE[tag][which]) < 1e-9


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_zeta_matches_published_constants(tag):
    # published values carry five decimals, sometimes truncated
    assert abs(zeta(tag, 1.0, 0) - GROUP_CONSTANTS["zeta_1_0"][tag]) < 1e-5
    assert abs(zeta(tag, 1.0, 1) - GROUP_CONSTANTS["zeta_1_1"][tag]) < 1e-5
    assert abs(zeta(tag, 1.0, 2) - GROUP_CONSTANTS["zeta_1_2"][tag]) < 1e-5


def test_zeta_tetrahedron_edges_agree():
    # the full symmetry group exchanges the two base edges
    assert abs(zeta("T", 1.0, 1) - zeta("T", 1.0, 2)) < 1e-10


def test_zeta_central_term_independent_quadrature():
    # Simpson quadrature of 2/|x(s)| along both base edges, written out
    # here as an independent route to the same constant.
    for tag in ("T", "O", "I"):
        poly = build_archimedean(tag)
        q, q1, q2 = (np.array(v) for v in poly.base_points)
        s = np.linspace(0.0, 1.0, 20001)
        for other in (q1, q2):
            x = np.outer(1.0 - s, q) + np.outer(s, other)
            f = 2.0 / np.linalg.norm(x, axis=1)
            simpson = (s[1] - s[0]) / 3.0 * (
                f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()
            )
            assert abs(simpson - zeta(tag, 1.0, 0)) < 1e-9


@pytest.mark.parametrize("tag", ["T", "O", "I"])
@pytest.mark.parametrize("alpha", [1.1, 1.3, 1.5, 1.7, 1.9])
def test_zeta_ordering_on_alpha_grid(tag, alpha):
    for which in (1, 2):
        z_alpha = zeta(tag, alpha, which)
        z_one = zeta(tag, 1.0, which)
        d = delta_min(tag, which)
        assert z_alpha < z_one / d ** (alpha - 1.0) < z_one / d


@pytest.mark.parametrize("tag", ["T", "O", "I"])
@pytest.mark.parametrize("alpha", [1.0, 1.2, 1.5, 1.8, 1.9])
def test_zeta_central_chord_bounds(tag, alpha):
    ell = build_archimedean(tag).edge_length
    z0 = zeta(tag, alpha, 0)
    sharp = 2.0 / (1.0 - ell ** 2 / 4.0) ** (alpha / 2.0)
    ratio = 8.0 / (4.0 - ell ** 2)
    assert z0 < sharp <= ratio
    assert abs(ratio - CHORD_RATIO[tag]) < 1e-12
    printed_error = abs(ratio - GROUP_CONSTANTS["chord_ratio"][tag])
    if ("chord_ratio", tag) in GROUP_CONSTANT_DEVIATIONS:
        assert printed_error > 1e-5
    else:
        assert printed_error < 1e-5


def test_zeta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        zeta("T", 1.0, 3)
    with pytest.raises(ValueError):
        zeta("T", 2.0, 1)


@pytest.mark.parametrize("which", [1.5, math.nan, math.inf, -1, 3])
def test_zeta_and_delta_min_refuse_a_which_that_names_no_edge(which):
    with pytest.raises(ValueError, match="which must be"):
        zeta("O", 1.0, which)
    with pytest.raises(ValueError, match="which must be"):
        delta_min("O", which)


def test_zeta_and_delta_min_read_a_whole_float_which_as_its_edge():
    # a whole float used to reach the table lookup and raise TypeError
    assert zeta("O", 1.3, 1.0) == zeta("O", 1.3, 1) != zeta("O", 1.3, 2)
    assert delta_min("O", 1.0) == delta_min("O", 1) != delta_min("O", 2)
    assert zeta("I", 1.0, 0.0) == zeta("I", 1.0, 0)


# ---------------------------------------------------------------------------
# delta_min


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_delta_min_matches_frozen_oracles(tag):
    assert abs(delta_min(tag, 1) - DELTA_ORACLE[tag][0]) < 1e-12
    assert abs(delta_min(tag, 2) - DELTA_ORACLE[tag][1]) < 1e-12


def test_delta_min_tetrahedron_is_exactly_half():
    # The published table prints 0.35740 for both tetrahedral distances,
    # which coincides with the octahedral delta_1; the recomputed minimum
    # over the twelve rotations is exactly 1/2 for both edges.
    assert delta_min("T", 1) == 0.5
    assert delta_min("T", 2) == 0.5
    published = GROUP_CONSTANTS["delta_1"]["T"]
    assert abs(delta_min("T", 1) - published) > 0.14


def test_delta_min_octahedron_matches_published():
    assert abs(delta_min("O", 1) - GROUP_CONSTANTS["delta_1"]["O"]) < 1e-5
    assert abs(delta_min("O", 2) - GROUP_CONSTANTS["delta_2"]["O"]) < 1e-5


def test_delta_min_icosahedron_published_values_are_swapped():
    # the two recomputed distances match the published pair crosswise
    assert abs(delta_min("I", 1) - GROUP_CONSTANTS["delta_2"]["I"]) < 1e-5
    assert abs(delta_min("I", 2) - GROUP_CONSTANTS["delta_1"]["I"]) < 1e-5
    assert abs(delta_min("I", 1) - GROUP_CONSTANTS["delta_1"]["I"]) > 0.1


def reference_edge(tag, which):
    """Base edge endpoints and the matrices R - I of the non-identity elements."""
    poly = build_archimedean(tag)
    q, q1, q2 = (np.array(v) for v in poly.base_points)
    eye = poly.group.identity_index
    diffs = [R - np.eye(3) for i, R in enumerate(poly.group.elements) if i != eye]
    return q, q2 if which == 2 else q1, diffs


def elementwise_zeta(tag, alpha, which):
    """zeta's pair integral summed element by element, as before the
    pair-form kernel (reference)."""
    a, b, diffs = reference_edge(tag, which)

    def integrand(s):
        x = (1.0 - s) * a + s * b
        return float(np.sum(np.linalg.norm(np.array(diffs) @ x, axis=1) ** (-alpha)))

    return integrate.quad(integrand, 0.0, 1.0, epsabs=QUAD_ABS, epsrel=QUAD_REL, limit=200)[0]


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_zeta_and_delta_min_match_element_loop(tag):
    for which in (1, 2):
        for alpha in (1.0, 1.37, 1.5, 1.9):
            want = elementwise_zeta(tag, alpha, which)
            assert abs(zeta(tag, alpha, which) - want) <= 1e-13 * want
        a, b, diffs = reference_edge(tag, which)
        want = min(np.linalg.norm(D @ (a + b)) for D in diffs) / 2.0
        assert abs(delta_min(tag, which) - want) <= 1e-13 * want


def pair_sum(group, x, alpha):
    """sum_{R != I} |(R - I)x|^(-alpha) over the group's distinct pair forms,
    as zeta's integrand was evaluated point by point (reference)."""
    F, mult = group.pair_forms
    y = (x @ F).reshape(3, -1)
    return float(mult @ np.einsum("rk,rk->k", y, y) ** (-0.5 * alpha))


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_pair_integrand_matches_the_pair_sum(tag):
    # zeta's fixed Gauss-Legendre sum over the quadratic coefficients,
    # against adaptive quadrature of the pair sum at the point (1 - s) a + s b.
    poly = build_archimedean(tag)
    q, q1, q2 = poly.base_points
    for which in (1, 2):
        a, b = q, q2 if which == 2 else q1
        for alpha in (1.0, 1.37, 1.5, 1.9):
            want = integrate.quad(
                lambda s: pair_sum(poly.group, (1.0 - s) * a + s * b, alpha),
                0.0, 1.0, epsabs=QUAD_ABS, epsrel=QUAD_REL, limit=200,
            )[0]
            assert abs(zeta(tag, alpha, which) - want) <= 1e-13 * want


def mp_zeta(tag, alpha, which):
    """zeta at 30 digits: mpmath.quad over the element-by-element sum, with
    each |(R - I) x(s)|^2 expanded in s in 30-digit arithmetic (reference)."""
    a, b, diffs = reference_edge(tag, which)
    forms, weight = ([np.eye(3)], 2) if which == 0 else (diffs, 1)
    with mpmath.workdps(30):
        coeffs = []
        for M in forms:
            M = mpmath.matrix(M.tolist())
            u = M * mpmath.matrix(a.tolist())
            d = M * mpmath.matrix(b.tolist()) - u
            coeffs.append(((u.T * u)[0], 2 * (u.T * d)[0], (d.T * d)[0]))
        power = -mpmath.mpf(alpha) / 2

        def integrand(s):
            return weight * mpmath.fsum((c0 + s * (c1 + s * c2)) ** power for c0, c1, c2 in coeffs)

        return mpmath.quad(integrand, [0, 1])


@pytest.mark.parametrize("tag", ["T", "O", "I"])
@pytest.mark.parametrize("alpha", [1.0, 1.9])
def test_zeta_matches_30_digit_quadrature(tag, alpha):
    for which in (0, 1, 2):
        want = mp_zeta(tag, alpha, which)
        assert abs(zeta(tag, alpha, which) - want) <= 1e-14 * want, which


def test_zeta_refuses_rules_that_disagree(monkeypatch):
    # The node table follows a rule swapped at run time: a 4-node coarse
    # rule is far from the 48-node value on every edge, and restoring the
    # 24-node rule gives back, bitwise, the values from before the swap.
    edges = [(tag, which) for tag in ("T", "O", "I") for which in (0, 1, 2)]
    before = [zeta(tag, 1.0, which) for tag, which in edges]
    with monkeypatch.context() as m:
        m.setattr(E, "_COARSE_NODES", 4)
        for tag, which in edges:
            with pytest.raises(RuntimeError):
                zeta(tag, 1.0, which)
    assert [zeta(tag, 1.0, which) for tag, which in edges] == before


def test_node_table_is_bounded_and_read_only():
    info = E._edge_nodes.cache_info()
    assert info.maxsize is not None and info.maxsize <= 32
    for coarse in range(2, 2 + 2 * info.maxsize):
        E._edge_nodes("T", 0, E._FINE_NODES, coarse)
    info = E._edge_nodes.cache_info()
    assert info.currsize <= info.maxsize
    mult, squares, fine, coarse = E._edge_nodes("I", 1, E._FINE_NODES, E._COARSE_NODES)
    assert squares.shape == (len(mult), E._FINE_NODES + E._COARSE_NODES)
    assert (len(fine), len(coarse)) == (E._FINE_NODES, E._COARSE_NODES)
    assert not any(a.flags.writeable for a in (mult, squares, fine, coarse))


def reference_zeta(tag, alpha, which):
    """zeta with its quadratic coefficients rebuilt on every call, as before
    the polyhedron's edge_quadratics table (reference)."""
    poly = build_archimedean(tag)
    q, q1, q2 = poly.base_points
    a, b = np.array(q), np.array(q2 if which == 2 else q1)
    if which == 0:
        F, mult = np.eye(3), np.array([2.0])
    else:
        F, mult = poly.group.pair_forms
    A = (a @ F).reshape(3, -1)
    D = (b @ F).reshape(3, -1) - A
    c0, c1, c2 = (np.einsum("rk,rk->k", u, v)[:, None] for u, v in ((A, A), (A, D), (D, D)))
    c1 *= 2.0

    def rule(nodes, weights):
        return float(mult @ (c0 + nodes * (c1 + nodes * c2)) ** (-0.5 * alpha) @ weights)

    value = rule(*E._gauss_legendre(E._FINE_NODES))
    coarse = rule(*E._gauss_legendre(E._COARSE_NODES))
    if abs(value - coarse) > E._QUAD_TOL:
        raise RuntimeError("edge integral did not converge")
    return value


def reference_delta_min(tag, which):
    """delta_min enumerated over the pair forms on every call, as before the
    midpoint_chords table (reference)."""
    poly = build_archimedean(tag)
    q, q1, q2 = poly.base_points
    m = np.array(q) + np.array(q2 if which == 2 else q1)
    y = (m @ poly.group.pair_forms[0]).reshape(3, -1)
    return math.sqrt(np.min(np.einsum("rk,rk->k", y, y))) / 2.0


def reference_k_alpha_p(alpha, order):
    """k_alpha_p with its sines computed on every call (reference)."""
    j = np.arange(1, order)
    return float(np.sum(np.sin(j * np.pi / order) ** (-alpha)))


# The dense exponent grid of the bitwise node-table test: 1, 400 seeded
# draws from [1, 2) and a point next to 2.
DENSE_ALPHAS = (1.0, *np.random.default_rng(24).uniform(1.0, 2.0, 400).tolist(), 1.999999)


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_edge_tables_match_the_per_call_constants(tag):
    for which in (0, 1, 2):
        for alpha in DENSE_ALPHAS:
            assert zeta(tag, alpha, which) == reference_zeta(tag, alpha, which), (which, alpha)
    for which in (1, 2):
        assert delta_min(tag, which) == reference_delta_min(tag, which)


def test_k_alpha_p_matches_per_call_sines():
    for order in range(2, 13):
        for alpha in (1.0, 1.37, 1.999):
            assert k_alpha_p(alpha, order) == reference_k_alpha_p(alpha, order)


CERTIFICATE_POINTS = ((1.0, 0.0), (1.37, 0.8), (1.9, 3.5))  # (alpha, m0)


@pytest.mark.parametrize("entry", LOOP_CATALOG, ids=lambda e: f"{e.tag}-{e.name}")
def test_certificates_match_the_per_call_constants(entry, monkeypatch):
    cones = [
        catalog_cone(entry.tag, entry.name, alpha=alpha, central_mass=m0)
        for alpha, m0 in CERTIFICATE_POINTS
    ]
    got = [certify_no_total_collisions(cone) for cone in cones]
    E._unit_zetas.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(E, "zeta", reference_zeta)
            m.setattr(E, "delta_min", reference_delta_min)
            m.setattr(E, "k_alpha_p", reference_k_alpha_p)
            want = [certify_no_total_collisions(cone) for cone in cones]
    finally:
        E._unit_zetas.cache_clear()
    for cert, ref in zip(got, want):
        assert cert.row() == ref.row()
        assert (cert.direct_lhs, cert.direct_rhs) == (ref.direct_lhs, ref.direct_rhs)


def count_builds(monkeypatch, owner, name, builds):
    """Make the cached_property owner.name count its builds in builds, keyed
    by (name, id of the instance)."""
    original = vars(owner)[name]

    def build(obj):
        builds[name, id(obj)] += 1
        return original.func(obj)

    counted = cached_property(build)
    counted.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, counted)


def test_certificates_build_each_exponent_free_table_once(monkeypatch):
    builds = Counter()
    polys = [build_archimedean(tag) for tag in ("T", "O", "I")]
    for name in ("edge_quadratics", "midpoint_chords"):
        count_builds(monkeypatch, H.ArchimedeanPolyhedron, name, builds)
        for poly in polys:
            monkeypatch.delitem(vars(poly), name, raising=False)
    count_builds(monkeypatch, H.VertexSequence, "side_counts", builds)
    E._edge_nodes.cache_clear()  # a kept node table would skip the quadratics' rebuild
    E._turn_sines.cache_clear()
    bases = [catalog_cone(e.tag, e.name) for e in LOOP_CATALOG]
    rng = np.random.default_rng(14)
    for i in range(50):
        base = bases[i % len(bases)]
        cone = ConeSpec(
            group=base.group, nu=base.nu, alpha=float(rng.uniform(1.01, 1.95)),
            extra_symmetry=base.extra_symmetry, period=base.period,
            central_mass=float(rng.uniform(0.0, 5.0)),
        )
        certify_no_total_collisions(cone)
        E.test_loop_action_bound(cone)
    assert set(builds.values()) == {1}
    for name in ("edge_quadratics", "midpoint_chords"):
        assert {key for key in builds if key[0] == name} == {(name, id(p)) for p in polys}
    assert {key for key in builds if key[0] == "side_counts"} == {
        ("side_counts", id(base.nu)) for base in bases
    }
    orders = {order for poly in polys for order in poly.tessellation.pole_order}
    info = E._turn_sines.cache_info()
    assert info.misses == info.currsize == len(orders)
    info = E._edge_nodes.cache_info()  # one node table per (tag, which)
    assert info.misses == info.currsize == len(polys) * 3


def test_zeta_logs_its_rule_difference_once_per_computed_value(caplog):
    alpha = 1.2345678912345
    E._unit_zetas.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="choreo.estimates"):
        first = E._unit_zetas("O")
        assert E._unit_zetas("O") == first  # a table hit logs nothing
        zeta("I", alpha, 0)
    records = [r for r in caplog.records if r.name == "choreo.estimates"]
    assert len(records) == 4
    assert all(r.levelno == logging.DEBUG for r in records)
    for which in range(3):
        message = records[which].getMessage()
        assert message.startswith(f"zeta O which={which} alpha=1.0: value={first[which]!r}")
    assert records[3].getMessage().startswith(f"zeta I which=0 alpha={alpha!r}: value=")
    for record in records:
        difference = float(record.getMessage().rsplit("rule difference=", 1)[1])
        assert 0.0 <= difference <= E._QUAD_TOL


def test_delta_min_rejects_bad_which():
    with pytest.raises(ValueError):
        delta_min("T", 0)


# ---------------------------------------------------------------------------
# tilde_U0


@pytest.mark.parametrize("key", sorted(U_FLOOR_ORACLE))
def test_tilde_u0_matches_frozen_oracles(key):
    tag, alpha = key
    assert abs(tilde_U0(tag, alpha) - U_FLOOR_ORACLE[key]) < 1e-12


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_tilde_u0_same_from_every_triangle(tag):
    tess = build_archimedean(tag).tessellation
    values = [tilde_U0(tag, 1.3)] + [reference_tilde_u0(tag, 1.3, i) for i in range(len(tess.triangles))]
    assert max(values) - min(values) < 1e-9


@pytest.mark.parametrize("tag", ["T", "O", "I"])
@pytest.mark.parametrize("alpha", [1.0, 1.6, 1.86])
def test_tilde_u0_grid_cross_check(tag, alpha):
    # Numerical maximum of |u x p| over a barycentric grid of the closed
    # triangle, projected to the sphere.  The grid maximum never exceeds
    # the true maximum, so the grid value bounds the closed form from
    # above and must agree closely.
    tess = build_archimedean(tag).tessellation
    corners = tess.triangle_points(0)
    levels = 21
    pts = []
    for i in range(levels):
        for j in range(levels - i):
            w = np.array([i, j, levels - 1 - i - j], float) / (levels - 1)
            u = w @ corners
            pts.append(u / np.linalg.norm(u))
    pts = np.array(pts)
    assert len(pts) >= 200
    total = 0.0
    for point, order in zip(tess.points, tess.pole_order):
        largest = np.linalg.norm(np.cross(pts, point), axis=1).max()
        total += k_alpha_p(alpha, order) / largest ** alpha
    grid_value = total / 2.0 ** (alpha + 1.0)
    closed = tilde_U0(tag, alpha)
    assert grid_value >= closed - 1e-12
    assert grid_value <= closed * (1.0 + 1e-6)


def reference_tilde_u0(tag, alpha, triangle):
    """tilde_U0 with a cross product, a norm and a k_alpha_p per pole, as
    before the chord table (reference)."""
    tess = build_archimedean(tag).tessellation
    corners = tess.triangle_points(triangle)
    total = 0.0
    for point, order in zip(tess.points, tess.pole_order):
        dots = corners @ point
        if dots.min() > 0.0 or dots.max() < 0.0:
            largest = float(np.linalg.norm(np.cross(corners, point), axis=1).max())
        else:
            largest = 1.0
        total += k_alpha_p(alpha, order) / largest ** alpha
    return total / 2.0 ** (alpha + 1.0)


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_tilde_u0_matches_the_per_pole_loop(tag):
    tess = build_archimedean(tag).tessellation
    for alpha in (1.0, 1.37, 1.5, 1.9):
        value = tilde_U0(tag, alpha)
        assert value == reference_tilde_u0(tag, alpha, 0)
        values = [value] + [reference_tilde_u0(tag, alpha, t) for t in range(len(tess.triangles))]
        assert max(values) - min(values) < 1e-9


def test_tilde_u0_consistent_with_published_columns():
    # invert the published alpha = 1 bound columns (2 pi M U / ell)
    ell_t = build_archimedean("T").edge_length
    ell_o = build_archimedean("O").edge_length
    assert abs(tilde_U0("T", 1.0) - 80.0636 * ell_t / (4.0 * math.pi)) < 1e-3
    assert abs(tilde_U0("O", 1.0) - 253.2198 * ell_o / (4.0 * math.pi)) < 1e-2


# ---------------------------------------------------------------------------
# general lower bound and the vertical-class closed forms


def test_general_lower_bound_alpha_one_reduction():
    for mass, u0, period, m in [(4.0, 1.5, TWO_PI, 2), (7.0, 0.3, 5.0, 3)]:
        bound = general_lower_bound(mass, u0, 1.0, period, m)
        segment = 1.5 * mass * (math.pi * u0) ** (2.0 / 3.0) * (period / m) ** (1.0 / 3.0)
        assert abs(bound.value - m * segment) < 1e-12 * bound.value
        assert bound.collisions == m
        assert bound.formula == "plato-general"


def test_general_lower_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        general_lower_bound(4.0, 0.0, 1.0, TWO_PI, 2)
    with pytest.raises(ValueError):
        general_lower_bound(0.0, 1.0, 1.0, TWO_PI, 2)
    with pytest.raises(ValueError):
        general_lower_bound(4.0, 1.0, 2.0, TWO_PI, 2)
    with pytest.raises(ValueError):
        general_lower_bound(4.0, 1.0, 1.0, TWO_PI, 0)


@pytest.mark.parametrize("period", [math.nan, math.inf], ids=["nan", "inf"])
def test_general_lower_bound_refuses_a_non_finite_period(period):
    # a NaN period used to give a NaN bound
    with pytest.raises(ValueError, match="positive and finite"):
        general_lower_bound(4.0, 1.0, 1.0, period, 2)


# Entry points that take a mass, a floor or a scale, each fed a non-finite
# value through one argument.  Each used to return a NaN or an infinite
# value, and hiphop_exclusion a passing comparison with a NaN bound.
NON_FINITE_ENTRY_POINTS = {
    "general_lower_bound-total_mass": lambda x: general_lower_bound(x, 1.0, 1.0, TWO_PI, 2),
    "general_lower_bound-u0": lambda x: general_lower_bound(4.0, x, 1.0, TWO_PI, 2),
    "hiphop_collision_bound": lambda x: hiphop_collision_bound(x, TWO_PI),
    "klein_collision_bound": lambda x: klein_collision_bound(x, TWO_PI),
    "hiphop_exclusion": lambda x: hiphop_exclusion(x, TWO_PI),
    "klein_exclusion": lambda x: klein_exclusion(x, TWO_PI),
    "rotating_polygon_action": lambda x: rotating_polygon_action(x, TWO_PI),
    "klein_test_loop_bound-m0": lambda x: klein_test_loop_bound(x, TWO_PI),
    "klein_test_loop_bound-rho": lambda x: klein_test_loop_bound(1.0, TWO_PI, rho=x),
    "at_scale": lambda x: E.test_loop_action_exact(catalog_cone("T", "nu1")).at_scale(x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry_point", sorted(NON_FINITE_ENTRY_POINTS))
def test_entry_points_refuse_a_non_finite_scalar(entry_point, value):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_ENTRY_POINTS[entry_point](value)


# Entry points that take a count, each fed a count the first call used to
# truncate silently (4.9 satellites read as 4) and one int() overflowed on.
NON_INTEGER_COUNTS = {
    "rotating_polygon_action": lambda x: rotating_polygon_action(0.0, TWO_PI, satellites=x),
    "hiphop_collision_bound": lambda x: hiphop_collision_bound(0.0, TWO_PI, satellites=x),
    "hiphop_exclusion": lambda x: hiphop_exclusion(0.5, TWO_PI, satellites=x),
    "general_lower_bound": lambda x: general_lower_bound(4.0, 1.0, 1.0, TWO_PI, x),
    "k_alpha_p": lambda x: k_alpha_p(1.0, x),
}


@pytest.mark.parametrize("value", [4.9, 6.5, math.inf], ids=["4.9", "6.5", "inf"])
@pytest.mark.parametrize("entry_point", sorted(NON_INTEGER_COUNTS))
def test_entry_points_refuse_a_non_integer_count(entry_point, value):
    with pytest.raises(ValueError, match="integer"):
        NON_INTEGER_COUNTS[entry_point](value)


@pytest.mark.parametrize("entry_point", sorted(NON_INTEGER_COUNTS))
def test_entry_points_read_an_integral_count_as_an_int(entry_point):
    results = [NON_INTEGER_COUNTS[entry_point](x) for x in (6, 6.0, np.int64(6))]
    assert results[1] == results[0] and results[2] == results[0]
    if entry_point == "hiphop_exclusion":
        assert [r.label for r in results] == ["rotating 6-gon vs collision bound"] * 3


@pytest.mark.parametrize("m0", [0.0, 1.0, 7.5, 120.0])
def test_hiphop_bound_closed_form(m0):
    bound = hiphop_collision_bound(m0, TWO_PI)
    expected = (
        3.0 * 2.0 ** (1.0 / 3.0) * TWO_PI ** (2.0 / 3.0)
        * (3.0 + 4.0 * m0) ** (2.0 / 3.0) * TWO_PI ** (1.0 / 3.0)
    )
    assert abs(bound.value - expected) < 1e-10 * expected
    assert bound.formula == "hiphop"
    assert bound.collisions == 2


@pytest.mark.parametrize("m0", [0.0, 1.0, 7.5, 120.0])
def test_klein_bound_closed_form(m0):
    bound = klein_collision_bound(m0, TWO_PI)
    expected = (
        6.0 * math.pi ** (2.0 / 3.0)
        * (3.0 * math.sqrt(1.5) + 4.0 * m0) ** (2.0 / 3.0) * TWO_PI ** (1.0 / 3.0)
    )
    assert abs(bound.value - expected) < 1e-10 * expected
    assert bound.formula == "klein"


@given(
    m_small=st.floats(min_value=0.0, max_value=50.0),
    gap=st.floats(min_value=1e-3, max_value=50.0),
)
@settings(max_examples=40, deadline=None)
def test_collision_bounds_increase_with_mass(m_small, gap):
    m_large = m_small + gap
    assert hiphop_collision_bound(m_small, TWO_PI).value < hiphop_collision_bound(m_large, TWO_PI).value
    assert klein_collision_bound(m_small, TWO_PI).value < klein_collision_bound(m_large, TWO_PI).value


@given(
    collisions=st.integers(min_value=1, max_value=6),
    alpha=st.floats(min_value=1.0, max_value=1.95),
)
@settings(max_examples=40, deadline=None)
def test_general_bound_increases_with_collision_count(collisions, alpha):
    lower = general_lower_bound(12.0, 6.4, alpha, TWO_PI, collisions)
    upper = general_lower_bound(12.0, 6.4, alpha, TWO_PI, collisions + 1)
    assert lower.value < upper.value


def test_platonic_direct_bound_increases_with_mass():
    # the direct certificate comparison uses the floor lifted to the
    # normalized potential; the resulting bound grows with the mass
    n = 12
    floor = tilde_U0("T", 1.0)
    values = []
    for m0 in (0.0, 1.0, 10.0, 200.0):
        u0 = (n / (n + m0)) ** 1.5 * (floor + 2.0 * m0)
        values.append(general_lower_bound(n + m0, u0, 1.0, TWO_PI, 2).value)
    assert all(a < b for a, b in zip(values, values[1:]))


def square_action(m0, period):
    """Action of the uniformly rotating square with four unit satellites, the
    square's own closed form (reference)."""
    return (
        3.0
        * 2.0 ** (-1.0 / 3.0)
        * (1.0 + 2.0 * math.sqrt(2.0) + 4.0 * m0) ** (2.0 / 3.0)
        * (TWO_PI) ** (2.0 / 3.0)
        * period ** (1.0 / 3.0)
    )


def test_hiphop_square_action_pinned_value():
    assert abs(rotating_polygon_action(0.0, TWO_PI, 4) - 36.6132303182604) < 1e-9


def test_hiphop_square_action_period_scaling():
    # action scales with the cube root of the period
    assert abs(
        rotating_polygon_action(2.0, 8.0 * TWO_PI, 4) - 2.0 * rotating_polygon_action(2.0, TWO_PI, 4)
    ) < 1e-10


@pytest.mark.parametrize("m0", [0.0, 0.5, 3.0, 100.0])
def test_square_action_matches_polygon_quadrature(m0):
    closed = square_action(m0, TWO_PI)
    quad = rotating_polygon_action(m0, TWO_PI, 4)
    assert abs(closed - quad) < 1e-10 * closed


@pytest.mark.parametrize("satellites", [6, 10])
@pytest.mark.parametrize("m0", [0.0, 2.0])
def test_polygon_action_closed_form(satellites, m0):
    # On a horizontal circle of radius r the potential is mu/r per unit
    # time with mu = m0 + k/4, k the reciprocal-sine sum; stationarity in
    # r gives action (3/2) s (2 pi)^(2/3) T^(1/3) mu^(2/3).
    mu = m0 + k_alpha_p(1.0, satellites) / 4.0
    expected = 1.5 * satellites * TWO_PI ** (2.0 / 3.0) * TWO_PI ** (1.0 / 3.0) * mu ** (2.0 / 3.0)
    value = rotating_polygon_action(m0, TWO_PI, satellites)
    assert abs(value - expected) < 1e-10 * expected


def test_hiphop_comparison_beats_bound_for_all_masses():
    for m0 in (0.0, 0.1, 1.0, 25.0, 1e6):
        assert rotating_polygon_action(m0, TWO_PI, 4) < hiphop_collision_bound(m0, TWO_PI).value


def test_hiphop_bound_and_square_cross_at_negative_mass():
    crossing = (2.0 * math.sqrt(2.0) - 5.0) / 4.0
    assert crossing < 0.0
    f = 3.0 * 2.0 ** (1.0 / 3.0) * (3.0 + 4.0 * crossing) ** (2.0 / 3.0)
    g = 3.0 * 2.0 ** (-1.0 / 3.0) * (1.0 + 2.0 * math.sqrt(2.0) + 4.0 * crossing) ** (2.0 / 3.0)
    assert abs(f - g) < 1e-12


def test_klein_test_loop_bound_example():
    expected = 6.0 * math.pi ** (2.0 / 3.0) * 3.0 ** (2.0 / 3.0)
    assert abs(klein_test_loop_bound(0.0, 1.0) - expected) < 1e-12


def test_klein_test_loop_radius_is_stationary():
    for m0 in (0.0, 2.0, 9.0):
        strength = 3.0 + 2.0 * math.sqrt(2.0) * m0
        rho = (strength * TWO_PI ** 2 / (64.0 * math.pi ** 2)) ** (1.0 / 3.0)
        derivative = 64.0 * math.pi ** 2 * rho / TWO_PI - strength * TWO_PI / rho ** 2
        assert abs(derivative) < 1e-9
        off = klein_test_loop_bound(m0, TWO_PI, rho=1.7 * rho)
        assert off > klein_test_loop_bound(m0, TWO_PI)


def test_klein_comparison_beats_bound_for_all_masses():
    for m0 in (0.0, 0.1, 1.0, 25.0, 1e6):
        assert klein_test_loop_bound(m0, TWO_PI) < klein_collision_bound(m0, TWO_PI).value


def four_half_circles(rho, n):
    """The comparison loop: four constant-speed quarter turns of radius rho."""
    assert n % 4 == 0
    q = n // 4
    th = np.linspace(-0.5 * np.pi, 0.5 * np.pi, q, endpoint=False)
    ph = np.linspace(0.5 * np.pi, 1.5 * np.pi, q, endpoint=False)
    ones = np.ones(q)
    c1p = np.stack([rho * np.cos(th), rho * np.sin(th), rho * ones], axis=1)
    c2p = np.stack([rho * np.cos(ph), rho * ones, rho * np.sin(ph)], axis=1)
    c1m = np.stack([rho * np.cos(ph), rho * np.sin(ph), -rho * ones], axis=1)
    c2m = np.stack([rho * np.cos(ph + np.pi), -rho * ones, rho * np.sin(ph + np.pi)], axis=1)
    return np.concatenate([c1p, c2p, c1m, c2m])


@pytest.mark.parametrize("m0", [0.0, 2.0])
def test_klein_explicit_loop_respects_bound(m0):
    strength = 3.0 + 2.0 * math.sqrt(2.0) * m0
    rho = (strength * TWO_PI ** 2 / (64.0 * math.pi ** 2)) ** (1.0 / 3.0)
    pts = four_half_circles(rho, 2048)
    steps = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    assert steps.max() / steps.min() < 1.0 + 1e-9
    assert abs(np.linalg.norm(pts, axis=1) - math.sqrt(2.0) * rho).max() < 1e-12
    cone = ConeSpec(
        group=builtin_group("KLEIN"), nu=None, alpha=1.0,
        extra_symmetry=None, period=TWO_PI, central_mass=m0,
    )
    loop = LoopPath(points=pts, period=TWO_PI)
    total = action(loop, cone).total
    assert total <= klein_test_loop_bound(m0, TWO_PI) + 1e-6


# ---------------------------------------------------------------------------
# test loop actions for the polyhedral classes


def test_test_loop_action_octahedron_mix_value():
    # the mass-free potential coefficient of the first octahedral class
    cone = table_cone("O", "nu1")
    result = E.test_loop_action_exact(cone)
    mix = 4 * ZETA_ORACLE["O"][1] + 6 * ZETA_ORACLE["O"][2]
    expected = (24 / 2.0) * (cone.period / 10) * mix
    assert abs(result.potential - expected) < 1e-9 * expected
    assert abs(mix - 199.7300) < 1e-3 * 199.7300


def test_test_loop_scale_optimality_discrete_route():
    cone = table_cone("O", "nu1")
    result = E.test_loop_action_exact(cone)
    loop = H.test_loop(cone.nu, cone.period, 2000)
    values = {}
    for factor in (0.5, 1.0, 2.0):
        scaled = loop.with_points(factor * result.scale * np.asarray(loop.points))
        values[factor] = action(scaled, cone).total
    assert values[1.0] < values[0.5]
    assert values[1.0] < values[2.0]


ALPHA_GT1_ROWS = sorted(ALPHA_GT1_BOUNDS)
ALL_TABLE_ROWS = sorted(ALPHA1_BOUNDS) + ALPHA_GT1_ROWS


TEST_LOOP_CASES = [
    (tag, name, m0) for tag, name in ALL_TABLE_ROWS for m0 in (0.0, 1.0, 2.5)
]


def test_loop_action_exact():
    # the returned scale is a stationary point of lam^2 * kinetic + lam^(-alpha) * potential
    for tag, name, m0 in TEST_LOOP_CASES:
        result = E.test_loop_action_exact(table_cone(tag, name, m0))
        scale, alpha = result.scale, result.alpha
        assert result.at_scale(scale) == pytest.approx(result.value, rel=1e-12), (tag, name, m0)
        stationary = alpha * scale ** (-alpha - 1.0) * result.potential
        assert 2.0 * scale * result.kinetic == pytest.approx(stationary, rel=1e-12), (tag, name, m0)


def test_test_loop_scale_is_optimal():
    # ... and its minimum: halving or doubling the scale raises the action
    for tag, name, m0 in TEST_LOOP_CASES:
        result = E.test_loop_action_exact(table_cone(tag, name, m0))
        assert result.at_scale(0.5 * result.scale) > result.value, (tag, name, m0)
        assert result.at_scale(2.0 * result.scale) > result.value, (tag, name, m0)
    with pytest.raises(ValueError):
        result.at_scale(0.0)


def assert_discrete_action_matches(tag, name, m0):
    # at 200 samples per step the rescaled loop's discrete action matches the closed form
    cone = table_cone(tag, name, m0)
    result = E.test_loop_action_exact(cone)
    loop = H.test_loop(cone.nu, cone.period, 200 * cone.nu.steps)
    scaled = loop.with_points(result.scale * np.asarray(loop.points))
    discrete = action(scaled, cone).total
    assert abs(discrete - result.value) < 1e-5 * result.value, (tag, name, m0)


DISCRETE_SPOT_CASES = [("T", "nu1", 0.0), ("O", "nu1", 0.0), ("O", "nu6", 2.5), ("I", "nu3", 1.0)]


@pytest.mark.parametrize("tag,name,m0", DISCRETE_SPOT_CASES)
def test_test_loop_action_matches_discrete_action(tag, name, m0):
    assert_discrete_action_matches(tag, name, m0)


def test_loop():
    # every other catalog row and mass; the spot cases above are not rerun
    for case in TEST_LOOP_CASES:
        if case not in DISCRETE_SPOT_CASES:
            assert_discrete_action_matches(*case)


@pytest.mark.parametrize("tag,name", ALPHA_GT1_ROWS)
@pytest.mark.parametrize("m0", [0.0, 1.0, 50.0])
def test_test_loop_bound_dominates_exact(tag, name, m0):
    # at m0 = 50 the chord term 8/(4 - ell^2) dominates
    cone = table_cone(tag, name, m0)
    assert E.test_loop_action_bound(cone) >= E.test_loop_action_exact(cone).value


def test_test_loop_bound_rejects_alpha_one():
    cone = table_cone("T", "nu1")
    with pytest.raises(ValueError):
        E.test_loop_action_bound(cone)


def test_test_loop_functions_reject_vertical_cones():
    cone = ConeSpec(
        group=builtin_group("Z4"), nu=None, alpha=1.0,
        extra_symmetry=None, period=TWO_PI, central_mass=0.0,
    )
    with pytest.raises(ValueError):
        E.test_loop_action_exact(cone)


# ---------------------------------------------------------------------------
# the one test-loop closed form against the three bodies it replaced


def reference_cone_counts(cone):
    k_nu, k1, k2 = cone.nu.side_counts
    collisions = cone.extra_symmetry[1] if cone.extra_symmetry is not None else 1
    return k_nu, k1, k2, collisions


def reference_test_loop_action_exact(cone):
    """test_loop_action_exact deriving its own counts and coefficient, as
    before the shared coefficient (reference)."""
    tag = cone.group.tag
    alpha = cone.alpha
    n = cone.group.order
    ell = build_archimedean(tag).edge_length
    k_nu, k1, k2, _ = reference_cone_counts(cone)
    period = cone.period

    a_kinetic = n * ell ** 2 * k_nu ** 2 / (2.0 * period)
    mix = (
        k1 * E.zeta(tag, alpha, 1)
        + k2 * E.zeta(tag, alpha, 2)
        + cone.central_mass * (k1 + k2) * E.zeta(tag, alpha, 0)
    )
    a_potential = (n / 2.0) * (period / k_nu) * mix
    scale = (alpha * a_potential / (2.0 * a_kinetic)) ** (1.0 / (2.0 + alpha))
    value = (2.0 + alpha) * (
        (a_potential / 2.0) ** 2 * (a_kinetic / alpha) ** alpha
    ) ** (1.0 / (2.0 + alpha))
    return E.TestLoopAction(
        value=float(value), scale=float(scale), kinetic=float(a_kinetic),
        potential=float(a_potential), alpha=alpha,
    )


def reference_test_loop_action_bound(cone):
    """test_loop_action_bound in its own algebraic arrangement, as before the
    shared closed form (reference)."""
    alpha = cone.alpha
    tag = cone.group.tag
    n = cone.group.order
    ell = build_archimedean(tag).edge_length
    k_nu, k1, k2, _ = reference_cone_counts(cone)
    period = cone.period

    weighted = (
        k1 * E._unit_zetas(tag)[1] / delta_min(tag, 1)
        + k2 * E._unit_zetas(tag)[2] / delta_min(tag, 2)
        + 8.0 * cone.central_mass * (k1 + k2) / (4.0 - ell ** 2)
    )
    value = (
        (2.0 + alpha)
        / 2.0
        * n
        * (
            ell ** (2.0 * alpha)
            * weighted ** 2
            * k_nu ** (2.0 * (alpha - 1.0))
            / (4.0 * alpha ** alpha)
        )
        ** (1.0 / (2.0 + alpha))
        * period ** ((2.0 - alpha) / (2.0 + alpha))
    )
    return float(value)


def reference_certify_no_total_collisions(cone):
    """certify_no_total_collisions building its left-hand sides term by term,
    as before the shared coefficient (reference)."""
    tag = cone.group.tag
    alpha = cone.alpha
    n = cone.group.order
    ell = build_archimedean(tag).edge_length
    k_nu, k1, k2, collisions = reference_cone_counts(cone)

    z0, z1, z2 = E._unit_zetas(tag)
    d1 = delta_min(tag, 1)
    d2 = delta_min(tag, 2)
    floor = tilde_U0(tag, alpha)
    c_const = E._c_const(alpha, ell, k_nu, collisions)

    if alpha == 1.0:
        potential_lhs = k1 * z1 + k2 * z2
        central_lhs = (k1 + k2) * z0
        central_rhs = 2.0 * c_const
    else:
        potential_lhs = k1 * z1 / d1 + k2 * z2 / d2
        central_lhs = 8.0 * (k1 + k2) / (4.0 - ell ** 2)
        central_rhs = c_const
    potential_rhs = c_const * floor

    m0 = cone.central_mass
    direct_lhs = reference_test_loop_action_exact(cone).value
    u0 = (n / (n + m0)) ** ((2.0 + alpha) / 2.0) * (floor + 2.0 * m0)
    direct_rhs = general_lower_bound(n + m0, u0, alpha, cone.period, collisions).value
    return E.EstimateCertificate(
        cone_id=f"{tag} {k_nu}-gon alpha={alpha:g} M={collisions}", group=tag,
        alpha=alpha, collisions=collisions, k1=k1, k2=k2, k_nu=k_nu, ell=float(ell),
        zeta0=z0, zeta1=z1, zeta2=z2, delta1=d1, delta2=d2, tilde_u0=floor,
        c_const=c_const, potential_lhs=float(potential_lhs),
        potential_rhs=float(potential_rhs), central_lhs=float(central_lhs),
        central_rhs=float(central_rhs), direct_lhs=float(direct_lhs),
        direct_rhs=float(direct_rhs),
    )


# Stated before the comparison first ran.  The shared coefficient adds the
# central term as m0 * ((k1 + k2) zeta0) where the exact body rounded
# (m0 (k1 + k2)) zeta0, and the bound's body arranged the closed form in
# its own order, so the rescaled actions may differ in the last bits.  The
# kinetic part and every certificate field but direct_lhs are bitwise equal.
CLOSED_FORM_RTOL = 1e-15


def differential_cones(entry):
    """The catalog row at its published point, then at 20 seeded (alpha, m0,
    period) points with alpha in (1, 1.95), m0 in [0, 5] and period in
    [pi, 4 pi]."""
    base = catalog_cone(entry.tag, entry.name)
    yield base
    rng = np.random.default_rng([4580, LOOP_CATALOG.index(entry)])
    for _ in range(20):
        yield ConeSpec(
            group=base.group, nu=base.nu, alpha=float(rng.uniform(1.0, 1.95)),
            extra_symmetry=base.extra_symmetry, period=float(rng.uniform(math.pi, 4.0 * math.pi)),
            central_mass=float(rng.uniform(0.0, 5.0)),
        )


@pytest.mark.parametrize("entry", LOOP_CATALOG, ids=lambda e: f"{e.tag}-{e.name}")
def test_one_closed_form_matches_the_three_test_loop_bodies(entry):
    close = dict(rel=CLOSED_FORM_RTOL, abs=0.0)
    for cone in differential_cones(entry):
        point = (cone.alpha, cone.central_mass, cone.period)
        got, want = E.test_loop_action_exact(cone), reference_test_loop_action_exact(cone)
        assert (got.kinetic, got.alpha) == (want.kinetic, want.alpha), point
        for name in ("value", "scale", "potential"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), **close), (name, point)
        if cone.alpha > 1.0:
            bound = E.test_loop_action_bound(cone)
            assert bound == pytest.approx(reference_test_loop_action_bound(cone), **close), point
        cert = certify_no_total_collisions(cone)
        ref = reference_certify_no_total_collisions(cone)
        assert cert.row() == ref.row(), point
        got, want = cert.as_dict(), ref.as_dict()
        assert got.pop("direct_lhs") == pytest.approx(want.pop("direct_lhs"), **close), point
        assert got == want, point


# ---------------------------------------------------------------------------
# certificates


@pytest.mark.parametrize("tag,name", ALL_TABLE_ROWS)
def test_certificate_against_published_row(tag, name):
    published = ALPHA1_BOUNDS.get((tag, name)) or ALPHA_GT1_BOUNDS[(tag, name)]
    cert = certify_no_total_collisions(table_cone(tag, name), label=f"{tag} {name}")
    deviating = PUBLISHED_DEVIATIONS.get((tag, name), ())
    for column, (computed, printed) in enumerate(zip(cert.row(), published)):
        relative = abs(computed - printed) / abs(printed)
        if column in deviating:
            assert relative > 1e-3, (column, computed, printed)
        else:
            assert relative < 1e-3, (column, computed, printed)


@pytest.mark.parametrize("tag,name", ALL_TABLE_ROWS)
def test_certificate_passes_and_is_positive(tag, name):
    cert = certify_no_total_collisions(table_cone(tag, name))
    assert cert.passed
    assert cert.potential_pass and cert.central_pass and cert.direct_pass
    for value in (
        cert.zeta0, cert.zeta1, cert.zeta2, cert.delta1, cert.delta2,
        cert.ell, cert.tilde_u0, cert.c_const,
    ):
        assert value > 0.0
    assert cert.k_nu == cert.k1 + cert.k2
    assert cert.collisions >= 2
    entry = catalog_entry(tag, name)
    assert cert.collisions == entry.M
    assert cert.alpha == entry.alpha


def test_certificate_direct_comparison_tracks_mass():
    for tag, name in [("T", "nu1"), ("O", "nu6")]:
        for m0 in (0.0, 3.0, 50.0):
            cert = certify_no_total_collisions(table_cone(tag, name, m0))
            assert cert.direct_lhs < cert.direct_rhs


def test_certificate_spec_verdict_examples():
    t1 = certify_no_total_collisions(table_cone("T", "nu1"))
    assert abs(t1.potential_rhs - 80.0636) < 1e-3 * 80.0636
    assert abs(t1.central_lhs - 17.5776) < 1e-3 * 17.5776
    assert abs(t1.central_rhs - 25.1327) < 1e-3 * 25.1327
    i3 = certify_no_total_collisions(table_cone("I", "nu3"))
    assert abs(i3.potential_lhs - 795.7130) < 1e-3 * 795.7130
    assert abs(i3.potential_rhs - 2878.5) < 1e-3 * 2878.5
    assert abs(i3.central_lhs - 30.5169) < 1e-3 * 30.5169
    assert abs(i3.central_rhs - 140.2809) < 1e-3 * 140.2809
    o6 = certify_no_total_collisions(table_cone("O", "nu6"))
    assert o6.passed and o6.direct_pass
    assert (o6.k1, o6.k2, o6.k_nu) == (12, 4, 16)


def test_certificate_label_and_dict():
    cert = certify_no_total_collisions(table_cone("T", "nu1"), label="first")
    assert cert.cone_id == "first"
    default = certify_no_total_collisions(table_cone("T", "nu1"))
    assert "T" in default.cone_id and "M=2" in default.cone_id
    payload = cert.as_dict()
    assert payload["passed"] is True
    assert json.loads(json.dumps(payload)) == payload


def listed_certificate_dict(c):
    """EstimateCertificate.as_dict with every key written out, as before the
    dict was derived from the fields (reference)."""
    return {
        "cone_id": c.cone_id, "group": c.group, "alpha": c.alpha,
        "collisions": c.collisions, "k1": c.k1, "k2": c.k2, "k_nu": c.k_nu,
        "ell": c.ell, "zeta0": c.zeta0, "zeta1": c.zeta1, "zeta2": c.zeta2,
        "delta1": c.delta1, "delta2": c.delta2, "tilde_u0": c.tilde_u0,
        "c_const": c.c_const,
        "potential_lhs": c.potential_lhs, "potential_rhs": c.potential_rhs,
        "potential_pass": c.potential_pass,
        "central_lhs": c.central_lhs, "central_rhs": c.central_rhs,
        "central_pass": c.central_pass,
        "direct_lhs": c.direct_lhs, "direct_rhs": c.direct_rhs,
        "direct_pass": c.direct_pass, "passed": c.passed,
    }


def listed_exclusion_dict(r):
    """ExclusionComparison.as_dict with every key written out (reference)."""
    return {
        "label": r.label, "kind": r.kind, "central_mass": r.central_mass,
        "bound": r.bound.value, "comparison_action": r.comparison_action,
        "intercept_lhs": r.intercept_lhs, "intercept_rhs": r.intercept_rhs,
        "intercept_pass": r.intercept_pass,
        "slope_lhs": r.slope_lhs, "slope_rhs": r.slope_rhs,
        "slope_pass": r.slope_pass,
        "direct_pass": r.direct_pass, "passed": r.passed,
    }


def test_record_dicts_match_the_listed_keys():
    for tag, name in ALL_TABLE_ROWS:
        cert = certify_no_total_collisions(table_cone(tag, name), label=f"{tag} {name}")
        assert cert.as_dict() == listed_certificate_dict(cert), (tag, name)
    for report in (hiphop_exclusion(0.5, TWO_PI), klein_exclusion(1.5, TWO_PI)):
        payload = report.as_dict()
        assert payload == listed_exclusion_dict(report)
        assert type(payload["bound"]) is float


def test_certificate_rejects_vertical_cones():
    cone = ConeSpec(
        group=builtin_group("KLEIN"), nu=None, alpha=1.0,
        extra_symmetry=None, period=TWO_PI, central_mass=0.0,
    )
    with pytest.raises(ValueError):
        certify_no_total_collisions(cone)


def test_hiphop_exclusion_report():
    report = hiphop_exclusion(0.0, TWO_PI)
    assert report.passed and report.direct_pass
    assert report.kind == "hiphop"
    assert report.comparison_action == pytest.approx(square_action(0.0, TWO_PI))
    assert report.bound.value == pytest.approx(hiphop_collision_bound(0.0, TWO_PI).value)
    # the three-halves powers are affine in the mass; their slopes differ
    # by the factor 2 coming from the coefficient ratio 2^(2/3)
    assert report.slope_rhs == pytest.approx(2.0 * report.slope_lhs, rel=1e-9)


def test_klein_exclusion_report():
    report = klein_exclusion(1.5, TWO_PI)
    assert report.passed and report.direct_pass
    assert report.kind == "klein"
    # intercepts compare 3 against 3 sqrt(3/2), slopes 2 sqrt(2) against 4
    assert report.intercept_rhs / report.intercept_lhs == pytest.approx(1.5 ** (1.0 / 3.0), rel=1e-9)
    assert report.slope_rhs / report.slope_lhs == pytest.approx(math.sqrt(2.0), rel=1e-9)
    payload = report.as_dict()
    assert json.loads(json.dumps(payload)) == payload


def test_hiphop_exclusion_large_polygons_fail_honestly():
    # the pairwise distance estimate behind the bound weakens as the
    # polygon grows; the mass-free certificate stops passing at eighteen
    # satellites while the slope inequality always holds
    for satellites in (6, 12, 16):
        report = hiphop_exclusion(0.0, TWO_PI, satellites)
        assert report.passed, satellites
    for satellites in (18, 20):
        report = hiphop_exclusion(0.0, TWO_PI, satellites)
        assert not report.intercept_pass and report.slope_pass, satellites


def test_collision_bound_float_conversion():
    bound = CollisionBound(value=3.5, collisions=2, formula="klein")
    assert float(bound) == 3.5
