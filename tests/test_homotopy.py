import gc
import heapq
import itertools
import json
import logging
import math
import weakref
from collections import Counter, defaultdict
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from choreo import homotopy as H
from choreo.action import check_alpha
from choreo.groups import builtin_group, full_group_tessellation, matrix_key, unit_frame
from choreo.reference_tables import (
    GROUP_CONSTANT_DEVIATIONS,
    GROUP_CONSTANTS,
    catalog_entry,
    catalog_rows,
)

import min_angle_reference as REF

TWO_PI = 2.0 * math.pi

# Edge chord lengths of the inscribed equal-edge solids (unit circumradius),
# frozen from the bisection construction, and the closed forms of their
# squares for the tetrahedron, rhombicuboctahedron and rhombicosidodecahedron.
EDGE_LENGTH = {
    "T": 1.0,
    "O": 0.7148134886731864,
    "I": 0.4478379595890267,
}
EDGE_LENGTH_SQUARED = {
    "T": 1.0,
    "O": 4.0 / (5.0 + 2.0 * math.sqrt(2.0)),
    "I": 4.0 / (11.0 + 4.0 * math.sqrt(5.0)),
}

GRAPH_SIZES = {"T": (12, 24), "O": (24, 48), "I": (60, 120)}

# Chamber-word lengths of the catalog sequences after radial projection.
# Every published sequence is already cyclically reduced.
WORD_LENGTHS = {
    ("T", "nu1"): 12, ("T", "nu2"): 12, ("T", "nu3"): 18,
    ("T", "nu4"): 24, ("T", "nu5"): 20, ("T", "nu6"): 36,
    ("O", "nu1"): 20, ("O", "nu2"): 20, ("O", "nu3"): 24,
    ("O", "nu4"): 16, ("O", "nu5"): 16, ("O", "nu6"): 32,
    ("O", "nu7"): 16, ("O", "nu8"): 32, ("O", "nu9"): 36,
    ("I", "nu1"): 28, ("I", "nu2"): 36, ("I", "nu3"): 30,
    ("I", "nu4"): 30,
}

ALL_ROWS = [(e.tag, e.name) for tag in ("T", "O", "I") for e in catalog_rows(tag)]


def row_sequence(tag, name):
    entry = catalog_entry(tag, name)
    poly = H.build_archimedean(tag)
    return H.VertexSequence.from_labels(poly, entry.labels, H.published_numbering(tag))


# ---------------------------------------------------------------------------
# Edge graphs


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_edge_graph_counts_and_lengths(tag):
    poly = H.build_archimedean(tag)
    nv, ne = GRAPH_SIZES[tag]
    assert poly.vertex_count == nv
    assert len(poly.edges) == ne
    assert abs(poly.edge_length - EDGE_LENGTH[tag]) < 1e-12
    radii = np.linalg.norm(poly.vertices, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-12
    assert abs(poly.edge_length**2 - EDGE_LENGTH_SQUARED[tag]) < 1e-12
    ratio = 8.0 / (4.0 - EDGE_LENGTH_SQUARED[tag])
    printed_error = abs(ratio - GROUP_CONSTANTS["chord_ratio"][tag])
    if ("chord_ratio", tag) in GROUP_CONSTANT_DEVIATIONS:
        assert printed_error > 1e-5
    else:
        assert printed_error < 1e-5


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_edge_graph_regularity(tag):
    poly = H.build_archimedean(tag)
    for i in range(poly.vertex_count):
        nbrs = poly.neighbors(i)
        assert len(nbrs) == 4
        if tag != "T":
            types = sorted(t for _, t in nbrs)
            assert types == [1, 1, 2, 2]


def test_tetrahedral_edges_single_type():
    poly = H.build_archimedean("T")
    assert set(poly.edges.values()) == {1}


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_base_points(tag):
    poly = H.build_archimedean(tag)
    q, q1, q2 = poly.base_points
    for p in (q, q1, q2):
        assert abs(np.linalg.norm(p) - 1.0) < 1e-12
    assert abs(np.linalg.norm(q - q1) - poly.edge_length) < 1e-10
    assert abs(np.linalg.norm(q - q2) - poly.edge_length) < 1e-10
    keys = {tuple(np.round(v, 6)) for v in poly.vertices}
    assert tuple(np.round(q1, 6)) in keys
    assert tuple(np.round(q2, 6)) in keys


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_vertex_permutations_match_per_element_maps(tag):
    """The table against the per-element vertex map it replaced."""
    poly = H.build_archimedean(tag)
    index = {matrix_key(v): i for i, v in enumerate(poly.vertices)}
    assert len(poly.vertex_permutations) == poly.group.order
    for g, R in enumerate(poly.group.elements):
        assert poly.vertex_permutations[g] == tuple(index[matrix_key(R @ v)] for v in poly.vertices)


def reference_archimedean_tables(group, base_points):
    """The rounded-coordinate constructions the Cayley-graph tables replaced:
    the vertex dedupe, the matrix_key edge loop with its T special case, the
    per-element vertex maps, the element_between double loop and the
    (min, max) edge_type lookup."""
    q, q1, q2 = base_points
    verts, index = [], {}
    for R in group.elements:
        key = matrix_key(R @ q)
        if key not in index:
            index[key] = len(verts)
            verts.append(R @ q)
    edges = {}
    for R in group.elements:
        vq = index[matrix_key(R @ q)]
        for typ, qq in ((1, q1), (2, q2)):
            vr = index[matrix_key(R @ qq)]
            e = (min(vq, vr), max(vq, vr))
            assert edges.get(e, typ) == typ or group.tag == "T"
            edges.setdefault(e, typ)
    if group.tag == "T":
        edges = {e: 1 for e in edges}
    vertices = np.array(verts, dtype=float)
    perms = tuple(
        tuple(index[matrix_key(R @ v)] for v in vertices) for R in group.elements
    )
    between = [[None] * len(vertices) for _ in vertices]
    for g, perm in enumerate(perms):
        for a, b in enumerate(perm):
            assert between[a][b] is None
            between[a][b] = g
    lengths = [np.linalg.norm(vertices[i] - vertices[j]) for (i, j) in edges]
    assert max(lengths) - min(lengths) <= 1e-10
    adjacency = {i: [] for i in range(len(vertices))}
    for (i, j), typ in edges.items():
        adjacency[i].append((j, typ))
        adjacency[j].append((i, typ))
    return {
        "vertices": vertices,
        "edges": edges,
        "neighbors": [tuple(sorted(adjacency[i])) for i in range(len(vertices))],
        "vertex_permutations": perms,
        "element_between": tuple(map(tuple, between)),
        "edge_type": lambda i, j: edges.get((min(i, j), max(i, j))),
        "edge_length": float(np.mean(lengths)),
    }


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_cayley_graph_tables_match_the_rounded_coordinate_constructions(tag):
    poly = H.build_archimedean(tag)
    ref = reference_archimedean_tables(poly.group, poly.base_points)
    nv = poly.vertex_count
    assert poly.vertices.tobytes() == ref["vertices"].tobytes()
    assert poly.vertices.shape == ref["vertices"].shape
    # the same edges in the same order, since edge_length sums over them
    assert list(poly.edges.items()) == list(ref["edges"].items())
    assert type(poly.edges) is dict
    assert [poly.neighbors(i) for i in range(nv)] == ref["neighbors"]
    assert poly.vertex_permutations == ref["vertex_permutations"]
    assert poly.element_between == ref["element_between"]
    assert all(
        poly.edge_type(i, j) == ref["edge_type"](i, j) for i in range(nv) for j in range(nv)
    )
    assert repr(poly.edge_length) == repr(ref["edge_length"])


def test_build_archimedean_rejects_vertical_tags():
    with pytest.raises(ValueError):
        H.build_archimedean("Z4")
    with pytest.raises(ValueError):
        H.build_archimedean("KLEIN")


# ---------------------------------------------------------------------------
# Numberings


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_published_numbering_is_bijective(tag):
    poly = H.build_archimedean(tag)
    numbering = H.published_numbering(tag)
    assert sorted(numbering) == list(range(1, poly.vertex_count + 1))
    assert sorted(numbering.values()) == list(range(poly.vertex_count))


@pytest.mark.parametrize("tag,name", ALL_ROWS)
def test_catalog_rows_realizable(tag, name):
    entry = catalog_entry(tag, name)
    nu = row_sequence(tag, name)
    assert nu.steps == entry.steps
    k, k1, k2 = nu.side_counts
    assert k == entry.steps
    if (tag, name) == ("O", "nu6"):
        # The stated side counts (12, 2) sum to 14 over a 16-step cycle and
        # cannot be realized; the actual counts come out as (12, 4).
        assert (k1, k2) == (12, 4)
    else:
        assert (k1, k2) == (entry.k1, entry.k2 or 0)
    matches = H.find_extra_symmetry(nu, entry.M)
    assert len(matches) == 1
    R = matches[0]
    assert np.allclose(np.linalg.matrix_power(R, entry.M), np.eye(3), atol=1e-12)


def test_reconstruct_rejects_impossible_rows():
    poly = H.build_archimedean("T")
    # The tetrahedral graph has no type-2 edges, so the counts cannot match.
    rows = [((1, 2, 3, 1), 1, 0, 3)]
    with pytest.raises(ValueError):
        H.reconstruct_numbering(poly, rows)


def published_rows(tag):
    """The self-consistent catalog rows, as published_numbering passes them."""
    return [
        (e.labels, e.M, e.k1, e.k2 or 0)
        for e in catalog_rows(tag)
        if e.steps == e.k1 + (e.k2 or 0)
    ]


def reference_reconstruct_numbering(polyhedron, rows, node_cap=5_000_000):
    """The numbering search that filtered a candidate list of every element
    of order dividing M at each node, kept to check the element_between
    lookup against."""
    nv = polyhedron.vertex_count
    perms = polyhedron.vertex_permutations
    orders = polyhedron.group.element_orders

    prepared = []
    for labels, M, k1, k2 in rows:
        labels = list(labels)
        if labels[0] != labels[-1]:
            raise ValueError("each row must repeat its starting label at the end")
        per = labels[:-1]
        if len(per) % M:
            raise ValueError("row length is not divisible by its stated M")
        prepared.append((per, M, len(per) // M, int(k1), int(k2)))

    assign = {}
    used = [False] * nv
    nodes = 0

    def place_rows(ri):
        if ri == len(prepared):
            return True
        per, M, shift, k1, k2 = prepared[ri]
        L = len(per)
        cands0 = [p for p, order in zip(perms, orders) if M % order == 0]

        def pair_filter(cands, upto):
            out = []
            for p in cands:
                ok = True
                for i in range(upto + 1):
                    la, lb = per[i], per[(i + shift) % L]
                    if la in assign and lb in assign and p[assign[la]] != assign[lb]:
                        ok = False
                        break
                if ok:
                    out.append(p)
            return out

        def place(pos, c1, c2, cands):
            nonlocal nodes
            nodes += 1
            if nodes > node_cap:
                raise RuntimeError("numbering reconstruction exceeded its search budget")
            if pos == L:
                a, b = assign[per[-1]], assign[per[0]]
                typ = polyhedron.edge_type(a, b)
                if typ is None:
                    return False
                n1, n2 = c1 + (typ == 1), c2 + (typ == 2)
                if n1 != k1 or n2 != k2:
                    return False
                final = [
                    p
                    for p in cands
                    if all(p[assign[per[i]]] == assign[per[(i + shift) % L]] for i in range(L))
                ]
                if not final:
                    return False
                return place_rows(ri + 1)

            label = per[pos]
            prev = assign[per[pos - 1]] if pos > 0 else None

            def advance(vid):
                n1, n2 = c1, c2
                if pos > 0:
                    typ = polyhedron.edge_type(prev, vid)
                    if typ is None:
                        return None
                    n1, n2 = c1 + (typ == 1), c2 + (typ == 2)
                    if n1 > k1 or n2 > k2:
                        return None
                filtered = pair_filter(cands, pos)
                if not filtered:
                    return None
                return n1, n2, filtered

            if label in assign:
                step = advance(assign[label])
                if step is None:
                    return False
                return place(pos + 1, step[0], step[1], step[2])

            options = range(nv) if pos == 0 else [w for w, _ in polyhedron.neighbors(prev)]
            for vid in sorted(set(options)):
                if used[vid]:
                    continue
                assign[label] = vid
                used[vid] = True
                step = advance(vid)
                if step is not None and place(pos + 1, step[0], step[1], step[2]):
                    return True
                del assign[label]
                used[vid] = False
            return False

        return place(0, 0, 0, cands0)

    if not place_rows(0):
        raise ValueError("the given rows admit no consistent vertex numbering")

    numbering = dict(assign)
    free_labels = sorted(set(range(1, nv + 1)) - set(numbering))
    free_vids = sorted(set(range(nv)) - set(numbering.values()))
    numbering.update(dict(zip(free_labels, free_vids)))
    return numbering


# Each tag's rows, those rows in reverse order, and each row alone.
ROW_SETS = [
    (tag, which)
    for tag in ("T", "O", "I")
    for which in ["all", "reversed", *range(len(published_rows(tag)))]
]


@pytest.mark.parametrize("tag,which", ROW_SETS)
def test_reconstruct_numbering_matches_the_candidate_filter(tag, which):
    rows = published_rows(tag)
    rows = {"all": rows, "reversed": rows[::-1]}.get(which) or [rows[which]]
    poly = H.build_archimedean(tag)
    assert H.reconstruct_numbering(poly, rows) == reference_reconstruct_numbering(poly, rows)


def test_row_sets_cover_every_self_consistent_row():
    assert len(ROW_SETS) == 24


@pytest.mark.parametrize("tag,vertices", [("T", 12), ("O", 24), ("I", 60)])
def test_build_archimedean_logs_what_it_built(tag, vertices, caplog):
    caplog.set_level(logging.DEBUG, logger="choreo.homotopy")
    poly = H._build_archimedean_cached.__wrapped__(tag)
    messages = [r.getMessage() for r in caplog.records if r.name == "choreo.homotopy"]
    assert messages == [f"build_archimedean {tag}: {vertices} vertices, {2 * vertices} edges"]
    assert (poly.vertex_count, len(poly.edges)) == (vertices, 2 * vertices)


@pytest.mark.parametrize("tag,rows,nodes", [("T", 6, 79), ("O", 8, 174), ("I", 4, 4228)])
def test_reconstruct_numbering_logs_its_node_count(tag, rows, nodes, caplog):
    poly = H.build_archimedean(tag)
    caplog.set_level(logging.DEBUG, logger="choreo.homotopy")
    numbering = H.reconstruct_numbering(poly, published_rows(tag))
    messages = [r.getMessage() for r in caplog.records if r.name == "choreo.homotopy"]
    assert messages == [f"reconstruct_numbering {tag}: {rows} rows, {nodes} nodes"]
    assert numbering == H.published_numbering(tag)


@pytest.mark.parametrize("tag,nodes", [("T", 115), ("O", 158), ("I", 80)])
def test_reconstruct_numbering_checks_a_row_against_earlier_rows_first(tag, nodes, caplog):
    """In reverse order a row's pairs between labels placed by earlier rows
    are checked before its first stop is placed, as the full scan of every
    pair at every node did; the counts are that scan's."""
    poly = H.build_archimedean(tag)
    caplog.set_level(logging.DEBUG, logger="choreo.homotopy")
    rows = published_rows(tag)[::-1]
    numbering = H.reconstruct_numbering(poly, rows)
    messages = [r.getMessage() for r in caplog.records if r.name == "choreo.homotopy"]
    assert messages == [f"reconstruct_numbering {tag}: {len(rows)} rows, {nodes} nodes"]
    assert numbering == reference_reconstruct_numbering(H.build_archimedean(tag), rows)


def test_reconstruct_numbering_fails_loudly_past_its_node_cap(monkeypatch):
    monkeypatch.setattr(H, "_NUMBERING_NODE_CAP", 10)
    with pytest.raises(RuntimeError, match="search budget"):
        H.reconstruct_numbering(H.build_archimedean("T"), published_rows("T"))


def altered_row(tag, name, M=None, relabel=(None, None)):
    """One catalog row with its symmetry order or one of its labels replaced."""
    entry = catalog_entry(tag, name)
    old, new = relabel
    labels = tuple(new if label == old else label for label in entry.labels)
    return [(labels, entry.M if M is None else M, entry.k1, entry.k2 or 0)]


@pytest.mark.parametrize(
    "tag,rows,message",
    [
        # M = 0 divided by zero, and M = -2 was taken for a symmetry order.
        ("T", altered_row("T", "nu1", M=0), "M must be a positive integer"),
        ("T", altered_row("T", "nu1", M=-2), "M must be a positive integer"),
        # M = 3 does not divide the 8 stops of T nu1.
        ("T", altered_row("T", "nu1", M=3), "positive divisor"),
        # Both were placed, and then labels 24 and 10 were left without a vertex.
        ("O", altered_row("O", "nu4", relabel=(15, 99)), "must lie in"),
        ("T", altered_row("T", "nu1", relabel=(9, 0)), "must lie in"),
    ],
    ids=["M=0", "M=-2", "M=3", "label-99", "label-0"],
)
def test_reconstruct_numbering_refuses_bad_rows(tag, rows, message):
    with pytest.raises(ValueError, match=message):
        H.reconstruct_numbering(H.build_archimedean(tag), rows)


@pytest.mark.parametrize("labels", [(), (1,), (1, 1)], ids=["empty", "one", "one-stop"])
def test_reconstruct_numbering_refuses_a_row_of_fewer_than_two_stops(labels):
    """() and (1,) failed with IndexError; a row needs two stops and the
    closing repeat of its first label."""
    with pytest.raises(ValueError, match="two stops or more"):
        H.reconstruct_numbering(H.build_archimedean("T"), [(labels, 1, 0, 0)])


@pytest.mark.parametrize(
    "tag,name,count,value",
    [
        ("T", "nu1", "k1", 0.9),
        ("O", "nu4", "k2", 0.4),
        ("O", "nu1", "M", 2.5),
        ("T", "nu1", "M", None),
        ("T", "nu1", "M", "2"),
    ],
    ids=["k1-plus-0.9", "k2-plus-0.4", "M-2.5", "M-None", "M-str-2"],
)
def test_reconstruct_numbering_refuses_a_non_integer_count(tag, name, count, value):
    """k1 + 0.9 and k2 + 0.4 were truncated to the row's counts, M = 2.5,
    which divides the 10 steps of O nu1, failed as a list index, and M =
    None and M = "2" failed with TypeError at the divisor test."""
    entry = catalog_entry(tag, name)
    row = {"M": entry.M, "k1": entry.k1, "k2": entry.k2 or 0}
    row[count] = value if count == "M" else row[count] + value
    with pytest.raises(ValueError, match=f"{count} must be"):
        H.reconstruct_numbering(
            H.build_archimedean(tag), [(entry.labels, row["M"], row["k1"], row["k2"])]
        )


@pytest.mark.parametrize("value", [5.5, math.nan, math.inf], ids=["5.5", "nan", "inf"])
def test_reconstruct_numbering_refuses_a_fractional_label(value):
    """T nu1 with its label 5 read as 5.5 was placed, and the numbering came
    back keyed by 5.5 with no label 10."""
    with pytest.raises(ValueError, match="label must be"):
        H.reconstruct_numbering(H.build_archimedean("T"), altered_row("T", "nu1", relabel=(5, value)))


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_element_between_is_one_element_per_vertex_pair(tag):
    poly = H.build_archimedean(tag)
    table = poly.element_between
    assert poly.vertex_count == poly.group.order
    for a, row in enumerate(table):
        assert sorted(row) == list(range(poly.group.order))
        assert all(poly.vertex_permutations[g][a] == b for b, g in enumerate(row))
    assert type(table) is tuple and all(type(row) is tuple for row in table)


def test_construction_refuses_a_vertex_set_without_free_action():
    """A base point on one of O's order-4 poles is fixed by that pole's
    quarter turns, so its orbit is the six order-4 poles, not 24 vertices."""
    poly = H.build_archimedean("O")
    tess = poly.tessellation
    pole = tess.points[tess.pole_order.index(4)]
    assert len({matrix_key(R @ pole) for R in poly.group.elements}) == 6
    with pytest.raises(ValueError, match="the 6 distinct vertices are not one free orbit"):
        H.ArchimedeanPolyhedron(poly.group, tess, (pole, *poly.base_points[1:]))


def reference_extra_symmetry(nu, M):
    """Indices of every element R with R^M = identity that moves nu on by
    steps/M positions, by a scan over the whole group."""
    if M < 1 or nu.steps % M:
        return []
    ids, shift = nu.vertex_ids, nu.steps // M
    moved = ids[shift:] + ids[:shift]
    group, perms = nu.polyhedron.group, nu.polyhedron.vertex_permutations
    return [
        g
        for g, R in enumerate(group.elements)
        if all(perms[g][i] == j for i, j in zip(ids, moved))
        and np.allclose(np.linalg.matrix_power(R, M), np.eye(3), atol=1e-9)
    ]


def test_find_extra_symmetry_matches_the_element_scan():
    """Every conjugate of every catalog row, at every M from 0 to steps + 1."""
    cases = 0
    for tag, name in ALL_ROWS:
        base = row_sequence(tag, name)
        group = base.polyhedron.group
        for R in group.elements:
            nu = base.transformed(R)
            for M in range(nu.steps + 2):
                found = [group.index(S) for S in H.find_extra_symmetry(nu, M)]
                assert found == reference_extra_symmetry(nu, M), (tag, name, M)
                cases += 1
    assert cases == 9300


@pytest.mark.parametrize("M", [2.5, 4.9, math.inf, math.nan], ids=["2.5", "4.9", "inf", "nan"])
def test_find_extra_symmetry_refuses_a_non_integer_order(M):
    """2.5 divides the 10 steps of O nu1 and failed as a slice index; 4.9,
    inf and NaN were read as orders that divide nothing."""
    with pytest.raises(ValueError, match="symmetry order M must be"):
        H.find_extra_symmetry(row_sequence("O", "nu1"), M)


def test_find_extra_symmetry_reads_a_whole_float_order():
    nu, M = row_sequence("O", "nu1"), catalog_entry("O", "nu1").M
    found = [matrix_key(R) for R in H.find_extra_symmetry(nu, float(M))]
    assert found == [matrix_key(R) for R in H.find_extra_symmetry(nu, M)] != []


# ---------------------------------------------------------------------------
# Vertex sequences


def test_vertex_sequence_strips_closing_repeat():
    entry = catalog_entry("T", "nu1")
    nu = row_sequence("T", "nu1")
    assert nu.steps == len(entry.labels) - 1
    assert nu.vertex_ids[0] != nu.vertex_ids[-1]


def test_vertex_sequence_validation():
    poly = H.build_archimedean("T")
    i = 0
    non_neighbors = [
        j for j in range(poly.vertex_count) if j != i and poly.edge_type(i, j) is None
    ]
    with pytest.raises(ValueError):
        H.VertexSequence(poly, (i, non_neighbors[0]))
    with pytest.raises(ValueError):
        H.VertexSequence(poly, (0, 99))
    with pytest.raises(ValueError):
        H.VertexSequence.from_labels(poly, (1, 999, 1), {1: 0, 2: 1})


@pytest.mark.parametrize(
    "entry_point,name",
    [("VertexSequence", "vertex id"), ("from_labels", "label"), ("TriangleSequence", "chamber")],
    ids=["VertexSequence", "from_labels", "TriangleSequence"],
)
def test_sequences_refuse_ids_off_the_integers(entry_point, name):
    """Vertex ids, labels and chambers offset by 0.4 were truncated to a valid
    sequence."""
    nu = row_sequence("T", "nu3")
    poly = nu.polyhedron
    with pytest.raises(ValueError, match=f"{name} must be"):
        if entry_point == "VertexSequence":
            H.VertexSequence(poly, tuple(i + 0.4 for i in nu.vertex_ids))
        elif entry_point == "from_labels":
            labels = [label + 0.4 for label in catalog_entry("T", "nu3").labels]
            H.VertexSequence.from_labels(poly, labels, H.published_numbering("T"))
        else:
            chambers = H.triangles_from_vertices(nu).triangles
            H.TriangleSequence(poly.tessellation, tuple(c + 0.4 for c in chambers))


def test_minimal_period_of_doubled_listing():
    nu = row_sequence("O", "nu1")
    doubled = H.VertexSequence(nu.polyhedron, nu.vertex_ids + nu.vertex_ids)
    assert doubled.steps == 2 * nu.steps
    assert doubled.k_nu == nu.k_nu == nu.steps
    assert doubled.side_counts == nu.side_counts


def reference_side_counts(nu):
    """side_counts as a second walk over the minimal period's edges (the
    walk that now reads the edge types kept at construction)."""
    ids, k = nu.vertex_ids, nu.k_nu
    k1 = [nu.polyhedron.edge_type(ids[i], ids[(i + 1) % k]) for i in range(k)].count(1)
    return k, k1, k - k1


@pytest.mark.parametrize("tag,name", ALL_ROWS)
def test_side_counts_read_the_edge_types_of_construction(tag, name):
    nu = row_sequence(tag, name)
    doubled = H.VertexSequence(nu.polyhedron, nu.vertex_ids + nu.vertex_ids)
    for seq in (nu, doubled):
        ids = seq.vertex_ids
        assert seq.edge_types == tuple(
            seq.polyhedron.edge_type(ids[k], ids[(k + 1) % len(ids)]) for k in range(len(ids))
        )
        assert seq.side_counts == reference_side_counts(seq)
    assert doubled.side_counts == nu.side_counts


@settings(max_examples=20, deadline=None)
@given(element=st.integers(min_value=0, max_value=23), row=st.integers(min_value=0, max_value=8))
def test_group_action_preserves_diagnostics(element, row):
    entry = catalog_rows("O")[row]
    nu = row_sequence("O", entry.name)
    R = nu.polyhedron.group.elements[element]
    moved = nu.transformed(R)
    assert moved.side_counts == nu.side_counts
    word = H.triangles_from_vertices(nu)
    word_moved = H.triangles_from_vertices(moved)
    assert len(H.reduce_cyclic_word(word.triangles)) == len(
        H.reduce_cyclic_word(word_moved.triangles)
    )
    assert H.is_alpha_simple(word_moved, entry.alpha) == H.is_alpha_simple(word, entry.alpha)
    assert H.is_tied_to_two_coboundary_axes(word_moved) == H.is_tied_to_two_coboundary_axes(word)


def reference_chamber_word(nu):
    """The chamber word with each half-edge projected and located per call,
    as before the edge table (reference)."""
    poly = nu.polyhedron
    tess = poly.tessellation
    ids = nu.vertex_ids
    raw = []
    for i in range(len(ids)):
        a, b = poly.vertices[ids[i]], poly.vertices[ids[(i + 1) % len(ids)]]
        for s in (0.25, 0.75):
            x = (1.0 - s) * a + s * b
            x /= np.linalg.norm(x)
            assert np.max(tess.points @ x) <= 1.0 - 1e-12
            raw.append(tess.locate(x))
    return tuple(H.merge_cyclic_duplicates(raw))


@pytest.mark.parametrize("tag,name", ALL_ROWS)
def test_edge_chambers_match_the_per_edge_projection(tag, name):
    nu = row_sequence(tag, name)
    poly = nu.polyhedron
    for R in poly.group.elements:
        moved = nu.transformed(R)
        assert H.triangles_from_vertices(moved).triangles == reference_chamber_word(moved)


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_edge_chambers_cover_both_directions_of_every_edge(tag):
    poly = H.build_archimedean(tag)
    table = poly.edge_chambers
    assert table is poly.edge_chambers
    assert len(table) == 2 * len(poly.edges)
    for i, j in poly.edges:
        assert table[j, i] == table[i, j][::-1]
        assert table[i, j][1] in poly.tessellation.neighbors[table[i, j][0]]
    with pytest.raises(TypeError):
        table[0, 0] = (0, 0)


@pytest.mark.parametrize("order", [2, 4])
def test_edge_chambers_refuse_an_edge_through_a_pole(order):
    """A chord of the O solid whose radial projection runs through a pole of
    the given order meets only chambers around that pole: the quarter-point
    samples used to return two chambers that share the pole and no wall."""
    poly = H.build_archimedean("O")
    tess = poly.tessellation
    chords = []
    for i, j in itertools.combinations(range(poly.vertex_count), 2):
        mid = poly.vertices[i] + poly.vertices[j]
        hit = np.flatnonzero(tess.points @ mid > (1.0 - 1e-12) * np.linalg.norm(mid))
        if len(hit) and tess.pole_order[hit[0]] == order:
            chords.append((np.linalg.norm(poly.vertices[i] - poly.vertices[j]), i, j))
    _, i, j = min(chords)
    # the step from vertex i to vertex j, made the polyhedron's one step
    products, eye = poly.group.products, poly.group.identity_index
    inverse = [row.index(eye) for row in products]
    s = products[inverse[i]][j]
    step = poly.vertices[s]
    through = H.ArchimedeanPolyhedron(poly.group, tess, (poly.base_points[0], step, step))
    assert set(through.edges) == {tuple(sorted((g, row[s]))) for g, row in enumerate(products)}
    assert through.edge_type(i, j) == through.edge_type(j, i) == 1
    with pytest.raises(ValueError, match="adjacent chamber"):
        through.edge_chambers


# ---------------------------------------------------------------------------
# Cyclic words


def test_word_utilities():
    assert H.merge_consecutive([1, 1, 2, 2, 3]) == [1, 2, 3]
    assert H.merge_cyclic_duplicates([1, 2, 3, 1]) == [1, 2, 3]
    assert H.reduce_cyclic_word([1, 2, 1, 3]) == ()
    assert H.reduce_cyclic_word([1, 2, 3]) == (1, 2, 3)
    assert H.canonical_cyclic_word((2, 3, 1)) == (1, 2, 3)
    assert H.cyclic_words_equal([1, 2, 3, 4], [3, 4, 1, 2])
    # orientation matters: the reversed word is a different class in general
    assert not H.cyclic_words_equal([1, 2, 3], [3, 2, 1])


@settings(max_examples=50, deadline=None)
@given(word=st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=12))
def test_reduce_cyclic_word_properties(word):
    red = H.reduce_cyclic_word(word)
    assert H.reduce_cyclic_word(red) == red
    n = len(red)
    for i in range(n):
        assert red[i] != red[(i + 1) % n]
        assert red[i] != red[(i + 2) % n] or n <= 2
    if red:
        k = len(word) // 2
        rotated = list(word[k:]) + list(word[:k])
        assert H.canonical_cyclic_word(H.reduce_cyclic_word(rotated)) == H.canonical_cyclic_word(red)


def reference_reduce_cyclic_word(word):
    """The quadratic restart loop that reduce_cyclic_word replaced (reference)."""
    w = H.merge_cyclic_duplicates(list(word))
    changed = True
    while changed and len(w) > 2:
        changed = False
        n = len(w)
        for i in range(n):
            if w[i] == w[(i + 2) % n]:
                for k in sorted(((i + 1) % n, (i + 2) % n), reverse=True):
                    del w[k]
                w = H.merge_cyclic_duplicates(w)
                changed = True
                break
    if len(w) <= 2:
        return ()
    return tuple(w)


def random_closed_walk(rng, neighbors):
    """Seeded closed walk in a chamber graph, with repeated chambers.

    A random walk (each step stays put with probability 1/5) is closed by a
    shortest path back to its start; the result has 2 to 60 chambers.
    """
    while True:
        walk = [int(rng.integers(len(neighbors)))]
        for _ in range(int(rng.integers(1, 60))):
            here = walk[-1]
            walk.append(here if rng.random() < 0.2 else int(rng.choice(neighbors[here])))
        start, end = walk[0], walk[-1]
        prev = {end: None}
        frontier = [end]
        while start not in prev:
            reached = []
            for a in frontier:
                for b in neighbors[a]:
                    if b not in prev:
                        prev[b] = a
                        reached.append(b)
            frontier = reached
        between = []
        c = prev[start]
        while c is not None and c != end:
            between.append(c)
            c = prev[c]
        word = walk + between[::-1]
        if 2 <= len(word) <= 60:
            return word


def random_chamber_words(rng, tess, count):
    """count seeded random closed walks (random_closed_walk) as triangle
    sequences, repeats merged; walks that merge to one chamber are skipped."""
    words = []
    while len(words) < count:
        word = H.merge_cyclic_duplicates(random_closed_walk(rng, tess.neighbors))
        if len(word) >= 2:
            words.append(H.TriangleSequence(tess, tuple(word)))
    return words


FAN_TURNS = ((1, 1), (2, 1), (1, 3))


def fan_concatenations(rng, tess):
    """Every two-pole fan concatenation of the tessellation, each at one
    seeded rotation: for each chamber x and pair p1, p2 of its corners, n1
    full turns of p1's fan and then n2 of p2's, both fans read from x, for
    (n1, n2) in FAN_TURNS.  Each word is tied to {p1, p2}."""
    for x, corners in enumerate(tess.triangles):
        for p1, p2 in itertools.combinations(corners, 2):
            r1, r2 = full_fan_word(tess, p1, start=x), full_fan_word(tess, p2, start=x)
            for n1, n2 in FAN_TURNS:
                word = r1 * n1 + r2 * n2
                k = int(rng.integers(len(word)))
                yield H.TriangleSequence(tess, tuple(word[k:] + word[:k]))


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_reduce_cyclic_word_matches_restart_loop(tag):
    neighbors = H.build_archimedean(tag).tessellation.neighbors
    rng = np.random.default_rng([3, "TOI".index(tag)])
    contractible = 0
    for _ in range(2000):
        word = random_closed_walk(rng, neighbors)
        for a, b in zip(word, word[1:] + word[:1]):
            assert a == b or b in neighbors[a]
        new, old = H.reduce_cyclic_word(word), reference_reduce_cyclic_word(word)
        assert (new == ()) == (old == ())
        assert H.canonical_cyclic_word(new) == H.canonical_cyclic_word(old)
        assert H.reduce_cyclic_word(new) == new
        contractible += new == ()
    assert 100 < contractible < 1900


@pytest.mark.parametrize("tag,name", ALL_ROWS)
def test_cone_reduced_word_matches_restart_loop(tag, name):
    cone = H.catalog_cone(tag, name)
    old = reference_reduce_cyclic_word(cone.triangle_sequence.triangles)
    assert H.canonical_cyclic_word(cone.reduced_word) == H.canonical_cyclic_word(old)


# ---------------------------------------------------------------------------
# Projection to chamber words


def test_back_and_forth_is_contractible():
    poly = H.build_archimedean("T")
    j = poly.neighbors(0)[0][0]
    nu = H.VertexSequence(poly, (0, j))
    word = H.triangles_from_vertices(nu)
    assert len(word) == 2
    assert H.reduce_cyclic_word(word.triangles) == ()


def square_circuit_around_order4_pole():
    poly = H.build_archimedean("O")
    tess = poly.tessellation
    pid = next(p for p in range(len(tess.pole_order)) if tess.pole_order[p] == 4)
    p = tess.points[pid]
    near = np.argsort(-(poly.vertices @ p))[:4]
    seed = np.array([1.0, 0.0, 0.0])
    if abs(seed @ p) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    e1 = seed - (seed @ p) * p
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(p, e1)
    ang = [math.atan2(poly.vertices[v] @ e2, poly.vertices[v] @ e1) for v in near]
    ring = tuple(int(v) for _, v in sorted(zip(ang, near)))
    return poly, pid, H.VertexSequence(poly, ring)


def test_square_circuit_winds_a_single_axis():
    poly, pid, nu = square_circuit_around_order4_pole()
    tess = poly.tessellation
    word = H.triangles_from_vertices(nu)
    reduced = H.reduce_cyclic_word(word.triangles)
    assert len(reduced) == 8
    shared = set(tess.triangles[reduced[0]])
    for t in reduced[1:]:
        shared &= set(tess.triangles[t])
    assert shared == {pid}
    assert not H.is_alpha_simple(word, 1.0)


@pytest.mark.parametrize("tag,name", ALL_ROWS)
def test_catalog_words_are_reduced_simple_untied(tag, name):
    entry = catalog_entry(tag, name)
    nu = row_sequence(tag, name)
    word = H.triangles_from_vertices(nu)
    reduced = H.reduce_cyclic_word(word.triangles)
    assert len(word) == WORD_LENGTHS[(tag, name)]
    assert len(reduced) == len(word)
    assert H.is_alpha_simple(word, entry.alpha)
    assert not H.is_tied_to_two_coboundary_axes(word)


# ---------------------------------------------------------------------------
# Winding diagnostics


def reference_is_alpha_simple(t_seq, alpha):
    """True iff no winding string exceeds the deflection budget of alpha
    (reference: the body before the shared run tables, one membership row
    and one window slice per pole and start).

    The forbidden pattern around a pole p of order o is a string of
    2*floor(1/(2-alpha))*o + 1 consecutive chambers whose closed intersection
    is exactly {p}: all of them contain p and at least three distinct
    chambers occur (with one or two distinct chambers the intersection is a
    whole chamber or a shared side, which strictly contains {p}).  Windows
    wrap around the cyclic sequence, repeating it as needed.
    """
    check_alpha(alpha)
    tess = t_seq.tessellation
    tris = list(t_seq.triangles)
    L = len(tris)
    kappa = math.floor(1.0 / (2.0 - alpha))
    touched = sorted({v for t in tris for v in tess.triangles[t]})
    for pid in touched:
        o = tess.pole_order[pid]
        W = 2 * kappa * o + 1
        member = [pid in tess.triangles[t] for t in tris]
        reps = 1 + (W + L - 1) // L
        ext_m = member * reps
        ext_t = tris * reps
        for start in range(L):
            if not ext_m[start]:
                continue
            window = ext_m[start : start + W]
            if all(window) and len(set(ext_t[start : start + W])) >= 3:
                return False
    return True


def reference_is_tied_to_two_coboundary_axes(t_seq):
    """True iff the word splits into full turns around two poles of one chamber
    (reference: the body before the alternating-block search, a DP over
    flag sets on every rotation for every pole pair of every chamber).

    Condition (i): the cyclic sequence partitions into consecutive blocks,
    each of length 2*n*o_p for some n >= 1, whose chambers all contain the
    block's pole p (with at least three distinct chambers, so the closed
    intersection is exactly {p}), where p ranges over a fixed pair {p1, p2}
    and both poles are used.  Condition (ii): some tessellation chamber has
    both p1 and p2 as vertices.
    """
    tess = t_seq.tessellation
    tris = list(t_seq.triangles)
    L = len(tris)

    pairs = sorted(
        {
            tuple(sorted(pair))
            for t in tess.triangles
            for pair in itertools.combinations(t, 2)
        }
    )

    member = {}

    def member_row(pid):
        row = member.get(pid)
        if row is None:
            row = [pid in tess.triangles[t] for t in tris]
            member[pid] = row
        return row

    for p1, p2 in pairs:
        m1, m2 = member_row(p1), member_row(p2)
        if not all(a or b for a, b in zip(m1, m2)):
            continue
        o1, o2 = tess.pole_order[p1], tess.pole_order[p2]
        for offset in range(L):
            rot = [tris[(offset + i) % L] for i in range(L)]
            r1 = [m1[(offset + i) % L] for i in range(L)]
            r2 = [m2[(offset + i) % L] for i in range(L)]
            # states: position -> set of (used p1, used p2)
            states = {0: {(False, False)}}
            for pos in range(L):
                flags = states.get(pos)
                if not flags:
                    continue
                for mrow, o, which in ((r1, o1, 0), (r2, o2, 1)):
                    block = 2 * o
                    n = 1
                    while pos + n * block <= L:
                        end = pos + n * block
                        if not all(mrow[pos:end]):
                            break
                        if len(set(rot[pos:end])) >= 3:
                            bucket = states.setdefault(end, set())
                            for u1, u2 in flags:
                                bucket.add((u1 or which == 0, u2 or which == 1))
                        n += 1
            if (True, True) in states.get(L, ()):
                return True
    return False


def full_fan_word(tess, pid, start=None):
    fan = list(tess.fan[pid])
    if start is not None:
        k = fan.index(start)
        fan = fan[k:] + fan[:k]
    return fan


def test_five_turns_around_order2_pole_never_simple():
    poly = H.build_archimedean("T")
    tess = poly.tessellation
    pid = next(p for p in range(len(tess.pole_order)) if tess.pole_order[p] == 2)
    word = full_fan_word(tess, pid) * 5
    seq = H.TriangleSequence(tess, tuple(word))
    assert not H.is_alpha_simple(seq, 1.0)
    assert not H.is_alpha_simple(seq, 1.9)


def test_alpha_simple_threshold_and_monotonicity():
    poly = H.build_archimedean("T")
    tess = poly.tessellation
    pid = next(p for p in range(len(tess.pole_order)) if tess.pole_order[p] == 3)
    fan = full_fan_word(tess, pid)
    c = fan[:5]
    d = next(t for t in tess.neighbors[c[4]] if t not in fan)
    word = c + [d] + [c[4], c[3], c[2], c[1]]
    seq = H.TriangleSequence(tess, tuple(word))
    verdicts = [H.is_alpha_simple(seq, a) for a in (1.0, 1.2, 1.5, 1.9)]
    assert verdicts == [False, False, True, True]
    # once simple, simple for every larger exponent
    for earlier, later in zip(verdicts, verdicts[1:]):
        assert later or not earlier


def test_tessellation_is_freed_after_the_diagnostics():
    tess = full_group_tessellation(builtin_group("T"))
    alive = weakref.ref(tess)
    seq = H.TriangleSequence(tess, (0, tess.neighbors[0][0]))
    assert H.is_alpha_simple(seq, 1.0)
    del tess, seq
    gc.collect()
    assert alive() is None


def test_tied_to_two_axes_examples():
    poly = H.build_archimedean("T")
    tess = poly.tessellation
    p1, p2, p3 = tess.triangles[0]
    X = 0
    r1 = full_fan_word(tess, p1, start=X)
    r2 = full_fan_word(tess, p2, start=X)
    r3 = full_fan_word(tess, p3, start=X)
    two = H.TriangleSequence(tess, tuple(r1 + r2))
    assert H.is_tied_to_two_coboundary_axes(two)
    one = H.TriangleSequence(tess, tuple(r1))
    assert not H.is_tied_to_two_coboundary_axes(one)
    three = H.TriangleSequence(tess, tuple(r1 + r2 + r3))
    assert not H.is_tied_to_two_coboundary_axes(three)


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_tied_to_two_axes_examples_on_every_group(tag):
    # from every chamber x: full turns around two of its corners tie, turns
    # around one corner do not, and one turn around each of the three not
    tess = H.build_archimedean(tag).tessellation
    tied = H.is_tied_to_two_coboundary_axes
    for x, corners in enumerate(tess.triangles):
        fans = {p: full_fan_word(tess, p, start=x) for p in corners}
        for p1, p2 in itertools.combinations(corners, 2):
            assert tied(H.TriangleSequence(tess, tuple(fans[p1] + fans[p2])))
        for p in corners:
            assert not tied(H.TriangleSequence(tess, tuple(fans[p])))
            assert not tied(H.TriangleSequence(tess, tuple(fans[p] * 2)))
        assert not tied(H.TriangleSequence(tess, tuple(sum(fans.values(), []))))


DIFFERENTIAL_ALPHAS = (1.0, 1.3, 1.5, 1.7, 1.9, 1.95)


def test_winding_diagnostics_match_the_reference_bodies():
    # the 19 catalog words at six exponents and their own, every two-pole
    # fan concatenation of T, O and I, and 300 seeded random walks per tag
    cases = [
        (H.triangles_from_vertices(row_sequence(tag, name)), catalog_entry(tag, name).alpha)
        for tag, name in ALL_ROWS
    ]
    cases = [(word, DIFFERENTIAL_ALPHAS + (alpha,)) for word, alpha in cases]
    for tag in ("T", "O", "I"):
        tess = H.build_archimedean(tag).tessellation
        rng = np.random.default_rng([27, "TOI".index(tag)])
        words = [*fan_concatenations(rng, tess), *random_chamber_words(rng, tess, 300)]
        cases += [(word, DIFFERENTIAL_ALPHAS) for word in words]
    tied, simple = Counter(), Counter()
    for word, alphas in cases:
        verdict = H.is_tied_to_two_coboundary_axes(word)
        assert verdict == reference_is_tied_to_two_coboundary_axes(word), word
        tied[verdict] += 1
        for alpha in alphas:
            verdict = H.is_alpha_simple(word, alpha)
            assert verdict == reference_is_alpha_simple(word, alpha), (word, alpha)
            simple[verdict] += 1
    assert len(cases) == 19 + 9 * (24 + 48 + 120) + 3 * 300
    assert tied[True] >= 1000 and tied[False] >= 800
    assert min(simple.values()) >= 1000


def winding_verdicts(word, alphas=(1.0, 1.5, 1.9)):
    return H.is_tied_to_two_coboundary_axes(word), [H.is_alpha_simple(word, a) for a in alphas]


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_winding_verdicts_survive_rotation_reversal_and_the_group(tag):
    tess = H.build_archimedean(tag).tessellation
    rng = np.random.default_rng([28, "TOI".index(tag)])
    fans = list(fan_concatenations(rng, tess))
    words = [fans[k] for k in rng.choice(len(fans), 6, replace=False)]
    words += random_chamber_words(rng, tess, 12)
    words += [H.triangles_from_vertices(row_sequence(tag, e.name)) for e in catalog_rows(tag)]
    seen = set()
    for word in words:
        w, want = word.triangles, winding_verdicts(word)
        seen.add((want[0], tuple(want[1])))
        moved = [w[k:] + w[:k] for k in range(1, len(w))] + [w[::-1]]
        moved += [tuple(perm[t] for t in w) for perm in tess.triangle_permutations]
        for other in moved:
            assert winding_verdicts(H.TriangleSequence(tess, other)) == want, (w, other)
    # tied and untied words, simple at alpha = 1 and not, were all moved
    assert {tied for tied, _ in seen} == {True, False}
    assert {simple[0] for _, simple in seen} == {True, False}


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_alpha_simple_is_monotone_on_random_walks(tag):
    # once simple, simple at every larger exponent
    tess = H.build_archimedean(tag).tessellation
    alphas = (1.0, 1.2, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 1.95, 1.99)
    flips = 0
    for word in random_chamber_words(np.random.default_rng([29, "TOI".index(tag)]), tess, 300):
        verdicts = [H.is_alpha_simple(word, a) for a in alphas]
        assert verdicts == sorted(verdicts), word
        flips += verdicts[0] != verdicts[-1]
    assert flips >= 10


# ---------------------------------------------------------------------------
# Test loops


def test_test_loop_geometry():
    nu = row_sequence("T", "nu1")
    T = TWO_PI
    loop = H.test_loop(nu, T, 96)
    assert loop.points.shape == (96, 3)
    m = 96 // nu.steps
    assert np.allclose(loop.points[::m], nu.points, atol=1e-14)
    gaps = np.linalg.norm(np.roll(loop.points, -1, axis=0) - loop.points, axis=1)
    speed = gaps * 96 / T
    expected = nu.polyhedron.edge_length * nu.steps / T
    assert np.max(np.abs(speed - expected)) < 1e-12
    assert np.min(np.linalg.norm(loop.points, axis=1)) > 0.5


def test_test_loop_rejects_bad_sample_counts():
    nu = row_sequence("T", "nu1")
    with pytest.raises(ValueError):
        H.test_loop(nu, TWO_PI, 100)
    with pytest.raises(ValueError):
        H.test_loop(nu, -1.0, 96)


@pytest.mark.parametrize("samples", [0, -8, -16], ids=["0", "-8", "-16"])
def test_test_loop_refuses_a_non_positive_sample_count(samples):
    # each used to pass the divisibility check and return an empty loop
    with pytest.raises(ValueError, match="samples must be a positive integer >= 8"):
        H.test_loop(row_sequence("T", "nu1"), TWO_PI, samples)


def test_test_loop_reads_an_integral_sample_count_as_an_int():
    nu = row_sequence("T", "nu1")
    assert np.array_equal(H.test_loop(nu, TWO_PI, 96.0).points, H.test_loop(nu, TWO_PI, 96).points)


# ---------------------------------------------------------------------------
# Cone specifications


def test_cone_spec_vertical_tags():
    z4 = H.ConeSpec(
        group=builtin_group("Z4"), nu=None, alpha=1.0, extra_symmetry=None,
        period=TWO_PI, central_mass=0.0,
    )
    assert z4.reduced_word == ()
    with pytest.raises(ValueError):
        H.ConeSpec(
            group=builtin_group("KLEIN"), nu=row_sequence("T", "nu1"), alpha=1.0,
            extra_symmetry=None, period=TWO_PI, central_mass=0.0,
        )
    with pytest.raises(ValueError):
        H.ConeSpec(
            group=builtin_group("Z2N", 3), nu=None, alpha=1.0,
            extra_symmetry=None, period=TWO_PI, central_mass=0.0,
        )


def test_cone_spec_rejects_degenerate_classes():
    poly = H.build_archimedean("T")
    j = poly.neighbors(0)[0][0]
    with pytest.raises(ValueError, match="contractible"):
        H.ConeSpec(
            group=poly.group, nu=H.VertexSequence(poly, (0, j)), alpha=1.0,
            extra_symmetry=None, period=1.0, central_mass=0.0,
        )
    polyO, _, ring = square_circuit_around_order4_pole()
    with pytest.raises(ValueError, match="single rotation axis"):
        H.ConeSpec(
            group=polyO.group, nu=ring, alpha=1.0,
            extra_symmetry=None, period=1.0, central_mass=0.0,
        )


@pytest.mark.parametrize("M", [4.7, 4.2, math.inf], ids=["4.7", "4.2", "inf"])
def test_cone_spec_refuses_a_non_integer_extra_symmetry_order(M):
    # 4.7 used to be stored as M = 4
    base = H.catalog_cone("O", "nu4")
    R, stored = base.extra_symmetry
    assert stored == 4
    with pytest.raises(ValueError, match="order M must be a positive integer"):
        H.ConeSpec(
            group=base.group, nu=base.nu, alpha=base.alpha, extra_symmetry=(R, M),
            period=base.period, central_mass=base.central_mass,
        )
    whole = H.ConeSpec(
        group=base.group, nu=base.nu, alpha=base.alpha, extra_symmetry=(R, 4.0),
        period=base.period, central_mass=base.central_mass,
    )
    assert type(whole.extra_symmetry[1]) is int and whole.extra_symmetry[1] == 4


@pytest.mark.parametrize(
    "field, value",
    [("period", math.nan), ("period", math.inf), ("central_mass", math.nan), ("central_mass", math.inf)],
    ids=["period-nan", "period-inf", "mass-nan", "mass-inf"],
)
def test_cone_spec_refuses_non_finite_inputs(field, value):
    # a NaN period or mass used to pass through to a certificate with NaN
    # members, and an infinite period to a ZeroDivisionError inside certify
    base = H.catalog_cone("T", "nu1")
    kwargs = dict(
        group=base.group, nu=base.nu, alpha=base.alpha, extra_symmetry=base.extra_symmetry,
        period=base.period, central_mass=base.central_mass,
    )
    kwargs[field] = value
    with pytest.raises(ValueError, match="finite"):
        H.ConeSpec(**kwargs)
    kwargs[field] = 1.5
    assert getattr(H.ConeSpec(**kwargs), field) == 1.5


def test_cone_spec_extra_symmetry_validation():
    nu = row_sequence("O", "nu1")
    group = nu.polyhedron.group
    good = H.find_extra_symmetry(nu, 2)[0]
    cone = H.ConeSpec(
        group=group, nu=nu, alpha=1.0, extra_symmetry=(good, 2),
        period=TWO_PI, central_mass=0.0,
    )
    assert cone.extra_symmetry[1] == 2
    with pytest.raises(ValueError, match="not in the group"):
        H.ConeSpec(
            group=group, nu=nu, alpha=1.0, extra_symmetry=(-np.eye(3), 2),
            period=TWO_PI, central_mass=0.0,
        )
    key_good = H.matrix_key(good)
    other = next(
        R
        for R in group.elements
        if H.matrix_key(R) != key_good
        and np.allclose(R @ R, np.eye(3), atol=1e-9)
        and not np.allclose(R, np.eye(3), atol=1e-9)
    )
    with pytest.raises(ValueError, match="does not shift the sequence by steps/M"):
        H.ConeSpec(
            group=group, nu=nu, alpha=1.0, extra_symmetry=(other, 2),
            period=TWO_PI, central_mass=0.0,
        )
    # an even M that the step count is not divisible by; the order 2 of good divides it
    uneven = next(M for M in range(4, 2 * nu.steps, 2) if nu.steps % M)
    for M, message in ((uneven, "not divisible by M"), (0, "positive integer")):
        with pytest.raises(ValueError, match=message):
            H.ConeSpec(
                group=group, nu=nu, alpha=1.0, extra_symmetry=(good, M),
                period=TWO_PI, central_mass=0.0,
            )
    with pytest.raises(ValueError):
        H.ConeSpec(
            group=group, nu=nu, alpha=2.0, extra_symmetry=None,
            period=TWO_PI, central_mass=0.0,
        )


def test_cone_spec_rejects_an_order_not_dividing_M():
    nu = row_sequence("O", "nu1")
    group = nu.polyhedron.group
    good = H.find_extra_symmetry(nu, 2)[0]
    assert group.element_orders[group.index(good)] == 2
    with pytest.raises(ValueError, match="order dividing M"):
        H.ConeSpec(
            group=group, nu=nu, alpha=1.0, extra_symmetry=(good, 3),
            period=TWO_PI, central_mass=0.0,
        )


@pytest.mark.parametrize(
    "key,shift",
    [("M", 0.7), ("element_index", 0.9), ("M", math.inf)],
    ids=["M-plus-0.7", "element_index-plus-0.9", "M-inf"],
)
def test_cone_from_config_refuses_a_non_integer_count(key, shift):
    """M + 0.7 and element_index + 0.9 were truncated to the saved cone; an
    infinite M raised OverflowError."""
    config = H.catalog_cone("O", "nu6").to_config()
    config["extra_symmetry"][key] += shift
    with pytest.raises(ValueError, match=f"{key} must be"):
        H.cone_from_config(config)


@pytest.mark.parametrize("tag,name,index", [("O", "nu6", 48), ("T", "nu1", 12)], ids=["O-48", "T-12"])
def test_cone_from_config_refuses_an_element_index_past_the_group(tag, name, index):
    """An index at the group order raised IndexError."""
    config = H.catalog_cone(tag, name).to_config()
    config["extra_symmetry"]["element_index"] = index
    with pytest.raises(ValueError, match="element_index must be below the group order"):
        H.cone_from_config(config)


@pytest.mark.parametrize("tag,name", [("T", "nu1"), ("O", "nu6"), ("I", "nu3")])
def test_cone_config_roundtrip(tag, name, tmp_path):
    cone = H.catalog_cone(tag, name, period=3.5, central_mass=2.0)
    blob = json.dumps(cone.to_config(), sort_keys=True)
    again = H.cone_from_config(json.loads(blob))
    assert json.dumps(again.to_config(), sort_keys=True) == blob
    path = tmp_path / "cone.json"
    H.save_cone(cone, path)
    loaded = H.load_cone(path)
    assert json.dumps(loaded.to_config(), sort_keys=True) == blob
    assert again.group is again.nu.polyhedron.group is cone.group
    assert loaded.group is loaded.nu.polyhedron.group
    assert loaded.alpha == cone.alpha
    assert loaded.nu.vertex_ids == cone.nu.vertex_ids


def test_catalog_cone_carries_row_data():
    cone = H.catalog_cone("O", "nu6")
    assert cone.alpha == 1.6
    assert cone.extra_symmetry[1] == 4
    assert cone.nu.steps == 16
    assert len(cone.reduced_word) == WORD_LENGTHS[("O", "nu6")]


# ---------------------------------------------------------------------------
# Minimal total angle


def test_min_total_angle_klein_closed_form():
    cone = H.ConeSpec(
        group=builtin_group("KLEIN"), nu=None, alpha=1.0, extra_symmetry=None,
        period=TWO_PI, central_mass=0.5,
    )
    res = H.min_total_angle(cone)
    assert abs(res.total_angle - TWO_PI) < 1e-12
    assert res.turns == 0
    expected_axes = np.array(
        [[0, 1, 0], [0, 0, 1], [0, -1, 0], [0, 0, -1]], dtype=float
    )
    assert np.allclose(res.semi_axes, expected_axes)
    assert np.allclose(res.arc_angles, np.full(4, math.pi / 2))
    assert np.allclose(res.times, TWO_PI * np.array([0.0, 0.25, 0.5, 0.75]))


def test_min_total_angle_rejects_central_cone():
    cone = H.ConeSpec(
        group=builtin_group("Z4"), nu=None, alpha=1.0, extra_symmetry=None,
        period=TWO_PI, central_mass=0.0,
    )
    with pytest.raises(ValueError, match="central"):
        H.min_total_angle(cone)


@pytest.mark.parametrize(
    "tag,name,expected,arcs",
    [
        ("T", "nu1", TWO_PI, 6),
        ("O", "nu4", 8.0 * math.acos(math.sqrt(2.0 / 3.0)), 8),
        ("O", "nu5", 4.0 * math.pi / 3.0, 4),
    ],
)
def test_min_total_angle_platonic(tag, name, expected, arcs):
    cone = H.catalog_cone(tag, name)
    res = H.min_total_angle(cone)
    assert abs(res.total_angle - expected) < 1e-9
    assert len(res.arc_angles) == arcs
    M = cone.extra_symmetry[1]
    assert res.total_angle / M < TWO_PI
    assert abs(res.arc_angles.sum() - res.total_angle) < 1e-12
    assert np.max(np.abs(np.linalg.norm(res.semi_axes, axis=1) - 1.0)) < 1e-12
    assert res.times[0] == 0.0
    assert np.all(np.diff(res.times) > 0.0)
    assert res.times[-1] < cone.period
    assert H.cyclic_words_equal(res.word, cone.reduced_word)


def test_minimal_angle_results_compare_and_hash_by_identity():
    """Array fields made field-wise == ambiguous: == raised ValueError and
    hash raised TypeError.  Equality is identity."""
    cone = H.catalog_cone("T", "nu1")
    first, second = H.min_total_angle(cone), H.min_total_angle(cone)
    assert first == first and not first != first
    assert first != second and not first == second
    assert len({first, second}) == 2


def test_min_total_angle_budget_exhaustion(monkeypatch):
    cone = H.catalog_cone("T", "nu1")
    monkeypatch.setattr(H, "_MAX_POPS", 5)
    with pytest.raises(RuntimeError, match="exhausted"):
        H.min_total_angle(cone)


def reference_circle_word(tess, axis):
    """The great-circle word as its own wall-crossing loop read it, with its
    rounding and de-duplication of the crossing angles (reference)."""
    seed = np.array([1.0, 0.0, 0.0])
    if abs(axis @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    u = seed - (seed @ axis) * axis
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    events = []
    for n in tess.wall_normals:
        A, B = n @ u, n @ v
        if math.hypot(A, B) < 1e-12:
            return None
        base = math.atan2(-A, B)
        for k in (0, 1, 2):
            events.append((base + k * math.pi) % TWO_PI)
    events = sorted(set(round(e, 12) for e in events))
    word = []
    bounds = events + [events[0] + TWO_PI]
    for a, b in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (a + b)
        word.append(tess.locate(math.cos(mid) * u + math.sin(mid) * v))
    return H.merge_cyclic_duplicates(word)


def reference_arc_param(za, zb):
    """(theta, w) of the short arc from za to zb, one arc per call (reference)."""
    c = float(np.clip(za @ zb, -1.0, 1.0))
    theta = math.acos(c)
    w = zb - c * za
    w /= np.linalg.norm(w)
    return theta, w


def reference_arc_wall(tess, za, zb):
    """Index of the wall whose great circle carries the whole arc, or None,
    tested on the arc's endpoints (reference)."""
    normals = tess.wall_normals
    hits = np.flatnonzero(np.maximum(np.abs(normals @ za), np.abs(normals @ zb)) < 1e-9)
    if len(hits) > 1:
        raise ValueError("arc endpoints lie on two common walls")
    return int(hits[0]) if len(hits) else None


def reference_off_wall_itinerary(tess, za, zb):
    """The pole-to-pole arc's chambers as its own wall-crossing loop read
    them (reference)."""
    theta, w = reference_arc_param(za, zb)
    events = []
    for n in tess.wall_normals:
        A, B = n @ za, n @ w
        base = math.atan2(-A, B)
        for k in (-1, 0, 1, 2):
            phi = base + k * math.pi
            if 1e-9 < phi < theta - 1e-9:
                events.append(phi)
    bounds = [0.0] + sorted(events) + [theta]
    word = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (a + b)
        word.append(tess.locate(math.cos(mid) * za + math.sin(mid) * w))
    return H.merge_consecutive(word)


def sampled_circle_axes(tess):
    """The normals of 300 Fibonacci directions whose circles keep 5e-3 away
    from every pole: the sample the table of circle classes that the exact
    central-class test replaced was read from (reference)."""
    k = np.arange(300)
    z = 1.0 - (2.0 * k + 1.0) / 300
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    ang = TWO_PI * k / ((1.0 + math.sqrt(5.0)) / 2.0)
    directions = np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)
    axes = [axis / np.linalg.norm(axis) for axis in directions]
    return [axis for axis in axes if np.min(np.abs(tess.points @ axis)) >= 5e-3]


def read_successor_arcs(poly):
    """{(a, b): (chambers, wall)} of every successor arc, as the great-arc
    reader reads them, one call per starting pole."""
    tess = poly.tessellation
    read = {}
    for a, row in enumerate(poly.arc_table[1]):
        bs = [b for _, b in row]
        theta, w = H._arc_tangents(tess.points[a], tess.points[bs])
        read.update(zip(((a, b) for b in bs), H._arc_chambers(tess, tess.points[a], w, theta)))
    return read


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_arc_itinerary_matches_the_crossing_loop_on_every_successor_arc(tag):
    """Every successor arc off a wall; an arc along a wall has no chamber of
    its own, and the reader gives its wall instead."""
    poly = H.build_archimedean(tag)
    tess = poly.tessellation
    read = read_successor_arcs(poly)
    off_wall = [(a, b) for a, b in read if reference_arc_wall(tess, tess.points[a], tess.points[b]) is None]
    assert 0 < len(off_wall) < len(read)
    for a, b in off_wall:
        za, zb = tess.points[a], tess.points[b]
        assert read[a, b] == (reference_off_wall_itinerary(tess, za, zb), None)


@pytest.mark.parametrize("tag,along_walls", [("T", 72), ("O", 144), ("I", 360)])
def test_arc_itinerary_refuses_exactly_the_arcs_along_a_wall(tag, along_walls):
    """The reader flags exactly the arcs whose endpoints share a wall, with
    that wall, and reads no chamber off them."""
    poly = H.build_archimedean(tag)
    tess = poly.tessellation
    flagged, refused = {}, {}
    for (a, b), (word, wall) in read_successor_arcs(poly).items():
        reference = reference_arc_wall(tess, tess.points[a], tess.points[b])
        if reference is not None:
            flagged[a, b] = reference
        if wall is not None:
            assert word == []
            refused[a, b] = wall
    assert refused == flagged
    assert len(refused) == along_walls


@pytest.mark.parametrize("tag,sides", [("T", 36), ("O", 72), ("I", 180)])
def test_arcs_along_a_wall_are_the_ordered_tessellation_sides(tag, sides):
    poly = H.build_archimedean(tag)
    tris = poly.tessellation.triangles
    ordered_sides = {pair for tri in tris for pair in itertools.permutations(tri, 2)}
    assert len(ordered_sides) == 2 * sides
    read = read_successor_arcs(poly)
    assert {arc for arc, (_, wall) in read.items() if wall is not None} == ordered_sides


def reference_on_wall_itinerary(tess, za, zb, wall, side):
    """The chamber beside an arc along a wall, located at the arc's midpoint
    nudged 1e-7 off the wall towards side * its normal (reference)."""
    theta, w = reference_arc_param(za, zb)
    mid = math.cos(0.5 * theta) * za + math.sin(0.5 * theta) * w
    return [tess.locate(mid + side * 1e-7 * tess.wall_normals[wall])]


def reference_on_wall_sides(tess, a, b, wall):
    """The one-chamber runs on either side of the arc from pole a to pole b
    along a wall, the side its normal points to first, told by the third
    corner of the two chambers that have the side {a, b} (reference)."""
    first, second = sorted(set(tess.fan[a]) & set(tess.fan[b]))
    (corner,) = set(tess.triangles[first]) - {a, b}
    if tess.wall_normals[wall] @ tess.points[corner] < 0.0:
        first, second = second, first
    return [[first], [second]]


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_on_wall_runs_match_the_nudged_midpoint(tag):
    poly = H.build_archimedean(tag)
    tess = poly.tessellation
    checked = 0
    for a, row in enumerate(poly.arc_table[1]):
        for _, b in row:
            za, zb = tess.points[a], tess.points[b]
            wall = reference_arc_wall(tess, za, zb)
            if wall is not None:
                sides = [reference_on_wall_itinerary(tess, za, zb, wall, s) for s in (1.0, -1.0)]
                assert reference_on_wall_sides(tess, a, b, wall) == sides
                assert [list(run) for run in poly.arc_runs[a, b]] == sides
                checked += 1
    assert checked > 0


@lru_cache(maxsize=None)
def reference_circle_words(tag):
    """Reduced words of the 300 sampled great circles, in sample order."""
    tess = H.build_archimedean(tag).tessellation
    words = []
    for axis in sampled_circle_axes(tess):
        word = reference_circle_word(tess, axis)
        if not word:
            continue
        reduced = reference_reduce_cyclic_word(word)
        if reduced:
            words.append(reduced)
    return tuple(words)


@lru_cache(maxsize=None)
def reference_power_class(direction, r):
    return H.canonical_cyclic_word(reference_reduce_cyclic_word(list(direction) * r))


def reference_central_circle_exists(tag, target_word):
    """The sampled-circle loop that _central_circle_exists replaced (reference).

    The circle words and their powers do not depend on the target, so they
    are memoized; the sampling, filters, repetition caps and comparisons are
    the old ones.
    """
    target = H.canonical_cyclic_word(target_word)
    if not target:
        return False
    for reduced in reference_circle_words(tag):
        reps = max(1, -(-len(target) // len(reduced)) + 1)
        for direction in (reduced, reduced[::-1]):
            for r in range(1, reps + 1):
                if r * len(direction) > 4 * len(target) + 8:
                    break
                if reference_power_class(direction, r) == target:
                    return True
    return False


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_central_circle_exists_matches_sampled_loop(tag):
    poly = H.build_archimedean(tag)
    for c in sampled_circle_classes(tag):
        for word in (c, c + c):
            assert H._central_circle_exists(poly, word)
            assert reference_central_circle_exists(tag, word)
    group = builtin_group(tag)
    for entry in catalog_rows(tag):
        word = H.catalog_cone(tag, entry.name).reduced_word
        for R in group.elements:
            perm = poly.tessellation.triangle_permutations[group.index(R)]
            moved = H.canonical_cyclic_word(perm[c] for c in word)
            assert not H._central_circle_exists(poly, moved)
            assert not reference_central_circle_exists(tag, moved)
    assert not H._central_circle_exists(poly, ())


def sampled_circle_classes(tag):
    """Canonical words of the reduced sampled circle words, both directions."""
    return {
        H.canonical_cyclic_word(w)
        for reduced in reference_circle_words(tag)
        for w in (reduced, reduced[::-1])
    }


@lru_cache(maxsize=None)
def reference_arrangement_classes(tag):
    """Canonical reduced words, both directions, of one great circle per cell
    of the arrangement of the circles p^perp over the pole axes p (reference).

    A circle's word changes only where its normal crosses some p^perp, so one
    normal per cell reads every class.  Each cell has on its boundary a
    vertex +-(a x b)/|a x b| of the arrangement, and the cells at a vertex are
    the sectors between the circles through it: the normal steps 1e-3 from
    the vertex into each sector, and reference_circle_word reads its circle.
    The vertices are taken one per group orbit, and each word is moved by
    every element's chamber permutation.
    """
    poly = H.build_archimedean(tag)
    tess = poly.tessellation
    axes = np.array([p for p in tess.points if matrix_key(p) > matrix_key(-p)])
    vertices = {}
    for a, b in itertools.combinations(axes, 2):
        v = np.cross(a, b)
        v /= np.linalg.norm(v)
        for s in (1.0, -1.0):
            vertices.setdefault(matrix_key(s * v), s * v)
    words, covered = [], set()
    for key, v in vertices.items():
        if key in covered:
            continue
        covered.update(matrix_key(R @ v) for R in poly.group.elements)
        tangents = np.cross(axes[np.abs(axes @ v) < 1e-9], v)
        tangents = np.concatenate([tangents, -tangents])
        e1, e2 = unit_frame(v)
        angles = np.sort(np.arctan2(tangents @ e2, tangents @ e1))
        for t in 0.5 * (angles + np.append(angles[1:], angles[0] + TWO_PI)):
            n = v + 1e-3 * (math.cos(t) * e1 + math.sin(t) * e2)
            words.append(reference_reduce_cyclic_word(reference_circle_word(tess, n / np.linalg.norm(n))))
    return frozenset(
        H.canonical_cyclic_word(perm[c] for c in w)
        for perm in tess.triangle_permutations
        for word in words
        for w in (word, word[::-1])
    )


@pytest.mark.parametrize("tag,count", [("T", 32), ("O", 96), ("I", 480)])
def test_central_circle_exists_accepts_every_arrangement_class(tag, count):
    """The arrangement gives 32 / 96 / 480 classes, the sampled ones among
    them, each a word of 2W distinct chambers, and each class and its square
    is central."""
    poly = H.build_archimedean(tag)
    classes = reference_arrangement_classes(tag)
    assert len(classes) == count
    assert sampled_circle_classes(tag) <= classes
    width = 2 * len(poly.tessellation.wall_normals)
    for c in classes:
        assert len(set(c)) == len(c) == width
        assert H._central_circle_exists(poly, c)
        assert H._central_circle_exists(poly, c + c)


def reference_side_signs(tess, word):
    """Signs of the poles of the sides between consecutive chambers of the
    cyclic word, opposite across each side, by a breadth-first two-colouring
    of the graph of those sides; None if no such signs exist (reference)."""
    graph = defaultdict(set)
    for a, b in zip(word, word[1:] + word[:1]):
        p, q = set(tess.triangles[a]) & set(tess.triangles[b])
        graph[p].add(q)
        graph[q].add(p)
    colour = {}
    for start in graph:
        if start in colour:
            continue
        colour[start] = 1
        queue = [start]
        for p in queue:
            for q in graph[p]:
                if q not in colour:
                    colour[q] = -colour[p]
                    queue.append(q)
                elif colour[q] == colour[p]:
                    return None
    return colour


@lru_cache(maxsize=None)
def antipodes(tag):
    points = H.build_archimedean(tag).tessellation.points
    keys = {matrix_key(p): i for i, p in enumerate(points)}
    return tuple(keys[matrix_key(-p)] for p in points)


def antipode_shares_its_sign(tag, signs):
    return any(signs.get(antipodes(tag)[p]) == s for p, s in signs.items())


def rerouted_words(tess, classes, swaps):
    """The class words with `swaps` chambers, no two adjacent, each swapped
    for the other chamber beside both of its neighbours, kept when the word
    still has 2W distinct chambers."""
    words = set()
    for c in classes:
        options = [
            (i, alt)
            for i in range(len(c))
            for alt in set(tess.neighbors[c[i - 1]]) & set(tess.neighbors[c[(i + 1) % len(c)]])
            if alt not in c
        ]
        for chosen in itertools.combinations(options, swaps):
            spots = [i for i, _ in chosen]
            if all((b - a) % len(c) > 1 and (a - b) % len(c) > 1 for a, b in itertools.combinations(spots, 2)):
                word = list(c)
                for i, alt in chosen:
                    word[i] = alt
                if len(set(word)) == len(c):
                    words.add(H.canonical_cyclic_word(word))
    return words


@pytest.mark.parametrize("tag,count", [("T", 48), ("O", 240), ("I", 2160)])
def test_central_circle_exists_refuses_the_rerouted_circle_words(tag, count):
    """A circle class with one chamber swapped for the other chamber beside
    both of its neighbours is no circle's word.  Every such reroute passes
    the length check and the side signs; it moves one pole to the side of
    the circle its antipode is on."""
    poly = H.build_archimedean(tag)
    tess = poly.tessellation
    rerouted = rerouted_words(tess, reference_arrangement_classes(tag), 1)
    assert len(rerouted) == count
    for word in rerouted:
        signs = reference_side_signs(tess, word)
        assert signs is not None and antipode_shares_its_sign(tag, signs)
        assert not H._central_circle_exists(poly, word)


@pytest.mark.parametrize(
    "tag,circles,others", [("T", 24, 0), ("O", 96, 16), ("I", 480, 520)]
)
def test_central_circle_exists_reads_the_twice_rerouted_circle_words(tag, circles, others):
    """Two swaps that keep every pole opposite its antipode: the test
    accepts exactly the words the arrangement lists, and only the corner
    test can refuse the others.  Every reroute has side signs, as a closed
    path through distinct chambers does."""
    poly = H.build_archimedean(tag)
    tess = poly.tessellation
    classes = reference_arrangement_classes(tag)
    verdicts = Counter()
    for word in rerouted_words(tess, classes, 2):
        signs = reference_side_signs(tess, word)
        assert signs is not None
        if antipode_shares_its_sign(tag, signs):
            continue
        assert H._central_circle_exists(poly, word) == (word in classes)
        verdicts[word in classes] += 1
    assert (verdicts[True], verdicts[False]) == (circles, others)


def test_central_circle_exists_refuses_every_t_word_that_repeats_a_chamber():
    """Every cyclically reduced T word of 2W = 12 chambers that visits a
    chamber twice, enumerated as closed non-backtracking walks, is refused.
    Some wind twice about an order-2 pole and pass every later step, so only
    the distinct-chamber check refuses them."""
    poly = H.build_archimedean("T")
    neighbors = poly.tessellation.neighbors
    width = 2 * len(poly.tessellation.wall_normals)
    words = set()

    def extend(walk):
        if len(walk) == width:
            if walk[0] in neighbors[walk[-1]] and walk[-1] != walk[1] and walk[-2] != walk[0]:
                if len(set(walk)) < width:
                    words.add(H.canonical_cyclic_word(walk))
            return
        for c in neighbors[walk[-1]]:
            if len(walk) < 2 or c != walk[-2]:
                extend(walk + [c])

    for start in range(len(neighbors)):
        extend([start])
    assert len(words) == 196
    assert not any(H._central_circle_exists(poly, w) for w in words)


def test_min_total_angle_refuses_a_class_the_sample_missed():
    """The 128 I classes that no sampled circle carries are central: with one
    as its class, a catalog cone is refused instead of searched."""
    missed = sorted(reference_arrangement_classes("I") - sampled_circle_classes("I"))
    assert len(missed) == 128
    assert not reference_central_circle_exists("I", missed[0])
    for word in missed:
        cone = H.catalog_cone("I", "nu3")
        # where the cached property keeps the cone's class
        cone.__dict__["canonical_word"] = word
        with pytest.raises(ValueError, match="central cone"):
            H.min_total_angle(cone)


def test_min_total_angle_refuses_a_symmetry_that_does_not_shift_the_class():
    """The search lifts R to the shift by l/M along the class's axis, so a
    class word that R does not shift that way is refused."""
    cone = H.catalog_cone("T", "nu1")
    # where the cached property keeps the cone's class
    cone.__dict__["canonical_word"] = H.catalog_cone("T", "nu3").canonical_word
    with pytest.raises(ValueError, match="does not shift the class word"):
        H.min_total_angle(cone)


def conjugated_cone(base, element):
    nu = base.nu.transformed(base.group.elements[element])
    M = base.extra_symmetry[1]
    return H.ConeSpec(
        group=base.group, nu=nu, alpha=base.alpha,
        extra_symmetry=(H.find_extra_symmetry(nu, M)[0], M),
        period=base.period, central_mass=base.central_mass,
    )


# min_total_angle of the 14 rows that finish in under a second under the
# reference search, each conjugated by group elements 0 and |G|/2, then the
# unconjugated T nu6, O nu1, O nu2, I nu1 and I nu2 (element null).  The
# total angles, arc counts and semi-axes were first recorded from the
# reference search (min_angle_reference); the cover search rotates each
# skeleton to the canonical cyclic word of its pole indices, which rotated
# the semi-axes of O nu1, I nu1 and I nu4 g0 and, summing the arcs in that
# order, moved I nu1's total angle by one ulp: those were re-recorded.  The
# words are the reference's routes, 12 of them unreduced, so they compare
# by class.  starts, pops, states and depth are the cover search's
# counters; reference holds the reference search's.
PINS = json.loads((Path(__file__).parent / "data" / "min_total_angle_pins.json").read_text())


def pin_id(pin):
    suffix = "" if pin["element"] is None else f"-g{pin['element']}"
    return f"{pin['tag']}-{pin['name']}{suffix}"


def pinned_cone(pin):
    base = H.catalog_cone(pin["tag"], pin["name"])
    return base if pin["element"] is None else conjugated_cone(base, pin["element"])


@pytest.mark.parametrize("pin", PINS, ids=pin_id)
def test_min_total_angle_pinned(pin):
    res = H.min_total_angle(pinned_cone(pin))
    assert repr(res.total_angle) == repr(pin["total_angle"])
    assert len(res.arc_angles) == pin["arcs"]
    assert res.semi_axes.tobytes() == np.array(pin["semi_axes"]).tobytes()
    points = H.build_archimedean(pin["tag"]).tessellation.points.tolist()
    poles = [points.index(axis) for axis in pin["semi_axes"]]
    assert tuple(poles) == H.canonical_cyclic_word(poles)
    assert H.cyclic_words_equal(res.word, pin["word"])
    counters = (res.starts, res.pops, res.states, res.depth)
    assert counters == (pin["starts"], pin["pops"], pin["states"], pin["depth"])
    assert 1 <= res.starts and res.pops <= res.states and res.depth <= H._TAIL_DEPTH


def test_min_total_angle_reports_search_counters(caplog, capsys, monkeypatch):
    H.published_numbering("T")  # the graph and numbering log their own builds
    caplog.set_level(logging.DEBUG, logger="choreo.homotopy")
    klein = H.min_total_angle(
        H.ConeSpec(
            group=builtin_group("KLEIN"), nu=None, alpha=1.0, extra_symmetry=None,
            period=TWO_PI, central_mass=0.5,
        )
    )
    assert (klein.starts, klein.pops, klein.states, klein.depth) == (0, 0, 0, 0)

    calls = []
    search = H._cover_search

    def counted(*args):
        calls.append(search(*args))
        return calls[-1]

    monkeypatch.setattr(H, "_cover_search", counted)
    cone = H.catalog_cone("T", "nu1")
    res = H.min_total_angle(cone)
    assert len(calls) == 1 and calls[0][3] == (res.starts, res.pops, res.states, res.depth)
    assert 1 < res.starts < res.pops < res.states
    messages = [r.getMessage() for r in caplog.records if r.name == "choreo.homotopy"]
    assert len(messages) == 2
    for result, message in zip((klein, res), messages):
        counts = f"starts={result.starts} pops={result.pops} states={result.states} depth={result.depth}"
        assert counts in message
        assert f"turns={result.turns} " in message
    assert capsys.readouterr() == ("", "")
    # the search stops at its pop budget: res.pops is exactly enough
    monkeypatch.setattr(H, "_MAX_POPS", res.pops)
    assert H.min_total_angle(cone).total_angle == res.total_angle
    monkeypatch.setattr(H, "_MAX_POPS", res.pops - 1)
    with pytest.raises(RuntimeError, match=f"pop budget at tail depth {H._TAIL_DEPTH}"):
        H.min_total_angle(cone)


def test_min_total_angle_combo_cap_bounds_the_call(monkeypatch):
    """The reference search's resolution budget covers the whole call."""
    tries = []
    realize = REF.skeleton_realizes

    def counted(*args):
        word, tried, checked = realize(*args)
        tries.append(tried)
        return word, tried, checked

    monkeypatch.setattr(REF, "skeleton_realizes", counted)
    cone = H.catalog_cone("T", "nu1")
    res = REF.min_total_angle(cone)
    # one less than the call's total is still more than any one skeleton
    # needs, so only a budget over the whole call can stop the search
    assert max(tries) < res.combinations - 1
    monkeypatch.setattr(REF, "COMBO_CAP", res.combinations)
    assert REF.min_total_angle(cone).total_angle == res.total_angle
    monkeypatch.setattr(REF, "COMBO_CAP", res.combinations - 1)
    with pytest.raises(RuntimeError, match="resolution budget"):
        REF.min_total_angle(cone)


# (tag, name, turns, total angle with one turn fewer): the rows whose
# realizing route needs whole turns about a junction pole, with the angles
# that ROADMAP item 17's table measured with one turn fewer allowed.
TURN_ROWS = [
    ("T", "nu6", 2, 8.7451),
    ("T", "nu4", 1, 7.3858),
    ("T", "nu5", 1, 7.6425),
    ("O", "nu6", 1, 7.6425),
    ("O", "nu8", 1, 6.2832),
]


@pytest.mark.parametrize("tag,name,turns,fewer", TURN_ROWS, ids=lambda v: str(v))
def test_min_total_angle_reports_the_turns_it_needs(tag, name, turns, fewer, monkeypatch, caplog):
    """turns is the most whole turns the realizing route takes about a
    junction pole, and they are needed: the reference search with its turn
    cap one below finds only a larger angle."""
    caplog.set_level(logging.DEBUG, logger="choreo.homotopy")
    cone = H.catalog_cone(tag, name)
    res = H.min_total_angle(cone)
    assert res.turns == turns
    assert f"turns={turns} " in caplog.records[-1].getMessage()
    monkeypatch.setattr(REF, "TURN_CAP", turns - 1)
    capped = REF.min_total_angle(cone)
    assert capped.total_angle > res.total_angle
    assert capped.total_angle == pytest.approx(fewer, abs=1e-4)
    assert capped.turns < turns


def test_min_total_angle_is_unchanged_by_a_third_turn(monkeypatch):
    """ROADMAP item 17's cap, measured: with TURN_CAP at 3 the reference
    search returns on every catalog row the total angle of the cover search,
    which counts no turns, to the last bit.  I nu1 and I nu2 are left out:
    at cap 3 they exhaust COMBO_CAP."""
    rows = [row for row in ALL_ROWS if row not in {("I", "nu1"), ("I", "nu2")}]
    assert len(rows) == 17 and REF.TURN_CAP == 2
    monkeypatch.setattr(REF, "TURN_CAP", 3)
    for row in rows:
        cone = H.catalog_cone(*row)
        want = repr(H.min_total_angle(cone).total_angle)
        assert repr(REF.min_total_angle(cone).total_angle) == want, row


def test_min_total_angle_builds_routes_only_for_the_resolutions_it_reduces(monkeypatch):
    """The reference search's junction_route builds one route per junction
    of each resolution it reduces, on every pin, and no other: checked x
    junctions per block."""
    built, wanted = [], []
    route, realize = REF.junction_route, REF.skeleton_realizes

    def counted_route(*descriptor):
        built.append(descriptor)
        return route(*descriptor)

    def recorded(options, target, goal, fund_axes, spent):
        found, tried, checked = realize(options, target, goal, fund_axes, spent)
        wanted.append(checked * (len(fund_axes) - 1))
        return found, tried, checked

    monkeypatch.setattr(REF, "junction_route", counted_route)
    monkeypatch.setattr(REF, "skeleton_realizes", recorded)
    for pin in PINS:
        built.clear()
        wanted.clear()
        res = REF.min_total_angle(pinned_cone(pin))
        assert 0 <= res.turns <= REF.TURN_CAP
        assert len(built) == sum(wanted) >= res.checked, pin_id(pin)
        counters = {"pops": res.pops, "skeletons": res.skeletons, "combinations": res.combinations}
        assert counters == pin["reference"]


# ---------------------------------------------------------------------------
# The reference search: its winding filter and lazy heap against the loops
# they replaced

DIFF_CASES = [(p["tag"], p["name"], p["element"]) for p in PINS if p["element"] is not None]


def reference_junction_route(tess, pid, c_in, c_out, direction, turns):
    """Chambers strictly between c_in and c_out going around the pole fan
    (reference)."""
    fan = tess.fan[pid]
    L = len(fan)
    i_in, i_out = fan.index(c_in), fan.index(c_out)
    total = (direction * (i_out - i_in)) % L + turns * L
    return tuple(fan[(i_in + direction * s) % L] for s in range(1, total))


def reference_resolutions(geom, fund_axes, tri_perm, turn_cap):
    """(arc_sel, option_lists) per wall-side selection, as the product loop built them."""
    f = len(fund_axes) - 1
    pts = geom.points
    arc_choices = []
    for i in range(f):
        za, zb = pts[fund_axes[i]], pts[fund_axes[i + 1]]
        wall = reference_arc_wall(geom, za, zb)
        if wall is None:
            arc_choices.append([reference_off_wall_itinerary(geom, za, zb)])
        else:
            arc_choices.append(
                [reference_on_wall_itinerary(geom, za, zb, wall, s) for s in (1.0, -1.0)]
            )
    out = []
    for arc_sel in itertools.product(*arc_choices):
        specs = []
        for j in range(1, f):
            specs.append((fund_axes[j], arc_sel[j - 1][-1], arc_sel[j][0]))
        specs.append((fund_axes[f], arc_sel[f - 1][-1], tri_perm[arc_sel[0][0]]))
        option_lists = []
        for pid, c_in, c_out in specs:
            opts, seen = [], set()
            for direction in (1, -1):
                for turns in range(turn_cap + 1):
                    route = reference_junction_route(geom, pid, c_in, c_out, direction, turns)
                    if route not in seen:
                        seen.add(route)
                        opts.append(list(route))
            option_lists.append(opts)
        out.append((arc_sel, option_lists))
    return out


def search_perms(tess, R, M):
    """The chamber permutations of the M powers of R, as min_total_angle
    builds them."""
    tri_perm = tess.triangle_permutations[tess.group.index(R)]
    perms = [tuple(range(len(tess.triangles)))]
    for _ in range(1, M):
        perms.append(tuple(tri_perm[c] for c in perms[-1]))
    return perms


@pytest.mark.parametrize(
    "tag,name", [("T", None), ("T", "nu3"), ("O", None), ("O", "nu4"), ("I", None), ("I", "nu3")]
)
def test_junction_routes_are_the_signed_turn_walks(tag, name):
    """For every pole and every (c_in, c_out) in its fan, the routes built
    from an entry's descriptors are the reference walks in the product's
    option order (forwards with 0 .. _TURN_CAP extra turns, then backwards),
    pairwise distinct, and each weight is the winding of its walk with the
    entry and exit steps, under the identity and under a row's (R, M)."""
    poly = H.build_archimedean(tag)
    tess = poly.tessellation
    R, M = (np.eye(3), 1) if name is None else H.catalog_cone(tag, name).extra_symmetry
    options = REF.SearchOptions(poly, search_perms(tess, R, M))
    for pid, fan in enumerate(tess.fan):
        for c_in, c_out in itertools.product(fan, repeat=2):
            descriptors, weights = options[pid, c_in, c_out]
            routes = [REF.junction_route(*d) for d in descriptors]
            want = [
                list(reference_junction_route(tess, pid, c_in, c_out, direction, turns))
                for direction in (1, -1)
                for turns in range(REF.TURN_CAP + 1)
            ]
            if c_in == c_out:
                del want[REF.TURN_CAP + 1]  # the empty walk backwards is the one forwards
            assert routes == want
            assert len(set(map(tuple, routes))) == len(routes)
            assert weights == [options.winding([c_in, *route, c_out]) for route in routes]


def reference_full_word(arc_sel, option_lists, sel, tri_perm_pows):
    junc_sel = [opts[o] for opts, o in zip(option_lists, sel)]
    f = len(arc_sel)
    block = []
    for i in range(f):
        if i > 0:
            block += junc_sel[i - 1]
        block += arc_sel[i]
    block += junc_sel[f - 1]
    word = []
    for perm in tri_perm_pows:
        word += [perm[c] for c in block]
    return word


@lru_cache(maxsize=None)
def reference_cuts(tag):
    """An independent basis of H_1 of the sphere minus the poles.

    Signed crossings of a depth-first spanning tree of the pole graph,
    rooted at the last pole; leaving the chamber on the left of the tree
    edge (a, b), a < b, counts +1.  Other steps map to None.
    """
    tess = H.build_archimedean(tag).tessellation
    pts = tess.points
    edges = {}
    for s, tri in enumerate(tess.triangles):
        for t in tess.neighbors[s]:
            edges[s, t] = tuple(sorted(set(tri) & set(tess.triangles[t])))
    linked = defaultdict(set)
    for a, b in edges.values():
        linked[a].add(b)
        linked[b].add(a)
    tree, seen, stack = {}, set(), [(len(pts) - 1, None)]
    while stack:
        p, parent = stack.pop()
        if p in seen:
            continue
        seen.add(p)
        if parent is not None:
            tree[tuple(sorted((p, parent)))] = len(tree)
        stack.extend((q, p) for q in sorted(linked[p]) if q not in seen)
    assert len(tree) == len(pts) - 1
    cuts = {}
    for (s, t), (a, b) in edges.items():
        cuts[s, t] = None
        if (a, b) in tree:
            centre = pts[list(tess.triangles[s])].mean(axis=0)
            left = np.linalg.det(np.array([pts[a], pts[b], centre])) > 0.0
            cuts[s, t] = (tree[a, b], 1 if left else -1)
    return cuts


def reference_winding(cuts, word):
    word = list(word)
    vec = Counter()
    for a, b in zip(word, word[1:] + word[:1]):
        if a != b and cuts[a, b] is not None:
            e, sign = cuts[a, b]
            vec[e] += sign
    return frozenset(item for item in vec.items() if item[1])


def unpack_winding(packed, P):
    """The P - 1 signed 32-bit coordinates of a packed winding vector."""
    coords = []
    for _ in range(P - 1):
        digit = (packed + 2**31) % 2**32 - 2**31
        coords.append(digit)
        packed = (packed - digit) >> 32
    assert packed == 0
    return coords


def reference_winding_steps(poly):
    """The packed winding steps with the tree edge read off the corners two
    chambers share, and the crossing counted +1 leaving the chamber on the
    side of cross(p_a, p_b), a < b (reference)."""
    tess = poly.tessellation
    pts, tris = tess.points, tess.triangles
    tree, order = {}, [0]
    for p in order:
        for q in sorted({v for ti in tess.fan[p] for v in tris[ti]} - set(order)):
            tree[frozenset((p, q))] = len(tree)
            order.append(q)
    steps = {(t, t): 0 for t in range(len(tris))}
    for s in range(len(tris)):
        for t in tess.neighbors[s]:
            edge = frozenset(tris[s]) & frozenset(tris[t])
            a, b = sorted(edge)
            unit = 1 << 32 * tree[edge] if edge in tree else 0
            left = np.cross(pts[a], pts[b]) @ pts[list(tris[s])].sum(axis=0) > 0.0
            steps[s, t] = unit if left else -unit
    return steps


@pytest.mark.parametrize("tag,flipped", [("T", 7), ("O", 13), ("I", 29)])
def test_winding_steps_match_the_cross_product_body_up_to_coordinate_signs(tag, flipped):
    """Orienting each tree edge by its stored wall normal instead of
    cross(p_a, p_b) negates whole coordinates, `flipped` of the P - 1."""
    poly = H.build_archimedean(tag)
    P = len(poly.tessellation.points)
    steps, reference = REF.winding_steps(poly), reference_winding_steps(poly)
    assert all(type(v) is int for v in steps.values())
    assert set(steps) == set(reference)
    new = np.array([unpack_winding(steps[k], P) for k in reference])
    old = np.array([unpack_winding(v, P) for v in reference.values()])
    signs = np.sign((new * old).sum(axis=0))
    assert np.all(signs != 0)
    assert np.array_equal(new, old * signs)
    assert (signs < 0).sum() == flipped


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_winding_steps_are_a_basis_of_the_first_homology(tag):
    """Each chamber step crosses at most one cut, the reverse step undoes it,
    and the loops around the P poles span a lattice of rank P - 1 with the
    single relation that their sum is 0 (a dropped cut lowers the rank)."""
    poly = H.build_archimedean(tag)
    tess = poly.tessellation
    steps = REF.winding_steps(poly)
    P, ntri = len(tess.points), len(tess.triangles)
    assert set(steps) == {(s, t) for s in range(ntri) for t in (s, *tess.neighbors[s])}
    for (s, t), packed in steps.items():
        assert steps[t, s] == -packed
        assert sorted(map(abs, unpack_winding(packed, P)))[-2:] in ([0, 0], [0, 1])
    loops = np.array([
        unpack_winding(sum(steps[a, b] for a, b in zip(fan, fan[1:] + fan[:1])), P)
        for fan in (tess.fan[p] for p in range(P))
    ])
    assert not loops.sum(axis=0).any()
    assert np.linalg.matrix_rank(loops) == P - 1


@pytest.mark.parametrize("tag,name,element", DIFF_CASES)
def test_winding_filter_matches_filtered_product(tag, name, element, monkeypatch):
    """For every skeleton the search visits, the winding DP hands over exactly
    the resolutions of the old product whose winding vector is the target's,
    in product order, and no resolution that realizes the class is lost."""
    calls = []
    realize = REF.skeleton_realizes

    def recorded(*args):
        calls.append(args)
        return realize(*args)

    monkeypatch.setattr(REF, "skeleton_realizes", recorded)
    cone = conjugated_cone(H.catalog_cone(tag, name), element)
    REF.min_total_angle(cone)
    cuts = reference_cuts(tag)
    goal = reference_winding(cuts, cone.canonical_word)
    realized = 0
    for options, target, packed_goal, fund_axes, _ in calls:
        assert target == cone.canonical_word
        tri_perm_pows = options.perms
        tri_perm = tri_perm_pows[1 % len(tri_perm_pows)]
        old = reference_resolutions(options.tess, fund_axes, tri_perm, REF.TURN_CAP)
        new = [
            (arc_sel, [[REF.junction_route(*o) for o in opts] for opts in descriptors], weights, arc_winding)
            for arc_sel, descriptors, weights, arc_winding in REF.resolutions(options, fund_axes)
        ]
        assert [(arc_sel, option_lists) for arc_sel, option_lists, _, _ in new] == old
        for arc_sel, option_lists, weights, arc_winding in new:
            passing, matching = [], []
            for sel in itertools.product(*(range(len(opts)) for opts in option_lists)):
                word = reference_full_word(arc_sel, option_lists, sel, tri_perm_pows)
                if reference_winding(cuts, word) == goal:
                    passing.append(sel)
                reduced = H.reduce_cyclic_word(word)
                if len(reduced) == len(target) and H.canonical_cyclic_word(reduced) == target:
                    matching.append(sel)
            assert list(REF.winding_solutions(weights, packed_goal - arc_winding)) == passing
            assert set(matching) <= set(passing)
            realized += len(matching)
    assert realized >= 1


def reference_eager_pops(successors, M, fmax, pole_perm):
    """The eager heap the lazy one replaced: every successor of a pop is
    pushed at once, and ties in cost go to the earlier push."""
    allowed = [sorted((j, th) for th, j in row) for row in successors]
    heap, serial = [], itertools.count()
    for s0 in range(len(allowed)):
        heapq.heappush(heap, (0.0, next(serial), (s0,), False))
    while heap:
        cost, _, axes, closed = heapq.heappop(heap)
        yield cost, axes, closed
        if closed or len(axes) - 1 >= fmax:
            continue
        close_target = pole_perm[axes[0]]
        for j, th in allowed[axes[-1]]:
            new_cost = cost + M * th
            heapq.heappush(heap, (new_cost, next(serial), axes + (j,), False))
            if j == close_target:
                heapq.heappush(heap, (new_cost, next(serial), axes + (j,), True))


@pytest.mark.parametrize("tag,name,element", DIFF_CASES)
def test_lazy_heap_pops_like_the_eager_heap(tag, name, element):
    """Up to the answer theta*, the A* search pops exactly the closed
    sequences that the eager uniform-cost heap pops at cost <= theta*, in
    the same order and at bitwise the same costs, with fewer pops."""
    cone = conjugated_cone(H.catalog_cone(tag, name), element)
    pops = REF.min_total_angle(cone).pops
    R, M = cone.extra_symmetry
    poly = cone.nu.polyhedron
    pole_perm = poly.tessellation.pole_permutations[poly.group.index(R)]
    successors, fmax = poly.arc_table[1], max(2, math.ceil(4 * cone.nu.steps / M))
    search = REF.skeleton_pops(poly, M, pole_perm)
    astar = list(itertools.islice(search, pops))
    assert len(astar) == pops
    closed = [(cost, axes) for cost, axes, is_closed in astar if is_closed]
    theta_star = closed[-1][0]
    assert all(cost <= theta_star for cost, _ in closed)
    eager, eager_pops = [], 0
    for cost, axes, is_closed in reference_eager_pops(successors, M, fmax, pole_perm):
        eager_pops += 1
        if is_closed:
            eager.append((cost, axes))
            if len(eager) == len(closed):
                break
    assert eager == closed
    assert pops < eager_pops


def reference_closing_angles(poly):
    """Shortest chains of successor arcs, by scipy's Dijkstra (reference)."""
    successors = poly.arc_table[1]
    rows = [i for i, row in enumerate(successors) for _ in row]
    cols = [j for row in successors for _, j in row]
    angles = [theta for row in successors for theta, _ in row]
    graph = csr_matrix((angles, (rows, cols)), shape=(len(successors),) * 2)
    return shortest_path(graph, method="D")


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_closing_angles_are_a_consistent_bound(tag):
    """Zero diagonal, symmetric, the shortest chain angles, and consistent
    exactly in floating point: no successor arc shortcuts the table."""
    poly = H.build_archimedean(tag)
    d = poly.closing_angles
    successors = poly.arc_table[1]
    assert d.shape == (len(successors),) * 2 and not d.flags.writeable
    assert not np.diagonal(d).any()
    assert np.array_equal(d, d.T)
    np.testing.assert_allclose(d, reference_closing_angles(poly), rtol=1e-14, atol=0.0)
    for i, row in enumerate(successors):
        for theta, j in row:
            assert d[i, j] <= theta
            assert (d[i] <= theta + d[j]).all()


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_successor_orders_match_the_sorted_rows(tag):
    """Every (pole, closing pole) row lists the successors that can still
    close, as a sort of (theta + d, theta, j) over the successor row does."""
    poly = H.build_archimedean(tag)
    d = poly.closing_angles
    successors = poly.arc_table[1]
    orders = REF.successor_orders(poly)
    assert len(orders) == len(successors)
    for i, row in enumerate(successors):
        assert len(orders[i]) == len(successors)
        for k in range(len(successors)):
            reference = sorted(
                (theta + d[j, k], theta, j) for theta, j in row if d[j, k] < math.inf
            )
            assert [row[r][1] for r in orders[i][k]] == [j for _, _, j in reference]


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_every_open_sequence_can_grow_and_close(tag):
    """The premise of the reference search, with no length cap and no
    infinite bounds: every pole has successors, every closing angle is
    finite, and every successor_orders row is a full permutation of its
    successor row, so every open pop pushes a child and every root can
    close."""
    poly = H.build_archimedean(tag)
    successors = poly.arc_table[1]
    assert np.isfinite(poly.closing_angles).all()
    for i, row in enumerate(successors):
        assert row
        for k in range(len(successors)):
            assert sorted(REF.successor_orders(poly)[i][k]) == list(range(len(row)))


def reference_pole_inside_arc(points, za, zb):
    """True if some pole lies strictly inside the open short arc: the
    per-pair test arc_table made before it tested one pole's arcs at once."""
    theta, w = reference_arc_param(za, zb)
    normal = np.cross(za, w)
    coplanar = np.abs(points @ normal) < 1e-9
    phi = np.arctan2(points @ w, points @ za)
    inside = (phi > 1e-7) & (phi < theta - 1e-7)
    return bool(np.any(coplanar & inside))


def reference_arc_table(poly):
    pts = poly.tessellation.points
    angles = np.arccos(np.clip(pts @ pts.T, -1.0, 1.0))
    successors = []
    for i in range(len(pts)):
        row = []
        for j in range(len(pts)):
            th = angles[i, j]
            if j == i or th < 1e-7 or th > math.pi - 1e-6:
                continue
            if not reference_pole_inside_arc(pts, pts[i], pts[j]):
                row.append((float(th), j))
        successors.append(sorted(row))
    return angles, successors


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_arc_table_matches_the_per_pair_body(tag):
    angles, successors = H.build_archimedean(tag).arc_table
    want_angles, want_successors = reference_arc_table(H.build_archimedean(tag))
    assert np.array_equal(angles, want_angles)
    assert successors == want_successors
    assert all(type(j) is int for row in successors for _, j in row)


@pytest.mark.parametrize("tag,arcs", [("T", 96), ("O", 288), ("I", 1440)])
def test_arc_runs_match_the_itinerary_readers(tag, arcs):
    """The batched table holds, for every successor arc, the runs that the
    crossing loop (off a wall) or the side's third corners (along one) read."""
    poly = H.build_archimedean(tag)
    tess = poly.tessellation
    runs = poly.arc_runs
    assert sorted(runs) == sorted((a, b) for a, row in enumerate(poly.arc_table[1]) for _, b in row)
    assert len(runs) == arcs
    for (a, b), sides in runs.items():
        za, zb = tess.points[a], tess.points[b]
        wall = reference_arc_wall(tess, za, zb)
        if wall is None:
            expected = [reference_off_wall_itinerary(tess, za, zb)]
        else:
            expected = reference_on_wall_sides(tess, a, b, wall)
        assert [list(run) for run in sides] == expected


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_edge_chambers_match_the_crossing_loop_on_every_edge(tag):
    poly = H.build_archimedean(tag)
    expected = {
        (i, j): tuple(reference_off_wall_itinerary(poly.tessellation, poly.vertices[i], poly.vertices[j]))
        for edge in poly.edges
        for i, j in (edge, edge[::-1])
    }
    assert poly.edge_chambers == expected


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_search_tables_are_read_only(tag):
    poly = H.build_archimedean(tag)
    runs, (by_start, by_pair) = poly.arc_runs, poly.search_moves
    for table, key in ((runs, (0, 1)), (by_start, (0, 0)), (by_pair, (0, 1))):
        with pytest.raises(TypeError):
            table[key] = ()
    assert all(type(run) is tuple for sides in runs.values() for run in (sides, *sides))
    for table in (by_start, by_pair):
        assert all(type(moves) is tuple for moves in table.values())
    assert all(type(run) is tuple for moves in by_start.values() for _, run, _ in moves)


@pytest.mark.parametrize("tag", ["T", "O", "I"])
def test_search_moves_index_the_fan_steps_and_the_arc_runs(tag):
    """by_start holds, from each pole and chamber of its fan, the steps to
    both fan neighbours and then every arc run that leaves the pole there,
    at its arc_table angle; by_pair lists every move at each chamber step
    of its run."""
    poly = H.build_archimedean(tag)
    tess, angles = poly.tessellation, poly.arc_table[0]
    by_start, by_pair = poly.search_moves
    want = defaultdict(list)
    for p, fan in enumerate(tess.fan):
        for k, c in enumerate(fan):
            want[p, c] += [(p, (c, fan[k - 1]), 0.0), (p, (c, fan[(k + 1) % len(fan)]), 0.0)]
    for (a, b), runs in poly.arc_runs.items():
        for run in runs:
            want[a, run[0]].append((b, run, angles[a, b]))
    assert by_start == {key: tuple(moves) for key, moves in want.items()}
    pairs = defaultdict(list)
    for (p, _), moves in want.items():
        for move in moves:
            run = move[1]
            for k in range(len(run) - 1):
                pairs[run[k], run[k + 1]].append((p, k, move))
    assert {key: sorted(v) for key, v in by_pair.items()} == {key: sorted(v) for key, v in pairs.items()}
    assert all(d in tess.neighbors[c] for c, d in by_pair)


def test_min_total_angle_calls_share_the_search_tables(monkeypatch):
    """Two calls on different conjugates read the polyhedron's tables, not
    tables of their own."""
    seen = []
    search = H._cover_search

    def recorded(poly, *args):
        seen.append((poly, poly.search_moves, poly.closing_angles))
        return search(poly, *args)

    monkeypatch.setattr(H, "_cover_search", recorded)
    base = H.catalog_cone("O", "nu4")
    poly = base.nu.polyhedron
    for element in (0, base.group.order // 2):
        H.min_total_angle(conjugated_cone(base, element))
    assert len(seen) == 2
    assert all(p is poly for p, _, _ in seen)
    assert all(moves is poly.search_moves and d is poly.closing_angles for _, moves, d in seen)


# ---------------------------------------------------------------------------
# The cover search against the reference search


def with_no_extra_symmetry(cone):
    return H.ConeSpec(
        group=cone.group, nu=cone.nu, alpha=cone.alpha, extra_symmetry=None,
        period=cone.period, central_mass=cone.central_mass,
    )


@pytest.mark.parametrize("tag,name", [("T", "nu1"), ("O", "nu4"), ("O", "nu5"), ("I", "nu4")])
def test_min_total_angle_without_an_extra_symmetry(tag, name):
    """Without its extra symmetry a cone's class holds every loop it held
    with it, so the minimum can only fall; the reference search exhausted
    its resolution budget on these four."""
    cone = H.catalog_cone(tag, name)
    free = with_no_extra_symmetry(cone)
    res = H.min_total_angle(free)
    assert H.cyclic_words_equal(res.word, free.reduced_word)
    assert res.total_angle <= H.min_total_angle(cone).total_angle + 1e-12
    assert res.starts >= 1 and res.depth <= H._TAIL_DEPTH
    with pytest.raises(RuntimeError, match="resolution budget"):
        REF.min_total_angle(free)


ARC_ROWS = [
    ("T", "nu1"), ("T", "nu2"), ("T", "nu3"), ("T", "nu4"), ("T", "nu5"),
    ("O", "nu3"), ("O", "nu4"), ("O", "nu5"), ("O", "nu6"), ("O", "nu7"), ("O", "nu8"), ("O", "nu9"),
    ("I", "nu3"), ("I", "nu4"),
]
SLOW_ROWS = [("T", "nu6"), ("O", "nu1"), ("O", "nu2"), ("I", "nu1"), ("I", "nu2")]


def reference_cases():
    """(row, element): every conjugate of the 14 rows the benchmark runs,
    and the five slower rows at elements 0 and |G|/2."""
    order = {tag: H.build_archimedean(tag).group.order for tag in "TOI"}
    cases = [(row, g) for row in ARC_ROWS for g in range(order[row[0]])]
    return cases + [(row, g) for row in SLOW_ROWS for g in (0, order[row[0]] // 2)]


def test_min_total_angle_matches_the_reference_search():
    """On 348 conjugates of the benchmark's rows and on the slower rows, the
    cover search, with any number of turns, finds the reference search's
    angle within 1e-12, on a skeleton of as many arcs.  A smaller angle
    would be a route that the reference's turn cap left out."""
    cases = reference_cases()
    assert len(cases) == 348 + 10
    lower, other = [], []
    for row, g in cases:
        cone = conjugated_cone(H.catalog_cone(*row), g)
        res, ref = H.min_total_angle(cone), REF.min_total_angle(cone)
        assert H.cyclic_words_equal(res.word, cone.reduced_word)
        if res.total_angle < ref.total_angle - 1e-12:
            lower.append((row, g, res.turns, res.total_angle, ref.total_angle))
        elif abs(res.total_angle - ref.total_angle) > 1e-12 or len(res.arc_angles) != len(ref.arc_angles):
            other.append((row, g, res.total_angle, ref.total_angle))
    assert lower == [], f"the turn cap of the reference search binds on {lower}"
    assert other == []


@pytest.mark.parametrize("cone_of", ["row", "pin"])
def test_min_total_angle_is_unchanged_by_a_deeper_tail(cone_of, monkeypatch):
    """Doubling _TAIL_DEPTH keeps the total angle of every catalog row and
    every pin to the last bit."""
    if cone_of == "row":
        cones = [H.catalog_cone(*row) for row in ALL_ROWS]
    else:
        cones = [pinned_cone(pin) for pin in PINS]
    at_depth = [repr(H.min_total_angle(cone).total_angle) for cone in cones]
    monkeypatch.setattr(H, "_TAIL_DEPTH", 2 * H._TAIL_DEPTH)
    assert [repr(H.min_total_angle(cone).total_angle) for cone in cones] == at_depth
