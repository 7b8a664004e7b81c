"""Loop topology around the rotation axes of a polyhedral group.

The unit sphere minus the rotation poles carries the free-homotopy data of
satellite loops: chambers of the reflection tessellation encode classes as
cyclic triangle words, while the edge graph of an equal-edge solid inscribed
in the sphere gives concrete piecewise-linear representatives.  This module
builds those edge graphs, translates vertex paths into triangle words,
evaluates the winding diagnostics used by the partial-collision criteria,
and computes minimal total angles for circular-arc limit loops.
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .action import LoopPath, check_alpha, check_count, check_nonnegative, check_positive
from .groups import RotationGroup, builtin_group, full_group_tessellation, matrix_key
from .reference_tables import TWO_PI, catalog_entry, catalog_rows

# Search nodes reconstruct_numbering may visit before it gives up.
_NUMBERING_NODE_CAP = 5_000_000
# One min_total_angle call: the states it may expand before it gives up, and
# the most chambers by which the lift of a route may leave the class's axis
# in the cover (the minimum is over the routes that stay within it).
_MAX_POPS = 2_000_000
_TAIL_DEPTH = 4
_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Archimedean edge graphs


class ArchimedeanPolyhedron:
    """Equal-edge solid inscribed in the unit sphere, stored as a graph.

    base_points is (q, q1, q2).  Vertex g is elements[g] @ q, and the
    vertices must be one free orbit of the group.  The steps s1, s2 are the
    vertex indices of q1, q2, and vertex g is joined to products[g][s] for
    s in s1, s2 and their inverses: the graph is the Cayley graph of the
    two steps.  edges maps index pairs (i, j) with i < j to the side type 1
    or 2 of their step (1 for both on T, whose full symmetry group
    exchanges the two base segments).  The built-in q sits on the triangle
    side joining the two higher-order poles of the base tessellation
    triangle, equidistant from the planes of the other two sides, and q1,
    q2 are its mirror images in them, at the same chord distance ell.
    Cached per tag, it owns its tables, each built on first use: the group
    action on the vertices (vertex_permutations, element_between), the
    estimates' base-edge constants (edge_quadratics, midpoint_chords),
    edge_chambers and the minimal-angle search tables (arc_table,
    closing_angles, arc_runs and search_moves, which indexes the fan steps
    and arc runs).  Every vertex table reads group.products.
    edge_chambers and arc_runs read their great arcs with _arc_chambers.
    """

    def __init__(self, group, tessellation, base_points):
        self.group = group
        self.tessellation = tessellation
        self.base_points = tuple(np.array(p, dtype=float) for p in base_points)
        q, q1, q2 = self.base_points
        self.vertices = np.array(group.elements) @ q
        self.vertices.setflags(write=False)
        index = {matrix_key(v): g for g, v in enumerate(self.vertices)}
        if len(index) != group.order:
            raise ValueError(f"the {len(index)} distinct vertices are not one free orbit of the group")
        try:
            steps = ((index[matrix_key(q1)], 1), (index[matrix_key(q2)], 1 if group.tag == "T" else 2))
        except KeyError:
            raise ValueError("q1 and q2 must be vertices") from None
        # side types keyed by the ordered pair; an edge both steps make keeps
        # the type of the first
        products, types = group.products, {}
        for g, row in enumerate(products):
            for s, typ in steps:
                types.setdefault((g, row[s]), typ)
                types.setdefault((row[s], g), typ)
        self._edge_types = types
        self.edges = {(i, j): typ for (i, j), typ in types.items() if i < j}
        lengths = [np.linalg.norm(self.vertices[i] - self.vertices[j]) for (i, j) in self.edges]
        spread = max(lengths) - min(lengths)
        if spread > 1e-10:
            raise ValueError(f"edge lengths are not uniform (spread {spread:.2e})")
        self.edge_length = float(np.mean(lengths))
        adj = [[] for _ in self.vertices]
        for (i, j), typ in types.items():
            adj[i].append((j, typ))
        self._adjacency = tuple(tuple(sorted(pairs)) for pairs in adj)

    @property
    def vertex_count(self):
        return len(self.vertices)

    def neighbors(self, i):
        return self._adjacency[i]

    def edge_type(self, i, j):
        """Side type of the edge from i to j, or None if the pair is not an edge."""
        return self._edge_types.get((i, j))

    @property
    def vertex_permutations(self):
        """How each group element permutes the vertex indices, indexed like
        group.elements: elements[g] maps vertex i to vertex products[g][i]."""
        return self.group.products

    @cached_property
    def element_between(self):
        """element_between[a][b]: index of the one group element that maps
        vertex a to vertex b, products[b][inverse of a]."""
        products, eye = self.group.products, self.group.identity_index
        inverse = [row.index(eye) for row in products]
        return tuple(tuple(row[inverse[a]] for row in products) for a in range(self.vertex_count))

    @cached_property
    def edge_quadratics(self):
        """Read-only (c0, c1, c2, mult) of each base edge, indexed by which.

        Along x(s) = (1 - s) q + s q_which (q_1 for which = 0), form j of
        group.pair_forms gives |F_j x(s)|^2 = c0[j] + s (c1[j] + s c2[j]),
        and mult[j] counts the elements of that form; which = 0 has the
        identity as its one form, of weight 2 (the central term).  The
        coefficients are (k, 1) columns, ready to broadcast over nodes.
        """
        q, q1, q2 = self.base_points
        forms = self.group.pair_forms
        table = []
        for F, mult, b in ((np.eye(3), np.array([2.0]), q1), (*forms, q1), (*forms, q2)):
            A = (q @ F).reshape(3, -1)
            D = (b @ F).reshape(3, -1) - A
            c0, c1, c2 = (np.einsum("rk,rk->k", u, v)[:, None] for u, v in ((A, A), (A, D), (D, D)))
            c1 *= 2.0
            for c in (c0, c1, c2, mult):
                c.flags.writeable = False
            table.append((c0, c1, c2, mult))
        return tuple(table)

    @cached_property
    def midpoint_chords(self):
        """(delta_1, delta_2): for which = 1, 2, the least |(R - I) m| / 2 over
        R != I, with m = q + q_which twice the base edge midpoint."""
        q, q1, q2 = self.base_points
        F = self.group.pair_forms[0]
        chords = []
        for b in (q1, q2):
            y = ((q + b) @ F).reshape(3, -1)
            chords.append(math.sqrt(np.min(np.einsum("rk,rk->k", y, y))) / 2.0)
        return tuple(chords)

    @cached_property
    def edge_chambers(self):
        """Read-only map from every ordered edge (i, j) to the chambers that
        the great arc from vertex i to vertex j runs through, in order, as the
        great-arc reader _arc_chambers reads them, one call per vertex over
        its neighbours.  Raises ValueError unless every edge runs through
        exactly two adjacent chambers (an edge through a pole meets more, or
        two that only share the pole; an edge along a wall meets none)."""
        tess = self.tessellation
        table = {}
        for i, v in enumerate(self.vertices):
            js = [j for j, _ in self.neighbors(i)]
            theta, w = _arc_tangents(v, self.vertices[js])
            for j, (word, _) in zip(js, _arc_chambers(tess, v, w, theta)):
                if len(word) != 2 or word[1] not in tess.neighbors[word[0]]:
                    raise ValueError(f"edge ({i}, {j}) does not cross one wall to an adjacent chamber")
                table[i, j] = tuple(word)
        return MappingProxyType(table)

    @cached_property
    def arc_table(self):
        """(angles, successors): pole-to-pole angles and the admissible short arcs.

        successors[i] lists (angle, j), sorted, for every pole j that is
        neither i, nor antipodal to i, nor separated from i by a pole on the
        short arc: ties in angle go to the lower pole index.  A pole is inside
        when it lies on the arc's circle (within 1e-9), 1e-7 < phi < theta -
        1e-7 from i; the poles are tested against all arcs from i at once.
        """
        pts = self.tessellation.points
        angles = np.arccos(np.clip(pts @ pts.T, -1.0, 1.0))
        angles.setflags(write=False)
        successors = []
        for i, za in enumerate(pts):
            th = angles[i]
            js = np.flatnonzero((th >= 1e-7) & (th <= math.pi - 1e-6) & (np.arange(len(pts)) != i))
            # the unit tangent w at i of each arc, and the normal of its circle
            _, w = _arc_tangents(za, pts[js])
            coplanar = np.abs(pts @ np.cross(za, w).T) < 1e-9
            phi = np.arctan2(pts @ w.T, (pts @ za)[:, None])
            inside = coplanar & (phi > 1e-7) & (phi < th[js] - 1e-7)
            successors.append(sorted((float(th[j]), j) for j in js[~inside.any(axis=0)].tolist()))
        return angles, successors

    @cached_property
    def closing_angles(self):
        """P x P read-only array of the least angle of a chain of successor
        arcs from pole i to pole k (0 on the diagonal, inf if none exists).

        The table is the fixed point of one relaxation over every successor
        arc, symmetrized: each pass can only lower an entry, and at the fixed
        point d[i, k] <= theta(i, j) + d[j, k] holds for every successor arc
        exactly in floating point (Floyd-Warshall misses this by a rounding
        on I), so the minimal-angle search can use it as a consistent bound.
        A pass relaxes one row at a time, over the pole itself at angle 0 and
        its successors, so it makes no P x P x P temporary (1.9 MB for I).
        """
        _, successors = self.arc_table
        hops = [
            (np.array([i] + [j for _, j in row]), np.array([[0.0]] + [[theta] for theta, _ in row]))
            for i, row in enumerate(successors)
        ]
        d = np.full((len(successors),) * 2, math.inf)
        for i, (js, thetas) in enumerate(hops):
            d[i, js] = thetas[:, 0]
        while True:
            relaxed = np.array([(thetas + d[js]).min(axis=0) for js, thetas in hops])
            relaxed = np.minimum(relaxed, relaxed.T)
            if np.array_equal(relaxed, d):
                break
            d = relaxed
        d.setflags(write=False)
        return d

    @cached_property
    def arc_runs(self):
        """Read-only map from every successor arc (a, b) of arc_table to its
        wall-side runs, each a tuple of chambers, as the great-arc reader
        _arc_chambers reads them, one call per starting pole over its
        successors: one run, the chambers the arc runs through, for an arc
        off every wall, and two, one either side, for an arc along a wall.

        With no pole inside, an arc along a wall is the side {a, b} of
        exactly two chambers, across that side from each other.  The first
        run is the one of sign +1 on the wall in tess.sides, the chamber its
        stored normal points into.  One call for the whole table (4,560
        samples for I) would make a 13 MB temporary of chamber margins.
        """
        tess = self.tessellation
        pts, sides = tess.points, tess.sides.tolist()
        table = {}
        for a, row in enumerate(self.arc_table[1]):
            bs = [b for _, b in row]
            theta, w = _arc_tangents(pts[a], pts[bs])
            for b, (run, wall) in zip(bs, _arc_chambers(tess, pts[a], w, theta)):
                if wall is None:
                    table[a, b] = (tuple(run),)
                    continue
                t = min(set(tess.fan[a]) & set(tess.fan[b]))
                ((sign, u),) = [(sign, u) for on, sign, u in sides[t] if on == wall]
                table[a, b] = ((t,), (u,)) if sign > 0 else ((u,), (t,))
        return MappingProxyType(table)

    @cached_property
    def search_moves(self):
        """(by_start, by_pair): the moves of the minimal-angle search, two
        read-only maps of tuples, indexed in one pass over the pole fans and
        one over arc_runs.  A move (q, run, theta) leaves a pole and walks
        the chambers of run to the pole q: a step to the next or the previous
        chamber around the pole's fan (q the pole, theta 0), or a run of a
        successor arc to q (theta its angle).  by_start[p, c] lists the
        moves from pole p in chamber c = run[0], fan steps first, then arcs
        in arc_runs order; by_pair[c, d] lists (p, k, move) for each move
        from pole p whose run steps from c = run[k] to d = run[k + 1]."""
        angles, fans = self.arc_table[0], self.tessellation.fan
        steps = [
            (p, (p, (c, d), 0.0))
            for p, fan in enumerate(fans)
            for k, c in enumerate(fan)
            for d in (fan[k - 1], fan[(k + 1) % len(fan)])
        ]
        arcs = [
            (a, (b, run, float(angles[a, b]))) for (a, b), runs in self.arc_runs.items() for run in runs
        ]
        by_start, by_pair = {}, {}
        for p, move in steps + arcs:
            run = move[1]
            by_start.setdefault((p, run[0]), []).append(move)
            for k in range(len(run) - 1):
                by_pair.setdefault(run[k:k + 2], []).append((p, k, move))
        return tuple(
            MappingProxyType({key: tuple(moves) for key, moves in d.items()}) for d in (by_start, by_pair)
        )

    def __repr__(self):
        return (
            f"ArchimedeanPolyhedron({self.group.tag!r}, vertices={self.vertex_count}, "
            f"edges={len(self.edges)}, ell={self.edge_length:.6f})"
        )


@lru_cache(maxsize=None)
def _build_archimedean_cached(tag):
    group = builtin_group(tag)
    tess = full_group_tessellation(group)
    pts = tess.points
    ia, ib, ic = tess.triangles[0]
    a, b, c = pts[ia], pts[ib], pts[ic]

    n1 = np.cross(b, c)
    n1 /= np.linalg.norm(n1)
    n2 = np.cross(a, c)
    n2 /= np.linalg.norm(n2)
    # b lies on the plane of n1 and a on that of n2, so (1 - t) a + t b is
    # (1 - t)|a.n1| from the first plane and t|b.n2| from the second.
    t = abs(a @ n1) / (abs(a @ n1) + abs(b @ n2))
    q = (1.0 - t) * a + t * b
    q /= np.linalg.norm(q)
    q1 = q - 2.0 * (q @ n1) * n1
    q2 = q - 2.0 * (q @ n2) * n2

    poly = ArchimedeanPolyhedron(group, tess, (q, q1, q2))
    if len(poly.edges) != 2 * group.order:
        raise ValueError(f"{len(poly.edges)} edges for tag {tag!r}, not {2 * group.order}")
    _log.debug("build_archimedean %s: %d vertices, %d edges", tag, poly.vertex_count, len(poly.edges))
    return poly


def build_archimedean(group):
    """Edge graph of the equal-edge solid for a polyhedral rotation group.

    Accepts a RotationGroup or one of the tags "T", "O", "I".  Vertex g is
    elements[g] @ q, and the graph is the Cayley graph of the group for
    the two steps that map q to its mirror images q1 and q2, so every
    vertex table reads group.products.  The result is cached per tag.
    """
    tag = group if isinstance(group, str) else group.tag
    tag = str(tag).upper()
    if tag not in ("T", "O", "I"):
        raise ValueError(f"no Archimedean edge graph for group tag {tag!r}")
    return _build_archimedean_cached(tag)


# ---------------------------------------------------------------------------
# Vertex numberings


def reconstruct_numbering(polyhedron, rows):
    """Assign vertex indices to published labels from sequence data alone.

    rows is an iterable of (labels, M, k1, k2) where labels, two or more
    stops (whole numbers in 1..vertex_count), repeats the starting label at
    the end, M is a positive divisor of the step count and k1, k2 are whole
    numbers (ValueError otherwise).  The search places each row as a closed
    edge path, prunes on side-type counts, and requires for each row a group
    element R with R^M = identity that shifts the cycle by steps/M positions:
    the first placed pair of labels steps/M apart fixes R (element_between,
    which reads group.products, vertex g being elements[g] @ q), and every
    other placed pair must agree, checked as each label is placed against
    the R its row's placed pairs share.  Steps and side types are read off
    the Cayley graph's ordered pairs (neighbors, edge_type).  Labels not
    used by any row are assigned to the remaining vertices in sorted order,
    so the result is a bijection.  Raises ValueError if the rows cannot be realized,
    RuntimeError past _NUMBERING_NODE_CAP search nodes; logs the node count
    at DEBUG.
    """
    nv, tag = polyhedron.vertex_count, polyhedron.group.tag
    between = polyhedron.element_between
    orders = polyhedron.group.element_orders

    prepared = []
    for labels, M, k1, k2 in rows:
        labels = [check_count(label, "label", 0) for label in labels]
        if len(labels) < 3 or labels[0] != labels[-1]:
            raise ValueError("each row must list two stops or more and repeat the first at the end")
        per = labels[:-1]
        if not all(1 <= label <= nv for label in per):
            raise ValueError(f"row labels must lie in 1..{nv}")
        M, k1, k2 = check_count(M, "M", 1), check_count(k1, "k1", 0), check_count(k2, "k2", 0)
        if len(per) % M:
            raise ValueError("the symmetry order M must be a positive divisor of the row length")
        pairs = [(la, per[(i + len(per) // M) % len(per)]) for i, la in enumerate(per)]
        prepared.append((per, M, pairs, {label: [p for p in pairs if label in p] for label in per}, k1, k2))

    assign = {}
    used = [False] * nv
    nodes = 0

    def place_rows(ri):
        if ri == len(prepared):
            return True
        per, M, pairs, holding, k1, k2 = prepared[ri]
        L = len(per)

        def shared_element(g, held):
            # g, the element every placed pair shares (None before the first,
            # -1 once two differ), extended by the placed pairs among held:
            # only pairs holding the label just placed can newly be placed
            for la, lb in held:
                if la in assign and lb in assign:
                    h = between[assign[la]][assign[lb]]
                    if g is None and M % orders[h] == 0:
                        g = h
                    elif h != g:
                        return -1
            return g

        def place(pos, c1, c2, g):
            nonlocal nodes
            nodes += 1
            if nodes > _NUMBERING_NODE_CAP:
                raise RuntimeError("numbering reconstruction exceeded its search budget")
            if pos == L:
                typ = polyhedron.edge_type(assign[per[-1]], assign[per[0]])
                if typ is None or (c1 + (typ == 1), c2 + (typ == 2)) != (k1, k2):
                    return False
                return place_rows(ri + 1)

            label = per[pos]
            prev = assign[per[pos - 1]] if pos > 0 else None

            def advance(vid):
                typ = polyhedron.edge_type(prev, vid) if pos > 0 else 0
                if typ is None:
                    return False
                n1, n2 = c1 + (typ == 1), c2 + (typ == 2)
                h = shared_element(g, holding[label]) if n1 <= k1 and n2 <= k2 else -1
                return h != -1 and place(pos + 1, n1, n2, h)

            if label in assign:
                return advance(assign[label])

            options = range(nv) if pos == 0 else [w for w, _ in polyhedron.neighbors(prev)]
            for vid in sorted(set(options)):
                if used[vid]:
                    continue
                assign[label] = vid
                used[vid] = True
                if advance(vid):
                    return True
                del assign[label]
                used[vid] = False
            return False

        return place(0, 0, 0, shared_element(None, pairs))

    found = place_rows(0)
    _log.debug("reconstruct_numbering %s: %d rows, %d nodes", tag, len(prepared), nodes)
    if not found:
        raise ValueError("the given rows admit no consistent vertex numbering")

    numbering = dict(assign)
    free_labels = sorted(set(range(1, nv + 1)) - set(numbering))
    free_vids = sorted(set(range(nv)) - set(numbering.values()))
    numbering.update(dict(zip(free_labels, free_vids)))
    return numbering


@lru_cache(maxsize=None)
def published_numbering(tag):
    """Vertex numbering consistent with every self-consistent catalog row.

    Rows whose stated side counts disagree with their own step count are
    skipped when building the numbering; they can still be evaluated against
    it afterwards.
    """
    tag = str(tag).upper()
    poly = build_archimedean(tag)
    entries = [e for e in catalog_rows(tag) if e.steps == e.k1 + (e.k2 or 0)]
    return reconstruct_numbering(poly, [(e.labels, e.M, e.k1, e.k2 or 0) for e in entries])


# ---------------------------------------------------------------------------
# Vertex sequences


@dataclass(frozen=True, eq=False)
class VertexSequence:
    """Cyclic edge path on an Archimedean graph, one period of vertex ids.

    A trailing repeat of the first vertex is stripped.  Consecutive entries
    (including the wrap-around pair) must be joined by an edge;
    edge_types[k] is the side type of the edge from vertex_ids[k] to the
    next entry.
    """

    polyhedron: ArchimedeanPolyhedron
    vertex_ids: tuple
    edge_types: tuple = field(init=False, repr=False)

    def __post_init__(self):
        ids = [check_count(i, "vertex id", 0) for i in self.vertex_ids]
        if len(ids) > 1 and ids[0] == ids[-1]:
            ids = ids[:-1]
        if len(ids) < 2:
            raise ValueError("a vertex sequence needs at least two distinct stops")
        nv = self.polyhedron.vertex_count
        for i in ids:
            if not 0 <= i < nv:
                raise ValueError(f"vertex id {i} out of range")
        types = []
        for k in range(len(ids)):
            i, j = ids[k], ids[(k + 1) % len(ids)]
            types.append(self.polyhedron.edge_type(i, j))
            if types[-1] is None:
                raise ValueError(f"vertices {i} and {j} are not joined by an edge")
        object.__setattr__(self, "vertex_ids", tuple(ids))
        object.__setattr__(self, "edge_types", tuple(types))

    @classmethod
    def from_labels(cls, polyhedron, labels, numbering):
        try:
            ids = [numbering[check_count(l, "label", 1)] for l in labels]
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]} missing from the numbering") from exc
        return cls(polyhedron, tuple(ids))

    @property
    def steps(self):
        return len(self.vertex_ids)

    @cached_property
    def k_nu(self):
        """Minimal cyclic period of the id listing."""
        ids = self.vertex_ids
        L = len(ids)
        for d in range(1, L + 1):
            if L % d == 0 and all(ids[i] == ids[i % d] for i in range(L)):
                return d
        return L

    @cached_property
    def side_counts(self):
        """(k_nu, k1, k2): the minimal period and how many of its sides are of
        type 1 and of type 2.  The listing repeats with period k_nu, so the
        first k_nu edge types are the period's sides."""
        k = self.k_nu
        k1 = self.edge_types[:k].count(1)
        return k, k1, k - k1

    @property
    def points(self):
        return self.polyhedron.vertices[list(self.vertex_ids)]

    def transformed(self, R):
        """The image sequence under a group element R."""
        perm = self.polyhedron.vertex_permutations[self.polyhedron.group.index(R)]
        return VertexSequence(self.polyhedron, tuple(perm[i] for i in self.vertex_ids))

    def __repr__(self):
        return f"VertexSequence({self.polyhedron.group.tag!r}, {list(self.vertex_ids)})"


def _shift_element(nu, M):
    """Index of the group element R that moves nu on by steps/M positions,
    or None (M must divide the step count).  Only the element that maps the
    first vertex steps/M stops ahead can do it, and then R^M = identity:
    R^M fixes that vertex, and only the identity fixes a vertex."""
    poly, ids, shift = nu.polyhedron, nu.vertex_ids, nu.steps // M
    moved = ids[shift:] + ids[:shift]
    g = poly.element_between[ids[0]][moved[0]]
    perm = poly.vertex_permutations[g]
    return g if all(perm[i] == j for i, j in zip(ids, moved)) else None


def find_extra_symmetry(nu, M):
    """Group elements R with R^M = identity realizing the cyclic shift by steps/M.

    The list holds at most one matrix, since the vertices are a free orbit
    (empty unless M is a positive divisor of the step count; ValueError unless
    it is a whole number of at least 0).
    """
    M = check_count(M, "symmetry order M", 0)
    if M < 1 or nu.steps % M:
        return []
    g = _shift_element(nu, M)
    return [] if g is None else [nu.polyhedron.group.elements[g]]


# ---------------------------------------------------------------------------
# Triangle sequences and cyclic words


@dataclass(frozen=True, eq=False)
class TriangleSequence:
    """Cyclic itinerary of tessellation chambers, consecutive ones adjacent."""

    tessellation: object
    triangles: tuple

    def __post_init__(self):
        tris = tuple(check_count(t, "chamber", 0) for t in self.triangles)
        if len(tris) < 2:
            raise ValueError("a triangle sequence needs at least two chambers")
        for k in range(len(tris)):
            a, b = tris[k], tris[(k + 1) % len(tris)]
            if a == b or b not in self.tessellation.neighbors[a]:
                raise ValueError(f"chambers {a} and {b} are not adjacent")
        object.__setattr__(self, "triangles", tris)

    def __len__(self):
        return len(self.triangles)

    def __repr__(self):
        return f"TriangleSequence({list(self.triangles)})"


def merge_consecutive(word):
    """Collapse consecutive repeats of an open (non-cyclic) word."""
    out = []
    for c in word:
        if not out or out[-1] != c:
            out.append(c)
    return out


def merge_cyclic_duplicates(word):
    """Collapse consecutive repeats, including across the wrap-around."""
    out = merge_consecutive(word)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def reduce_cyclic_word(word):
    """A cyclically reduced rotation of the chamber word; () if contractible.

    Adjacent chambers share exactly one wall, so an immediate return crosses
    the same wall twice and cancels.  One stack pass reduces the walk closed
    at its first chamber, then matching ends are trimmed off the wrap-around.
    The rotation returned is not canonical: compare results through
    canonical_cyclic_word.
    """
    w = list(word)
    stack = []
    for c in w + w[:1]:
        if stack and stack[-1] == c:
            continue
        if len(stack) > 1 and stack[-2] == c:
            stack.pop()
            continue
        stack.append(c)
    # stack is a reduced walk from w[0] back to w[0]
    i, j = 0, len(stack) - 1
    while j - i > 2 and stack[i + 1] == stack[j - 1]:
        i += 1
        j -= 1
    if j - i <= 2:
        return ()
    return tuple(stack[i:j])


def canonical_cyclic_word(word):
    """Lexicographically minimal rotation; canonical form for comparisons."""
    w = tuple(word)
    if not w:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


def cyclic_words_equal(a, b):
    return canonical_cyclic_word(reduce_cyclic_word(a)) == canonical_cyclic_word(
        reduce_cyclic_word(b)
    )


def triangles_from_vertices(nu):
    """Chamber itinerary of the vertex path radially projected to the sphere.

    Each graph edge crosses exactly one wall, at its midpoint, between the
    two chambers of the polyhedron's ``edge_chambers`` table, which the
    great-arc reader _arc_chambers fills; a vertex where the path touches a
    wall without crossing contributes no chamber change.
    """
    poly = nu.polyhedron
    ids = nu.vertex_ids
    S = len(ids)
    raw = []
    for i in range(S):
        raw.extend(poly.edge_chambers[ids[i], ids[(i + 1) % S]])
    return TriangleSequence(poly.tessellation, tuple(merge_cyclic_duplicates(raw)))


# ---------------------------------------------------------------------------
# Winding diagnostics
#
# Both class tests look for winding strings about a pole p: windows of the
# cyclic word whose chambers all contain p, at least three of them distinct
# (with one or two the closed intersection is a chamber or a shared side,
# which strictly contains {p}).  One reader decides it, _winding_spans, from
# two cyclic run tables built per call and kept nowhere: adjacent chambers
# of a TriangleSequence differ, so a window of n chambers holds only two
# distinct ones exactly when each of its first n - 2 recurs two steps ahead.


def _winding_spans(t_seq, poles):
    """spans[p][i] = (lo, hi) for each of poles: the n chambers from position
    i wind about p exactly when lo <= n <= hi.  hi counts the chambers in a
    row from i that hold p and lo - 3 the ones that recur two steps ahead,
    each run read around the cycle (math.inf when it never ends)."""
    tess, tris, L = t_seq.tessellation, t_seq.triangles, len(t_seq)

    def runs(flags):
        out, run = [math.inf] * L, 0
        if not all(flags):
            for i in range(L - 1, -L - 1, -1):
                out[i] = run = (run + 1) * flags[i]
        return out

    lo = [run + 3 for run in runs([tris[i] == tris[(i + 2) % L] for i in range(L)])]
    return {p: list(zip(lo, runs([p in tess.triangles[t] for t in tris]))) for p in poles}


def is_alpha_simple(t_seq, alpha):
    """True iff no winding string exceeds the deflection budget of alpha.

    The forbidden pattern about a pole p of order o is a winding string of W =
    2*floor(1/(2-alpha))*o + 1 chambers, wrapping around the word as often as
    needed; only a pole held at min(W, L) or more of the L positions can.
    """
    check_alpha(alpha)
    tess, L = t_seq.tessellation, len(t_seq)
    kappa = math.floor(1.0 / (2.0 - alpha))
    held = Counter(p for t in t_seq.triangles for p in tess.triangles[t])
    width = {p: 2 * kappa * tess.pole_order[p] + 1 for p in held}
    spans = _winding_spans(t_seq, [p for p in held if held[p] >= min(width[p], L)])
    return not any(lo <= width[p] <= hi for p in spans for lo, hi in spans[p])


def is_tied_to_two_coboundary_axes(t_seq):
    """True iff the word splits into full turns around two poles of one chamber.

    The cyclic word must partition into winding strings of 2*n*o_p chambers
    (n >= 1) about poles p, ranging over both of two corners p1, p2 of one
    chamber; each chamber holds p1 or p2, the first one too, so the pairs
    come from its corners' fans.  The search relies on merging: adjacent
    blocks about one pole are one block (p held throughout, three distinct
    chambers, length divisible by 2*o_p), so from some cut blocks alternate
    p1, p2, ..., p2 and the last ends one period on."""
    tess, L = t_seq.tessellation, len(t_seq)
    held, turn = [tess.triangles[t] for t in t_seq.triangles], [2 * o for o in tess.pole_order]
    near = {(a, b) for a in held[0] for t in tess.fan[a] for b in tess.triangles[t] if b != a}
    pairs = [(a, b) for a, b in near if all(a in c or b in c for c in held)]
    spans = _winding_spans(t_seq, {p for pair in pairs for p in pair})
    for p1, p2 in pairs:
        for cut in range(L):
            todo, seen = [(cut, p1, p2)], set()
            while todo:
                pos, p, q = todo.pop()
                lo, hi = spans[p][pos % L]
                for end in range(pos + turn[p], min(pos + hi, cut + L) + 1, turn[p]):
                    if end - pos >= lo and (end, q, p) not in seen:
                        seen.add((end, q, p))
                        todo.append((end, q, p))
            if (cut + L, p1, p2) in seen:
                return True
    return False


# ---------------------------------------------------------------------------
# Test loops


def test_loop(nu, period, samples):
    """Constant-speed piecewise-linear loop along the sequence's edges.

    samples must be divisible by the number of steps; the speed is then
    ell * steps / period at every node.
    """
    S = nu.steps
    samples = check_count(samples, "samples", S)
    if samples % S:
        raise ValueError(f"samples ({samples}) must be divisible by the step count ({S})")
    check_positive(period, "period")
    m = samples // S
    pts = nu.points
    nxt = np.roll(pts, -1, axis=0)
    frac = (np.arange(m) / m)[None, :, None]
    pieces = pts[:, None, :] * (1.0 - frac) + nxt[:, None, :] * frac
    return LoopPath(points=pieces.reshape(samples, 3), period=float(period))


# ---------------------------------------------------------------------------
# Cone specifications


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """A symmetry-and-homotopy constrained minimization problem.

    For the polyhedral tags the class is given by nu; extra_symmetry is an
    optional pair (R, M) with R in the group, R^M = identity, shifting nu by
    steps/M positions.  For the tags Z4 and KLEIN the loop class is implied
    by the symmetry constraints and nu must be None.
    """

    group: RotationGroup
    nu: VertexSequence | None
    alpha: float
    extra_symmetry: tuple | None
    period: float
    central_mass: float

    def __post_init__(self):
        check_alpha(self.alpha)
        check_positive(self.period, "period")
        check_nonnegative(self.central_mass, "central mass")
        tag = self.group.tag
        if tag in ("Z4", "KLEIN"):
            if self.nu is not None:
                raise ValueError(f"tag {tag!r} carries its loop class implicitly; nu must be None")
            if self.extra_symmetry is not None:
                raise ValueError(f"tag {tag!r} does not take an extra symmetry")
            return
        if tag not in ("T", "O", "I"):
            raise ValueError(f"cones are not defined for group tag {tag!r}")
        if self.nu is None:
            raise ValueError("polyhedral cones need a vertex sequence")
        if self.nu.polyhedron.group.tag != tag:
            raise ValueError("vertex sequence belongs to a different group")
        if self.extra_symmetry is not None:
            R, M = self.extra_symmetry
            R = np.array(R, dtype=float)
            M = check_count(M, "extra symmetry order M", 1)
            try:
                g = self.group.index(R)
            except KeyError:
                raise ValueError("extra symmetry element is not in the group") from None
            if M % self.group.element_orders[g]:
                raise ValueError("extra symmetry element does not have order dividing M")
            if self.nu.steps % M:
                raise ValueError("sequence length is not divisible by M")
            if _shift_element(self.nu, M) != g:
                raise ValueError("extra symmetry does not shift the sequence by steps/M")
            object.__setattr__(self, "extra_symmetry", (R, M))
        word = self.reduced_word
        if not word:
            raise ValueError("the loop class is contractible; the cone is not coercive")
        tris = self.nu.polyhedron.tessellation.triangles
        common = set(tris[word[0]])
        for t in word[1:]:
            common &= set(tris[t])
        if common:
            raise ValueError(
                "the loop class winds around a single rotation axis; the cone is excluded"
            )

    @cached_property
    def triangle_sequence(self):
        if self.nu is None:
            return None
        return triangles_from_vertices(self.nu)

    @cached_property
    def reduced_word(self):
        if self.nu is None:
            return ()
        return reduce_cyclic_word(self.triangle_sequence.triangles)

    @cached_property
    def canonical_word(self):
        return canonical_cyclic_word(self.reduced_word)

    def to_config(self):
        """Plain-dict form; round-trips bit-exactly through JSON."""
        extra = None
        if self.extra_symmetry is not None:
            R, M = self.extra_symmetry
            extra = {"element_index": self.group.index(R), "M": M}
        return {
            "group": self.group.tag,
            "nu": list(self.nu.vertex_ids) if self.nu is not None else None,
            "alpha": float(self.alpha),
            "extra_symmetry": extra,
            "period": float(self.period),
            "central_mass": float(self.central_mass),
        }


def cone_from_config(config):
    """Inverse of ConeSpec.to_config."""
    tag = str(config["group"]).upper()
    group = build_archimedean(tag).group if tag in ("T", "O", "I") else builtin_group(tag)
    nu = None
    if config.get("nu") is not None:
        poly = build_archimedean(group)
        nu = VertexSequence(poly, tuple(config["nu"]))
    extra = None
    if config.get("extra_symmetry") is not None:
        spec = config["extra_symmetry"]
        index = check_count(spec["element_index"], "element_index", 0)
        if index >= group.order:
            raise ValueError(f"element_index must be below the group order {group.order}")
        extra = (group.elements[index], spec["M"])
    return ConeSpec(
        group=group,
        nu=nu,
        alpha=float(config["alpha"]),
        extra_symmetry=extra,
        period=float(config["period"]),
        central_mass=float(config["central_mass"]),
    )


def save_cone(cone, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cone.to_config(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_cone(path):
    with open(path, "r", encoding="utf-8") as fh:
        return cone_from_config(json.load(fh))


def catalog_cone(tag, name, *, period=TWO_PI, central_mass=0.0, alpha=None):
    """ConeSpec for a published catalog row under the reconstructed numbering."""
    entry = catalog_entry(str(tag).upper(), name)
    poly = build_archimedean(entry.tag)
    nu = VertexSequence.from_labels(poly, entry.labels, published_numbering(entry.tag))
    matches = find_extra_symmetry(nu, entry.M)
    if not matches:
        raise ValueError(
            f"catalog row {entry.tag}/{entry.name} admits no symmetry of order {entry.M} "
            "under this numbering"
        )
    return ConeSpec(
        group=poly.group,
        nu=nu,
        alpha=float(entry.alpha if alpha is None else alpha),
        extra_symmetry=(matches[0], entry.M),
        period=float(period),
        central_mass=float(central_mass),
    )


# ---------------------------------------------------------------------------
# Minimal total angle


@dataclass(frozen=True, eq=False)
class MinimalAngleResult:
    """Minimal total angle and the circular-arc skeleton realizing it.

    total_angle is the least over every route whose lift stays within
    _TAIL_DEPTH chambers of the class's axis in the cover (see
    min_total_angle), not over every route; a larger depth could only lower
    it.  semi_axes lists the junction directions, rotated so that their
    pole indices read as canonical_cyclic_word; arc i joins semi_axes[i] to
    semi_axes[i+1] (cyclically) sweeping arc_angles[i], total_angle is their
    sum in that order, and times[i] is the junction passage time under the
    constant angular speed total_angle / period.  word is the chamber
    itinerary of the realizing route and turns the most whole turns it
    takes about one junction pole.  The search counters give the starts,
    the states expanded (pops) and reached, and the deepest tail of the
    realizing lift.  The closed-form KLEIN loop has an empty word, and its
    turns and counters are 0.
    """

    total_angle: float
    semi_axes: np.ndarray
    arc_angles: np.ndarray
    times: np.ndarray
    word: tuple
    turns: int
    starts: int
    pops: int
    states: int
    depth: int


def _arc_tangents(za, zb):
    """(theta, w): the angles of the short great arcs from the unit vector za
    to the unit rows of zb, and the unit tangents of the arcs at za."""
    c = np.clip(zb @ za, -1.0, 1.0)
    w = zb - c[:, None] * za
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return np.arccos(c), w


def _arc_chambers(tess, za, w, theta):
    """Read the great arcs that leave the unit vector za, arc k towards the
    unit tangent w[k] through the angle theta[k]: one (chambers, wall) pair
    per arc.  An arc off every wall gives the chambers it runs through, in
    order, repeats merged, and None; an arc along a wall (n.za and n.w both
    within 1e-9 of 0) has no chamber of its own and gives [] and the index
    of that wall.

    cos(phi) za + sin(phi) w lies on the wall of normal n where
    tan(phi) = -(n.za)/(n.w), so every wall is met at atan2(-n.za, n.w)
    modulo pi.  Crossings within 1e-9 of either end do not count, so an arc
    may start or end on a wall.  One point midway between each two
    crossings is located, the points of all the arcs in one call.
    """
    along, across = tess.wall_normals @ za, w @ tess.wall_normals.T
    flat = np.maximum(np.abs(along), np.abs(across)) < 1e-9
    phis = np.arctan2(-along, across)[:, :, None] + math.pi * np.arange(-1, 3)
    spans, samples = [], []
    for k, on_wall in enumerate(flat):
        if on_wall.any():
            spans.append((0, int(np.argmax(on_wall))))
            continue
        cuts = phis[k][(phis[k] > 1e-9) & (phis[k] < theta[k] - 1e-9)]
        bounds = np.concatenate(([0.0], np.sort(cuts), [theta[k]]))
        mids = 0.5 * (bounds[:-1] + bounds[1:])
        samples.append(np.cos(mids)[:, None] * za + np.sin(mids)[:, None] * w[k])
        spans.append((len(mids), None))
    chambers = iter(tess.locate(np.concatenate(samples)) if samples else ())
    return [(merge_consecutive(itertools.islice(chambers, n)), wall) for n, wall in spans]


def _central_circle_exists(poly, target_word):
    """True if a great circle, run once or repeated, carries the class of the
    cyclically reduced chamber word (any rotation of it), exactly.

    A great circle off the poles crosses each of the W walls twice and meets
    each chamber, a convex triangle, at most once: its word is 2W distinct
    chambers, and the target must be r copies of such a root.  The circle
    crosses the side between each two consecutive root chambers, so the two
    poles of that side lie on either side of it: a normal n must have
    s_p (n . p) > 0 for signs s_p opposite across every crossed side.  The
    root is a closed path through distinct chambers, so such signs exist
    (the poles inside it take one sign) and propagate along it; a pole and
    its antipode of one sign refuse the word.  Any such n crosses those 2W
    sides, hence no other side, so the root is the word of n or of -n
    exactly when that open cone is nonempty: when the sum of its closure's
    corners, the cross products of two signed poles that meet every sign,
    lies strictly inside it.  These tests allow 1e-9 for rounding.
    """
    tess = poly.tessellation
    width, n = 2 * len(tess.wall_normals), len(target_word)
    root = tuple(target_word[:width])
    if n == 0 or n % width or len(set(root)) < width or tuple(target_word) != root * (n // width):
        return False
    tris, signs = tess.triangles, {}
    for a, b in zip(root, root[1:] + root[:1]):
        p, q = set(tris[a]) & set(tris[b])
        signs[p] = signs.get(p, -signs.get(q, 1))
        signs[q] = -signs[p]
    P = tess.points[list(signs)] * np.array(list(signs.values()), dtype=float)[:, None]
    if (P @ P.T).min() < -1.0 + 1e-9:
        return False
    # the cross products of every ordered pair of signed poles, so both signs;
    # numpy reduces the short axis of the (pair, pole) margins far slower
    Q, R = P[:, [1, 2, 0]], P[:, [2, 0, 1]]
    cross = (Q[:, None] * R - R[:, None] * Q).reshape(-1, 3)
    corners = cross[(P @ cross.T).min(axis=0) >= -1e-9]
    return bool((P @ corners.sum(axis=0)).min() > 1e-9)


def _cover_search(poly, word, pole_perm, tri_perm, M):
    """The cheapest block of a route in the class of the cyclically reduced
    chamber word, by one A* search over (pole, i, tail) in the cover, on the
    polyhedron's search_moves; see min_total_angle.  Returns (p0, c0, moves,
    counters): the block leaves pole p0 in chamber c0 and makes moves;
    counters are (starts, pops, states, depth).  Raises RuntimeError past
    _MAX_POPS expanded states, or with no block left.
    """
    by_start, by_pair = poly.search_moves
    l, D = len(word), _TAIL_DEPTH

    def walk(i, tail, chambers):
        """The lift of the walk from (i, tail) through chambers, or None
        once its tail would pass D."""
        for c in chambers:
            if tail:
                if c == (tail[-2] if len(tail) > 1 else word[i % l]):
                    tail = tail[:-1]
                elif len(tail) < D:
                    tail += (c,)
                else:
                    return None
            elif c == word[(i + 1) % l]:
                i += 1
            elif c == word[(i - 1) % l]:
                i -= 1
            elif D:
                tail = (c,)
            else:
                return None
        return i, tail

    heap, best, parent, roots, order = [], {}, {}, [], itertools.count()

    def push(s, g, move, x, parent_key):
        # entries pop by f = g + bound, then start, then push order
        key = (s, move[0], *x)
        if g < best.get(key, math.inf):
            best[key], parent[key] = g, (parent_key, move)
            heapq.heappush(heap, (g + roots[s][3][move[0]], s, next(order), g, key))

    # every block starts at a move crossing w[0] -> w[1], lifted to
    # (0, ()) -> (1, ()), and ends at (R p0, sigma(x0)) from its start
    # (p0, x0), sigma(i, tail) = (i + l/M, R tail)
    for p0, k, move in by_pair.get(word[:2], ()):
        x0 = walk(0, (), move[1][k - 1::-1] if k else ())
        x1 = x0 and walk(*x0, move[1][1:])
        if x1:
            goal = (pole_perm[p0], x0[0] + l // M, tuple(tri_perm[c] for c in x0[1]))
            roots.append((p0, x0, goal, poly.closing_angles[goal[0]].tolist()))
            push(len(roots) - 1, move[2], move, x1, None)
    pops = 0
    while heap:
        _, s, _, g, key = heapq.heappop(heap)
        if g > best[key]:
            continue
        pops += 1
        if pops > _MAX_POPS:
            raise RuntimeError(f"minimal-angle search exhausted its pop budget at tail depth {D}")
        _, p, i, tail = key
        if key[1:] == roots[s][2]:
            break
        for move in by_start[p, tail[-1] if tail else word[i % l]]:
            x = walk(i, tail, move[1][1:])
            if x is not None:
                push(s, g + move[2], move, x, key)
    else:
        raise RuntimeError(f"minimal-angle search found no block within tail depth {D}")
    moves = []
    while key is not None:
        key, move = parent[key]
        moves.append(move)
    moves.reverse()
    p0, (i, tail) = roots[s][:2]
    c0, depth = tail[-1] if tail else word[i % l], len(tail)
    for _, run, _ in moves:
        for c in run[1:]:
            i, tail = walk(i, tail, (c,))
            depth = max(depth, len(tail))
    return p0, c0, moves, (len(roots), pops, len(best), depth)


def _logged(cone, result):
    """Send the search counters of one min_total_angle call to the module logger."""
    _log.debug(
        "min_total_angle %s: total_angle=%r arcs=%d turns=%d starts=%d pops=%d states=%d depth=%d",
        cone.group.tag, result.total_angle, len(result.arc_angles), result.turns,
        result.starts, result.pops, result.states, result.depth,
    )
    return result


def min_total_angle(cone):
    """Minimal total angle of circular-arc loops through rotation semi-axes
    realizing the cone's loop class, with the realizing skeleton.

    The sphere minus the poles retracts onto the chamber graph, whose
    universal cover is a tree; the class's cyclically reduced word w =
    cone.canonical_word, of length l, repeats along an axis there.  A
    chamber of the cover is (i, tail): tail is the reduced chamber path, at
    most _TAIL_DEPTH long, by which it leaves the axis at position i, over
    w[i mod l].  A route alternates arcs between poles and junctions, walks
    around a pole's fan.  One A* search runs over (pole, i, tail) on the
    polyhedron's search_moves: a fan step costs 0, an arc walks its run and
    costs its angle, and closing_angles to the goal pole is the consistent
    bound; ties go to the earlier start, then the earlier push.  The
    extra symmetry (R, M) lifts to sigma(i, tail) = (i + l/M, R tail).  A
    symmetric loop of the class crosses the axis edge w[0] -> w[1] forwards,
    up to sigma, so each block starts at a move making that crossing, a
    fan step at a pole of the side between w[0] and w[1] or an arc whose
    run holds the pair, and ends at (R p0, sigma(x0)) from its start
    (p0, x0); every start shares the one heap.  The answer is M blocks of
    the cheapest.  So the minimum is over every route whose lift stays
    within _TAIL_DEPTH chambers of the axis, with any number of turns.
    Raises ValueError for a central cone, one whose class a great circle
    run once or repeated carries, decided exactly by _central_circle_exists
    before the search, and for an R that does not shift w by l/M;
    RuntimeError past _MAX_POPS expanded states.
    """
    tag = cone.group.tag
    T = cone.period
    if tag == "Z4":
        raise ValueError(
            "central cone: the antiperiodic class has planar representatives through the origin"
        )
    if tag == "KLEIN":
        axes = np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]
        )
        result = MinimalAngleResult(
            total_angle=TWO_PI,
            semi_axes=axes,
            arc_angles=np.full(4, 0.5 * math.pi),
            times=np.array([0.0, 0.25 * T, 0.5 * T, 0.75 * T]),
            word=(),
            turns=0,
            starts=0,
            pops=0,
            states=0,
            depth=0,
        )
        return _logged(cone, result)

    poly = cone.nu.polyhedron
    tess = poly.tessellation
    word = cone.canonical_word
    if _central_circle_exists(poly, word):
        raise ValueError("central cone: a planar loop through the origin represents this class")

    R, M = cone.extra_symmetry if cone.extra_symmetry is not None else (np.eye(3), 1)
    g = tess.group.index(R)
    pole_perm, tri_perm = tess.pole_permutations[g], tess.triangle_permutations[g]
    l = len(word)
    if l % M or any(tri_perm[c] != word[(k + l // M) % l] for k, c in enumerate(word)):
        raise ValueError("the extra symmetry does not shift the class word by 1/M of its length")
    p0, c0, moves, (starts, pops, states, depth) = _cover_search(poly, word, pole_perm, tri_perm, M)

    # the loop: M images of the block's stops (pole, chamber) and chambers
    stops, chambers = [(p0, c0)], [c0]
    for pole, run, _ in moves:
        stops.append((pole, run[-1]))
        chambers += run[1:]
    pole_pows, tri_pows = [range(len(tess.points))], [range(len(tess.triangles))]
    for _ in range(1, M):
        pole_pows.append([pole_perm[p] for p in pole_pows[-1]])
        tri_pows.append([tri_perm[c] for c in tri_pows[-1]])
    loop = [(pp[p], tp[c]) for pp, tp in zip(pole_pows, tri_pows) for p, c in stops[:-1]]
    # cut after an arc, so that each junction is one run of stops at its pole
    cut = next(k for k in range(len(loop)) if loop[k - 1][0] != loop[k][0])
    junctions = [
        (p, [tess.fan[p].index(c) for _, c in run])
        for p, run in itertools.groupby(loop[cut:] + loop[:cut], key=lambda stop: stop[0])
    ]
    turns = 0
    for p, at in junctions:
        L = len(tess.fan[p])
        net = sum(1 if (b - a) % L == 1 else -1 for a, b in zip(at, at[1:]))
        turns = max(turns, abs(net) // L)

    full = canonical_cyclic_word([p for p, _ in junctions])
    m = len(full)
    angles = poly.arc_table[0]
    arc_angles = np.array([angles[full[i], full[(i + 1) % m]] for i in range(m)])
    total = float(arc_angles.sum())
    result = MinimalAngleResult(
        total_angle=total,
        semi_axes=tess.points[list(full)],
        arc_angles=arc_angles,
        times=np.concatenate(([0.0], np.cumsum(arc_angles)[:-1])) * (T / total),
        word=tuple(tp[c] for tp in tri_pows for c in chambers[:-1]),
        turns=turns,
        starts=starts,
        pops=pops,
        states=states,
        depth=depth,
    )
    return _logged(cone, result)
