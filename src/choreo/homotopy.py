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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .action import LoopPath
from .groups import RotationGroup, builtin_group, full_group_tessellation, matrix_key
from .reference_tables import TWO_PI, catalog_entry, catalog_rows

# How far the minimal-angle search lowers its A* bound on open entries.
_BOUND_SLACK = 1e-9
_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Archimedean edge graphs


class ArchimedeanPolyhedron:
    """Equal-edge solid inscribed in the unit sphere, stored as a graph.

    vertices is the orbit of the base point q in deterministic group-element
    order; edges maps index pairs (i, j) with i < j to the side type 1 or 2.
    The base point sits on the triangle side joining the two higher-order
    poles of the base tessellation triangle, equidistant from the planes of
    the other two sides, so that both reflected copies q1, q2 are at the
    same chord distance ell.  Cached per tag, it owns the exponent-free
    base-edge constants of the estimates and the minimal-angle search tables
    over its tessellation, each built on first use.
    """

    def __init__(self, group, tessellation, vertices, edges, base_points):
        self.group = group
        self.tessellation = tessellation
        self.vertices = np.array(vertices, dtype=float)
        self.vertices.setflags(write=False)
        self.edges = dict(edges)
        self.base_points = tuple(np.array(p, dtype=float) for p in base_points)
        lengths = [
            np.linalg.norm(self.vertices[i] - self.vertices[j]) for (i, j) in self.edges
        ]
        spread = max(lengths) - min(lengths)
        if spread > 1e-10:
            raise ValueError(f"edge lengths are not uniform (spread {spread:.2e})")
        self.edge_length = float(np.mean(lengths))
        adj = {i: [] for i in range(len(self.vertices))}
        for (i, j), typ in self.edges.items():
            adj[i].append((j, typ))
            adj[j].append((i, typ))
        self._adjacency = {i: tuple(sorted(pairs)) for i, pairs in adj.items()}

    @property
    def vertex_count(self):
        return len(self.vertices)

    def neighbors(self, i):
        return self._adjacency[i]

    def edge_type(self, i, j):
        """Side type of the edge {i, j}, or None if the pair is not an edge."""
        return self.edges.get((min(i, j), max(i, j)))

    @cached_property
    def vertex_permutations(self):
        """How each group element permutes the vertex indices, indexed like
        group.elements."""
        return self.group.point_permutations(self.vertices)

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
        the great arc from vertex i to vertex j runs through, in order, as
        _arc_itinerary reads them.  Raises ValueError unless every edge runs
        through exactly two adjacent chambers (an edge through a pole meets
        more, or two that only share the pole, or runs along a wall)."""
        tess = self.tessellation
        table = {}
        for i, j in itertools.chain(self.edges, ((j, i) for i, j in self.edges)):
            theta, w = _arc_param(self.vertices[i], self.vertices[j])
            try:
                word = _arc_itinerary(tess, self.vertices[i], w, theta)
            except ValueError:  # along a wall
                word = ()
            if len(word) != 2 or word[1] not in tess.neighbors[word[0]]:
                raise ValueError(f"edge ({i}, {j}) does not cross one wall to an adjacent chamber")
            table[i, j] = tuple(word)
        return MappingProxyType(table)

    @cached_property
    def circle_classes(self):
        """Canonical reduced words of the sampled great circles, both directions.

        Samples the normals of 300 Fibonacci directions, skipping circles
        that pass within 5e-3 of a pole.  Depends only on the tessellation.
        """
        tess = self.tessellation
        classes = set()
        for axis in _fibonacci_directions(300):
            axis = axis / np.linalg.norm(axis)
            if np.min(np.abs(tess.points @ axis)) < 5e-3:
                continue
            reduced = reduce_cyclic_word(_circle_word(tess, axis))
            if reduced:
                classes.add(canonical_cyclic_word(reduced))
                classes.add(canonical_cyclic_word(reduced[::-1]))
        return tuple(sorted(classes))

    @cached_property
    def arc_table(self):
        """(angles, successors): pole-to-pole angles and the admissible short arcs.

        successors[i] lists (angle, j), sorted, for every pole j that is
        neither i, nor antipodal to i, nor separated from i by a pole on the
        short arc: ties in angle go to the lower pole index.
        """
        pts = self.tessellation.points
        angles = np.arccos(np.clip(pts @ pts.T, -1.0, 1.0))
        angles.setflags(write=False)
        successors = []
        for i in range(len(pts)):
            row = []
            for j in range(len(pts)):
                if j == i:
                    continue
                th = angles[i, j]
                if th < 1e-7 or th > math.pi - 1e-6:
                    continue
                if _pole_inside_arc(pts, pts[i], pts[j]):
                    continue
                row.append((float(th), j))
            successors.append(sorted(row))
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
    def successor_orders(self):
        """successor_orders[i][k]: the successors j of pole i that can still
        reach pole k (closing_angles[j, k] < inf), in the order of
        (theta_ij + d_jk, theta_ij, j), as a bytes object of their positions
        in arc_table's successors[i].  Read-only, 250 kB for I.

        The minimal-angle search pushes the children of an open sequence in
        this order: M (theta + d) rounds monotonically in theta + d, so the
        order holds for every symmetry order M.  successors[i] is sorted by
        (theta, j), so a stable sort on theta + d breaks its ties that way.
        """
        _, successors = self.arc_table
        d = self.closing_angles
        orders = []
        for row in successors:
            thetas = np.array([theta for theta, _ in row])
            # [k, r]: theta + d to pole k through the r-th successor
            via = thetas + d[[j for _, j in row]].T
            counts = np.isfinite(via).sum(axis=1)
            ranks = np.argsort(via, axis=1, kind="stable")
            orders.append(tuple(bytes(r[:n].tolist()) for r, n in zip(ranks, counts)))
        return tuple(orders)

    @cached_property
    def arc_runs(self):
        """Read-only map from every successor arc (a, b) of arc_table to its
        wall-side runs, each a tuple of chambers: one run, the chambers the
        arc runs through (_arc_itinerary), for an arc off every wall, and
        two, one either side (_on_wall_itinerary), for an arc along a wall.

        The arcs off a wall locate their samples in one batch per starting
        pole: one batch for the whole table (4,560 samples for I) would make
        a 13 MB temporary of chamber margins.
        """
        tess = self.tessellation
        pts = tess.points
        table = {}
        for a, row in enumerate(self.arc_table[1]):
            samples = {}
            for _, b in row:
                wall = _arc_wall(tess, pts[a], pts[b])
                if wall is None:
                    theta, w = _arc_param(pts[a], pts[b])
                    samples[b] = _arc_samples(tess, pts[a], w, theta)
                else:
                    table[a, b] = tuple(map(tuple, _on_wall_itinerary(tess, a, b, wall)))
            if samples:
                chambers = iter(tess.locate(np.concatenate(list(samples.values()))))
                for b, points in samples.items():
                    run = merge_consecutive(itertools.islice(chambers, len(points)))
                    table[a, b] = (tuple(run),)
        return MappingProxyType(table)

    @cached_property
    def winding_steps(self):
        """Winding vector of every chamber step, packed into one integer.

        H_1 of the sphere minus the P poles is Z^(P-1), counted by the signed
        crossings of the P-1 edges of a BFS spanning tree of the pole graph.
        Coordinate e sits at bit 32e of a signed integer, so vectors add as
        integers.  Maps (a, b) to the step a -> b between adjacent chambers
        and (a, a) to 0.
        """
        tess = self.tessellation
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

    verts = []
    index = {}
    for R in group.elements:
        v = R @ q
        key = matrix_key(v)
        if key not in index:
            index[key] = len(verts)
            verts.append(v)

    edges = {}
    for R in group.elements:
        vq = index[matrix_key(R @ q)]
        for typ, qq in ((1, q1), (2, q2)):
            vr = index[matrix_key(R @ qq)]
            e = (min(vq, vr), max(vq, vr))
            prev = edges.get(e)
            if prev is not None and prev != typ and tag != "T":
                raise ValueError(f"edge {e} received conflicting side types")
            edges.setdefault(e, typ)
    if tag == "T":
        # The two base segments are exchanged by the full symmetry group, so a
        # single side type is used for the tetrahedral graph.
        edges = {e: 1 for e in edges}

    expected = {"T": (12, 24), "O": (24, 48), "I": (60, 120)}[tag]
    if (len(verts), len(edges)) != expected:
        raise ValueError(
            f"unexpected graph size {(len(verts), len(edges))} for tag {tag!r}"
        )
    return ArchimedeanPolyhedron(group, tess, verts, edges, (q, q1, q2))


def build_archimedean(group):
    """Edge graph of the equal-edge solid for a polyhedral rotation group.

    Accepts a RotationGroup or one of the tags "T", "O", "I".  The result is
    cached per tag.
    """
    tag = group if isinstance(group, str) else group.tag
    tag = str(tag).upper()
    if tag not in ("T", "O", "I"):
        raise ValueError(f"no Archimedean edge graph for group tag {tag!r}")
    return _build_archimedean_cached(tag)


# ---------------------------------------------------------------------------
# Vertex numberings


def reconstruct_numbering(polyhedron, rows, node_cap=5_000_000):
    """Assign vertex indices to published labels from sequence data alone.

    rows is an iterable of (labels, M, k1, k2) where labels repeats the
    starting label at the end.  The search places each row as a closed edge
    path, prunes on side-type counts, and requires for each row a group
    element R with R^M = identity that shifts the cycle by steps/M
    positions.  Labels not used by any row are assigned to the remaining
    vertices in sorted order, so the result is a bijection.  Raises
    ValueError if the rows cannot be realized.
    """
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


@lru_cache(maxsize=None)
def published_numbering(tag):
    """Vertex numbering consistent with every self-consistent catalog row.

    Rows whose stated side counts disagree with their own step count are
    skipped when building the numbering; they can still be evaluated against
    it afterwards.
    """
    tag = str(tag).upper()
    poly = build_archimedean(tag)
    rows = []
    for e in catalog_rows(tag):
        k2 = e.k2 or 0
        if e.steps != e.k1 + k2:
            continue
        rows.append((e.labels, e.M, e.k1, k2))
    return reconstruct_numbering(poly, rows)


# ---------------------------------------------------------------------------
# Vertex sequences


@dataclass(frozen=True, eq=False)
class VertexSequence:
    """Cyclic edge path on an Archimedean graph, one period of vertex ids.

    A trailing repeat of the first vertex is stripped.  Consecutive entries
    (including the wrap-around pair) must be joined by an edge.
    """

    polyhedron: ArchimedeanPolyhedron
    vertex_ids: tuple

    def __post_init__(self):
        ids = [int(i) for i in self.vertex_ids]
        if len(ids) > 1 and ids[0] == ids[-1]:
            ids = ids[:-1]
        if len(ids) < 2:
            raise ValueError("a vertex sequence needs at least two distinct stops")
        nv = self.polyhedron.vertex_count
        for i in ids:
            if not 0 <= i < nv:
                raise ValueError(f"vertex id {i} out of range")
        for k in range(len(ids)):
            i, j = ids[k], ids[(k + 1) % len(ids)]
            if self.polyhedron.edge_type(i, j) is None:
                raise ValueError(f"vertices {i} and {j} are not joined by an edge")
        object.__setattr__(self, "vertex_ids", tuple(ids))

    @classmethod
    def from_labels(cls, polyhedron, labels, numbering):
        try:
            ids = [numbering[int(l)] for l in labels]
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
        type 1 and of type 2."""
        edge_type, ids, k = self.polyhedron.edge_type, self.vertex_ids, self.k_nu
        k1 = [edge_type(ids[i], ids[(i + 1) % k]) for i in range(k)].count(1)
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


def sequence_counts(nu):
    """(k_nu, k1, k2): minimal period and side-type counts per period, read
    from the sequence's ``side_counts``."""
    return nu.side_counts


def _shifting(nu, M, elements):
    """The element indices g, among elements, whose vertex permutation moves
    nu on by steps/M positions (M must divide the step count)."""
    ids, shift = nu.vertex_ids, nu.steps // M
    moved = ids[shift:] + ids[:shift]
    perms = nu.polyhedron.vertex_permutations
    return [g for g in elements if all(perms[g][i] == j for i, j in zip(ids, moved))]


def find_extra_symmetry(nu, M):
    """Group elements R with R^M = identity realizing the cyclic shift by steps/M.

    Returns the matching matrices in deterministic element order (possibly
    empty).
    """
    if M < 1 or nu.steps % M:
        return []
    group = nu.polyhedron.group
    dividing = [g for g, order in enumerate(group.element_orders) if M % order == 0]
    return [group.elements[g] for g in _shifting(nu, M, dividing)]


# ---------------------------------------------------------------------------
# Triangle sequences and cyclic words


@dataclass(frozen=True, eq=False)
class TriangleSequence:
    """Cyclic itinerary of tessellation chambers, consecutive ones adjacent."""

    tessellation: object
    triangles: tuple

    def __post_init__(self):
        tris = tuple(int(t) for t in self.triangles)
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
    two chambers of the polyhedron's ``edge_chambers`` table; a vertex where
    the path touches a wall without crossing contributes no chamber change.
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


def is_alpha_simple(t_seq, alpha):
    """True iff no winding string exceeds the deflection budget of alpha.

    The forbidden pattern around a pole p of order o is a string of
    2*floor(1/(2-alpha))*o + 1 consecutive chambers whose closed intersection
    is exactly {p}: all of them contain p and at least three distinct
    chambers occur (with one or two distinct chambers the intersection is a
    whole chamber or a shared side, which strictly contains {p}).  Windows
    wrap around the cyclic sequence, repeating it as needed.
    """
    if not 1.0 <= alpha < 2.0:
        raise ValueError("alpha must lie in [1, 2)")
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


def is_tied_to_two_coboundary_axes(t_seq):
    """True iff the word splits into full turns around two poles of one chamber.

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


# ---------------------------------------------------------------------------
# Test loops


def test_loop(nu, period, samples):
    """Constant-speed piecewise-linear loop along the sequence's edges.

    samples must be divisible by the number of steps; the speed is then
    ell * steps / period at every node.
    """
    S = nu.steps
    if samples % S:
        raise ValueError(f"samples ({samples}) must be divisible by the step count ({S})")
    if period <= 0:
        raise ValueError("period must be positive")
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
        if not 1.0 <= self.alpha < 2.0:
            raise ValueError("alpha must lie in [1, 2)")
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        if self.central_mass < 0.0:
            raise ValueError("central_mass must be nonnegative")
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
            M = int(M)
            if M < 1:
                raise ValueError("extra symmetry order M must be a positive integer")
            try:
                g = self.group.index(R)
            except KeyError:
                raise ValueError("extra symmetry element is not in the group") from None
            if M % self.group.element_orders[g]:
                raise ValueError("extra symmetry element does not have order dividing M")
            if self.nu.steps % M:
                raise ValueError("sequence length is not divisible by M")
            if not _shifting(self.nu, M, [g]):
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
        extra = (group.elements[int(spec["element_index"])], int(spec["M"]))
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


@dataclass(frozen=True)
class MinimalAngleResult:
    """Minimal total angle and the circular-arc skeleton realizing it.

    semi_axes lists the junction directions in traversal order; arc i joins
    semi_axes[i] to semi_axes[i+1] (cyclically) sweeping arc_angles[i];
    times[i] is the junction passage time under the constant angular speed
    total_angle / period.  The search counters give the pops of the A*
    search (open sequences and closed skeletons, up to the realizing one),
    the distinct closed skeletons tried, the junction resolutions covered
    (reduced or rejected by the winding filter) and the word reductions
    performed (checked); they are 0 for the closed-form KLEIN loop.
    """

    total_angle: float
    semi_axes: np.ndarray
    arc_angles: np.ndarray
    times: np.ndarray
    centrality: str
    word: tuple
    pops: int
    skeletons: int
    combinations: int
    checked: int


def _fibonacci_directions(n):
    k = np.arange(n)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * k + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    ang = TWO_PI * k / phi
    return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)


def _circle_word(tess, axis):
    """Cyclic chamber word of the full great circle with the given unit normal."""
    seed = np.array([1.0, 0.0, 0.0])
    if abs(axis @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    u = seed - (seed @ axis) * axis
    u /= np.linalg.norm(u)
    return merge_cyclic_duplicates(_arc_itinerary(tess, u, np.cross(axis, u), TWO_PI))


def _central_circle_exists(poly, target_word):
    """True if a sampled great circle, run once or repeated, carries the class.

    A cyclically reduced word stays reduced when repeated, and the canonical
    form of its r-th power is the r-th power of its canonical form.
    """
    target = canonical_cyclic_word(target_word)
    n = len(target)
    return n > 0 and any(
        n % len(c) == 0 and c * (n // len(c)) == target for c in poly.circle_classes
    )


def _arc_param(za, zb):
    c = float(np.clip(za @ zb, -1.0, 1.0))
    theta = math.acos(c)
    w = zb - c * za
    w /= np.linalg.norm(w)
    return theta, w


def _pole_inside_arc(points, za, zb):
    """True if some pole lies strictly inside the open short arc."""
    theta, w = _arc_param(za, zb)
    normal = np.cross(za, w)
    coplanar = np.abs(points @ normal) < 1e-9
    phi = np.arctan2(points @ w, points @ za)
    inside = (phi > 1e-7) & (phi < theta - 1e-7)
    return bool(np.any(coplanar & inside))


def _arc_wall(tess, za, zb):
    """Index of the wall whose great circle carries the whole arc, or None."""
    normals = tess.wall_normals
    hits = np.flatnonzero(np.maximum(np.abs(normals @ za), np.abs(normals @ zb)) < 1e-9)
    if len(hits) > 1:
        raise ValueError("arc endpoints lie on two common walls")
    return int(hits[0]) if len(hits) else None


def _arc_samples(tess, za, w, theta):
    """One point of each stretch between wall crossings of the great arc of
    angle theta that leaves the unit vector za towards the unit tangent w,
    in order, as an (N, 3) array.

    cos(phi) za + sin(phi) w lies on the wall of normal n where
    tan(phi) = -(n.za)/(n.w), so every wall is met at atan2(-n.za, n.w)
    modulo pi.  Crossings within 1e-9 of either end do not count, so the arc
    may start or end on a wall; the point sits midway between crossings.
    Raises ValueError for an arc that runs along a wall (n.za and n.w both
    within 1e-9 of 0): it has no chamber of its own.
    """
    along, across = tess.wall_normals @ za, tess.wall_normals @ w
    if np.any(np.maximum(np.abs(along), np.abs(across)) < 1e-9):
        raise ValueError("the arc runs along a wall")
    base = np.arctan2(-along, across)
    phis = (base[:, None] + math.pi * np.arange(-1, 3)).ravel()
    cuts = np.sort(phis[(phis > 1e-9) & (phis < theta - 1e-9)])
    bounds = np.concatenate(([0.0], cuts, [theta]))
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    return np.cos(mids)[:, None] * za + np.sin(mids)[:, None] * w


def _arc_itinerary(tess, za, w, theta):
    """Chambers met in turn along the great arc of _arc_samples, repeats
    merged; raises ValueError for an arc along a wall."""
    return merge_consecutive(tess.locate(_arc_samples(tess, za, w, theta)))


def _on_wall_itinerary(tess, a, b, wall):
    """The one-chamber runs on either side of the arc from pole a to pole b
    along a wall, the side its normal points to first.

    With no pole inside, the arc is the side {a, b} of exactly two chambers;
    the third corner of each tells its side of the wall.
    """
    first, second = sorted(set(tess.fan[a]) & set(tess.fan[b]))
    (corner,) = set(tess.triangles[first]) - {a, b}
    if tess.wall_normals[wall] @ tess.points[corner] < 0.0:
        first, second = second, first
    return [[first], [second]]


class _SearchOptions(dict):
    """The arc and junction options of one min_total_angle call, each built
    on first use and kept for the rest of the call.

    (a, b) maps to the wall-side choices of the arc from pole a to pole b as
    (chambers, winding) pairs, the runs read from the polyhedron's arc_runs.
    (pole, c_in, c_out) maps to (routes, weights): the distinct routes
    around the pole's fan from chamber c_in to c_out, with up to turn_cap
    extra turns either way, and their windings, entry and exit steps
    included.  (pole,) maps to the windings of the walk once around its fan,
    from fan[0] up to each fan position (the last is the whole loop).  A
    winding is the packed winding vector of the steps, summed over the M
    symmetry copies (perms); windings and routes are all the call builds.
    """

    def __init__(self, poly, perms, turn_cap):
        super().__init__()
        self.tess, self.runs, self.steps = poly.tessellation, poly.arc_runs, poly.winding_steps
        self.perms, self.turn_cap = perms, turn_cap

    def winding(self, path):
        return sum(self.steps[p[a], p[b]] for a, b in zip(path, path[1:]) for p in self.perms)

    def __missing__(self, key):
        tess = self.tess
        if len(key) == 1:
            fan = tess.fan[key[0]]
            steps = zip(fan, fan[1:] + fan[:1])
            value = list(itertools.accumulate(map(self.winding, steps), initial=0))
        elif len(key) == 2:
            value = [(list(run), self.winding(run)) for run in self.runs[key]]
        else:
            # The routes run through `cycle`, the fan repeated, one way or the
            # other; the route with t turns has steps + t * L - 1 chambers.
            # The walk from c_in to c_out winds by `ahead` one way and by
            # ahead - loop the other (0 both ways if c_in is c_out), and
            # each turn adds one loop's winding.
            pid, c_in, c_out = key
            fan = tess.fan[pid]
            L, prefix = len(fan), self[pid,]
            loop = prefix[-1]
            i_in, i_out = fan.index(c_in), fan.index(c_out)
            ahead = prefix[i_out] - prefix[i_in] + (loop if i_out < i_in else 0)
            cycle = fan * (self.turn_cap + 2)
            routes, weights = [], []
            for direction, ring, start, base in (
                (1, cycle, i_in, ahead),
                (-1, cycle[::-1], L - 1 - i_in, ahead - loop if i_out != i_in else 0),
            ):
                steps = (direction * (i_out - i_in)) % L
                for turns in range(self.turn_cap + 1):
                    route = list(ring[start + 1 : start + steps + turns * L])
                    if route not in routes:
                        routes.append(route)
                        weights.append(base + direction * turns * loop)
            value = routes, weights
        self[key] = value
        return value


def _resolutions(options, fund_axes):
    """Wall-side selections of the fundamental block, in product order: yields
    (arc_sel, option_lists, weights, arc_winding), read from the call's
    options; arc_winding is the winding of the selected arcs' own steps.
    """
    exit_perm = options.perms[1 % len(options.perms)]
    arc_choices = [options[a, b] for a, b in zip(fund_axes, fund_axes[1:])]
    for choice in itertools.product(*arc_choices):
        arc_sel = tuple(run for run, _ in choice)
        exits = [run[0] for run in arc_sel[1:]] + [exit_perm[arc_sel[0][0]]]
        junctions = [
            options[key] for key in zip(fund_axes[1:], (run[-1] for run in arc_sel), exits)
        ]
        yield (
            arc_sel,
            [routes for routes, _ in junctions],
            [weights for _, weights in junctions],
            sum(winding for _, winding in choice),
        )


def _winding_solutions(weights, residual):
    """Option index tuples, in product order, whose weights sum to residual.

    reach[j] holds the sums reachable over the junctions after j, so the walk
    enters only options that can still complete the residual.
    """
    reach = [{0}]
    for ws in weights[:0:-1]:
        reach.insert(0, {w + s for w in ws for s in reach[0]})

    def walk(j, rest):
        if j == len(weights):
            yield ()
        else:
            for o, w in enumerate(weights[j]):
                if rest - w in reach[j]:
                    yield from ((o, *tail) for tail in walk(j + 1, rest - w))

    return walk(0, residual)


def _skeleton_realizes(options, target, goal, fund_axes, combo_cap):
    """Try junction/side resolutions of the arc skeleton against the class word.

    fund_axes = (s_0, ..., s_f) with s_f the symmetry image of s_0; the full
    loop is the concatenation of M symmetry-translated copies of the
    fundamental block, options.perms.  The winding vector is an invariant
    of the class, so only resolutions whose vector is the target's (goal)
    can match; they come in product order, and the first one whose reduced
    word is the target is the match a check of every resolution would find.
    Returns the full word (or None), the resolutions covered (reduced, or
    rejected by the filter) up to the match, and the reductions performed;
    raises past combo_cap covered resolutions.
    """
    tried = checked = 0
    for arc_sel, option_lists, weights, arc_winding in _resolutions(options, fund_axes):
        sizes = [len(opts) for opts in option_lists]
        found = None
        for sel in _winding_solutions(weights, goal - arc_winding):
            index = 0
            for o, n in zip(sel, sizes):
                index = index * n + o
            if tried + index + 1 > combo_cap:
                break
            checked += 1
            block = [c for run, opts, o in zip(arc_sel, option_lists, sel) for c in run + opts[o]]
            word = [perm[c] for perm in options.perms for c in block]
            reduced = reduce_cyclic_word(word)
            if len(reduced) == len(target) and canonical_cyclic_word(reduced) == target:
                found = tuple(word)
                break
        tried += index + 1 if found else math.prod(sizes)
        if tried > combo_cap:
            raise RuntimeError(
                "minimal-angle realization search exhausted its resolution budget"
            )
        if found:
            return found, tried, checked
    return None, tried, checked


def _skeleton_pops(poly, M, fmax, pole_perm):
    """A* search over symmetry-periodic junction sequences on the successor
    arcs of the polyhedron's arc_table.

    Yields (cost, axes, closed) from every pole at cost 0.  An open sequence
    of fewer than fmax arcs is extended by each successor j of its last pole,
    and closed when j is the symmetry image of its first pole.  Entries pop
    in the order of (f, k, closed): k = (cost, parent's k, j), where the arc
    of angle theta to j adds M * theta to the parent's cost, and f = parent's
    cost + M * (theta + closing_angles[j, close]), lowered by _BOUND_SLACK on
    open entries, so that a rounding never lifts an ancestor's f to its
    closed descendant's cost.  theta + d rounds before the product, so f
    grows along each successor_orders row for every M.  The bound ignores
    fmax, so it is admissible; the closing table makes it consistent and it
    is 0 on closed entries, so closed entries pop in the order of (cost, k):
    the order in which a uniform-cost search that breaks ties by push order
    pops them.  Open entries that cannot close (inf bound) or grow (fmax
    arcs) are not pushed.  The open children of a pop enter the heap lazily,
    in the order of their successor_orders row: each entry carries its
    siblings' row and its rank in it, and pushes the next sibling when it
    pops.  Of the P x P closing table the call reads the P root bounds and
    the rows of the closing poles it meets.
    """
    _, successors = poly.arc_table
    closing, orders = poly.closing_angles, poly.successor_orders
    P = len(successors)
    distances, rows = {}, {}
    no_row = ((), (), ())

    def children(i, close):
        """(row, twin): row is (ranks, successors[i], d) with ranks the
        successor_orders row of (i, close) and d the closing angles to
        close; twin is M theta for the arc to close itself, or None."""
        entry = rows.get((i, close))
        if entry is None:
            d = distances.get(close)
            if d is None:
                # closing_angles is symmetric: its row close is its column
                d = distances[close] = closing[close].tolist()
            twin = next((M * theta for theta, j in successors[i] if j == close), None)
            entry = rows[i, close] = (orders[i][close], successors[i], d), twin
        return entry

    def push_open(parent, axes, row, rank):
        ranks, succ, d = row
        theta, j = succ[ranks[rank]]
        key = (parent[0] + M * theta, parent, j)
        f = parent[0] + (M * (theta + d[j]) - _BOUND_SLACK)
        heapq.heappush(heap, (f, key, False, axes + (j,), row, rank))

    roots = (M * closing[list(pole_perm), range(P)] - _BOUND_SLACK).tolist()
    heap = [
        (roots[s0], (0.0, (), s0), False, (s0,), no_row, -1)
        for s0 in range(P)
        if roots[s0] < math.inf
    ]
    heapq.heapify(heap)
    while heap:
        _, key, closed, axes, siblings, rank = heapq.heappop(heap)
        cost = key[0]
        yield cost, axes, closed
        if closed:
            continue
        if rank + 1 < len(siblings[0]):
            push_open(key[1], axes[:-1], siblings, rank + 1)
        close = pole_perm[axes[0]]
        row, twin = children(axes[-1], close)
        if row[0] and len(axes) < fmax:
            push_open(key, axes, row, 0)
        if twin is not None:
            closed_key = (cost + twin, key, close)
            heapq.heappush(heap, (cost + twin, closed_key, True, axes + (close,), no_row, -1))


def _logged(cone, result):
    """Send the search counters of one min_total_angle call to the module logger."""
    _log.debug(
        "min_total_angle %s: total_angle=%r arcs=%d pops=%d skeletons=%d combinations=%d checked=%d",
        cone.group.tag, result.total_angle, len(result.arc_angles),
        result.pops, result.skeletons, result.combinations, result.checked,
    )
    return result


def min_total_angle(cone, *, max_pops=2_000_000, turn_cap=2, combo_cap=10_000_000):
    """Minimal total angle of circular-arc loops through rotation semi-axes
    realizing the cone's loop class, with the realizing skeleton.

    Runs an A* search over symmetry-periodic junction sequences, bounded
    below by the least angle still needed to close (the polyhedron's
    closing_angles); the bound is admissible, so the first closed skeleton
    whose chamber word (over junction and wall-side resolutions) matches the
    class is still optimal.  Closed skeletons pop in the order a
    uniform-cost search pops them, up to the answer, and a winding-number
    filter hands over only the resolutions with the class's winding vector,
    in product order; so the result, skeletons and combinations are those
    of reducing every resolution of every skeleton in turn, while pops
    counts the A* pops (open sequences and closed skeletons) and checked the
    reductions made.  What depends only on the geometry, the arcs' wall-side
    runs (arc_runs) and the successor rows in bound order
    (successor_orders), is read from the polyhedron's tables, built on
    first use; a call builds only the windings over its M symmetry copies,
    its root bounds and its junction routes, each once.  Raises ValueError
    for central cones and RuntimeError on search exhaustion: past max_pops
    heap pops or combo_cap junction resolutions covered in the call.
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
            centrality="non-central",
            word=(),
            pops=0,
            skeletons=0,
            combinations=0,
            checked=0,
        )
        return _logged(cone, result)

    nu = cone.nu
    poly = nu.polyhedron
    tess = poly.tessellation
    target = cone.canonical_word
    if _central_circle_exists(poly, target):
        raise ValueError("central cone: a planar loop through the origin represents this class")
    centrality = "centrality unknown (no planar representative found among sampled circles)"

    R, M = cone.extra_symmetry if cone.extra_symmetry is not None else (np.eye(3), 1)
    g = tess.group.index(R)
    pole_perm, tri_perm = tess.pole_permutations[g], tess.triangle_permutations[g]
    pole_perm_pows = [tuple(range(len(tess.points)))]
    tri_perm_pows = [tuple(range(len(tess.triangles)))]
    for _ in range(1, M):
        pole_perm_pows.append(tuple(pole_perm[p] for p in pole_perm_pows[-1]))
        tri_perm_pows.append(tuple(tri_perm[c] for c in tri_perm_pows[-1]))

    pts = tess.points
    angles, _ = poly.arc_table
    steps = poly.winding_steps
    goal = sum(steps[target[i - 1], target[i]] for i in range(len(target)))
    options = _SearchOptions(poly, tri_perm_pows, turn_cap)

    fmax = max(2, math.ceil(4 * nu.steps / M))
    seen_skeletons = set()
    pops = combinations = checked = 0
    for cost, axes, closed in _skeleton_pops(poly, M, fmax, pole_perm):
        pops += 1
        if pops > max_pops:
            raise RuntimeError("minimal-angle search exhausted its pop budget")
        if not closed:
            continue
        full = [perm[a] for perm in pole_perm_pows for a in axes[:-1]]
        canon = min(tuple(full[i:] + full[:i]) for i in range(len(full)))
        if canon in seen_skeletons:
            continue
        seen_skeletons.add(canon)
        word, tried, reductions = _skeleton_realizes(
            options, target, goal, axes, combo_cap - combinations
        )
        combinations += tried
        checked += reductions
        if word is None:
            continue
        m = len(full)
        semi_axes = pts[full]
        arc_angles = np.array([angles[full[i], full[(i + 1) % m]] for i in range(m)])
        total = float(arc_angles.sum())
        times = np.concatenate(([0.0], np.cumsum(arc_angles)[:-1])) * (T / total)
        result = MinimalAngleResult(
            total_angle=total,
            semi_axes=semi_axes,
            arc_angles=arc_angles,
            times=times,
            centrality=centrality,
            word=word,
            pops=pops,
            skeletons=len(seen_skeletons),
            combinations=combinations,
            checked=checked,
        )
        return _logged(cone, result)
    raise RuntimeError("minimal-angle search exhausted all candidates without a realization")
