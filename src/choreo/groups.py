"""Finite orthogonal symmetry groups and their sphere tessellations.

A symmetry group here is a finite set of 3x3 orthogonal matrices acting on
the trajectory of a single body; the remaining bodies are the orbit of that
trajectory under the group.  The built-in groups are the vertical
rotoreflection group Z4, its order-2N generalizations, the Klein group of
half turns about the coordinate axes, and the rotation groups of the
tetrahedron, octahedron and icosahedron.

For the three polyhedral groups the rotation axes cut the unit sphere into
2N spherical triangles (N the group order).  That tessellation, together
with the unit normals of its walls, drives the homotopy bookkeeping in the
rest of the package.

Each derived table has one owner, the group or the tessellation, and is a
cached attribute of it, built on first use.  The group owns its pole table
(``RotationGroup.poles``, the axes of its rotations with their orders) and
the permutations of the poles by its elements; the collision set and the
tessellation read both.
"""

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .action import check_count

KEY_DECIMALS = 9
_IDENTITY_ATOL = 1e-9
# Elements generate_group may collect before it gives up.
_CLOSURE_CAP = 200
_log = logging.getLogger(__name__)


def matrix_key(M):
    """Hashable identity for a matrix: entries rounded to 9 decimals.

    The +0.0 sweeps away negative zeros so -0.0 and 0.0 collide.
    """
    r = np.round(np.asarray(M, dtype=float), KEY_DECIMALS) + 0.0
    return tuple(r.ravel())


def _matcher(targets):
    """match(images): for each image, the index of the row of targets nearest
    it by squared distance, so rows of mixed norms match; KeyError if the
    image does not round to that row's key.  ValueError if two rows share a key."""
    T = np.asarray(targets, dtype=float).reshape(len(targets), -1)
    keys = np.round(T, KEY_DECIMALS) + 0.0
    if len(set(map(tuple, keys.tolist()))) < len(keys):
        raise ValueError("the points to match are not distinct")

    def match(images):
        images = images.reshape(-1, T.shape[1])
        # |x - t|^2 less the |x|^2 it adds for every t
        near = ((T * T).sum(axis=1) - 2.0 * images @ T.T).argmin(axis=1)
        if not (np.round(images, KEY_DECIMALS) == keys[near]).all():
            raise KeyError("an image matches none of the points")
        return tuple(near.tolist())

    return match


def is_orthogonal(M):
    M = np.asarray(M, dtype=float)
    return M.shape == (3, 3) and np.allclose(M.T @ M, np.eye(3), atol=1e-9)


def rotation_matrix(axis, angle):
    """Rotation by `angle` about `axis` (Rodrigues formula)."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    K = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def unit_frame(p):
    """Unit vectors (e1, e2) with (e1, e2, p) a right-handed orthonormal frame
    for the unit vector p; e1 is e_x (e_y if p is near e_x) made orthogonal to p."""
    seed = np.array([1.0, 0.0, 0.0])
    if abs(p @ seed) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    e1 = seed - (seed @ p) * p
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(p, e1)


def _first_positive(v):
    """The unit vector along v whose first nonzero coordinate is positive."""
    v = v / np.linalg.norm(v)
    return -v if v[np.flatnonzero(np.abs(v) > 1e-9)[0]] < 0.0 else v


def _rotation_axes(R):
    """Unit axes of a (k, 3, 3) stack of proper non-identity rotations: for a
    half turn the column of R + I = 2 p p^T of largest norm, for any other
    the antisymmetric part of R.  Each axis is made unit alone, since a
    batched norm may differ in the last bit."""
    M = R + np.eye(3)
    column = M[np.arange(len(M)), :, np.linalg.norm(M, axis=1).argmax(axis=1)]
    spin = np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]], axis=-1)
    half = np.abs(np.trace(R, axis1=1, axis2=2) + 1.0) < 1e-9
    return np.array([a / np.linalg.norm(a) for a in np.where(half[:, None], column, spin)]).reshape(-1, 3)


@dataclass(eq=False)
class RotationGroup:
    """A finite group of orthogonal matrices with a stable element order.

    Elements are sorted lexicographically on their rounded entries, so two
    constructions of the same group list the elements identically.  Despite
    the name, elements of determinant -1 are allowed (the vertical groups
    are generated by rotoreflections); the polyhedral groups are proper.
    The element index, the product table (``products``), the element
    orders, the pole table (``poles``) and the permutations of the poles
    (``pole_permutations``), the factors every pair-potential evaluation
    uses (``pair_forms``) and the fixed sets that collision_distance reads
    (``fixed_sets``) are built once per group.
    """

    tag: str
    elements: list = field(repr=False)
    generators: list = field(default_factory=list, repr=False)

    @property
    def order(self):
        return len(self.elements)

    @cached_property
    def _positions(self):
        return {matrix_key(R): i for i, R in enumerate(self.elements)}

    def index(self, R):
        """Position of R in elements; KeyError if R is not an element."""
        return self._positions[matrix_key(R)]

    @property
    def identity_index(self):
        try:
            return self.index(np.eye(3))
        except KeyError:
            raise ValueError("group has no identity element") from None

    @cached_property
    def element_orders(self):
        """Smallest k >= 1 with R^k = I for each element R, indexed like
        elements: R^M = I exactly when M % order == 0."""
        E = np.array(self.elements)
        P, orders = E, np.zeros(len(E), dtype=int)
        for k in range(1, len(E) + 1):
            orders[(orders == 0) & np.isclose(P, np.eye(3), atol=_IDENTITY_ATOL).all(axis=(1, 2))] = k
            if orders.all():
                return tuple(orders.tolist())
            P = P @ E
        raise ValueError("no power of an element up to the group order is the identity")

    @cached_property
    def products(self):
        """products[g][h]: the index of elements[g] @ elements[h], row g one
        product elements[g] @ elements matched to the elements (_matcher)."""
        E = np.array(self.elements)
        match = _matcher(E)
        # one row at a time: all rows at once hold |G|^3 distances
        return tuple(match(A @ E) for A in E)

    def point_permutations(self, points):
        """How the elements permute a point set they preserve, indexed like
        elements: entry g maps i to the index of elements[g] @ points[i],
        matched to the points (_matcher) one element at a time.  KeyError if
        an element moves the set off itself, ValueError if the set repeats a point."""
        pts = np.asarray(points, dtype=float)
        match = _matcher(pts)
        return tuple(match(pts @ R.T) for R in self.elements)

    @cached_property
    def poles(self):
        """The pole table, read-only (points, orders): the unit axes of the
        proper non-identity elements, both signs, sorted on their 9-decimal
        keys, and for each the number of proper elements fixing it, identity
        included (the order of its cyclic stabilizer).  One np.unique over
        the keys of the candidates, taken in reverse, keeps the last
        candidate of each key and counts the elements on it; empty for a
        group without rotations."""
        E = np.array(self.elements)
        turns = E[(np.linalg.det(E) > 0.0) & ~np.isclose(E, np.eye(3), atol=_IDENTITY_ATOL).all(axis=(1, 2))]
        axes = _rotation_axes(turns)
        candidates = np.stack([axes, -axes], axis=1).reshape(-1, 3)[::-1]
        _, last, count = np.unique(np.round(candidates, KEY_DECIMALS) + 0.0, axis=0,
                                   return_index=True, return_counts=True)
        points, orders = candidates[last], count + 1
        points.flags.writeable = orders.flags.writeable = False
        return points, orders

    @cached_property
    def pole_permutations(self):
        """How each element permutes the poles, indexed like elements: one
        point_permutations pass over the pole table."""
        return self.point_permutations(self.poles[0])

    @cached_property
    def pair_forms(self):
        """One R - I per distinct form (R - I)^T (R - I) = 2I - R - R^T of the
        non-identity elements R (R and R^-1 share one), as read-only (F, mult):
        column r*k + j of the (3, 3k) matrix F is row r of the first R - I of
        form j, so |(R - I)u|^2 sums (u @ F)^2 over the columns c with
        c % k == j, and mult[j] counts the elements of form j."""
        forms, eye = {}, self.identity_index
        for i, R in enumerate(self.elements):
            D = R - np.eye(3)
            if i != eye:
                forms.setdefault(matrix_key(D.T @ D), [D, 0])[1] += 1
        F = np.array([D for D, _ in forms.values()]).transpose(2, 1, 0).reshape(3, -1)
        mult = np.array([m for _, m in forms.values()], dtype=float)
        F.flags.writeable = mult.flags.writeable = False
        return F, mult

    @cached_property
    def fixed_sets(self):
        """Fixed sets of the non-identity elements, one entry per subspace.

        (lines, planes, has_origin_only): read-only unit direction vectors
        of fixed lines, unit normals of fixed (mirror) planes, and whether
        some element fixes only the origin.  Each vector is signed with its
        first nonzero coordinate positive, as the wall normals are, so the
        elements sharing an axis or a mirror give one entry.  The lines are
        the rows of the pole table (``poles``) of that sign.  An improper
        element R of trace 1 is a reflection, in the plane normal to the axis
        of the half turn -R; any other fixes only the origin.  For every
        built-in group the planes are empty and the fixed set is a union of
        lines through 0, one per rotation axis.
        """
        points = self.poles[0]
        # of each pair of antipodal poles, the one whose first nonzero coordinate is positive
        lines = points[points[np.arange(len(points)), (np.abs(points) > 1e-9).argmax(axis=1)] > 0.0]
        E = np.array(self.elements)
        improper = E[np.linalg.det(E) < 0.0]
        mirror = np.abs(np.trace(improper, axis1=1, axis2=2) - 1.0) < _IDENTITY_ATOL
        planes = {matrix_key(n): n for n in map(_first_positive, _rotation_axes(-improper[mirror]))}
        plane_list = tuple(planes[k] for k in sorted(planes.keys()))
        for v in (lines, *plane_list):
            v.flags.writeable = False
        return tuple(lines), plane_list, not mirror.all()

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"RotationGroup({self.tag!r}, order={self.order})"


def generate_group(generators):
    """Close a set of orthogonal matrices under products.

    Breadth-first closure; matrices are identified by their entries rounded
    to 9 decimals.  Raises if the closure exceeds _CLOSURE_CAP elements (a
    non-finite or numerically drifting generating set).  The result is
    sorted lexicographically on rounded entries.
    """
    gens = [np.asarray(G, dtype=float) for G in generators]
    for G in gens:
        if not is_orthogonal(G):
            raise ValueError("generator is not orthogonal")
    elements = {matrix_key(np.eye(3)): np.eye(3)}
    frontier = [np.eye(3)]
    while frontier:
        fresh = []
        for A in frontier:
            for G in gens:
                B = G @ A
                k = matrix_key(B)
                if k not in elements:
                    if len(elements) >= _CLOSURE_CAP:
                        raise ValueError(
                            f"group closure exceeded cap of {_CLOSURE_CAP} elements"
                        )
                    elements[k] = B
                    fresh.append(B)
        frontier = fresh
    ordered = [elements[k] for k in sorted(elements.keys())]
    return ordered


_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

# 2*pi/3 rotation about (1,1,1): cyclic permutation of coordinates.
_C3 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_RZ90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
_RZ180 = np.diag([-1.0, -1.0, 1.0])
_R5 = rotation_matrix([0.0, 1.0, _GOLDEN], 2.0 * np.pi / 5.0)

# Quarter turn about e3 composed with the z-flip.  Its square is the half
# turn about e3, so the closure is cyclic of order 4.
_Z4_GEN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])


def _z2n_generator(n):
    c, s = np.cos(np.pi / n), np.sin(np.pi / n)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, -1.0]])


def builtin_group(tag, n=None):
    """Construct one of the named symmetry groups.

    Tags (case-insensitive): Z4, Z2N (requires n >= 2), KLEIN, T, O, I.
    Z2N with n = 2 coincides with Z4; any other tag refuses an n.
    """
    t = str(tag).upper()
    if t == "Z4":
        gens = [_Z4_GEN]
    elif t == "Z2N":
        gens = [_z2n_generator(check_count(n, "Z2N's n", 2))]
    elif t == "KLEIN":
        gens = [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0])]
    elif t == "T":
        gens = [_RZ180, _C3]
    elif t == "O":
        gens = [_RZ90, _C3]
    elif t == "I":
        gens = [_R5, _C3]
    else:
        raise ValueError(f"unknown group tag {tag!r}")
    if n is not None and t != "Z2N":
        raise ValueError(f"n is read for Z2N only, not for {tag!r}")
    return RotationGroup(tag=t, elements=generate_group(gens), generators=gens)


def collision_distance(x, group):
    """Distance from x to the collision set of the group.

    The collision set is the union of fixed sets of the non-identity
    elements: a body on it collides with one of its symmetry copies (or
    the central mass).  Accepts a single point (3,) or an array (..., 3)
    and returns a float or an array of the leading shape.  The fixed sets
    are read from group.fixed_sets, built once per group from its pole
    table (group.poles).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise ValueError("points must have three coordinates")
    single = x.ndim == 1
    pts = x.reshape(-1, 3)
    lines, planes, origin_only = group.fixed_sets
    if not lines and not planes and not origin_only:
        raise ValueError("trivial group has no collision set")
    dists = []
    for d in lines:
        proj = pts @ d
        dists.append(np.linalg.norm(pts - np.outer(proj, d), axis=-1))
    for nrm in planes:
        dists.append(np.abs(pts @ nrm))
    if origin_only:
        dists.append(np.linalg.norm(pts, axis=-1))
    out = np.min(dists, axis=0)
    return float(out[0]) if single else out.reshape(x.shape[:-1])


@dataclass(eq=False)
class Tessellation:
    """The sphere cut by the rotation axes of a polyhedral group.

    points and pole_order are the group's pole table (group.poles): the
    read-only (P, 3) unit poles and the tuple of their orders.
    triangles[i] = (a, b, c) indexes into the poles; vertex orders are
    non-increasing along the tuple and the right angle sits at c (the
    order-2 pole).  wall_normals is the read-only (W, 3) array of the unit
    normals of the walls, the great circles whose mirror maps preserve the
    pole set, each with its first nonzero coordinate positive.

    sides is the read-only int array (chamber, k, field) of the chamber
    sides, side k of chamber t being the side opposite its corner k.  The
    fields are (wall, sign, across): the row of wall_normals whose wall
    holds the side, +1 when that stored normal points into t (-1 when it
    points away), and the chamber across the side, which has the same wall
    with the opposite sign.  neighbors[t] is the sorted tuple of the three
    chambers across the sides of t.  full_group_tessellation builds walls,
    sides and neighbors in one array pass over all sides.  The tessellation
    owns the tables derived from it (pole fans, the chamber permutations by
    the group elements, the widest chords from chamber 0 to the axes behind
    the potential floor), each built on first use; the pole permutations
    are the group's.
    """

    group: RotationGroup
    points: np.ndarray
    pole_order: tuple
    triangles: list
    neighbors: list
    wall_normals: np.ndarray
    sides: np.ndarray

    def triangle_points(self, i):
        a, b, c = self.triangles[i]
        return self.points[[a, b, c]]

    @cached_property
    def widest_chords(self):
        """Max of |u x p| over the closed chamber 0, at [p] (read-only): one
        row, since the group and the walls' mirrors carry chamber 0 onto
        every chamber and permute the poles of each order.

        When the corner products u_j . p share a strict sign the maximum sits
        at a corner; otherwise the plane orthogonal to p crosses the chamber
        and the maximum is 1.
        """
        tri = self.triangle_points(0)
        chords = np.linalg.norm(np.cross(tri, self.points[:, None]), axis=-1).max(axis=-1)
        # One product per pole: some corners lie on the plane orthogonal to a
        # pole, and a batched product rounds their ~1e-17 dot products to
        # other signs, so the branch would pick a corner chord 1 - 2^-52 for 1.
        for p, point in enumerate(self.points):
            dots = tri @ point
            if not (dots.min() > 0.0 or dots.max() < 0.0):
                chords[p] = 1.0
        chords.flags.writeable = False
        return chords

    def locate(self, x):
        """Index of the chamber containing the vector x, the one whose least
        side margin sign * (x . wall normal), read off sides, is largest; for
        an (N, 3) array of vectors, the list of their N indices.  Raises
        ValueError for a zero or non-finite vector, which has no direction."""
        v = np.asarray(x, dtype=float)
        norm = np.linalg.norm(v, axis=-1, keepdims=True)
        if not (np.isfinite(norm) & (norm > 0.0)).all():
            raise ValueError("point must be a finite nonzero vector")
        v = v / norm
        sides = self.sides[..., 1] * (v @ self.wall_normals.T)[..., self.sides[..., 0]]
        # the least of the three sides pairwise: numpy reduces an axis of
        # length 3 about ten times slower
        margins = np.minimum(np.minimum(sides[..., 0], sides[..., 1]), sides[..., 2])
        if (margins.max(axis=-1) < -1e-9).any():
            raise ValueError("point does not lie in any chamber")
        return margins.argmax(axis=-1).tolist()

    @cached_property
    def fan(self):
        """fan[p]: the 2 * order chambers around pole p, in angular order."""
        fans = []
        for pid, p in enumerate(self.points):
            incident = [ti for ti, t in enumerate(self.triangles) if pid in t]
            e1, e2 = unit_frame(p)

            def around(ti):
                cen = self.points[list(self.triangles[ti])].mean(axis=0)
                flat = cen - (cen @ p) * p
                return math.atan2(flat @ e2, flat @ e1)

            incident.sort(key=around)
            if len(incident) != 2 * self.pole_order[pid]:
                raise ValueError("pole fan size does not match twice the pole order")
            fans.append(tuple(incident))
        return tuple(fans)

    @cached_property
    def pole_permutations(self):
        """How each group element permutes the poles: the group's table."""
        return self.group.pole_permutations

    @cached_property
    def triangle_permutations(self):
        """How each group element permutes the chambers, indexed like group.elements."""
        index = {frozenset(t): ti for ti, t in enumerate(self.triangles)}
        return tuple(
            tuple(index[frozenset(pperm[v] for v in t)] for t in self.triangles)
            for pperm in self.pole_permutations
        )


def spherical_triangle_area(p1, p2, p3):
    """Area of a geodesic triangle on the unit sphere (angle excess); for
    corners stacked as (..., 3) arrays, the array of their areas."""

    def corner(a, b, c):
        u = b - (a * b).sum(axis=-1, keepdims=True) * a
        v = c - (a * c).sum(axis=-1, keepdims=True) * a
        cosang = (u * v).sum(axis=-1) / (np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1))
        return np.arccos(np.clip(cosang, -1.0, 1.0))

    return corner(p1, p2, p3) + corner(p2, p3, p1) + corner(p3, p1, p2) - np.pi


def full_group_tessellation(group):
    """Tessellation of the sphere by the axes of a polyhedral group (T, O or I).

    Reads the group's pole table and the pole orbits off its pole
    permutations.  Builds the 2N spherical triangles whose vertices are one
    pole from each of the three orbits, with the right angle at the order-2
    pole, then all their sides at once: one cross product, one np.unique for
    the walls, one reflection of the poles in every wall, one sort of the
    shared edges and one stacked area.  It checks that every side is on a mirror wall, every
    edge joins two chambers and the areas sum to 4 pi.
    """
    if group.tag not in ("T", "O", "I"):
        raise ValueError("tessellation is defined for the polyhedral groups T, O, I")
    pts, orders = group.poles
    # the orbits, sorted, in the order of their smallest members
    orbits = {}
    for i, first in enumerate(np.array(group.pole_permutations).min(axis=0).tolist()):
        orbits.setdefault(first, []).append(i)
    orbits = list(orbits.values())

    c_candidates = [oi for oi, orb in enumerate(orbits) if orders[orb[0]] == 2]
    if len(c_candidates) != 1:
        raise ValueError("expected exactly one orbit of order-2 poles")
    c_orb = c_candidates[0]
    ab = [oi for oi in range(len(orbits)) if oi != c_orb]
    if len(ab) != 2:
        raise ValueError("expected exactly three pole orbits")
    oa, ob = ab
    if orders[orbits[oa][0]] < orders[orbits[ob][0]]:
        oa, ob = ob, oa

    triangles = []
    for ci in orbits[c_orb]:
        c = pts[ci]
        near_a = sorted(orbits[oa], key=lambda i: -pts[i] @ c)[:2]
        near_b = sorted(orbits[ob], key=lambda i: -pts[i] @ c)[:2]
        triangles += [(ia, ib, ci) for ia in near_a for ib in near_b]
    if len(triangles) != 2 * group.order:
        raise ValueError(f"built {len(triangles)} triangles, expected {2 * group.order}")

    # All sides at once; side k of a chamber joins its corners other than k,
    # neither equal nor antipodal (both lie within a right angle of c).  The
    # walls are the sorted distinct rounded normals.  A chamber's sides lie on
    # three walls, so a wall keeps the normal of its first chamber's side, made
    # unit alone (a batched norm differs in the last bit on 12 of I's sides).
    tri = np.array(triangles)
    ends = tri[:, [[1, 2], [0, 2], [0, 1]]]
    raw = np.cross(pts[ends[..., 0]], pts[ends[..., 1]]).reshape(-1, 3)
    unit = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    lead = unit[np.arange(len(unit)), (np.abs(unit) > 1e-9).argmax(axis=-1)]
    unit[lead < 0.0] *= -1.0
    keys = np.round(unit, KEY_DECIMALS) + 0.0
    _, first, wall = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    wall_normals = np.array([_first_positive(v) for v in raw[first]])
    mirrored = pts - 2.0 * (wall_normals @ pts.T)[..., None] * wall_normals[:, None]
    match = _matcher(pts)  # a wall's reflection p - 2 (p.n) n preserves the poles
    for w, side in enumerate(first.tolist()):
        try:
            match(mirrored[w])
        except KeyError:
            raise ValueError(f"side {side % 3} of chamber {side // 3} is not on a mirror wall") from None
    # each edge, keyed lo * |poles| + hi, is on two sides, adjacent once sorted
    edge = (ends.min(axis=-1) * len(pts) + ends.max(axis=-1)).ravel()
    if (np.bincount(edge)[edge] != 2).any():
        raise ValueError("tessellation edge not shared by exactly two triangles")
    pairs = np.argsort(edge, kind="stable").reshape(-1, 2)
    across = np.empty_like(edge)
    across[pairs] = pairs[:, ::-1] // 3
    wall = wall.reshape(tri.shape)
    inward = np.einsum("tkx,tkx->tk", wall_normals[wall], pts[tri]) > 0.0
    sides = np.stack([wall, np.where(inward, 1, -1), across.reshape(tri.shape)], axis=-1)
    wall_normals.flags.writeable = sides.flags.writeable = False
    neighbors = [tuple(sorted(row)) for row in sides[..., 2].tolist()]
    if abs(spherical_triangle_area(*pts[tri.T]).sum() - 4.0 * np.pi) > 1e-9:
        raise ValueError("tessellation triangle areas do not cover the sphere")
    _log.debug("full_group_tessellation %s: %d poles, %d chambers, %d walls",
               group.tag, len(pts), len(triangles), len(wall_normals))
    return Tessellation(group, pts, tuple(orders.tolist()), triangles, neighbors, wall_normals, sides)


