"""The minimal-angle search that min_total_angle ran before the cover
search, kept as a differential reference for the tests.

It is a generate-and-test search: an A* search over symmetry-periodic
junction sequences of successor arcs (skeleton_pops), whose closed
skeletons are realized by wall-side and junction resolutions, each
junction route taking at most TURN_CAP extra turns about its pole, that a
winding-number filter hands over (skeleton_realizes).  Its minimum is over
those routes only.  successor_orders and winding_steps are the two
polyhedron tables it read, as functions of the polyhedron.  The budgets
are module constants, patched by the tests that need smaller ones.
"""

import heapq
import itertools
import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from choreo.homotopy import canonical_cyclic_word, reduce_cyclic_word

# How far the search lowers its A* bound on open entries.
BOUND_SLACK = 1e-9
# Heap pops, extra turns a junction route may take around its pole either
# way, and junction resolutions covered.
MAX_POPS = 2_000_000
TURN_CAP = 2
COMBO_CAP = 10_000_000


@lru_cache(maxsize=None)
def successor_orders(poly):
    """successor_orders[i][k]: every successor j of pole i, in the order
    of (theta_ij + d_jk, theta_ij, j), as a bytes object of their
    positions in arc_table's successors[i].  Read-only, 250 kB for I.

    The minimal-angle search pushes the children of an open sequence in
    this order: M (theta + d) rounds monotonically in theta + d, so the
    order holds for every symmetry order M.  successors[i] is sorted by
    (theta, j), so a stable sort on theta + d breaks its ties that way.
    closing_angles is finite on T, O and I, so each row is a full
    permutation of successors[i] and every open sequence can grow.
    """
    _, successors = poly.arc_table
    d = poly.closing_angles
    orders = []
    for row in successors:
        thetas = np.array([theta for theta, _ in row])
        # [k, r]: theta + d to pole k through the r-th successor
        via = thetas + d[[j for _, j in row]].T
        ranks = np.argsort(via, axis=1, kind="stable")
        orders.append(tuple(bytes(r.tolist()) for r in ranks))
    return tuple(orders)


@lru_cache(maxsize=None)
def winding_steps(poly):
    """Winding vector of every chamber step, packed into one integer.

    H_1 of the sphere minus the P poles is Z^(P-1), counted by the signed
    crossings of the P-1 edges of a BFS spanning tree of the pole graph.
    A step across a side on tree edge e adds +1 to coordinate e when it
    leaves the chamber that the side's stored wall normal points into
    (sign +1 in tess.sides), and -1 when it enters it.  Coordinate e sits
    at bit 32e of a signed integer, so vectors add as integers.  Maps
    (a, b) to the step a -> b between adjacent chambers and (a, a) to 0.
    """
    tess = poly.tessellation
    tris = tess.triangles
    tree, order = {}, [0]
    for p in order:
        for q in sorted({v for ti in tess.fan[p] for v in tris[ti]} - set(order)):
            tree[frozenset((p, q))] = len(tree)
            order.append(q)
    steps = {(t, t): 0 for t in range(len(tris))}
    # Python ints: an int64 shifted past bit 63 would wrap
    for s, row in enumerate(tess.sides.tolist()):
        for k, (_, sign, t) in enumerate(row):
            edge = frozenset(tris[s]) - {tris[s][k]}
            steps[s, t] = sign << 32 * tree[edge] if edge in tree else 0
    return steps


class SearchOptions(dict):
    """The arc and junction options of one call of this module's
    min_total_angle, each built on first use and kept for the rest of the
    call.

    (a, b) maps to the wall-side choices of the arc from pole a to pole b as
    (chambers, winding) pairs, the runs read from the polyhedron's arc_runs.
    (pole, c_in, c_out) maps to (routes, weights), one per signed turn count
    k: 0 .. TURN_CAP, then -1 .. -TURN_CAP - 1 (to -TURN_CAP if c_in is
    c_out, whose k = 0 walk is empty both ways).  Route k is the descriptor
    (fan, i_in, s) of the walk of s = fwd + k L steps around the pole's fan
    of L chambers from c_in = fan[i_in], backwards if s < 0, where fwd steps
    forwards reach c_out; weight k, its winding with the entry and exit
    steps, is ahead + k loop.  (pole,) maps to the windings of the walk once
    around its fan, from fan[0] up to each fan position (the last is the
    whole loop).  A winding is the packed winding vector of the steps,
    summed over the M symmetry copies (perms).
    """

    def __init__(self, poly, perms):
        super().__init__()
        self.tess, self.runs, self.steps = poly.tessellation, poly.arc_runs, winding_steps(poly)
        self.perms = perms

    def winding(self, path):
        return sum(self.steps[p[a], p[b]] for a, b in zip(path, path[1:]) for p in self.perms)

    def __missing__(self, key):
        if len(key) == 1:
            fan = self.tess.fan[key[0]]
            steps = zip(fan, fan[1:] + fan[:1])
            value = list(itertools.accumulate(map(self.winding, steps), initial=0))
        elif len(key) == 2:
            value = [(list(run), self.winding(run)) for run in self.runs[key]]
        else:
            pid, c_in, c_out = key
            fan, prefix = self.tess.fan[pid], self[pid,]
            L, loop = len(fan), prefix[-1]
            i_in, i_out = fan.index(c_in), fan.index(c_out)
            ahead = prefix[i_out] - prefix[i_in] + (loop if i_out < i_in else 0)
            fwd = (i_out - i_in) % L
            turns = [*range(TURN_CAP + 1), *range(-1, -TURN_CAP - 1 - (c_in != c_out), -1)]
            value = [(fan, i_in, fwd + k * L) for k in turns], [ahead + k * loop for k in turns]
        self[key] = value
        return value


def junction_route(fan, i_in, s):
    """The chambers strictly inside the walk of s steps around fan from
    fan[i_in], backwards if s < 0."""
    d = 1 if s >= 0 else -1
    return [fan[i % len(fan)] for i in range(i_in + d, i_in + s, d)]


def resolutions(options, fund_axes):
    """Wall-side selections of the fundamental block, in product order: yields
    (arc_sel, option_lists, weights, arc_winding), read from the call's
    options; option_lists holds each junction's route descriptors and
    arc_winding is the winding of the selected arcs' own steps.
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


def winding_solutions(weights, residual):
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


def skeleton_realizes(options, target, goal, fund_axes, spent):
    """Try junction/side resolutions of the arc skeleton against the class word.

    fund_axes = (s_0, ..., s_f) with s_f the symmetry image of s_0; the full
    loop is the concatenation of M symmetry-translated copies of the
    fundamental block, options.perms.  The winding vector is an invariant
    of the class, so only resolutions whose vector is the target's (goal)
    can match; they come in product order, and the first one whose reduced
    word is the target is the match a check of every resolution would find.
    Only the resolutions handed over get their junction routes built, by
    junction_route.  Returns (word, turns) of the match, with turns the most
    whole turns one of its routes takes about a pole, or None; the resolutions
    covered (reduced, or rejected by the filter) up to the match; and the
    reductions performed.  Raises once the call has covered more than
    COMBO_CAP, spent included.
    """
    tried, checked, budget = 0, 0, COMBO_CAP - spent
    for arc_sel, option_lists, weights, arc_winding in resolutions(options, fund_axes):
        sizes = [len(opts) for opts in option_lists]
        found = None
        for sel in winding_solutions(weights, goal - arc_winding):
            index = 0
            for o, n in zip(sel, sizes):
                index = index * n + o
            if tried + index + 1 > budget:
                break
            checked += 1
            routes = [opts[o] for opts, o in zip(option_lists, sel)]
            block = [c for run, route in zip(arc_sel, routes) for c in run + junction_route(*route)]
            word = [perm[c] for perm in options.perms for c in block]
            reduced = reduce_cyclic_word(word)
            if len(reduced) == len(target) and canonical_cyclic_word(reduced) == target:
                found = tuple(word), max(abs(s) // len(fan) for fan, _, s in routes)
                break
        tried += index + 1 if found else math.prod(sizes)
        if tried > budget:
            raise RuntimeError(
                "minimal-angle realization search exhausted its resolution budget"
            )
        if found:
            return found, tried, checked
    return None, tried, checked


def skeleton_pops(poly, M, pole_perm):
    """A* search over symmetry-periodic junction sequences on the successor
    arcs of the polyhedron's arc_table.

    Yields (cost, axes, closed) from every pole at cost 0, without end: every
    open sequence, of any length, is extended by each successor j of its
    last pole, and closed when j is the symmetry image of its first pole.
    Entries pop in the order of (f, k, closed): k = (cost, parent's k, j),
    where the arc of angle theta to j adds M * theta to the parent's cost,
    and f = parent's cost + M * (theta + closing_angles[j, close]), lowered
    by BOUND_SLACK on open entries, so that a rounding never lifts an
    ancestor's f to its closed descendant's cost.  theta + d rounds before
    the product, so f grows along each successor_orders row for every M.
    The bound is admissible; the closing table makes it consistent and it
    is 0 on closed entries, so closed entries pop in the order of (cost, k):
    the order in which a uniform-cost search that breaks ties by push order
    pops them.  The open children of a pop enter the heap lazily, in the
    order of their successor_orders row, a full permutation of the
    successors: each entry carries its siblings' row and its rank in it, and
    pushes the next sibling when it pops.  Of the P x P closing table the
    call reads the P root bounds and the rows of the closing poles it meets.
    The caller ends the stream, at a match or at a budget.
    """
    _, successors = poly.arc_table
    closing, orders = poly.closing_angles, successor_orders(poly)
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
        f = parent[0] + (M * (theta + d[j]) - BOUND_SLACK)
        heapq.heappush(heap, (f, key, False, axes + (j,), row, rank))

    roots = (M * closing[list(pole_perm), range(P)] - BOUND_SLACK).tolist()
    heap = [(roots[s0], (0.0, (), s0), False, (s0,), no_row, -1) for s0 in range(P)]
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
        push_open(key, axes, row, 0)
        if twin is not None:
            closed_key = (cost + twin, key, close)
            heapq.heappush(heap, (cost + twin, closed_key, True, axes + (close,), no_row, -1))


def min_total_angle(cone):
    """The reference minimum for a T, O or I cone, as a namespace of
    total_angle, semi_axes, arc_angles, word, turns and the counters pops,
    skeletons, combinations and checked; the skeleton starts at the root
    pole of the A* search."""
    poly = cone.nu.polyhedron
    tess = poly.tessellation
    target = cone.canonical_word
    R, M = cone.extra_symmetry if cone.extra_symmetry is not None else (np.eye(3), 1)
    g = tess.group.index(R)
    pole_perm, tri_perm = tess.pole_permutations[g], tess.triangle_permutations[g]
    pole_perm_pows = [tuple(range(len(tess.points)))]
    tri_perm_pows = [tuple(range(len(tess.triangles)))]
    for _ in range(1, M):
        pole_perm_pows.append(tuple(pole_perm[p] for p in pole_perm_pows[-1]))
        tri_perm_pows.append(tuple(tri_perm[c] for c in tri_perm_pows[-1]))

    angles, _ = poly.arc_table
    steps = winding_steps(poly)
    goal = sum(steps[target[i - 1], target[i]] for i in range(len(target)))
    options = SearchOptions(poly, tri_perm_pows)

    seen_skeletons = set()
    pops = combinations = checked = 0
    for cost, axes, closed in skeleton_pops(poly, M, pole_perm):
        pops += 1
        if pops > MAX_POPS:
            raise RuntimeError("minimal-angle search exhausted its pop budget")
        if not closed:
            continue
        full = [perm[a] for perm in pole_perm_pows for a in axes[:-1]]
        canon = canonical_cyclic_word(full)
        if canon in seen_skeletons:
            continue
        seen_skeletons.add(canon)
        found, tried, reductions = skeleton_realizes(options, target, goal, axes, combinations)
        combinations += tried
        checked += reductions
        if found is None:
            continue
        word, turns = found
        m = len(full)
        arc_angles = np.array([angles[full[i], full[(i + 1) % m]] for i in range(m)])
        return SimpleNamespace(
            total_angle=float(arc_angles.sum()),
            semi_axes=tess.points[full],
            arc_angles=arc_angles,
            word=word,
            turns=turns,
            pops=pops,
            skeletons=len(seen_skeletons),
            combinations=combinations,
            checked=checked,
        )
    # every open pop pushes a child, so the stream ends only if that breaks
    raise RuntimeError("minimal-angle search exhausted all candidates without a realization")
