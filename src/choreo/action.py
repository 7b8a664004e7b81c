"""Discretized action functionals on symmetric loops.

The configuration of the whole system is the orbit of one generating
particle under the symmetry group, so the action reduces to a functional of
a single closed path u: [0, T] -> R^3 sampled on a uniform grid.  The
discretization is the classic broken-line action: forward-difference
velocities and trapezoidal (here: uniform periodic) quadrature of the
potential.  Gradients are exact derivatives of the discrete functional, so
a quasi-Newton minimizer can use them directly.

Symmetry reductions (time-shift and reflection constraints on the loop)
are represented as finite groups of loop transformations; the reduction
projects onto the invariant subspace and restricts the variables to a
fundamental set of nodes.  A reduction keeps the tables that depend only on
it and the sample count n (transforms, free nodes, node images, orbit
weights) for the most recent n it served, as read-only arrays, so a
minimizer iterating at one n builds them once.  The free nodes are a prefix
of the loop; for the cyclic kinds ("extra", "italian") lift and
reduce_gradient read the loop's M block matrices off the node images.

The potential kernel runs once per orbit of nodes, and once per loop and
cone: a LoopPath keeps its last kernel evaluation, values and gradient
together, and action and gradient share it.  When every matrix of the
reduction lies in the group up to sign, the potential is the same at every
node of an orbit and its gradients are images of one another (symmetric
criticality), so the kernel runs on the fundamental nodes only, weighted
by their orbit sizes (SymmetryReduction.orbit_weights).  Otherwise, and on
loops without a reduction, the kernel sees every node.
"""

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

_log = logging.getLogger(__name__)

REFLECT_X2 = np.diag([1.0, -1.0, 1.0])
REFLECT_X3 = np.diag([1.0, 1.0, -1.0])

_COLLISION_FLOOR = 1e-13
# how far a LoopPath may stray from its symmetry reduction, relative to
# max(1, max|points|): the bound violation_factor() * violation must meet
_SYMMETRY_TOL = 1e-12
# nodes per pass of the pair kernel, and the rows of its per-call buffers; the
# BLAS products' last bits depend on the row count, so changing it moves values
_BLOCK = 512


def _signed_member(A, group):
    """Whether A or -A is an element of group."""
    for B in (A, -A):
        try:
            group.index(B)
            return True
        except KeyError:
            pass
    return False


def _read_only(a):
    a.flags.writeable = False
    return a


def _node_images(trs, free, n):
    """(rep, mats) of SymmetryReduction.node_images from the transforms, and
    the orbit size of each free node."""
    shifts, flips, As = zip(*trs)
    # invariance u_j = A u_{sigma(j)} with sigma(j) = flip*j + shift reads
    # backwards as u_{sigma(j)} = A^T u_j on invariant loops.  Row k holds
    # the images sigma_k(free).  The free nodes meet each orbit once, so a
    # node hit twice is hit from one free node, by its stabilizer.
    images = (np.multiply.outer(flips, free) + np.array(shifts)[:, None]) % n
    counts = np.bincount(images.ravel(), minlength=n)
    if counts.min() == 0:
        raise ValueError("fundamental nodes do not cover the loop")
    rep = np.empty(n, dtype=int)
    rep[images] = free
    which = np.empty(n, dtype=int)
    which[images] = np.arange(len(As))[:, None]
    AT = np.array(As).transpose(0, 2, 1) + 0.0  # + 0.0 clears negative zeros
    mats = np.take(AT, which, axis=0)
    shared = np.flatnonzero(counts > 1)
    if len(shared):
        # the stabilizer average, summed in transform order
        hit = images[:, rep[shared]] == shared
        total = np.add.reduce(hit[:, :, None, None] * AT[:, None], axis=0)
        mats[shared] = total / counts[shared, None, None]
    # a free node is hit once per element of its stabilizer
    return rep, mats, len(As) / counts[free]


@dataclass
class _Tables:
    """What a SymmetryReduction keeps for one sample count n, all read-only
    arrays; orbit is (group, orbit_weights(n, group)) for the last group."""

    n: int
    transforms: tuple
    free: np.ndarray
    rep: np.ndarray
    mats: np.ndarray
    weights: np.ndarray
    orbit: tuple = (None, None)


class CollisionError(ValueError):
    """A loop node sits on the collision set (or at the origin)."""

    def __init__(self, node, message=None):
        self.node = check_count(node, "node", 0)
        super().__init__(message or f"loop node {node} lies on the collision set")


def check_alpha(alpha):
    """Raise ValueError unless the exponent alpha is a real number in [1, 2) (NaN is not)."""
    if not (type(alpha) is float or isinstance(alpha, Real)) or not 1.0 <= alpha < 2.0:
        raise ValueError("alpha must lie in [1, 2)")


def check_positive(value, name):
    """Raise ValueError unless value is a positive, finite real number (NaN is not)."""
    if not (type(value) is float or isinstance(value, Real)) or not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def check_nonnegative(value, name):
    """Raise ValueError unless value is a nonnegative, finite real number (NaN is not)."""
    if not (type(value) is float or isinstance(value, Real)) or not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite")


def check_count(count, name, least):
    """count as an int.  Raise ValueError unless it is a whole number (4,
    4.0 and np.int64(4) are; 4.9, NaN and inf are not) of at least least."""
    if type(count) is int and count >= least:
        return count
    if not (isinstance(count, Real) and math.isfinite(count) and count == int(count) >= least):
        raise ValueError(f"{name} must be a positive integer >= {least}")
    return int(count)


def rescale_parameter(alpha):
    """Exponent beta with u = m0^beta * v balancing kinetic and central terms.

    beta = 1/(2 + alpha); valid for alpha in [1, 2).
    """
    check_alpha(alpha)
    return 1.0 / (2.0 + alpha)


@dataclass(frozen=True, eq=False)
class SymmetryReduction:
    """A finite group of loop transformations (g u)(t) = A u(sigma(t)).

    kind selects the constraint family:
      * "extra":             u(t + T/M) = R u(t)  (orthogonal 3x3 matrix R
                             of order M, closely enough that LoopPath
                             admits every lift: see __post_init__)
      * "italian":           u(t + T/2) = -u(t), the extra reduction of
                             R = -I and M = 2 (no other R or M is accepted)
      * "klein_reflections": u(t) = REFLECT_X3 u(-t) and
                             u(t) = REFLECT_X2 u(T/2 - t) (no matrix or M)

    The klein kind additionally pins u(0) to the plane {x3 = 0} and
    u(T/4) to {x2 = 0}; membership of the open quadrants there is a
    property of the homotopy class and is not enforced here.  Reductions
    compare by identity.
    """

    kind: str
    matrix: np.ndarray = None
    M: int = None

    def __post_init__(self):
        if self.kind not in ("italian", "klein_reflections", "extra"):
            raise ValueError(f"unknown reduction kind {self.kind!r}")
        if self.kind == "klein_reflections":
            if self.matrix is not None or self.M is not None:
                raise ValueError("the klein reduction takes no matrix or M")
            return
        if self.kind == "italian":
            given = -np.eye(3) if self.matrix is None else self.matrix
            if self.M not in (None, 2) or not np.array_equal(given, -np.eye(3)):
                raise ValueError("the italian reduction is the extra one of -I with M = 2")
            object.__setattr__(self, "matrix", -np.eye(3))
            object.__setattr__(self, "M", 2)
        if self.matrix is None or self.M is None:
            raise ValueError("extra reduction needs a matrix and its order M")
        # the kept tables are read off this copy, which nobody can change
        R = _read_only(np.array(self.matrix, float))
        object.__setattr__(self, "matrix", R)
        # the group average is the closest invariant loop only for orthogonal R
        if R.shape != (3, 3) or not np.allclose(R @ R.T, np.eye(3), atol=1e-9):
            raise ValueError("extra reduction matrix must be a 3x3 orthogonal matrix")
        object.__setattr__(self, "M", check_count(self.M, "reduction order M", 1))
        # a lift's wrap-around block differs from its generator image by
        # (R^M - I) z: LoopPath admits every lift while c |R^M - I|_inf stays
        # within its tolerance (c = violation_factor(), 0 at M = 1), and past
        # it refuses some lifts of a unit loop
        power = np.linalg.matrix_power(R, self.M)
        miss = self.violation_factor() * np.abs(power - np.eye(3)).sum(axis=1).max()
        if not np.allclose(power, np.eye(3), atol=1e-9) or miss > _SYMMETRY_TOL:
            raise ValueError("extra reduction matrix must have order M")

    def divisor(self):
        """The sample count must be divisible by this."""
        return 4 if self.kind == "klein_reflections" else self.M

    @cached_property
    def _slot(self):
        """One-element list holding the _Tables of the most recent n."""
        return [None]

    def _tables(self, n):
        """The kept tables at n, built when n differs from the last n."""
        kept = self._slot[0]
        if kept is None or kept.n != n:
            kept = self._slot[0] = self._build_tables(n)
        return kept

    def _build_tables(self, n):
        if n % self.divisor() != 0:
            raise ValueError(
                f"sample count {n} not divisible by {self.divisor()} "
                f"as required by the {self.kind} reduction"
            )
        if self.kind == "klein_reflections":
            trs = [
                (0, 1, np.eye(3)),
                (0, -1, REFLECT_X3),
                (n // 2, -1, REFLECT_X2),
                (n // 2, 1, REFLECT_X2 @ REFLECT_X3),
            ]
            free = np.arange(n // 4 + 1)
        else:
            trs = []
            step = n // self.M
            A = np.eye(3)
            for k in range(self.M):
                # invariance u_{j+step} = R u_j gives u_j = R^k u_{j - k*step}
                trs.append(((n - k * step) % n, 1, A))
                A = self.matrix @ A
            free = np.arange(step)
        trs = tuple((shift, flip, _read_only(np.array(A))) for shift, flip, A in trs)
        rep, mats, w = _node_images(trs, free, n)
        _log.debug(
            "%s reduction (M=%s): built the tables of n=%d, %d free nodes",
            self.kind, self.M, n, len(free),
        )
        return _Tables(n, trs, _read_only(free), _read_only(rep), _read_only(mats), _read_only(w))

    def transforms(self, n):
        """The group as a tuple of (shift, flip, matrix) acting by
        (g u)_j = matrix @ u_{(flip*j + shift) mod n}; the matrices are
        read-only."""
        return self._tables(n).transforms

    def free_nodes(self, n):
        """Indices of the fundamental nodes parametrizing the reduced loop."""
        return self._tables(n).free

    def orbit_weights(self, n, group):
        """(free_nodes(n), w) with w[j] the size of the orbit of free node j
        under the transforms, or None when some transform matrix A has
        neither A nor -A in group.

        Every potential of the group is invariant under +-G, so on an
        invariant loop the whole orbit of a node shares its potential, and
        its gradients are images of one another (symmetric criticality).
        The orbit sizes are counted off the node images, as the number of
        transforms over the size of the free node's stabilizer: M for
        "extra" and "italian"; for "klein_reflections" 4, except 2 at nodes
        0 and n/4, which a reflection fixes.  The table reads each orbit off
        its free node, so it describes the loop's symmetric projection,
        which a LoopPath matches to within 1e-12 * max(1, max|points|) in
        every component.  The answer for the last group asked is kept with
        the tables of n.
        """
        kept = self._tables(n)
        if kept.orbit[0] is not group:
            # the transform matrices are products of these, and +-G is a group
            gens = [REFLECT_X3, REFLECT_X2] if self.kind == "klein_reflections" else [self.matrix]
            applies = all(_signed_member(A, group) for A in gens)
            kept.orbit = (group, (kept.free, kept.weights) if applies else None)
            _log.debug(
                "%s reduction (M=%s): orbit table of n=%d, %d free nodes, %s on %s",
                self.kind, self.M, n, len(kept.free),
                "applies" if applies else "does not apply", group,
            )
        return kept.orbit[1]

    def node_images(self, n):
        """For each node i, a representation u_i = A @ z_rep with rep a free
        node.  Returns read-only (rep, mats) with rep an int array of length
        n and mats an (n, 3, 3) array.  Boundary nodes fixed by part of the
        group get the average over their stabilizer, so the lift is total.
        For the cyclic kinds node j + k*n/M is mats[k*n/M] @ z_j, so
        mats[::n//M] are the M block matrices."""
        kept = self._tables(n)
        return kept.rep, kept.mats

    def lift(self, z, n):
        """Reconstruct the full loop from values at the free nodes; the cyclic
        kinds apply node_images' M block matrices in one stacked product."""
        rep, mats = self.node_images(n)
        # free_nodes(n) is arange, so a free node is its own row of z
        z = np.asarray(z, float).reshape(len(self.free_nodes(n)), 3)
        if self.kind == "klein_reflections":
            return np.einsum("nij,nj->ni", mats, np.take(z, rep, axis=0))
        return np.matmul(z, mats[::len(z)].transpose(0, 2, 1)).reshape(n, 3)

    def restrict(self, points):
        """Values of a (symmetric) loop at the free nodes, a prefix."""
        n = len(points)
        return np.asarray(points, float)[:len(self.free_nodes(n))].copy()

    def project(self, points):
        """Group-average: the closest invariant loop; idempotent."""
        pts = np.asarray(points, float)
        acc = np.zeros_like(pts)
        trs = self.transforms(len(pts))
        for shift, flip, A in trs:
            # (g u)_j = A u_{(flip*j + shift) mod n}, read off as two slices;
            # averaging over the group projects.
            if flip == 1:
                acc[:len(pts) - shift] += pts[shift:] @ A.T
                acc[len(pts) - shift:] += pts[:shift] @ A.T
            else:
                acc[:shift + 1] += pts[shift::-1] @ A.T
                acc[shift + 1:] += pts[:shift:-1] @ A.T
        return acc / len(trs)

    def violation(self, points):
        """Largest component of x - g x over the nodes and the generators g:
        the shift by n/M (none at M = 1) or klein's reflections; see violation_factor."""
        pts = np.asarray(points, float)
        trs = self.transforms(len(pts))
        worst = 0.0
        for shift, flip, A in trs[1:3] if self.kind == "klein_reflections" else trs[1:2]:
            img = pts @ A.T  # (g x)_j = img_{(flip*j + shift) mod n}, read off as in project
            d = np.concatenate((img[shift:], img[:shift]) if flip == 1 else (img[shift::-1], img[:shift:-1]))
            d -= pts
            worst = max(worst, float(np.max(np.abs(d, out=d))))
        return worst

    def violation_factor(self):
        """c with max|x - project(x)| <= c * violation(x) up to rounding: (M -
        1)/M * (1 + sqrt(3) (M - 2)/2), exact at M = 2, or 1 for klein.  x -
        project(x) is the mean of x - h x over the group.  Cyclic: x - g^k x =
        sum_{i<k} g^i (x - g x), and g^i raises a node's largest component by
        at most |R^i|_inf, 1 at i = 0, else <= sqrt(3).  Klein: x - ab x = (x -
        a x) + a (x - b x), and a only moves nodes and flips signs."""
        if self.kind == "klein_reflections":
            return 1.0
        return (self.M - 1) / self.M * (1.0 + math.sqrt(3.0) * (self.M - 2) / 2)

    def reduce_gradient(self, grad, n):
        """Chain rule: gradient with respect to the free-node values; the
        cyclic kinds pull the blocks back by node_images' block matrices."""
        rep, mats = self.node_images(n)
        m = len(self.free_nodes(n))
        if self.kind != "klein_reflections":
            return np.matmul(np.reshape(grad, (self.M, m, 3)), mats[::m]).sum(axis=0)
        terms = np.einsum("nji,nj->in", mats, grad)
        return np.stack([np.bincount(rep, weights=t, minlength=m) for t in terms], axis=1)


@dataclass(frozen=True, eq=False)
class LoopPath:
    """A closed path sampled at t_j = j*T/n, j = 0..n-1 (node n wraps to 0).

    points: (n, 3) array of positions of the generating particle.
    period: T, positive and finite.
    reduction: the symmetry constraints the samples satisfy, if any; the
    loop must lie within 1e-12 * max(1, max|points|) of its group average in
    every component, by the bound reduction.violation_factor() * violation.
    Loops compare by identity.
    """

    points: np.ndarray
    period: float
    reduction: SymmetryReduction = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim != 2 or pts.shape[1] != 3 or not len(pts):
            raise ValueError("points must be a nonempty (n, 3) array")
        scale = float(np.max(np.abs(pts)))
        if not scale < math.inf:  # NaN compares False
            raise ValueError("points must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        check_positive(self.period, "period")
        if self.reduction is not None:
            v = self.reduction.violation_factor() * self.reduction.violation(pts)
            if v > _SYMMETRY_TOL * max(1.0, scale):
                raise ValueError(
                    f"loop violates its symmetry reduction by {v:.3e}"
                )

    @property
    def n(self):
        return len(self.points)

    @property
    def times(self):
        return np.arange(self.n) * (self.period / self.n)

    def with_points(self, points):
        return LoopPath(points=points, period=self.period, reduction=self.reduction)

    @cached_property
    def _slot(self):
        return [None]  # (group, key, result) of the last _evaluate


def apply_symmetry_reduction(loop, reduction):
    """Replace the loop by its exact symmetrization under the reduction."""
    return LoopPath(points=reduction.project(loop.points), period=loop.period, reduction=reduction)


@dataclass(frozen=True)
class ActionBreakdown:
    """Action split into kinetic, central-mass and satellite-satellite parts."""

    kinetic: float
    central: float
    mutual: float

    @property
    def total(self):
        return self.kinetic + self.central + self.mutual

    def __float__(self):
        return self.total


def _potential(pts, group, alpha, m0, mutual, with_gradient=False):
    """Node-wise potentials of the constellation generated by the nodes.

    Returns (central, pair, grad): central = m0/|u|^alpha and pair =
    (mutual/2) sum_{R != I} |(R - I)u|^(-alpha) at each node, and with
    with_gradient the gradient of their sum at each node (else None).  The
    pair sum runs over the group's distinct pair forms, _BLOCK nodes at a
    time, and is skipped when mutual is 0.  Every block writes into three
    buffers allocated once per call: (_BLOCK, 3k) and twice (_BLOCK, k), for
    k pair forms.  Raises CollisionError at the lowest node on the collision
    set, checking the origin first.

    action and gradient pass one node per orbit (the fundamental nodes, a
    prefix of the loop) when the loop's orbit table applies, else every
    node.  Collisions are then checked at the fundamental nodes only, that
    is on the loop's symmetric projection: a node is taken to sit where its
    fundamental node's image does, which LoopPath holds to within 1e-12 *
    max(1, max|points|) in every component, at unit scale ten times the
    collision floor.  A node within the floor whose
    fundamental node lies outside it thus gives a large finite value, not
    CollisionError.
    """
    r = np.linalg.norm(pts, axis=1)
    bad = np.flatnonzero(r < _COLLISION_FLOOR)
    if len(bad):
        raise CollisionError(bad[0], f"loop node {bad[0]} is at the origin")
    central = m0 * r ** (-alpha)
    pair = np.zeros(len(pts))
    pair_grad = np.zeros_like(pts) if with_gradient else None
    F, mult = group.pair_forms
    if mutual:
        b, k = min(_BLOCK, len(pts)), len(mult)
        y_buf, d2_buf, p_buf = np.empty((b, 3 * k)), np.empty((b, k)), np.empty((b, k))
    for s in range(0, len(pts) if mutual else 0, _BLOCK):
        block = pts[s:s + _BLOCK]
        b = len(block)
        y, d2, p = y_buf[:b], d2_buf[:b], p_buf[:b]
        y3 = y.reshape(b, 3, k)  # a view of the same buffer
        np.matmul(block, F, out=y)
        np.einsum("brk,brk->bk", y3, y3, out=d2)
        if d2.min() < _COLLISION_FLOOR**2:
            raise CollisionError(s + np.flatnonzero(d2.min(axis=1) < _COLLISION_FLOOR**2)[0])
        np.power(d2, -0.5 * alpha, out=p)
        pair[s:s + b] = p @ mult
        if with_gradient:
            p *= mult  # the weight mult * p / d2, in place once pair has read p
            p /= d2
            y3 *= p[:, None, :]
            np.matmul(y, F.T, out=pair_grad[s:s + b])
    grad = None
    if with_gradient:
        grad = -alpha * ((central / (r * r))[:, None] * pts + 0.5 * mutual * pair_grad)
    return central, 0.5 * mutual * pair, grad


def _coefficients(cone, epsilon):
    """(central mass, mutual weight, prefactor) of the physical action
    (epsilon None) or of the rescaled functional at epsilon."""
    if epsilon is None:
        return cone.central_mass, 1.0, cone.group.order
    check_nonnegative(epsilon, "epsilon")
    return 1.0, epsilon, 1.0


def _evaluate(loop, cone, m0, mutual):
    """(free, w, central, pair, grad): the orbit table (every node with
    weight 1 when the loop has none) and the kernel with its gradient there.
    The loop keeps the last one, keyed by the group (by identity), alpha,
    m0 and mutual; a call that raises keeps nothing."""
    group, key, kept = cone.group, (cone.alpha, m0, mutual), loop._slot[0]
    if kept is None or kept[0] is not group or kept[1] != key:
        n = loop.n
        table = None if loop.reduction is None else loop.reduction.orbit_weights(n, group)
        free, w = table if table is not None else (np.arange(n), np.ones(n))
        kernel = _potential(loop.points[:len(free)], group, cone.alpha, m0, mutual, with_gradient=True)
        kept = loop._slot[0] = (group, key, (free, w) + kernel)
    return kept[2]


def _kinetic(pts, period, factor):
    n = len(pts)
    h = period / n
    diff = np.empty_like(pts)  # u_{j+1} - u_j, node n wrapping to 0
    np.subtract(pts[1:], pts[:-1], out=diff[:-1])
    np.subtract(pts[:1], pts[-1:], out=diff[-1:])
    return factor * float(np.sum(diff * diff)) / (2.0 * h)


def action(loop, cone, epsilon=None):
    """Action of the symmetric constellation generated by the loop.

    N * integral of |u'|^2/2 + m0/|u|^alpha + (1/2) sum_{R != I}
    |(R - I)u|^(-alpha), with N the group order.  Forward-difference
    velocities, uniform quadrature of the potential.  Raises
    CollisionError when a node sits on the collision set.  A lone call on
    a fresh loop also pays the kernel's gradient pass, which gradient reuses.

    With epsilon given this is instead the rescaled functional
    |v'|^2/2 + |v|^(-alpha) + (eps/2) sum, with no N factor and unit
    central mass: the physical action is N * m0^(2/(2+alpha)) times its
    value at eps = 1/m0.  At eps = 0 the mutual part is dropped entirely
    (pure central problem).
    """
    pts = np.asarray(loop.points, float)
    h = loop.period / len(pts)
    m0, mutual, prefactor = _coefficients(cone, epsilon)
    free, w, central, pair, _ = _evaluate(loop, cone, m0, mutual)
    return ActionBreakdown(
        kinetic=_kinetic(pts, loop.period, prefactor),
        central=prefactor * h * float(np.sum(w * central)),
        mutual=prefactor * h * float(np.sum(w * pair)),
    )


def gradient(loop, cone, epsilon=None):
    """Exact gradient of the discretized action.

    With epsilon None this is the physical action; otherwise the rescaled
    functional at that epsilon.  If the loop carries a reduction the
    result is the chain-rule gradient with respect to the free nodes
    (shape (n_free, 3)); otherwise shape (n, 3).  After action on the same
    loop and cone it reuses that call's kernel pass.
    """
    pts = np.asarray(loop.points, float)
    h = loop.period / len(pts)
    m0, mutual, prefactor = _coefficients(cone, epsilon)
    free, w, _, _, grad = _evaluate(loop, cone, m0, mutual)
    stretch = 2.0 * pts  # (2 u_j - u_{j+1}) - u_{j-1}, cyclically
    stretch[:-1] -= pts[1:]
    stretch[-1] -= pts[0]
    stretch[1:] -= pts[:-1]
    stretch[0] -= pts[-1]
    stretch /= h
    stretch[:len(free)] += h * w[:, None] * grad  # the free nodes are a prefix
    stretch *= prefactor
    if loop.reduction is None:
        return stretch
    return loop.reduction.reduce_gradient(stretch, len(pts))


def second_variation_vertical(m0, T):
    """Second variation of the action at the circular square solution along
    the vertical perturbation w = cos(w t) e3.

    Closed form (omega = 2 pi / T):
        (omega^2 T / 2) * (1 - (sqrt(2) + m0) / (1/sqrt(2) + 1/4 + m0))
    Strictly negative for every m0 >= 0: the planar solution is never a
    local minimizer against vertical perturbations.
    """
    check_nonnegative(m0, "central mass")
    check_positive(T, "period")
    omega = 2.0 * np.pi / T
    ratio = (np.sqrt(2.0) + m0) / (1.0 / np.sqrt(2.0) + 0.25 + m0)
    return 0.5 * omega**2 * T * (1.0 - ratio)


def discrete_energy(loop, cone):
    """Node-wise first integral |u'|^2/2 - m0/|u|^a - (1/2) sum |Bu|^-a.

    Velocities are centered differences, so the drift of this quantity is
    O(1/n^2) on converged minimizers; used as a solution diagnostic.
    """
    pts = np.asarray(loop.points, float)
    n = len(pts)
    h = loop.period / n
    vel = np.empty_like(pts)  # u_{j+1} - u_{j-1}, cyclically
    np.subtract(pts[2:], pts[:-2], out=vel[1:-1])
    vel[0] = pts[1 % n] - pts[-1]  # 1 % n and n - 2 wrap at n = 1 and 2
    vel[-1] = pts[0] - pts[n - 2]
    vel /= 2.0 * h
    kin = 0.5 * np.sum(vel * vel, axis=1)
    central, pair, _ = _potential(pts, cone.group, cone.alpha, cone.central_mass, 1.0)
    return kin - (central + pair)
