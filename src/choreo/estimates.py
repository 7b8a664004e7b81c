"""Level estimates that exclude total collisions for whole symmetry classes.

The action of any loop undergoing a total collision obeys a lower bound
built from the total mass, a potential floor on the sphere of normalized
configurations, and the number of collisions per period.  A class is
certified collision-free when an explicit loop in the class beats that
bound.  This module computes the constants on both sides: the edge
potential integrals ``zeta`` (on a fixed pair of Gauss-Legendre rules),
the collision chord distances ``delta_min``, the reciprocal-sine sums
``k_alpha_p``, the tessellation potential floor ``tilde_U0``, the
collision lower bounds, the comparison loop actions (in closed form), and
the certificates bundling the resulting inequalities.

Whatever does not depend on the exponent is read from tables built once,
on first use: the polyhedron's ``edge_quadratics`` (zeta) and
``midpoint_chords`` (delta_min), the tessellation's ``widest_chords``
(tilde_U0), the sequence's ``side_counts`` (certificates) and the turn
sines of each order (k_alpha_p).  A call evaluates only the powers of
alpha.  Each computed ``zeta`` sends its rule difference to the
``choreo.estimates`` logger at DEBUG.

All inequalities are evaluated in the form that holds for every value of
the central mass: the mass-independent part and the coefficient of the
mass are compared separately, so a passing certificate covers the whole
mass range at once.
"""

import logging
import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .homotopy import build_archimedean, sequence_counts
from .reference_tables import TWO_PI

_log = logging.getLogger(__name__)


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# The edge integrands are analytic on the closed segment, so Gauss-Legendre
# converges geometrically: zeta keeps the finer rule and refuses a value on
# which the two rules differ by more than _QUAD_TOL, three orders past the
# five tabulated decimals.
_COARSE_RULE = _gauss_legendre(24)
_FINE_RULE = _gauss_legendre(48)
_QUAD_TOL = 1e-8


@lru_cache(maxsize=32)
def _turn_sines(order):
    """Read-only sin(j*pi/order) for j = 1 .. order-1."""
    sines = np.sin(np.arange(1, order) * np.pi / order)
    sines.flags.writeable = False
    return sines


def k_alpha_p(alpha, order):
    """Reciprocal sine-power sum over the nontrivial turns about one axis.

    Returns sum_{j=1}^{order-1} sin(j*pi/order)^(-alpha), the mutual
    potential of points equally spaced on a circle, up to scale.  The sines
    do not depend on alpha and are read from ``_turn_sines``, a bounded
    table computed once per order.
    """
    if not 1.0 <= alpha < 2.0:
        raise ValueError("alpha must lie in [1, 2)")
    order = int(order)
    if order < 2:
        raise ValueError("order must be an integer >= 2")
    return float(np.sum(_turn_sines(order) ** (-alpha)))


def zeta(group, alpha, which):
    """Potential integral along one base edge of the Archimedean graph.

    For which = 1 or 2 the integrand is the pairwise potential
    sum_{R != I} |(R - I) x(s)|^(-alpha) along the straight segment from q
    to q_1 or q_2; for which = 0 it is the central term 2 / |x(s)|^alpha,
    whose value is the same along either edge because both join unit
    vectors at the common edge length.  The segment stays off the collision
    set, so the integrand is analytic on it: the value is the 48-node
    Gauss-Legendre sum, and a RuntimeError is raised when the 24-node sum
    differs from it by more than 1e-8.  The squared distances along the
    edge are quadratics in s whose coefficients do not depend on alpha;
    they are read from the polyhedron's ``edge_quadratics`` table, and
    only the two rules are evaluated per call.  Their difference is logged
    at DEBUG.
    """
    if which not in (0, 1, 2):
        raise ValueError("which must be 0, 1 or 2")
    if not 1.0 <= alpha < 2.0:
        raise ValueError("alpha must lie in [1, 2)")
    poly = build_archimedean(group)
    c0, c1, c2, mult = poly.edge_quadratics[which]

    def rule(nodes, weights):
        return float(mult @ (c0 + nodes * (c1 + nodes * c2)) ** (-0.5 * alpha) @ weights)

    value, coarse = rule(*_FINE_RULE), rule(*_COARSE_RULE)
    difference = abs(value - coarse)
    _log.debug(
        "zeta %s which=%d alpha=%r: value=%r rule difference=%.3e",
        poly.group.tag, which, alpha, value, difference,
    )
    if difference > _QUAD_TOL:
        raise RuntimeError(f"edge integral did not converge: rule difference {difference:.3e}")
    return value


@lru_cache(maxsize=64)
def _zeta_cached(tag, alpha, which):
    # Bounded: certificates at a fresh exponent add three entries each, while
    # the exponent-1 entries every certificate reads stay recent.
    return zeta(tag, alpha, which)


def delta_min(group, which):
    """Smallest collision chord distance of a base edge midpoint.

    Doubling the midpoint of the edge from q to q_which gives m = q +
    q_which; the value is min over group elements R != I of |(R - I) m| / 2,
    computed exactly by enumerating the pair forms.  It does not depend on
    alpha and is read from the polyhedron's ``midpoint_chords`` table.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    return build_archimedean(group).midpoint_chords[which - 1]


def tilde_U0(group, alpha, triangle=0):
    """Potential floor over one closed tessellation triangle.

    Returns (1/2^(alpha+1)) * sum over poles p of k_alpha_p(alpha, order_p)
    divided by max_{u in triangle} |u x p|^alpha.  The maximum is resolved
    in closed form and read from the tessellation's ``widest_chords`` table,
    which does not depend on alpha; k_alpha_p is evaluated once per distinct
    pole order.  Every triangle gives the same value; ``triangle`` selects
    which one to use.
    """
    if not 1.0 <= alpha < 2.0:
        raise ValueError("alpha must lie in [1, 2)")
    tess = build_archimedean(group).tessellation
    k = {order: k_alpha_p(alpha, order) for order in set(tess.pole_order)}
    total = 0.0
    for order, largest in zip(tess.pole_order, tess.widest_chords[triangle].tolist()):
        total += k[order] / largest ** alpha
    return total / 2.0 ** (alpha + 1.0)


# ---------------------------------------------------------------------------
# Collision lower bounds


@dataclass(frozen=True)
class CollisionBound:
    """Lower bound for the action of a loop with total collisions."""

    value: float
    collisions: int
    formula: str  # "hiphop" | "klein" | "plato-general"

    def __float__(self):
        return self.value


def general_lower_bound(total_mass, u0, alpha, period, collisions, formula="plato-general"):
    """Action lower bound from the potential floor on normalized shapes.

    Each of the ``collisions`` segments of duration period/collisions joins
    two vanishing moments of the configuration size, and its action is at
    least (2+alpha)/(2-alpha) * (mass/2) * [u0 (pi/alpha)^alpha]^(2/(2+alpha))
    * duration^((2-alpha)/(2+alpha)).  The segments are summed.
    """
    if u0 <= 0.0:
        raise ValueError("u0 must be positive")
    if total_mass <= 0.0:
        raise ValueError("total_mass must be positive")
    if not 1.0 <= alpha < 2.0:
        raise ValueError("alpha must lie in [1, 2)")
    if period <= 0.0:
        raise ValueError("period must be positive")
    collisions = int(collisions)
    if collisions < 1:
        raise ValueError("collisions must be a positive integer")
    segment = period / collisions
    per_segment = (
        (2.0 + alpha)
        / (2.0 - alpha)
        * (total_mass / 2.0)
        * (u0 * (math.pi / alpha) ** alpha) ** (2.0 / (2.0 + alpha))
        * segment ** ((2.0 - alpha) / (2.0 + alpha))
    )
    return CollisionBound(
        value=collisions * per_segment, collisions=collisions, formula=formula
    )


def hiphop_collision_bound(m0, period, satellites=4):
    """Total-collision bound for the antisymmetric vertical classes.

    The satellites stay equidistant from the origin and pairwise no farther
    than twice that distance, giving the normalized potential floor
    (s/(s+m0))^(3/2) * ((s-1)/2 + 2 m0) with s the satellite count; the
    antisymmetry forces two total collisions per period.
    """
    satellites = int(satellites)
    if satellites < 4 or satellites % 2:
        raise ValueError("satellites must be an even integer >= 4")
    if m0 < 0.0:
        raise ValueError("m0 must be nonnegative")
    total = satellites + m0
    u0 = (satellites / total) ** 1.5 * ((satellites - 1) / 2.0 + 2.0 * m0)
    return general_lower_bound(total, u0, 1.0, period, 2, formula="hiphop")


def klein_collision_bound(m0, period):
    """Total-collision bound for the coordinate-axes symmetry class.

    The normalized potential 2 (sum_j 1/|u x e_j| + 4 m0/|u|) / (4 + m0)
    attains its floor at the diagonal direction, where each |u x e_j|
    equals sqrt(2/3); the time symmetry forces two total collisions per
    period.
    """
    if m0 < 0.0:
        raise ValueError("m0 must be nonnegative")
    total = 4.0 + m0
    u0 = 4.0 * (3.0 * math.sqrt(1.5) + 4.0 * m0) / total ** 1.5
    return general_lower_bound(total, u0, 1.0, period, 2, formula="klein")


# ---------------------------------------------------------------------------
# Comparison loop actions for the vertical classes


def rotating_polygon_action(m0, period, satellites=4):
    """Action of the uniformly rotating regular polygon, in closed form.

    The satellites sit at the vertices of a horizontal regular polygon that
    turns once per period.  On a circle of radius r the potential of each
    satellite is mu/r with mu = m0 + k/4, k the reciprocal-sine sum; the
    radius makes the circle a critical point of the action restricted to
    circles, where the kinetic term is mu/(2r).  The integrand is constant
    in time, so the action is (3/2) s T mu / r.
    """
    satellites = int(satellites)
    if satellites < 4 or satellites % 2:
        raise ValueError("satellites must be an even integer >= 4")
    if m0 < 0.0:
        raise ValueError("m0 must be nonnegative")
    if period <= 0.0:
        raise ValueError("period must be positive")
    mu = m0 + 0.25 * k_alpha_p(1.0, satellites)
    radius = (mu * (period / TWO_PI) ** 2) ** (1.0 / 3.0)
    return 1.5 * satellites * period * mu / radius


def klein_test_loop_bound(m0, period, rho=None):
    """Smallest action bound over the four-half-circle comparison loops.

    The loop runs at constant speed along four half circles of radius rho,
    one on each of the planes x3 = +-rho and x2 = +-rho, staying at
    distance sqrt(2)*rho from the origin and at least 2*rho from its
    rotated copies.  The resulting bound 32 pi^2 rho^2 / T + (3 +
    2 sqrt(2) m0) T / rho is minimized over rho unless one is given.
    """
    if m0 < 0.0:
        raise ValueError("m0 must be nonnegative")
    if period <= 0.0:
        raise ValueError("period must be positive")
    strength = 3.0 + 2.0 * math.sqrt(2.0) * m0
    if rho is None:
        rho = (strength * period ** 2 / (64.0 * math.pi ** 2)) ** (1.0 / 3.0)
    elif rho <= 0.0:
        raise ValueError("rho must be positive")
    return 32.0 * math.pi ** 2 * rho ** 2 / period + strength * period / rho


# ---------------------------------------------------------------------------
# Test loop actions for the polyhedral classes


@dataclass(frozen=True)
class TestLoopAction:
    """Optimally rescaled action of a piecewise-linear test loop."""

    value: float
    scale: float      # the optimal rescaling factor
    kinetic: float    # kinetic part at scale 1
    potential: float  # potential part at scale 1
    alpha: float

    def at_scale(self, lam):
        """Action of the test loop rescaled by lam."""
        if lam <= 0.0:
            raise ValueError("lam must be positive")
        return lam ** 2 * self.kinetic + lam ** (-self.alpha) * self.potential


def _cone_counts(cone):
    k_nu, k1, k2 = sequence_counts(cone.nu)
    collisions = cone.extra_symmetry[1] if cone.extra_symmetry is not None else 1
    return k_nu, k1, k2, collisions


def test_loop_action_exact(cone):
    """Action of the optimally rescaled test loop of a polyhedral class.

    The loop follows the vertex sequence along straight edges at constant
    speed; rescaling by lam changes the action to lam^2 * kinetic +
    lam^(-alpha) * potential, minimized at the returned scale.  The edge
    potential integrals are evaluated by quadrature at the class exponent.
    """
    if cone.nu is None:
        raise ValueError("test loops are defined for the polyhedral classes only")
    tag = cone.group.tag
    alpha = cone.alpha
    n = cone.group.order
    ell = build_archimedean(tag).edge_length
    k_nu, k1, k2, _ = _cone_counts(cone)
    period = cone.period

    a_kinetic = n * ell ** 2 * k_nu ** 2 / (2.0 * period)
    mix = (
        k1 * _zeta_cached(tag, alpha, 1)
        + k2 * _zeta_cached(tag, alpha, 2)
        + cone.central_mass * (k1 + k2) * _zeta_cached(tag, alpha, 0)
    )
    a_potential = (n / 2.0) * (period / k_nu) * mix
    scale = (alpha * a_potential / (2.0 * a_kinetic)) ** (1.0 / (2.0 + alpha))
    value = (2.0 + alpha) * (
        (a_potential / 2.0) ** 2 * (a_kinetic / alpha) ** alpha
    ) ** (1.0 / (2.0 + alpha))
    return TestLoopAction(
        value=float(value),
        scale=float(scale),
        kinetic=float(a_kinetic),
        potential=float(a_potential),
        alpha=alpha,
    )


def _c_const(alpha, ell, k_nu, collisions):
    """Coefficient comparing the test loop estimate with the collision bound."""
    return (
        2.0
        * k_nu
        / (2.0 - alpha) ** ((2.0 + alpha) / 2.0)
        * (math.pi * collisions / (math.sqrt(alpha) * ell * k_nu)) ** alpha
    )


def test_loop_action_bound(cone):
    """Closed-form upper bound for the rescaled test loop action.

    Valid for exponents strictly between 1 and 2: each edge integral at
    exponent alpha is bounded through the exponent-1 integral divided by
    the collision chord distance, and the central term through the chord
    bound 8/(4 - ell^2).
    """
    if cone.nu is None:
        raise ValueError("test loops are defined for the polyhedral classes only")
    alpha = cone.alpha
    if not 1.0 < alpha < 2.0:
        raise ValueError("the closed-form bound needs alpha strictly between 1 and 2")
    tag = cone.group.tag
    n = cone.group.order
    ell = build_archimedean(tag).edge_length
    k_nu, k1, k2, _ = _cone_counts(cone)
    period = cone.period

    weighted = (
        k1 * _zeta_cached(tag, 1.0, 1) / delta_min(tag, 1)
        + k2 * _zeta_cached(tag, 1.0, 2) / delta_min(tag, 2)
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


# ---------------------------------------------------------------------------
# Certificates


def _record_dict(record, flags):
    """A record's fields, then the named pass flags."""
    out = {f.name: getattr(record, f.name) for f in fields(record)}
    out.update((flag, getattr(record, flag)) for flag in flags)
    return out


@dataclass(frozen=True)
class EstimateCertificate:
    """Record of the sufficient inequalities excluding total collisions.

    The potential inequality compares the mass-independent part of the test
    loop estimate against the floor term; the central inequality compares
    the coefficients of the central mass.  Both passing (strictly) certifies
    the class for every value of the central mass.  The direct pair
    evaluates the plain comparison at the concrete mass of the cone.
    """

    cone_id: str
    group: str
    alpha: float
    collisions: int
    k1: int
    k2: int
    k_nu: int
    ell: float
    zeta0: float
    zeta1: float
    zeta2: float
    delta1: float
    delta2: float
    tilde_u0: float
    c_const: float
    potential_lhs: float
    potential_rhs: float
    central_lhs: float
    central_rhs: float
    direct_lhs: float
    direct_rhs: float

    @property
    def potential_pass(self):
        return self.potential_lhs < self.potential_rhs

    @property
    def central_pass(self):
        return self.central_lhs < self.central_rhs

    @property
    def direct_pass(self):
        return self.direct_lhs < self.direct_rhs

    @property
    def passed(self):
        return self.potential_pass and self.central_pass

    def row(self):
        """The four tabulated inequality members, in column order."""
        return (
            self.potential_lhs,
            self.potential_rhs,
            self.central_lhs,
            self.central_rhs,
        )

    def as_dict(self):
        return _record_dict(self, ("potential_pass", "central_pass", "direct_pass", "passed"))


def certify_no_total_collisions(cone, label=None):
    """Certificate that minimizers of a polyhedral class avoid total collisions.

    Evaluates the pair of mass-free sufficient inequalities appropriate to
    the class exponent and, at the concrete central mass of the cone, the
    direct comparison of the rescaled test loop action with the collision
    lower bound.  The overall verdict is the mass-free pair: both strict
    means the class is certified for every central mass.
    """
    tag = cone.group.tag
    if cone.nu is None:
        raise ValueError(
            "certificates cover the polyhedral classes; use hiphop_exclusion or "
            "klein_exclusion for the vertical-axis classes"
        )
    alpha = cone.alpha
    n = cone.group.order
    ell = build_archimedean(tag).edge_length
    k_nu, k1, k2, collisions = _cone_counts(cone)

    z0 = _zeta_cached(tag, 1.0, 0)
    z1 = _zeta_cached(tag, 1.0, 1)
    z2 = _zeta_cached(tag, 1.0, 2)
    d1 = delta_min(tag, 1)
    d2 = delta_min(tag, 2)
    floor = tilde_U0(tag, alpha)
    c_const = _c_const(alpha, ell, k_nu, collisions)

    if alpha == 1.0:
        potential_lhs = k1 * z1 + k2 * z2
        central_lhs = (k1 + k2) * z0
        central_rhs = 2.0 * c_const  # equals 4*pi*collisions/ell
    else:
        potential_lhs = k1 * z1 / d1 + k2 * z2 / d2
        central_lhs = 8.0 * (k1 + k2) / (4.0 - ell ** 2)
        central_rhs = c_const
    potential_rhs = c_const * floor

    m0 = cone.central_mass
    direct_lhs = test_loop_action_exact(cone).value
    u0 = (n / (n + m0)) ** ((2.0 + alpha) / 2.0) * (floor + 2.0 * m0)
    direct_rhs = general_lower_bound(
        n + m0, u0, alpha, cone.period, collisions
    ).value

    if label is None:
        label = f"{tag} {k_nu}-gon alpha={alpha:g} M={collisions}"
    return EstimateCertificate(
        cone_id=label,
        group=tag,
        alpha=alpha,
        collisions=collisions,
        k1=k1,
        k2=k2,
        k_nu=k_nu,
        ell=float(ell),
        zeta0=z0,
        zeta1=z1,
        zeta2=z2,
        delta1=d1,
        delta2=d2,
        tilde_u0=floor,
        c_const=c_const,
        potential_lhs=float(potential_lhs),
        potential_rhs=float(potential_rhs),
        central_lhs=float(central_lhs),
        central_rhs=float(central_rhs),
        direct_lhs=float(direct_lhs),
        direct_rhs=float(direct_rhs),
    )


@dataclass(frozen=True)
class ExclusionComparison:
    """Collision bound versus comparison loop for a vertical-axis class.

    Both sides raised to the power 3/2 are affine in the central mass, so
    comparing the values at zero mass (intercept) and the growth rates of
    the 3/2 powers (slope) settles the inequality for every mass at once.
    The direct pair evaluates the plain comparison at the concrete mass.
    """

    label: str
    kind: str  # "hiphop" | "klein"
    central_mass: float
    bound: CollisionBound
    comparison_action: float
    intercept_lhs: float
    intercept_rhs: float
    slope_lhs: float
    slope_rhs: float

    @property
    def intercept_pass(self):
        return self.intercept_lhs < self.intercept_rhs

    @property
    def slope_pass(self):
        return self.slope_lhs < self.slope_rhs

    @property
    def direct_pass(self):
        return self.comparison_action < self.bound.value

    @property
    def passed(self):
        return self.intercept_pass and self.slope_pass

    def as_dict(self):
        flags = ("intercept_pass", "slope_pass", "direct_pass", "passed")
        return {**_record_dict(self, flags), "bound": self.bound.value}


def _exclusion(label, kind, m0, compare, bound):
    """Compare ``compare(m)`` with the CollisionBound ``bound(m)`` at m0, and
    the intercepts and 3/2-power slopes at masses 0 and 1."""
    lhs = [float(compare(m)) for m in (0.0, 1.0)]
    rhs = [bound(m).value for m in (0.0, 1.0)]
    return ExclusionComparison(
        label=label,
        kind=kind,
        central_mass=float(m0),
        bound=bound(m0),
        comparison_action=float(compare(m0)),
        intercept_lhs=lhs[0],
        intercept_rhs=rhs[0],
        slope_lhs=lhs[1] ** 1.5 - lhs[0] ** 1.5,
        slope_rhs=rhs[1] ** 1.5 - rhs[0] ** 1.5,
    )


def hiphop_exclusion(m0, period, satellites=4):
    """Exclusion comparison for the antisymmetric vertical classes.

    The comparison loop is the uniformly rotating regular polygon (the
    square for four satellites).  The crude pairwise estimate behind the
    collision bound loses to the polygon potential once the satellite count
    grows, so the mass-free verdict can honestly fail for large polygons.
    """
    return _exclusion(
        f"rotating {satellites}-gon vs collision bound",
        "hiphop",
        m0,
        lambda m: rotating_polygon_action(m, period, satellites),
        lambda m: hiphop_collision_bound(m, period, satellites),
    )


def klein_exclusion(m0, period):
    """Exclusion comparison for the coordinate-axes symmetry class."""
    return _exclusion(
        "four half circles vs collision bound",
        "klein",
        m0,
        lambda m: klein_test_loop_bound(m, period),
        lambda m: klein_collision_bound(m, period),
    )
