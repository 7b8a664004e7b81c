"""Symmetric periodic orbits of the (1+N)-body problem.

A library for the symmetry-constrained periodic orbits of N unit masses
plus a heavy central mass, under attracting potentials homogeneous of
degree -alpha with alpha in [1, 2).  It builds the finite rotation groups,
their sphere tessellations and the Archimedean edge graphs that fix the
homotopy classes; evaluates the discretized action functional and its
exact gradient on loops constrained by a group and a symmetry reduction;
certifies the absence of collisions from explicit level estimates; and
finds the heavy-mass limit, a loop of circular arcs through the rotation
axes of the group, by a minimal-angle search.  It has no minimizer yet:
the action and its gradient are the objective one would call.
"""

__version__ = "0.1.0"
