"""Symmetric periodic orbits of the (1+N)-body problem.

A library for finding symmetry-constrained periodic orbits of N unit
masses plus a heavy central mass, under attracting potentials homogeneous
of degree -alpha with alpha in [1, 2).  Orbits are found by minimizing a
discretized action functional over loop spaces constrained by a finite
rotation group and a homotopy class; collision-free certificates come from
explicit level estimates, and the heavy-mass limit is a loop of Kepler
arcs through the rotation axes of the group.
"""

__version__ = "0.1.0"
