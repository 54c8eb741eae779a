"""Constrained states of a fourth-order matter-potential system on boxes.

The model couples a Schrodinger-type equation for an amplitude u with a
fourth-order equation for an electrostatic-type potential phi on a box,
through a spatially varying coupling factor q and inhomogeneous Neumann flux
data for the potential.  The package eliminates phi: an auxiliary field chi
absorbs the boundary data, a linear solve maps q u^2 to the zero-mean
potential it generates, and the remaining energy J(u) is minimized over the
manifold of fields with unit mass and prescribed coupling mass by projected
gradient descent with a two-parameter retraction.

Layout: ``grid`` holds the finite-difference kernels and quadrature whose
summation-by-parts pairing makes the discrete energy identities exact;
``solvers`` the exact DCT-I/DST-I elliptic solves; ``dense`` small
assembled-matrix oracles; ``problem`` the coupling families, feasibility
classification, and chi; ``reduction`` the potential map; ``functional`` the
reduced energy and its gradient; ``manifold`` constraints, retraction, and
seed construction; ``optimize`` the descent loop and multi-start driver;
``verify`` residuals against the original strong system; ``config``/``cli``
the batch front end.
"""

from .grid import BoundaryData, Grid, read_field, write_field
from .problem import CouplingSpec, build_problem

__version__ = "0.1.0"

__all__ = [
    "BoundaryData",
    "CouplingSpec",
    "Grid",
    "build_problem",
    "read_field",
    "write_field",
]
