"""Variational reduction: the solution map for the potential equation.

The fourth-order problem with homogeneous Neumann data

    lap(lap(phi)) - lap(phi) = f - mean(f),   d(phi)/dn = 0,
    d(lap phi)/dn = 0,                         mean(phi) = 0

is diagonal in the DCT-I basis, and
``sbpbox.solvers.solve_fourth_order_split`` solves it in one forward and
one inverse transform; it takes no boundary data.  Problems with
inhomogeneous fluxes (the auxiliary potential chi) go through
``sbpbox.problem.solve_chi``, which keeps two separate second-order solves
and the compatibility check.

``phi_map`` applies that solve with f = q u^2.  Testing the potential
equation with phi itself gives the energy identity

    integrate(lap(phi)^2) + dirichlet_energy(phi) == integrate(q u^2 phi)

with lap the Neumann stencil.  It holds to rounding by the
summation-by-parts exactness of the stencils, so the field energy of a
generated potential is ``interaction_energy``; the acceptance suite checks
the identity at 1e-7 relative.
"""

from __future__ import annotations

import numpy as np

from .grid import inner
from .problem import Problem
from .solvers import solve_fourth_order_split

__all__ = ["phi_map", "interaction_energy"]


def phi_map(problem: Problem, u: np.ndarray) -> np.ndarray:
    """Potential generated by a state: the fourth-order solve with f = q u^2.

    Even in u by construction: the source depends on u only through u^2, so
    ``phi_map(problem, u)`` and ``phi_map(problem, -u)`` are bitwise equal.
    """
    return solve_fourth_order_split(problem.grid, problem.q * u * u)


def interaction_energy(problem: Problem, u: np.ndarray, phi: np.ndarray) -> float:
    """Coupling quadrature integrate(q u^2 phi)."""
    return inner(problem.grid, problem.q * u * u, phi)
