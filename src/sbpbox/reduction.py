"""Variational reduction: the solution map for the potential equation.

The fourth-order problem

    lap(lap(phi)) - lap(phi) = f - mean(f),   d(phi)/dn = g1,
    d(lap phi)/dn = g2,                        mean(phi) = 0

splits into two second-order Neumann solves through psi = lap(phi):

    (lap - 1) psi = f - mean(f),  d(psi)/dn = g2
    lap(phi) = psi,               d(phi)/dn = g1,  mean(phi) = 0.

``phi_map`` applies this with f = q u^2 and homogeneous boundary data; the
intermediate psi is kept alongside phi (``PotentialPair``) because every
quadrature that involves lap(phi) is more accurate and cheaper with the
solver's own psi than with a re-differentiated phi.

The energy identity

    integrate(psi^2) + dirichlet_energy(phi) == integrate(q u^2 phi)

holds to rounding by the summation-by-parts exactness of the
stencils; it is the discrete form of testing the potential equation with phi
itself and is verified in the acceptance suite at 1e-7 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    BoundaryData,
    Grid,
    dirichlet_energy,
    dirichlet_inner,
    inner,
    laplacian_neumann,
    mean,
)
from .problem import Problem
from .solvers import solve_helmholtz_neumann, solve_poisson_neumann_zeromean

__all__ = [
    "PotentialPair",
    "solve_fourth_order_split",
    "phi_map",
    "interaction_energy",
    "biharmonic_form",
]


@dataclass(frozen=True)
class PotentialPair:
    """A potential phi with the intermediate psi from the split solve.

    psi equals the discrete Laplacian of phi up to rounding and its
    quadrature mean vanishes to rounding whenever the second flux is zero.
    """

    phi: np.ndarray
    psi: np.ndarray

    @classmethod
    def from_phi(cls, grid: Grid, phi: np.ndarray,
                 flux: BoundaryData | None = None) -> "PotentialPair":
        """Pair an arbitrary potential with its stencil Laplacian.

        For fields that did not come from the solver this is the only way to
        get a psi; it costs one stencil application and carries the stencil's
        rounding, which is fine for energy evaluation of trial potentials.
        """
        return cls(phi=np.asarray(phi, dtype=float),
                   psi=laplacian_neumann(grid, phi, flux))


def solve_fourth_order_split(grid: Grid,
                             f: np.ndarray,
                             g1: BoundaryData | None = None,
                             g2: BoundaryData | None = None) -> PotentialPair:
    """Solve the split fourth-order problem; see the module docstring.

    The source is always projected to zero quadrature mean (for homogeneous
    boundary data the problem is only solvable modulo constants in the
    source).  With inhomogeneous data the two surface integrals must agree,
    otherwise the second solve raises ``IncompatibleData``.
    """
    f = np.asarray(f, dtype=float)
    source = f - mean(grid, f)
    psi = solve_helmholtz_neumann(grid, source, g2)
    phi = solve_poisson_neumann_zeromean(grid, psi, g1)
    return PotentialPair(phi=phi, psi=psi)


def phi_map(problem: Problem, u: np.ndarray) -> PotentialPair:
    """Potential generated by a state: solve the split system with f = q u^2.

    Even in u by construction: the source depends on u only through u^2, so
    ``phi_map(problem, u)`` and ``phi_map(problem, -u)`` are bitwise equal.
    """
    source = problem.q * u * u
    return solve_fourth_order_split(problem.grid, source)


def interaction_energy(problem: Problem, u: np.ndarray, pair: PotentialPair) -> float:
    """Coupling quadrature integrate(q u^2 phi)."""
    return inner(problem.grid, problem.q * u * u, pair.phi)


def biharmonic_form(grid: Grid, pair: PotentialPair,
                    other: PotentialPair | None = None) -> float:
    """Bilinear form integrate(psi_a psi_b) + integrate(grad phi_a . grad phi_b).

    With one argument this is the squared energy norm of the potential; by
    the discrete Green identities it equals ``interaction_energy`` on pairs
    produced by ``phi_map`` up to rounding.
    """
    if other is None:
        return inner(grid, pair.psi, pair.psi) + dirichlet_energy(grid, pair.phi)
    return inner(grid, pair.psi, other.psi) + dirichlet_inner(grid, pair.phi, other.phi)
