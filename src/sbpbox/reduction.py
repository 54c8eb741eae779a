"""Variational reduction: the solution map for the potential equation.

The fourth-order problem with homogeneous Neumann data

    lap(lap(phi)) - lap(phi) = f - mean(f),   d(phi)/dn = 0,
    d(lap phi)/dn = 0,                         mean(phi) = 0

splits into two second-order Neumann problems through psi = lap(phi):

    (lap - 1) psi = f - mean(f),  d(psi)/dn = 0
    lap(phi) = psi,               d(phi)/dn = 0,  mean(phi) = 0.

Both operators are diagonal in the DCT-I basis of ``sbpbox.solvers``, so
``solve_fourth_order_split`` takes one forward transform of the source and
two inverse transforms, one for psi and one for phi; it takes no boundary
data.  Problems with inhomogeneous fluxes (the auxiliary potential chi) go
through ``sbpbox.problem.solve_chi``, which keeps the two separate solves
and the compatibility check.

``phi_map`` applies the split with f = q u^2; the intermediate psi is kept
alongside phi (``PotentialPair``) because every quadrature that involves
lap(phi) is more accurate and cheaper with the solver's own psi than with a
re-differentiated phi.

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
)
from .problem import Problem
from .solvers import _split_solve

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

    psi equals the discrete Laplacian of phi up to rounding; for pairs from
    the split solve its quadrature mean vanishes to rounding.
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


def solve_fourth_order_split(grid: Grid, f: np.ndarray) -> PotentialPair:
    """Solve the split fourth-order problem with zero fluxes; see the module
    docstring.  The source is projected to zero quadrature mean."""
    phi, psi = _split_solve(grid, f)
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
