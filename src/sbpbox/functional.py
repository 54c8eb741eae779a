"""Energy functionals and gradients for the reduced constrained problem.

The full two-field energy is

    F(u, phi) = 1/2 int |grad u|^2 + 1/2 int q (phi + chi) u^2
                - kappa/p int |u|^p
                - 1/4 int (lap phi)^2 - 1/4 int |grad phi|^2
                - alpha/(2 |box|) int phi.

F(u, .) is strictly concave and is maximized over zero-mean potentials by the
solution of the potential equation, so substituting ``phi_map`` gives the
reduced one-field energy

    J(u) = 1/2 int |grad u|^2 + 1/4 b(phi_u, phi_u) + 1/2 int q chi u^2
           - kappa/p int |u|^p

with ``b`` the biharmonic form.  Because the maximizer kills the chain-rule
term, the gradient of J is just the u-derivative of F at (u, phi_u):

    grad J(u) = -lap u + q (phi_u + chi) u - kappa |u|^(p-2) u,

zero on the boundary.  The optimizer takes its Dirichlet solve, the
representer of that derivative in the discrete H^1_0 inner product, as the
descent direction; descent preconditioned this way converges at a rate that
does not degrade under refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import dirichlet_energy, inner, integrate, laplacian_dirichlet
from .problem import Problem
from .reduction import PotentialPair, phi_map

__all__ = ["EnergyBreakdown", "eval_J", "grad_J"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Additive pieces of the reduced energy; ``total`` is their exact sum."""

    dirichlet: float       # 1/2 int |grad u|^2
    biharm: float          # 1/4 int psi^2
    grad_phi: float        # 1/4 int |grad phi|^2
    coupling_chi: float    # 1/2 int q chi u^2
    nonlinear: float       # -kappa/p int |u|^p
    total: float


def eval_J(problem: Problem,
           u: np.ndarray,
           pair: PotentialPair | None = None) -> tuple[float, EnergyBreakdown]:
    """Reduced energy and its term-by-term breakdown.

    ``pair`` may be passed when the potential of u is already known (the
    optimizer reuses the line-search solve); otherwise it is computed here.
    Even in u: flipping the sign of u changes no term.
    """
    g = problem.grid
    u = np.asarray(u, dtype=float)
    if pair is None:
        pair = phi_map(problem, u)
    u2 = u * u
    dirichlet = 0.5 * dirichlet_energy(g, u)
    biharm = 0.25 * inner(g, pair.psi, pair.psi)
    grad_phi = 0.25 * dirichlet_energy(g, pair.phi)
    coupling_chi = 0.5 * inner(g, problem.q_chi, u2)
    nonlinear = 0.0
    if problem.kappa != 0.0:
        nonlinear = -problem.kappa / problem.p * integrate(g, np.abs(u) ** problem.p)
    total = dirichlet + biharm + grad_phi + coupling_chi + nonlinear
    return total, EnergyBreakdown(dirichlet=dirichlet, biharm=biharm,
                                  grad_phi=grad_phi, coupling_chi=coupling_chi,
                                  nonlinear=nonlinear, total=total)


def grad_J(problem: Problem,
           u: np.ndarray,
           pair: PotentialPair | None = None) -> np.ndarray:
    """Gradient field of the reduced energy, zero on the boundary.

    The strong form ``-lap u + q (phi_u + chi) u - kappa |u|^(p-2) u``.  Odd
    in u: grad at -u is the exact negation of grad at u.
    """
    g = problem.grid
    u = np.asarray(u, dtype=float)
    if pair is None:
        pair = phi_map(problem, u)
    out = -laplacian_dirichlet(g, u)
    out += problem.q * (pair.phi + problem.chi) * u
    if problem.kappa != 0.0:
        out -= problem.kappa * np.abs(u) ** (problem.p - 2.0) * u
    out[~g.interior_mask] = 0.0
    return out
