"""Energy functionals and gradients for the reduced constrained problem.

The full two-field energy is

    F(u, phi) = 1/2 int |grad u|^2 + 1/2 int q (phi + chi) u^2
                - kappa/p int |u|^p
                - 1/4 int (lap phi)^2 - 1/4 int |grad phi|^2
                - alpha/(2 |box|) int phi.

F(u, .) is strictly concave and is maximized over zero-mean potentials by the
solution of the potential equation, so substituting ``phi_map`` gives the
reduced one-field energy

    J(u) = 1/2 int |grad u|^2 + 1/4 int q u^2 phi_u + 1/2 int q chi u^2
           - kappa/p int |u|^p.

The field energy 1/4 int (lap phi_u)^2 + 1/4 int |grad phi_u|^2 equals
1/4 int q u^2 phi_u because phi_u solves the potential equation (see
``sbpbox.reduction``), so J needs no derivative of phi_u.  Because the
maximizer kills the chain-rule term, the gradient of J is just the
u-derivative of F at (u, phi_u):

    grad J(u) = -lap u + q (phi_u + chi) u - kappa |u|^(p-2) u,

zero on the boundary.  The optimizer descends along its representer in the
metric -lap + s, u + (-lap + s)^(-1) (w - s u) with w = ``zeroth_order_grad``
(u + S(w) at s = 0, S the Dirichlet solve), at a rate that does not degrade
under refinement, by dividing DST-I coefficients by the symbol of -lap + s.

``eval_J`` returns J as a single float; a caller that needs one term, such
as the Dirichlet energy in the run report, evaluates it from ``grid``.
"""

from __future__ import annotations

import numpy as np

from .grid import dirichlet_energy, inner, integrate, laplacian_dirichlet
from .problem import Problem
from .reduction import interaction_energy, phi_map

__all__ = ["eval_J", "grad_J", "zeroth_order_grad"]


def eval_J(problem: Problem,
           u: np.ndarray,
           phi: np.ndarray | None = None) -> float:
    """Reduced energy J(u), summed term by term in the order of the formula
    above.

    ``phi`` may be passed when the potential of u is already known;
    otherwise it is computed here.  The descent takes the Dirichlet term as
    a sum over DST-I modes instead (``optimize._evaluate``).
    Even in u: flipping the sign of u changes no term.
    """
    g = problem.grid
    u = np.asarray(u, dtype=float)
    if phi is None:
        phi = phi_map(problem, u)
    nonlinear = 0.0
    if problem.kappa != 0.0:
        nonlinear = -problem.kappa / problem.p * integrate(g, np.abs(u) ** problem.p)
    return (0.5 * dirichlet_energy(g, u)
            + 0.25 * interaction_energy(problem, u, phi)
            + 0.5 * inner(g, problem.q_chi, u * u)
            + nonlinear)


def zeroth_order_grad(problem: Problem, u: np.ndarray,
                      phi: np.ndarray) -> np.ndarray:
    """w = q (phi_u + chi) u - kappa |u|^(p-2) u, that is grad J + lap u."""
    return (problem.q * (phi + problem.chi) * u
            - problem.kappa * np.abs(u) ** (problem.p - 2.0) * u)


def grad_J(problem: Problem,
           u: np.ndarray,
           phi: np.ndarray | None = None) -> np.ndarray:
    """Gradient field of the reduced energy, zero on the boundary.

    The strong form ``-lap u + q (phi_u + chi) u - kappa |u|^(p-2) u``.  Odd
    in u: grad at -u is the exact negation of grad at u.
    """
    g = problem.grid
    u = np.asarray(u, dtype=float)
    if phi is None:
        phi = phi_map(problem, u)
    out = zeroth_order_grad(problem, u, phi) - laplacian_dirichlet(g, u)
    out[~g.interior_mask] = 0.0
    return out
