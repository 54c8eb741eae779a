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

zero on the boundary.  The "h10" metric variant returns the representer of
that derivative in the discrete H^1_0 inner product, i.e. the Dirichlet solve
of the plain gradient; descent preconditioned this way converges at a rate
that does not degrade under refinement.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    dirichlet_energy,
    inner,
    integrate,
    laplacian_dirichlet,
    norm_l2,
)
from .problem import Problem
from .reduction import PotentialPair, phi_map
from .solvers import solve_poisson_dirichlet

__all__ = [
    "EnergyBreakdown",
    "eval_F",
    "eval_J",
    "grad_J",
    "gn_ratio",
    "gn_exponent_window",
]

METRICS = ("l2", "h10")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Additive pieces of the reduced energy; ``total`` is their exact sum."""

    dirichlet: float       # 1/2 int |grad u|^2
    biharm: float          # 1/4 int psi^2
    grad_phi: float        # 1/4 int |grad phi|^2
    coupling_chi: float    # 1/2 int q chi u^2
    nonlinear: float       # -kappa/p int |u|^p
    total: float


def eval_F(problem: Problem, u: np.ndarray, pair: PotentialPair) -> float:
    """The two-field energy at (u, phi); psi stands in for lap(phi).

    The linear term vanishes identically on zero-mean potentials but is kept
    so that trial potentials with nonzero mean are scored correctly.
    """
    g = problem.grid
    u = np.asarray(u, dtype=float)
    u2 = u * u
    value = 0.5 * dirichlet_energy(g, u)
    value += 0.5 * inner(g, problem.q * (pair.phi + problem.chi), u2)
    if problem.kappa != 0.0:
        value -= problem.kappa / problem.p * integrate(g, np.abs(u) ** problem.p)
    value -= 0.25 * inner(g, pair.psi, pair.psi)
    value -= 0.25 * dirichlet_energy(g, pair.phi)
    value -= 0.5 * problem.alpha / g.volume * integrate(g, pair.phi)
    return value


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
           pair: PotentialPair | None = None,
           metric: str = "l2") -> np.ndarray:
    """Gradient field of the reduced energy, zero on the boundary.

    metric "l2" returns the strong form
    ``-lap u + q (phi_u + chi) u - kappa |u|^(p-2) u``; metric "h10" returns
    its representer in the discrete H^1_0 inner product (one Dirichlet
    solve).  Odd in u: grad at -u is the exact negation of grad at u.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    g = problem.grid
    u = np.asarray(u, dtype=float)
    if pair is None:
        pair = phi_map(problem, u)
    out = -laplacian_dirichlet(g, u)
    out += problem.q * (pair.phi + problem.chi) * u
    if problem.kappa != 0.0:
        out -= problem.kappa * np.abs(u) ** (problem.p - 2.0) * u
    out[~g.interior_mask] = 0.0
    if metric == "h10":
        out = solve_poisson_dirichlet(g, out)
    return out


def gn_exponent_window(p: float, dim: int) -> tuple[float, float]:
    """Admissible interpolation exponents (lower, upper); may be empty.

    The window comes from interpolating the p-norm between the gradient norm
    and the L2 norm with the critical Sobolev exponent of the dimension; for
    dim < 3 the critical exponent is infinite and the window degenerates.
    """
    lower = p - 2.0
    if dim >= 3:
        s_crit = 2.0 * dim / (dim - 2.0)
        upper = dim * (1.0 - p / s_crit)
    else:
        upper = float(dim)
    return lower, upper


def gn_ratio(grid: Grid, u: np.ndarray, p: float, r: float) -> float:
    """Interpolation ratio int |u|^p / (|grad u|_2^(p-r) |u|_2^r).

    Scale invariant by construction (both sides are p-homogeneous).  Sampling
    it over states gives an empirical embedding constant used by the
    coercivity check in the tests.  A warning is issued when a nonempty
    admissible window exists for this dimension and ``r`` falls outside it.
    """
    if r <= 0:
        raise ValueError(f"exponent r must be positive, got {r}")
    lo, hi = gn_exponent_window(p, grid.dim)
    if lo < hi and not lo < r < hi:
        warnings.warn(
            f"exponent r={r} outside the admissible window ({lo:.4g}, {hi:.4g})",
            stacklevel=2,
        )
    num = integrate(grid, np.abs(u) ** p)
    de = dirichlet_energy(grid, u)
    l2 = norm_l2(grid, u)
    if de <= 0 or l2 <= 0:
        raise ValueError("gn_ratio needs a nonzero field with nonzero gradient")
    return num / (de ** ((p - r) / 2.0) * l2**r)
