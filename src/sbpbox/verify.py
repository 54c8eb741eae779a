"""A-posteriori checks against the original strong-form system.

A converged reduced state (u, omega, mu) is certified by reconstructing the
full potential phi = phi_u + chi + mu and measuring, with discretizations
that are independent of the ones used during optimization where possible,
in this order:

  * both flux conditions through one-sided second-order boundary derivatives
    of phi and z = lap phi, which are then freed;
  * the fourth-order potential equation through the native factored stencils
    (this one certifies the splitting plumbing and the exact solves);
  * the single-particle equation through a wide fourth-order Laplacian
    stencil on the deep interior (independent of the optimizer's three-point
    stencil, so agreement is evidence rather than tautology), then through
    the three-point stencil, both from the shared term (q phi - omega) u;
  * the two constraint integrals.

The audit holds one residual field at a time: each is reduced to its norm
and freed before the next, and each stencil works in one scratch field, so
it holds at most four fields beyond its inputs (and NumPy's buffers).

The audit runs on the grid of the problem it is given: the box, or the
mirror sector that ``build_problem`` chose, where a descent left u and phi.
There it applies the box's discretizations: it skips each face past a
mirror node, the image of the face at x_a = 0, compares every other face
with the sector's part of its data (as ``grid.neumann_flux_field`` does),
and the wide stencil reads the two planes past a mirror node from their
images.  Its node values are the box's on the sector's nodes to rounding
and its sums take them in another order, so its residuals are the box
audit's to rounding; ``n`` is the box's node counts.

``dense_oracle_compare`` cross-checks every spectral solve against LU
factorizations of explicitly assembled matrices; ``dense_kkt_polish`` runs a
dense Newton iteration on the full stationarity system, giving an
optimizer-independent value for (u, omega, mu, J).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dense import (
    check_size,
    dirichlet_laplacian_matrix,
    neumann_laplacian_matrix,
    solve_fourth_order_dense,
    solve_helmholtz_dense,
    solve_poisson_dirichlet_dense,
    solve_poisson_neumann_dense,
    weight_vector,
)
from .errors import SbpError
from .functional import eval_J
from .grid import (
    BoundaryData,
    Grid,
    laplacian_dirichlet,
    laplacian_neumann,
    mean,
    norm_l2,
)
from .manifold import constraint_values
from .problem import Problem
from .reduction import phi_map
from .solvers import (
    solve_fourth_order_split,
    solve_helmholtz_neumann,
    solve_poisson_dirichlet,
    solve_poisson_neumann_zeromean,
)

__all__ = [
    "ResidualReport",
    "SUMMARY_COLUMNS",
    "reconstruct_phi",
    "residual_original_system",
    "write_summary",
    "DenseOracleReport",
    "dense_oracle_compare",
    "dense_kkt_polish",
]

SUMMARY_COLUMNS = ("n", "h", "J", "omega", "mu", "eq1_res", "eq2_res",
                   "bc_res", "norm_res", "compat_res", "iters")

# Stopping rule of ``dense_kkt_polish``: residual max-norm relative to
# 1 + |a_dir|_inf |u0|_inf, and the Newton step cap.
_KKT_TOL = 1e-12
_KKT_MAX_NEWTON = 40


def reconstruct_phi(problem: Problem, phi: np.ndarray, mu: float) -> np.ndarray:
    """Full potential: state-dependent part plus boundary lift plus gauge."""
    out = phi + problem.chi
    out += mu
    return out


def _laplacian4(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Fourth-order five-point-per-axis Laplacian on the deep interior (two
    cells from every face), zero elsewhere.  Each axis's term is formed in two
    buffers over half the deep rows along axis 0 at a time: one field in all.
    On a mirror sector the rows run through the mirror node, which reads the
    two planes past it from their mirror images, the box's rows there."""
    lap = np.zeros_like(f)
    if grid.mirror:
        f = np.pad(f, [(0, 2 * (a in grid.mirror)) for a in range(grid.dim)], mode="reflect")
    n0, rows = f.shape[0], max((f.shape[0] - 3) // 2, 1)
    bufs = np.empty([2, rows] + [max(m - 4, 0) for m in f.shape[1:]])
    for r in range(2, n0 - 2, rows):
        part = [slice(r, min(r + rows, n0 - 2))] + [slice(2, m - 2) for m in f.shape[1:]]
        s, t = bufs[:, :part[0].stop - r]
        for a in range(grid.dim):
            def at(k: int) -> np.ndarray:
                idx = list(part)
                idx[a] = slice(part[a].start + k, part[a].stop + k)
                return f[tuple(idx)]

            # (-at(-2) + 16 at(-1) - 30 at(0) + 16 at(1) - at(2)) / (12 h^2) in order
            np.subtract(np.multiply(at(-1), 16.0, out=s), at(-2), out=s)
            s -= np.multiply(at(0), 30.0, out=t)
            s += np.multiply(at(1), 16.0, out=t)
            s -= at(2)
            s /= 12.0 * grid.h[a] ** 2
            lap[tuple(part)] += s
    return lap


def _one_sided_normal_derivative(grid: Grid, f: np.ndarray,
                                 axis: int, side: int) -> np.ndarray:
    """Outward normal derivative on a face, one-sided second order:
    (3 f0 - 4 f1 + f2) / (2 h) along the outward direction."""
    f0, f1, f2 = (np.take(f, -1 - k if side else k, axis=axis) for k in range(3))
    return (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * grid.h[axis])


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of one state against the original system."""

    n: tuple[int, ...]
    h: float
    j: float
    omega: float
    mu: float
    eq1_res: float
    eq1_res_native: float
    eq2_res: float
    bc_res: float
    bc_res_second: float
    norm_res: float
    compat_res: float
    iters: int

    def row(self) -> dict[str, object]:
        """The ``SUMMARY_COLUMNS`` of this state: floats as their repr."""
        row = {col: repr(getattr(self, col.lower())) for col in SUMMARY_COLUMNS[1:-1]}
        return {"n": "x".join(str(m) for m in self.n), **row, "iters": str(self.iters)}


def residual_original_system(problem: Problem, u: np.ndarray, phi: np.ndarray,
                             omega: float, mu: float, j: float | None = None,
                             iterations: int = 0) -> ResidualReport:
    """Measure (u, omega, mu) against the strong equations and side conditions.

    eq1_res uses the wide fourth-order stencil over the deep interior (its
    own truncation error decays like h^2 times the solution regularity, so
    refinement should show second order); eq1_res_native uses the three-point
    stencil that the optimizer's Dirichlet solve inverts, and should sit at
    the optimizer's stopping tolerance.  eq2_res applies the two factored
    native stencils to the reconstructed potential.  bc_res is the worst
    absolute flux mismatch over all faces for the potential itself,
    bc_res_second the same for its Laplacian field.  The fields are formed
    in the order of the module docstring, each freed after its last use.
    """
    grid, q = problem.grid, problem.q
    phi_full = reconstruct_phi(problem, phi, mu)
    shared = np.multiply(q, phi_full)  # (q phi_full - omega) u
    shared -= omega
    shared *= u
    z = laplacian_neumann(grid, phi_full, problem.h1)
    bc1 = bc2 = 0.0
    for axis, side in grid.faces():
        if side and axis in grid.mirror:
            continue  # the mirror image of the face at x_axis = 0
        # The sector's part of the face's data, as in ``neumann_flux_field``.
        cut = tuple(slice(0, m) for j, m in enumerate(grid.n) if j != axis)
        d_phi = _one_sided_normal_derivative(grid, phi_full, axis, side)
        d_z = _one_sided_normal_derivative(grid, z, axis, side)
        bc1 = max(bc1, float(np.max(np.abs(d_phi - problem.h1.face(axis, side)[cut]))))
        bc2 = max(bc2, float(np.max(np.abs(d_z - problem.h2.face(axis, side)[cut]))))
    del phi_full
    field = laplacian_neumann(grid, z, problem.h2)  # - z - q u u
    field -= z
    field -= np.multiply(np.multiply(q, u, out=z), u, out=z)  # q u u in z
    del z
    eq2 = norm_l2(grid, field)
    del field
    nonlin = np.abs(u)  # kappa |u|^(p - 2) u
    nonlin **= problem.p - 2.0
    nonlin *= problem.kappa
    nonlin *= u

    def eq1_norm(field: np.ndarray, rows: tuple) -> float:
        # -lap u + shared - nonlin, formed in field = lap u on its rows
        part = field[rows]
        np.negative(part, out=part)
        part += shared[rows]
        part -= nonlin[rows]
        return norm_l2(grid, field)

    deep = tuple(slice(2, None if a in grid.mirror else -2) for a in range(grid.dim))
    eq1 = eq1_norm(_laplacian4(grid, u), deep)
    eq1_native = eq1_norm(laplacian_dirichlet(grid, u), grid.interior)
    del shared, nonlin
    c1, c2 = constraint_values(problem, u)
    if j is None:
        j = eval_J(problem, u, phi)
    return ResidualReport(
        n=grid.box_n, h=float(max(grid.h)), j=float(j), omega=float(omega),
        mu=float(mu), eq1_res=float(eq1), eq1_res_native=float(eq1_native),
        eq2_res=float(eq2), bc_res=float(bc1), bc_res_second=float(bc2),
        norm_res=abs(c1), compat_res=abs(c2),
        iters=int(iterations),
    )


def write_summary(path, reports: Sequence[ResidualReport]) -> None:
    """Summary table, one row per state/grid, fixed column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for rep in reports:
            writer.writerow(rep.row())


# ---------------------------------------------------------------------------
# Dense oracles.


@dataclass(frozen=True)
class DenseOracleReport:
    """Worst relative discrepancies between spectral and dense solves."""

    helmholtz: float
    poisson_neumann: float
    poisson_dirichlet: float
    split_phi: float
    state_potential: float
    nullspace_sigma: float
    nullspace_gap: float

    def max_discrepancy(self) -> float:
        return max(self.helmholtz, self.poisson_neumann, self.poisson_dirichlet,
                   self.split_phi, self.state_potential)


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


def dense_oracle_compare(problem: Problem, seed: int = 0) -> DenseOracleReport:
    """Cross-check every spectral solve against assembled-matrix LU solves.

    Random data; both sides are direct solves, so the discrepancies sit at
    rounding level.  Also reports
    the two smallest singular values of the symmetrized Neumann Laplacian:
    the first certifies the constant nullspace, the second (the spectral gap)
    certifies that projection onto mean-zero fields removes it.
    """
    grid = problem.grid
    check_size(grid)
    rng = np.random.default_rng(seed)

    f = rng.standard_normal(grid.shape)
    zero = BoundaryData.zero(grid)

    helm = _rel(solve_helmholtz_neumann(grid, f, zero), solve_helmholtz_dense(grid, -f))

    f0 = f - mean(grid, f)
    pois_n = _rel(solve_poisson_neumann_zeromean(grid, f0, zero),
                  solve_poisson_neumann_dense(grid, f0))

    fd = rng.standard_normal(grid.shape)
    fd[~grid.interior_mask] = 0.0
    pois_d = _rel(solve_poisson_dirichlet(grid, fd), solve_poisson_dirichlet_dense(grid, fd))

    fs = rng.standard_normal(grid.shape)
    split_phi = _rel(solve_fourth_order_split(grid, fs),
                     solve_fourth_order_dense(grid, fs))

    u = rng.standard_normal(grid.shape)
    u[~grid.interior_mask] = 0.0
    u /= norm_l2(grid, u)
    state_pot = _rel(phi_map(problem, u),
                     solve_fourth_order_dense(grid, problem.q * u * u))

    a_neu = neumann_laplacian_matrix(grid)
    w_vec = weight_vector(grid)
    sym = np.sqrt(w_vec)[:, None] * a_neu / np.sqrt(w_vec)[None, :]
    sym = 0.5 * (sym + sym.T)
    eigs = np.sort(np.abs(np.linalg.eigvalsh(sym)))
    return DenseOracleReport(
        helmholtz=helm, poisson_neumann=pois_n, poisson_dirichlet=pois_d,
        split_phi=split_phi, state_potential=state_pot,
        nullspace_sigma=float(eigs[0] / max(eigs[-1], 1.0)),
        nullspace_gap=float(eigs[1]),
    )


def dense_kkt_polish(problem: Problem,
                     u0: np.ndarray,
                     omega0: float,
                     mu0: float) -> tuple[np.ndarray, float, float, float]:
    """Newton on the full dense stationarity system from a converged state.

    Unknowns are the interior nodal values of u plus (omega, mu); the
    equations are the strong single-particle equation with the exact dense
    source-to-potential map (whose u-derivative enters the Jacobian as a
    dense block) and the two constraints.  Returns (u, omega, mu, J) with J
    evaluated through the dense potential, fully independent of the
    spectral pipeline.  Raises ``SbpError`` if the residual fails
    to reach ``_KKT_TOL`` times 1 + |a_dir|_inf |u0|_inf within
    ``_KKT_MAX_NEWTON`` steps.
    """
    grid = problem.grid
    check_size(grid)
    q = problem.q.ravel()
    chi = problem.chi.ravel()
    w_vec = weight_vector(grid)
    a_dir = -dirichlet_laplacian_matrix(grid)
    lmat = solve_fourth_order_dense(grid, np.eye(grid.node_count))
    interior = grid.interior_mask.ravel()
    idx = np.flatnonzero(interior)
    ni = idx.size
    kappa, p, alpha = problem.kappa, problem.p, problem.alpha

    u = np.asarray(u0, dtype=float).ravel().copy()
    u[~interior] = 0.0
    omega, mu = float(omega0), float(mu0)

    def phi_of(uv: np.ndarray) -> np.ndarray:
        return lmat @ (q * uv * uv)

    def residual(uv, om, mv):
        phi = phi_of(uv)
        grad = (a_dir @ uv + q * (phi + chi) * uv
                - kappa * np.abs(uv) ** (p - 2.0) * uv - om * uv + mv * q * uv)
        r = np.empty(ni + 2)
        r[:ni] = grad[idx]
        r[ni] = w_vec @ (uv * uv) - 1.0
        r[ni + 1] = w_vec @ (q * uv * uv) - alpha
        return r, phi

    r, phi = residual(u, omega, mu)
    # Rounding in a_dir @ u alone leaves a residual of order
    # eps * |a_dir|_inf * |u|_inf, which grows like 1/h^2.
    bound = _KKT_TOL * (1.0 + float(np.max(np.sum(np.abs(a_dir), axis=1)))
                        * float(np.max(np.abs(u))))
    for _ in range(_KKT_MAX_NEWTON):
        if float(np.max(np.abs(r))) <= bound:
            break
        dphi = lmat * (2.0 * q * u)[None, :]
        jac_u = (a_dir
                 + np.diag(q * (phi + chi) - omega + mu * q
                           - kappa * (p - 1.0) * np.abs(u) ** (p - 2.0))
                 + (q * u)[:, None] * dphi)
        jac = np.zeros((ni + 2, ni + 2))
        jac[:ni, :ni] = jac_u[np.ix_(idx, idx)]
        jac[:ni, ni] = -u[idx]
        jac[:ni, ni + 1] = (q * u)[idx]
        jac[ni, :ni] = 2.0 * (w_vec * u)[idx]
        jac[ni + 1, :ni] = 2.0 * (w_vec * q * u)[idx]
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise SbpError("singular dense stationarity Jacobian") from exc
        u[idx] += delta[:ni]
        omega += float(delta[ni])
        mu += float(delta[ni + 1])
        r, phi = residual(u, omega, mu)
    else:
        raise SbpError(
            f"dense stationarity Newton stalled at residual {np.max(np.abs(r)):.3e}"
        )

    u_grid = u.reshape(grid.shape)
    j_dense = eval_J(problem, u_grid, phi.reshape(grid.shape))
    return u_grid, omega, mu, float(j_dense)
