"""Projected gradient descent on the constraint manifold.

Each iteration projects the chosen-metric gradient onto the tangent space of
M, steps against it, and retracts back with the two-parameter ansatz.  An
Armijo backtracking line search (with a rounding slack proportional to the
energy scale) keeps the reduced energy monotone; the step doubles after each
accepted iterate so the search is roughly scale free.

Convergence is always declared on the Sobolev-metric tangent gradient norm,
independent of the descent metric in use.  The L2 tangent residual is kept in
the iteration trace as a stationarity diagnostic: along a minimizing sequence
it is the quantity whose decay certifies that the limit solves the
Euler-Lagrange system with recoverable multipliers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateConstraints,
    DegenerateDirection,
    LineSearchStall,
    NewtonDivergence,
    NoConvergence,
    SingularMultiplierSystem,
    ZeroField,
)
from .functional import EnergyBreakdown, eval_J, grad_J
from .grid import dirichlet_energy, dirichlet_inner, inner, integrate, norm_l2
from .manifold import (
    _solve2,
    constraint_representers,
    genus_seeds,
    retract,
    sphere_samples,
    tangent_project,
)
from .problem import Problem
from .reduction import PotentialPair, phi_map
from .solvers import solve_poisson_dirichlet

__all__ = [
    "OptimizerOptions",
    "IterRecord",
    "SolveResult",
    "minimize_on_M",
    "recover_multipliers",
    "polish_positive",
    "excited_states",
]

_ARMIJO_SLACK = 1e-13


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the projected descent loop and the multi-start driver.

    metric: "h10" (default) preconditions the gradient by a Dirichlet solve;
        "l2" uses the plain nodal gradient.  Stopping is metric independent.
    grad_tol: threshold on the Sobolev tangent gradient norm.
    dedupe_l2 / dedupe_j: two states are duplicates when their sign-aligned
        L2 distance and their energy gap both fall below these.
    samples_per_family: extra random sphere combinations per genus family
        used as additional starts in ``excited_states``.
    """

    metric: str = "h10"
    grad_tol: float = 1e-7
    max_iterations: int = 5000
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    initial_step: float = 1.0
    min_step: float = 1e-14
    max_step: float = 1e3
    keep_trace: bool = False
    dedupe_l2: float = 1e-3
    dedupe_j: float = 1e-6
    samples_per_family: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.metric not in ("l2", "h10"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError(f"backtrack factor must be in (0, 1), got {self.backtrack}")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError(f"armijo_c must be in (0, 1), got {self.armijo_c}")


@dataclass(frozen=True)
class IterRecord:
    """One line of the iteration trace."""

    iteration: int
    j: float
    sobolev_grad: float
    l2_grad: float
    step: float
    dirichlet: float
    mass_p: float


@dataclass(frozen=True)
class SolveResult:
    u: np.ndarray
    j: float
    breakdown: EnergyBreakdown
    omega: float
    mu: float
    iterations: int
    converged: bool
    stop_reason: str
    grad_norm: float
    pair: PotentialPair
    trace: tuple[IterRecord, ...] = field(default=())


def _tangent_gradients(problem: Problem, u: np.ndarray, g_l2: np.ndarray,
                       metric: str) -> tuple[np.ndarray, float, float]:
    """Descent direction in ``metric`` plus both stationarity norms.

    Returns (tangent gradient in the descent metric, Sobolev tangent norm,
    L2 tangent norm).  The Sobolev norm is computed from the Dirichlet-solve
    preconditioned gradient regardless of the descent metric.
    """
    grid = problem.grid
    g_h = solve_poisson_dirichlet(grid, g_l2)
    reps_h = constraint_representers(problem, u, "h10")
    gt_h = tangent_project(problem, u, g_h, "h10", reps=reps_h)
    sob = float(np.sqrt(max(dirichlet_inner(grid, gt_h, gt_h), 0.0)))
    gt_l2 = tangent_project(problem, u, g_l2, "l2")
    l2n = norm_l2(grid, gt_l2)
    gt = gt_h if metric == "h10" else gt_l2
    return gt, sob, l2n


def minimize_on_M(problem: Problem,
                  u0: np.ndarray,
                  opts: OptimizerOptions | None = None) -> SolveResult:
    """Armijo projected descent from ``u0`` until the Sobolev tangent
    gradient norm drops below ``opts.grad_tol``.

    Raises ``LineSearchStall`` when backtracking hits ``min_step`` without an
    acceptable decrease; hitting ``max_iterations`` returns the best iterate
    flagged ``converged=False`` instead of raising.
    """
    return _minimize(problem, u0, opts or OptimizerOptions())


def _minimize(problem: Problem, u0: np.ndarray, opts: OptimizerOptions) -> SolveResult:
    grid = problem.grid
    u = retract(problem, np.asarray(u0, dtype=float))
    pair = phi_map(problem, u)
    j, breakdown = eval_J(problem, u, pair)
    step = opts.initial_step
    trace: list[IterRecord] = []
    sob = np.inf
    converged = False
    reason = "max_iterations"
    iterations = 0
    metric_inner = (lambda a, b: dirichlet_inner(grid, a, b)) \
        if opts.metric == "h10" else (lambda a, b: inner(grid, a, b))
    prev_u: np.ndarray | None = None
    prev_gt: np.ndarray | None = None

    for it in range(opts.max_iterations):
        g_l2 = grad_J(problem, u, pair, metric="l2")
        gt, sob, l2n = _tangent_gradients(problem, u, g_l2, opts.metric)
        if opts.keep_trace:
            trace.append(IterRecord(
                iteration=it, j=j, sobolev_grad=sob, l2_grad=l2n, step=step,
                dirichlet=dirichlet_energy(grid, u),
                mass_p=integrate(grid, np.abs(u) ** problem.p),
            ))
        if sob <= opts.grad_tol:
            converged = True
            reason = "grad_tol"
            break
        decrease_rate = metric_inner(gt, gt)
        if decrease_rate <= 0.0:
            reason = "zero_tangent_direction"
            break

        # Spectral (Barzilai-Borwein) trial step from the last displacement
        # and gradient change; falls back to growing the accepted step.  The
        # monotone Armijo test below safeguards it.
        t = min(2.0 * step, opts.max_step)
        if prev_u is not None:
            s = u - prev_u
            y = gt - prev_gt
            sy = metric_inner(s, y)
            if sy > 0.0:
                ss = metric_inner(s, s)
                t = min(max(ss / sy, opts.min_step), opts.max_step)
        prev_u, prev_gt = u, gt

        slack = _ARMIJO_SLACK * (1.0 + abs(j))
        accepted = False
        while t >= opts.min_step:
            try:
                u_try = retract(problem, u - t * gt)
            except (NewtonDivergence, DegenerateDirection, ZeroField):
                t *= opts.backtrack
                continue
            pair_try = phi_map(problem, u_try)
            j_try, breakdown_try = eval_J(problem, u_try, pair_try)
            if j_try <= j - opts.armijo_c * t * decrease_rate + slack:
                u, pair, j, breakdown = u_try, pair_try, j_try, breakdown_try
                step = t
                accepted = True
                break
            t *= opts.backtrack
        iterations = it + 1
        if not accepted:
            raise LineSearchStall(
                f"no acceptable step above {opts.min_step:g} at iteration {it} "
                f"(J={j:.12g}, sobolev grad={sob:.3e})"
            )

    if not converged and reason == "max_iterations":
        g_l2 = grad_J(problem, u, pair, metric="l2")
        _, sob, _ = _tangent_gradients(problem, u, g_l2, opts.metric)
        if sob <= opts.grad_tol:
            converged = True
            reason = "grad_tol"

    omega, mu = recover_multipliers(problem, u, pair)
    return SolveResult(
        u=u, j=j, breakdown=breakdown, omega=omega, mu=mu,
        iterations=iterations, converged=converged, stop_reason=reason,
        grad_norm=float(sob), pair=pair, trace=tuple(trace),
    )


def recover_multipliers(problem: Problem, u: np.ndarray,
                        pair: PotentialPair | None = None) -> tuple[float, float]:
    """Lagrange multipliers (omega, mu) from the stationarity system.

    Pairing the unconstrained gradient with u and with q u gives a 2x2 system
    with matrix [[1, -alpha], [alpha, -s]], s = integrate(q^2 u^2).  The
    system is singular exactly when q u is proportional to u on the support
    of u (Cauchy-Schwarz equality), e.g. for constant coupling; that raises
    ``SingularMultiplierSystem``.
    """
    grid = problem.grid
    if pair is None:
        pair = phi_map(problem, u)
    g_l2 = grad_J(problem, u, pair, metric="l2")
    qu = problem.q * u
    r1 = inner(grid, g_l2, u)
    r2 = inner(grid, g_l2, qu)
    s = inner(grid, qu, qu)
    alpha = problem.alpha
    det = alpha * alpha - s
    if abs(det) <= 1e-12 * (1.0 + s + alpha * alpha):
        raise SingularMultiplierSystem(
            f"multiplier system is singular (integrate(q^2 u^2)={s:.6g}, "
            f"alpha^2={alpha * alpha:.6g}); q u is parallel to u"
        )
    omega, mu = _solve2(1.0, -alpha, alpha, -s, r1, r2)
    return float(omega), float(mu)


def polish_positive(problem: Problem, result: SolveResult,
                    opts: OptimizerOptions | None = None,
                    floor: float = -1e-8) -> SolveResult:
    """Replace a converged state by a signed-mass-preserving nonnegative one.

    |u| leaves both constraint integrals and every term of the reduced energy
    unchanged except the Dirichlet term, which cannot increase on the grid
    (the slopes of |u| are dominated nodewise).  Re-minimizing from the
    folded state therefore lands at an energy no larger than the input's.
    """
    opts = opts or OptimizerOptions()
    res = result
    for _ in range(4):
        if float(res.u.min()) >= floor:
            return res
        folded = retract(problem, np.abs(res.u))
        res = _minimize(problem, folded, opts)
    return res


def _l2_sign_distance(grid, a: np.ndarray, b: np.ndarray) -> float:
    return min(norm_l2(grid, a - b), norm_l2(grid, a + b))


def _dedupe(grid, results: list[SolveResult],
            opts: OptimizerOptions) -> list[SolveResult]:
    kept: list[SolveResult] = []
    for res in sorted(results, key=lambda r: r.j):
        duplicate = any(
            _l2_sign_distance(grid, res.u, other.u) <= opts.dedupe_l2
            and abs(res.j - other.j) <= opts.dedupe_j
            for other in kept
        )
        if not duplicate:
            kept.append(res)
    return kept


def excited_states(problem: Problem, k: int,
                   opts: OptimizerOptions | None = None) -> list[SolveResult]:
    """Distinct converged states from genus-style multi-start, sorted by J.

    Starts are the slab seed families for genus 1..k plus random sphere
    combinations of each multi-bump family.  Runs that stall in the line
    search or hit the iteration cap are dropped with a warning; survivors are
    deduplicated up to sign using the L2/energy thresholds in ``opts``.  The
    returned list is non-decreasing in both J and the Dirichlet energy:
    states that would break the energy trend are dropped.
    """
    opts = opts or OptimizerOptions()
    rng = np.random.default_rng(opts.seed)
    starts: list[np.ndarray] = []
    for genus in range(1, k + 1):
        try:
            seeds = genus_seeds(problem, genus)
        except Exception as exc:
            if genus == 1:
                raise
            warnings.warn(
                f"stopping seed generation at genus {genus}: {exc}",
                stacklevel=2,
            )
            break
        starts.extend(seeds)
        if genus > 1 and opts.samples_per_family > 0:
            starts.extend(sphere_samples(problem, seeds, opts.samples_per_family, rng))

    results: list[SolveResult] = []
    failures = 0
    for u0 in starts:
        try:
            res = _minimize(problem, u0, opts)
        except (LineSearchStall, DegenerateConstraints, DegenerateDirection,
                NewtonDivergence, SingularMultiplierSystem, NoConvergence) as exc:
            failures += 1
            warnings.warn(f"start discarded: {exc}", stacklevel=2)
            continue
        if res.converged:
            results.append(res)
        else:
            failures += 1
    if failures:
        warnings.warn(
            f"{failures} of {len(starts)} starts did not converge",
            stacklevel=2,
        )
    kept = _dedupe(problem.grid, results, opts)
    trend: list[tuple[SolveResult, float]] = []
    for res in kept:
        de = dirichlet_energy(problem.grid, res.u)
        if trend and de < trend[-1][1] * (1.0 - 1e-12):
            continue
        trend.append((res, de))
    kept = [res for res, _ in trend]
    if len(kept) < k:
        warnings.warn(
            f"found {len(kept)} distinct states from genus targets up to {k}",
            stacklevel=2,
        )
    return kept
