"""Projected gradient descent on the constraint manifold.

Descent runs in the discrete H^1_0 metric: each iteration takes the gradient
u + S(w), with S the Dirichlet solve and w the derivative-free terms of grad J
(no stencil), projects it onto the tangent space of M, steps against it, and
retracts back with the two-parameter ansatz.  Gradient and projection work
on the DST-I coefficients of u, q u and w and take one inverse transform,
which gives the physical gradient for the trial step.  The loop's H^1_0
products, the decrease rate |g|^2 and the BB terms sy and yy, are sums over
modes of sigma a_hat b_hat (see ``_tangent_gradient``), and so is the
Dirichlet term of J (``eval_J`` keeps the finite-difference form).  Each
trial point is evaluated once, and the next pass reuses its coefficients
of u (``_evaluate``).
The trial step is the short Barzilai-Borwein step sy / yy (Barzilai &
Borwein, IMA J. Numer. Anal. 8, 1988; twice the last accepted step when it
is undefined), and a nonmonotone Armijo backtracking line search safeguards
it: a trial is tested against the Zhang-Hager reference value C, a weighted
mean of the merits accepted so far, instead of the current merit.

The merit is the Lagrangian m = J - (lam c1 + beta c2) / 2, with (c1, c2)
the constraint residuals of the trial and (lam, beta) the coefficients of
the current tangent projection.  The retraction leaves residuals up to
about 1e-13, which move J off the Armijo model by up to (|lam| + |beta|)
times that, so a test on J alone stalls once the squared gradient falls
below that level; the merit cancels the error to first order.  Every
accepted merit lies at or below the C before it, and C never exceeds the
starting merit.  The multipliers of the returned state are the
coefficients of its last projection: omega = lam, mu = -beta.

Convergence is declared on the Sobolev tangent gradient norm, whose square is
the Armijo decrease rate.  Every run returns a ``SolveResult``; its
``stop_reason`` is ``grad_tol`` (converged), ``max_iterations`` (the cap was
reached) or ``line_search_stall`` (backtracking fell below ``_MIN_STEP``).
With ``keep_trace`` each gradient evaluation records the energy, that norm
and the step last accepted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleRegion, ManifoldError, SbpError
from .grid import norm_l2, require_zero_boundary
from .manifold import _project_dst, genus_seeds, retract
from .problem import Problem
from .reduction import phi_map
from .solvers import _dst_interior, _from_dst_interior, _symbols

__all__ = [
    "OptimizerOptions",
    "IterRecord",
    "SolveResult",
    "minimize_on_M",
    "polish_positive",
    "excited_states",
]

_ARMIJO_C = 1e-4
# Weight of the past in the Zhang-Hager reference value; 0 is monotone Armijo.
_ZH_ETA = 0.85
_BACKTRACK = 0.5
_INITIAL_STEP = 1.0
_MIN_STEP = 1e-14
_MAX_STEP = 1e3
# ``polish_positive`` folds a state whose minimum lies below this.
_POSITIVE_FLOOR = -1e-8
# Two states are duplicates when their sign-aligned L2 distance and their
# energy gap both fall below these.
_DEDUPE_L2 = 1e-3
_DEDUPE_J = 1e-6


@dataclass(frozen=True)
class OptimizerOptions:
    """Settings of the projected descent loop, used for every start.

    grad_tol: threshold on the Sobolev tangent gradient norm, in (0, inf).
    max_iterations: descent iterations per start before giving up, >= 0.
    keep_trace: record an ``IterRecord`` per iteration in ``SolveResult``.
    """

    grad_tol: float = 1e-7
    max_iterations: int = 5000
    keep_trace: bool = False

    def __post_init__(self):
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must lie in (0, inf), got {self.grad_tol}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")


@dataclass(frozen=True)
class IterRecord:
    """One line of the iteration trace."""

    iteration: int
    j: float
    sobolev_grad: float
    step: float


@dataclass(frozen=True)
class SolveResult:
    u: np.ndarray
    j: float
    omega: float
    mu: float
    iterations: int
    stop_reason: str
    grad_norm: float
    phi: np.ndarray
    trace: tuple[IterRecord, ...] = field(default=())

    @property
    def converged(self) -> bool:
        return self.stop_reason == "grad_tol"


def minimize_on_M(problem: Problem,
                  u0: np.ndarray,
                  opts: OptimizerOptions | None = None) -> SolveResult:
    """Projected BB descent with a nonmonotone (Zhang-Hager) Armijo line
    search on the merit from ``u0`` until the Sobolev tangent gradient norm
    drops below ``opts.grad_tol``.  The merit may rise between iterates, but
    never above the merit of the retracted start.  ``omega`` and ``mu`` are
    the multipliers of the last tangent projection, at the returned iterate.

    Hitting ``max_iterations``, or backtracking below ``_MIN_STEP`` without an
    acceptable decrease, returns the current iterate and its gradient norm
    flagged ``converged=False``; ``stop_reason`` says which.
    """
    return _minimize(problem, u0, opts or OptimizerOptions())


def _minimize(problem: Problem, u0: np.ndarray, opts: OptimizerOptions) -> SolveResult:
    grid = problem.grid
    u = retract(problem, require_zero_boundary(grid, u0))
    phi, u_hat, j, c1, c2 = _evaluate(problem, u)
    step = _INITIAL_STEP
    trace: list[IterRecord] = []
    reason = "max_iterations"
    sym = _symbols(grid)
    sigma = sym.dirichlet
    # dirichlet_inner(a, b) = sum(sigma a_hat b_hat) * prod h / scale for
    # fields that vanish on the boundary (see ``_tangent_gradient``).
    metric = math.prod(grid.h) / sym.scale
    # The coefficients of the last pass, kept for the BB step in two buffers
    # allocated once: arrays that outlive the line search's temporaries
    # fragment the heap, which raised peak RSS by up to 0.2 MB on refine-2d.
    prev_u_hat = np.empty(sigma.shape)
    prev_gt_hat = np.empty(sigma.shape)
    gt = np.zeros(grid.shape)  # the physical gradient, zero on the boundary

    # Pass ``it`` follows ``it`` accepted steps.  The last pass only tests
    # convergence, so every exit reports the gradient and the multipliers at
    # the returned iterate.
    for it in range(opts.max_iterations + 1):
        iterations = it
        lam, beta, gt_hat = _tangent_gradient(problem, u, phi, u_hat, gt)
        decrease_rate = metric * float(np.vdot(sigma * gt_hat, gt_hat))
        sob = math.sqrt(decrease_rate)
        if opts.keep_trace:
            trace.append(IterRecord(iteration=it, j=j, sobolev_grad=sob, step=step))
        if sob <= opts.grad_tol:
            reason = "grad_tol"
            break
        if it == opts.max_iterations:
            break
        if it == 0:
            ref_c, ref_q = j - 0.5 * (lam * c1 + beta * c2), 1.0

        # Short Barzilai-Borwein trial step sy / yy from the last
        # displacement s and gradient change y; the long step ss / sy
        # overshoots here and takes about a quarter more iterations.  Falls
        # back to growing the accepted step.  The nonmonotone Armijo test
        # below, against the Zhang-Hager reference value ref_c, safeguards it.
        # Both products are sums over modes, formed in place in the buffers
        # of the last pass; their common factor metric cancels.
        t = min(2.0 * step, _MAX_STEP)
        if it > 0:
            s_hat = np.subtract(u_hat, prev_u_hat, out=prev_u_hat)
            y_hat = np.subtract(gt_hat, prev_gt_hat, out=prev_gt_hat)
            sy = float(np.vdot(np.multiply(s_hat, sigma, out=s_hat), y_hat))
            if sy > 0.0:
                yy = float(np.vdot(np.multiply(y_hat, sigma, out=s_hat), y_hat))
                t = min(max(sy / yy, _MIN_STEP), _MAX_STEP)
        np.copyto(prev_u_hat, u_hat)
        np.copyto(prev_gt_hat, gt_hat)
        del u_hat, gt_hat  # only the buffers live through the line search

        while t >= _MIN_STEP:
            try:
                u_try = retract(problem, u - t * gt)
            except ManifoldError:
                t *= _BACKTRACK
                continue
            phi_try, u_hat_try, j_try, c1, c2 = _evaluate(problem, u_try)
            m_try = j_try - 0.5 * (lam * c1 + beta * c2)
            if m_try <= ref_c - _ARMIJO_C * t * decrease_rate:
                u, phi, j, u_hat = u_try, phi_try, j_try, u_hat_try
                step = t
                q_old, ref_q = ref_q, _ZH_ETA * ref_q + 1.0
                ref_c = (_ZH_ETA * q_old * ref_c + m_try) / ref_q
                break
            t *= _BACKTRACK
        else:
            reason = "line_search_stall"
            break

    return SolveResult(
        u=u, j=j, omega=lam, mu=-beta,
        iterations=iterations, stop_reason=reason,
        grad_norm=sob, phi=phi, trace=tuple(trace),
    )


def _evaluate(problem: Problem, u: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """(phi, u_hat, J, c1, c2) at a trial point u: ``phi_map(problem, u)``,
    the DST-I coefficients of u, the reduced energy and the residuals of
    ``constraint_values``.  J's other terms and the residuals are dots of
    one weighted square w = weights u^2; its Dirichlet term is the mode sum
    sum(sigma u_hat^2) * prod h / scale (see ``_tangent_gradient``), which
    equals the finite-difference form of ``eval_J`` to rounding.
    """
    grid = problem.grid
    sym = _symbols(grid)
    phi = phi_map(problem, u)
    u_hat = _dst_interior(grid, u)
    w = grid.weights * u * u
    j = (0.5 * float(np.vdot(sym.dirichlet * u_hat, u_hat)) * math.prod(grid.h) / sym.scale
         + 0.25 * float(np.vdot(w * problem.q, phi))
         + 0.5 * float(np.vdot(w, problem.q_chi)))
    if problem.kappa != 0.0:
        j -= problem.kappa / problem.p * float(np.vdot(w, np.abs(u) ** (problem.p - 2.0)))
    return phi, u_hat, j, float(w.sum()) - 1.0, float(np.vdot(w, problem.q)) - problem.alpha


def _tangent_gradient(problem: Problem, u: np.ndarray, phi: np.ndarray,
                      u_hat: np.ndarray, out: np.ndarray
                      ) -> tuple[float, float, np.ndarray]:
    """The descent direction ``tangent_project(problem, u, u + S(w))``, with S
    the Dirichlet solve and w = ``zeroth_order_grad``: u + S(w) = S(grad J),
    since S inverts the stencil of -lap exactly.  ``u_hat`` are the DST-I
    coefficients of u.  Writes the direction into the interior of ``out``
    and returns (lam, beta, gt_hat): the projection's coefficients, the
    multipliers of grad J on (u, q u) (see ``_project_dst``), and the
    DST-I coefficients of the direction.

    The gradient's coefficients are u_hat + w_hat / sigma, so the gradient
    and the projection take the transforms of q u and w and one inverse.
    With the coefficients the descent forms its H^1_0 products as sums over
    modes: the transform T is symmetric with T T = scale and diagonalizes
    the stencil of -lap with symbol sigma, so for fields a, b that vanish on
    the boundary dirichlet_inner(a, b) = sum(sigma a_hat b_hat) * prod h /
    scale.
    """
    grid = problem.grid
    qu = problem.q * u  # shared by w and the projection
    w = qu * (phi + problem.chi)
    w -= problem.kappa * np.abs(u) ** (problem.p - 2.0) * u
    g_hat = _dst_interior(grid, w)
    g_hat /= _symbols(grid).dirichlet
    g_hat += u_hat
    gt_hat, lam, beta = _project_dst(problem, u_hat, _dst_interior(grid, qu), g_hat)
    _from_dst_interior(grid, gt_hat, out)
    return lam, beta, gt_hat


def polish_positive(problem: Problem, result: SolveResult,
                    opts: OptimizerOptions | None = None) -> SolveResult:
    """Replace a converged state by a nonnegative one of no larger energy.

    A state whose minimum is at least ``_POSITIVE_FLOOR`` is returned as is.
    Otherwise one descent runs from |u|, and its result is returned.  |u|
    leaves both constraint integrals and every term of the reduced energy
    unchanged except the Dirichlet term, which cannot increase on the grid
    (the slopes of |u| are dominated nodewise).  The descent from the folded
    state therefore lands at an energy no larger than the input's, up to
    rounding: the line search is nonmonotone, but each accepted merit m_k
    lies at or below the reference value C_{k-1}, a weighted mean of
    m_0..m_{k-1}, so by induction every m_k <= C_{k-1} <= m_0, and the merit
    differs from J only by the multipliers times constraint residuals at
    rounding level.  The descent is not repeated: a result that still dips
    below the floor shows in ``min_u`` of the command line's report.
    """
    if float(result.u.min()) >= _POSITIVE_FLOOR:
        return result
    return _minimize(problem, np.abs(result.u), opts or OptimizerOptions())


def _l2_sign_distance(grid, a: np.ndarray, b: np.ndarray) -> float:
    return min(norm_l2(grid, a - b), norm_l2(grid, a + b))


def _dedupe(grid, results: list[SolveResult]) -> list[SolveResult]:
    """Keep the lowest-J representative of each state up to sign, sorted by J.

    The thresholds are ``_DEDUPE_L2`` and ``_DEDUPE_J``.
    """
    kept: list[SolveResult] = []
    for res in sorted(results, key=lambda r: r.j):
        duplicate = any(
            _l2_sign_distance(grid, res.u, other.u) <= _DEDUPE_L2
            and abs(res.j - other.j) <= _DEDUPE_J
            for other in kept
        )
        if not duplicate:
            kept.append(res)
    return kept


def excited_states(problem: Problem, k: int,
                   opts: OptimizerOptions | None = None) -> list[SolveResult]:
    """Distinct converged states from one descent per slab seed, sorted by J.

    The starts are the k slab seeds of ``genus_seeds(problem, k)``, whose
    disjoint supports span a set of genus k; k < 1 raises ``ValueError``.
    When no partition into k slabs has q bracketing alpha in every slab
    (``InfeasibleRegion``), the search warns once and takes the largest
    genus g < k that has seeds; at g = 1 the error propagates.  Runs that do
    not converge, or raise an ``SbpError``, are dropped; one warning gives
    the outcome of each.
    Survivors are deduplicated up to sign by their L2 distance and energy
    gap.
    """
    if k < 1:
        raise ValueError(f"excited_states needs k >= 1, got {k}")
    opts = opts or OptimizerOptions()
    reason = None
    for genus in range(k, 0, -1):
        try:
            starts = genus_seeds(problem, genus)
            break
        except InfeasibleRegion as exc:
            if genus == 1:
                raise
            reason = reason or exc
    if genus < k:
        warnings.warn(f"descending from the slab seeds of genus {genus}, as "
                      f"genus {k} has none: {reason}", stacklevel=2)

    results: list[SolveResult] = []
    failures: list[str] = []
    for u0 in starts:
        try:
            res = _minimize(problem, u0, opts)
        except SbpError as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        if res.converged:
            results.append(res)
        else:
            failures.append(
                f"{res.stop_reason} at iteration {res.iterations} "
                f"(J={res.j:.12g}, sobolev grad={res.grad_norm:.3e})"
            )
    if failures:
        warnings.warn(
            f"{len(failures)} of {len(starts)} starts did not converge: "
            + "; ".join(failures),
            stacklevel=2,
        )
    kept = _dedupe(problem.grid, results)
    if len(kept) < k:
        warnings.warn(
            f"found {len(kept)} distinct states of {k} sought from the slab "
            f"seeds of genus {genus}",
            stacklevel=2,
        )
    return kept
