"""Projected gradient descent on the constraint manifold.

Descent runs in the discrete metric of -lap + s, a shifted H^1_0 metric:
each iteration takes the gradient of J in that metric, projects it onto the
tangent space of M, steps against it (or its L-BFGS direction), and
retracts back with the two-parameter ansatz.  At s = 0 the gradient is
u + S(w), with S the Dirichlet solve and w the derivative-free terms of
grad J (no stencil).  The loop works on the DST-I coefficients of u, q u
and w, where the metric is the symbol sigma + s; one inverse transform
gives the trial direction.  Its products are sums over modes of (sigma + s)
a_hat b_hat (see ``_tangent_gradient``), and so is the Dirichlet energy D =
integral of |grad u|^2, half of which is J's Dirichlet term (``eval_J``
keeps the finite-difference form).  Each trial point is evaluated once,
and the next pass reuses its coefficients of u (``_evaluate``).

The shift of a pass is s = max(lam - D, 0), with lam the first multiplier
of the previous pass's projection and D that of the current iterate; the
first pass has s = 0.  At a critical point -lap u + W u = lam u + beta q u,
with W u = w, so testing with u gives lam - D = integral of (W - beta q)
u^2: the u^2-mean of the potential of the linearized eigenproblem.  The
metric -lap + s takes that mean into account, a constant-coefficient form
of the metrics that include the potential (Danaila & Kazemi, SIAM J. Sci.
Comput. 32(5), 2010; the energy-adaptive metric of Henning & Peterseim,
SIAM J. Numer. Anal. 58, 2020), and costs nothing on DST-I coefficients.
Clamping at 0 keeps the metric at or above H^1_0; where omega lies below
D, as for the ground states of the benchmark, every pass runs in H^1_0.

Two phases.  The first ``_QN_START`` passes take the short
Barzilai-Borwein step sy / yy (Barzilai & Borwein, IMA J. Numer. Anal. 8,
1988), whose tail converges only linearly; later ones the L-BFGS direction
(Liu & Nocedal, Math. Program. 45, 1989) in the pass's metric, projected
as in Riemannian L-BFGS (Huang, Gallivan & Absil, SIAM J. Optim. 25(3),
2015): the memory ``_Pairs`` and the two-loop ``_quasi_newton_direction``
form its products as sums over the DST-I modes of the metric sigma + s.
The switch is a pass count: L-BFGS from the first pass loses a genus-2
state.  The benchmark's ground solves end before it, after 6 passes, while
ground descents on the oscillating coupling of ``demos/configs/excited.cfg``
take 59-80 (alpha 0.2 to 1.8).  A nonmonotone Armijo line search
safeguards both at the merit's slope: a trial is tested against the
Zhang-Hager reference value C, a weighted mean of the merits accepted so
far.

The merit is the Lagrangian m = J - (lam c1 + beta c2) / 2, with (c1, c2)
the constraint residuals of the trial and (lam, beta) the coefficients of
the current tangent projection.  The retraction leaves residuals up to
about 1e-13, which move J off the Armijo model by up to (|lam| + |beta|)
times that, so a test on J alone stalls once the squared gradient falls
below that level; the merit cancels the error to first order.  Every
accepted merit lies at or below the C before it, and C never exceeds the
starting merit.

The descent runs on the problem it is given, which may live on a mirror
sector.  Where q and chi are invariant under a transverse reflection x_a ->
L_a - x_a (a >= 1), so are J and both constraints, and a critical point of J
on the symmetric part of M is one on M (Palais, Comm. Math. Phys. 69, 1979).
``build_problem`` decides once per problem, from q and the flux data, to
fold every such axis with an odd node count 2m + 1 and the matrix
transforms onto nodes 0..m, whose weights count nodes 0..m - 1 twice
(``grid``) and whose transforms keep the odd DST-I and the even DCT-I modes
(``solvers``), and returns the problem on that sector.  The loop below is
unchanged there; every integral and sum over modes equals the box's, so J,
the multipliers and the norms are the box's to rounding; u and phi stay
there (``SolveResult.problem``).

Convergence is declared on the H^1_0 tangent gradient norm.  For s >= 0 the
shifted tangent norm, whose square is the Armijo decrease rate, is at most
the H^1_0 norm: both are the sup of <grad J, v> / |v| over tangent v, and
the shifted |v| is the larger.  So the H^1_0 check, the pass at s = 0
with its two forward transforms (``_h1_check``), runs only when the
shifted norm passes ``grad_tol``, and at every exit.  The multipliers of
the returned state are the coefficients of its H^1_0 projection:
omega = lam, mu = -beta.  Every run returns a
``SolveResult``; its ``stop_reason`` is ``grad_tol`` (converged),
``max_iterations`` (the cap was reached) or ``line_search_stall``
(backtracking fell below ``_MIN_STEP``), and its ``grad_norm`` is the H^1_0
norm the run stopped on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleRegion, ManifoldError, SbpError
from .grid import norm_l2, require_zero_boundary
from .manifold import _project_dst, genus_seeds, retract
from .problem import Problem
from .reduction import phi_map
from .solvers import _dst_interior, _from_dst_interior, _symbols

__all__ = [
    "OptimizerOptions",
    "SolveResult",
    "minimize_on_M",
    "excited_states",
]

_ARMIJO_C = 1e-4
# Weight of the past in the Zhang-Hager reference value; 0 is monotone Armijo.
_ZH_ETA = 0.85
_BACKTRACK = 0.5
_INITIAL_STEP = 1.0
_MIN_STEP = 1e-14
_MAX_STEP = 1e3
# The first pass of the L-BFGS tail, and the number of pairs it keeps.
_QN_START = 8
_QN_MEMORY = 5
# Two states are duplicates when their sign-aligned L2 distance and their
# energy gap both fall below these.
_DEDUPE_L2 = 1e-3
_DEDUPE_J = 1e-6


@dataclass(frozen=True)
class OptimizerOptions:
    """Settings of the projected descent loop, used for every start.  Each
    field is set by the config key ``optimizer.<field>``.

    grad_tol: threshold on the H^1_0 tangent gradient norm, in (0, inf).
    max_iterations: descent iterations per start before giving up, >= 0.
    """

    grad_tol: float = 1e-7
    max_iterations: int = 5000

    def __post_init__(self):
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must lie in (0, inf), got {self.grad_tol}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")


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
    problem: Problem  # the problem it descended on, on whose grid u and phi live

    @property
    def converged(self) -> bool:
        return self.stop_reason == "grad_tol"


def minimize_on_M(problem: Problem,
                  u0: np.ndarray,
                  opts: OptimizerOptions | None = None) -> SolveResult:
    """Projected descent, BB steps for ``_QN_START`` passes and L-BFGS steps
    after (a pass count: short descents never reach them), with a
    nonmonotone Armijo line search on the merit, in the shifted metric, from
    ``u0`` until the H^1_0 tangent gradient norm drops below
    ``opts.grad_tol``.  The merit never rises above that of the retracted
    start.  ``omega`` and ``mu`` are the multipliers of the H^1_0 tangent
    projection at the returned iterate.  The descent runs on ``problem`` as
    given, which may live on a mirror sector (``build_problem``), with ``u0``
    on its grid; the returned u and phi live on that grid too.

    Hitting ``max_iterations``, or backtracking below ``_MIN_STEP`` without an
    acceptable decrease, returns the current iterate and its gradient norm
    flagged ``converged=False``; ``stop_reason`` says which.
    """
    return _minimize(problem, u0, opts or OptimizerOptions())


def _minimize(problem: Problem, u0: np.ndarray, opts: OptimizerOptions) -> SolveResult:
    grid = problem.grid
    u = retract(problem, require_zero_boundary(grid, u0))
    phi, u_hat, j, dirichlet, c1, c2 = _evaluate(problem, u)
    step = _INITIAL_STEP
    sym = _symbols(grid)
    sigma = sym.dirichlet
    metric = math.prod(grid.h) / sym.scale  # the factor of ``_slope``
    # The coefficients of the last pass, kept for the BB step in two buffers
    # allocated once: arrays that outlive the line search's temporaries
    # fragment the heap, which raised peak RSS by up to 0.2 MB on refine-2d.
    prev_u_hat = np.empty(sigma.shape)
    prev_gt_hat = np.empty(sigma.shape)
    pairs = None  # the L-BFGS memory, allocated on the first tail pass
    direction = np.zeros(grid.shape)  # the physical d_hat, zero on the boundary

    # Pass ``it`` follows ``it`` accepted steps.  The last pass only tests
    # convergence, so every exit reports the gradient and the multipliers at
    # the returned iterate.
    for it in range(opts.max_iterations + 1):
        iterations = it
        # The shift: the last pass's multiplier less the Dirichlet energy,
        # the u^2-mean of the potential at a critical point.
        shift = max(lam - dirichlet, 0.0) if it else 0.0
        symbol = sigma + shift if shift else sigma
        lam, beta, gt_hat, qu_hat = _tangent_gradient(problem, u, phi, u_hat, shift, symbol)
        # The merit's slope along the tangent gradient is the square of the
        # shifted tangent norm, at most the H^1_0 one, so only a pass that it
        # lets through, or the last, needs the H^1_0 check.
        d_hat, slope = gt_hat, _slope(metric, symbol, gt_hat, gt_hat)
        h1 = lam, beta, math.sqrt(slope)
        if shift and (h1[2] <= opts.grad_tol or it == opts.max_iterations):
            h1 = _h1_check(problem, u, phi, u_hat, sigma, metric)
        converged = h1[2] <= opts.grad_tol
        if converged or it == opts.max_iterations:
            reason = "grad_tol" if converged else "max_iterations"
            break
        if it == 0:
            ref_c, ref_q = j - 0.5 * (lam * c1 + beta * c2), 1.0

        # The direction d_hat and the merit's slope along it: from pass
        # ``_QN_START`` on, the L-BFGS direction tried at t = 1 while its
        # slope is positive (else the memory is cleared); otherwise the
        # tangent gradient with the short BB trial step sy / yy (the long
        # step ss / sy overshoots here and takes about a quarter more
        # iterations), or twice the accepted step.  sy and yy are sums over
        # modes in the current metric, formed in place in the buffers of the
        # last pass; their factor metric cancels.
        t = min(2.0 * step, _MAX_STEP)
        if it > 0 and it >= _QN_START:
            pairs = pairs or _Pairs(sigma)
            pairs.push(u_hat, gt_hat, prev_u_hat, prev_gt_hat, shift)
            qn_hat = _quasi_newton_direction(u_hat, qu_hat, gt_hat, symbol, shift, pairs)
            qn_slope = 0.0 if qn_hat is None else _slope(metric, symbol, gt_hat, qn_hat)
            if qn_slope > 0.0:
                d_hat, slope, t = qn_hat, qn_slope, 1.0
            else:
                pairs.order.clear()
            del qn_hat
        if it > 0 and d_hat is gt_hat:
            s_hat = np.subtract(u_hat, prev_u_hat, out=prev_u_hat)
            y_hat = np.subtract(gt_hat, prev_gt_hat, out=prev_gt_hat)
            sy = float(np.vdot(np.multiply(s_hat, symbol, out=s_hat), y_hat))
            if sy > 0.0:
                yy = float(np.vdot(np.multiply(y_hat, symbol, out=s_hat), y_hat))
                t = min(max(sy / yy, _MIN_STEP), _MAX_STEP)
        np.copyto(prev_u_hat, u_hat)
        np.copyto(prev_gt_hat, gt_hat)
        _from_dst_interior(grid, d_hat, direction)
        del u_hat, gt_hat, qu_hat, d_hat  # only the buffers live through the line search

        while t >= _MIN_STEP:
            try:
                u_try = retract(problem, u - t * direction)
            except ManifoldError:
                t *= _BACKTRACK
                continue
            phi_try, u_hat_try, j_try, d_try, c1, c2 = _evaluate(problem, u_try)
            m_try = j_try - 0.5 * (lam * c1 + beta * c2)
            if m_try <= ref_c - _ARMIJO_C * t * slope:
                u, phi, j, u_hat, dirichlet = u_try, phi_try, j_try, u_hat_try, d_try
                step = t
                q_old, ref_q = ref_q, _ZH_ETA * ref_q + 1.0
                ref_c = (_ZH_ETA * q_old * ref_c + m_try) / ref_q
                break
            t *= _BACKTRACK
        else:
            reason = "line_search_stall"
            if shift:
                h1 = _h1_check(problem, u, phi, prev_u_hat, sigma, metric)
            break

    lam, beta, sob = h1
    return SolveResult(
        u=u, j=j, omega=lam, mu=-beta,
        iterations=iterations, stop_reason=reason,
        grad_norm=sob, phi=phi, problem=problem,
    )


def _evaluate(problem: Problem, u: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, float, float, float, float]:
    """(phi, u_hat, J, D, c1, c2) at a trial point u: ``phi_map(problem, u)``,
    the DST-I coefficients of u, the reduced energy, D = integral of
    |grad u|^2, and the residuals of ``constraint_values``.  J's other
    terms and the residuals are dots of one weighted square w = weights
    u^2; D is the mode sum sum(sigma u_hat^2) * prod h / scale (see
    ``_tangent_gradient``), which equals ``dirichlet_energy`` to rounding,
    and J takes D / 2 as its Dirichlet term.
    """
    grid = problem.grid
    sym = _symbols(grid)
    phi = phi_map(problem, u)
    u_hat = _dst_interior(grid, u)
    w = grid.weights * u * u
    dirichlet = float(np.vdot(sym.dirichlet * u_hat, u_hat)) * math.prod(grid.h) / sym.scale
    j = (0.5 * dirichlet
         + 0.25 * float(np.vdot(w * problem.q, phi))
         + 0.5 * float(np.vdot(w, problem.q_chi)))
    if problem.kappa != 0.0:
        j -= problem.kappa / problem.p * float(np.vdot(w, np.abs(u) ** (problem.p - 2.0)))
    return (phi, u_hat, j, dirichlet,
            float(w.sum()) - 1.0, float(np.vdot(w, problem.q)) - problem.alpha)


def _tangent_gradient(problem: Problem, u: np.ndarray, phi: np.ndarray,
                      u_hat: np.ndarray, shift: float, symbol: np.ndarray):
    """The descent's gradient: the tangent projection of the gradient of J in
    the metric of -lap + s, for the shift s = ``shift`` >= 0, whose symbol
    sigma + s the caller passes as ``symbol`` (sigma itself at s = 0).
    ``u_hat`` are the DST-I coefficients of u.  Returns (lam, beta, gt_hat,
    qu_hat): the projection's coefficients, the multipliers of grad J on
    (u, q u) in this metric (see ``_project_dst``), the DST-I coefficients
    of the direction, and those of q u, with which an L-BFGS pass projects
    its direction.

    With w = ``zeroth_order_grad``, the L2 gradient of J is -lap u + w,
    whose coefficients are sigma u_hat + w_hat, so the gradient in the
    shifted metric has the coefficients u_hat + (w_hat - s u_hat) / (sigma
    + s).  At s = 0 this is u_hat + w_hat / sigma, the coefficients of
    u + S(w) = S(grad J), with S the Dirichlet solve, which inverts the
    stencil of -lap exactly: ``tangent_project(problem, u, u + S(w))``.
    The gradient and the projection take the transforms of w and q u.  With
    the coefficients the descent forms its products as sums over modes: the
    transform T diagonalizes the stencil of -lap with symbol sigma, and sum
    a_hat b_hat = scale * sum(c a b) over the interior nodes, with c the
    number of box nodes each one stands for: 1 on a box, where T is
    symmetric with T T = scale, and on a mirror sector a factor 2 for each
    mirrored axis whose mirror node it is not.  So for fields a, b that
    vanish on the boundary dirichlet_inner(a, b) + s inner(a, b) =
    sum((sigma + s) a_hat b_hat) * prod h / scale, on the box and on its
    mirror sectors.
    """
    grid = problem.grid
    qu = problem.q * u  # shared by w and the projection
    w = qu * (phi + problem.chi)
    w -= problem.kappa * np.abs(u) ** (problem.p - 2.0) * u
    g_hat = _dst_interior(grid, w)  # the gradient, formed in place
    if shift:
        g_hat -= shift * u_hat
    g_hat /= symbol
    g_hat += u_hat
    qu_hat = _dst_interior(grid, qu)
    gt_hat, lam, beta = _project_dst(u_hat, qu_hat, g_hat, symbol)
    return lam, beta, gt_hat, qu_hat


def _slope(metric: float, symbol: np.ndarray, gt_hat: np.ndarray,
           d_hat: np.ndarray) -> float:
    """The merit's slope along d: the product of gt and d in the pass's
    metric, sum(symbol gt_hat d_hat) * ``metric``, with ``metric`` = prod h
    / scale.  At d = gt it is the Armijo decrease rate."""
    return metric * float(np.vdot(symbol * gt_hat, d_hat))


def _h1_check(problem: Problem, u: np.ndarray, phi: np.ndarray, u_hat: np.ndarray,
              sigma: np.ndarray, metric: float) -> tuple[float, float, float]:
    """(lam, beta, norm) of the H^1_0 tangent gradient: the pass at s = 0,
    with the symbol ``sigma`` of -lap, and its norm (see ``_slope``)."""
    lam, beta, gt_hat, _ = _tangent_gradient(problem, u, phi, u_hat, 0.0, sigma)
    return lam, beta, math.sqrt(_slope(metric, sigma, gt_hat, gt_hat))


class _Pairs:
    """The L-BFGS memory: the newest ``_QN_MEMORY`` pairs (s, y) of DST-I
    coefficients, slot k in rows 2 k and 2 k + 1 of ``ring``, whose last
    row is the pass's gradient g; the slots take pairs in turn, one more
    than the memory keeps, so that the next pair never overwrites one kept.
    ``gram`` keeps the rows' products as sums over modes of sigma a b and of
    a b: the metric sigma + s reads G_sigma + s G_1.  As y is the change of
    g, its products with older rows are the change of theirs with g since
    the last pass; the recursion reads <s_i, y_j> and <y_i, y_j> only with j
    at least as new as i."""

    def __init__(self, sigma: np.ndarray):
        self.m, rows = _QN_MEMORY, 2 * _QN_MEMORY + 3
        self.sigma = sigma.ravel()
        self.ring = np.zeros((rows, sigma.size))
        self.gram = np.zeros((2, rows, rows))  # G_sigma, G_1
        self.own, self.now = np.empty((2, 2)), np.empty((2, rows))  # (sy, yy); ring g
        self.order: list[int] = []  # the slots in use, oldest first
        self.stored = 0

    def push(self, u_hat: np.ndarray, gt_hat: np.ndarray, prev_u_hat: np.ndarray,
             prev_gt_hat: np.ndarray, shift: float) -> None:
        """Store the pair (u_hat - prev_u_hat, gt_hat - prev_gt_hat) unless
        its sy in the metric sigma + s is not positive, and take the ring's
        products with g = ``gt_hat``."""
        ring, gram, sigma, own, now = self.ring, self.gram, self.sigma, self.own, self.now
        k = self.stored % (self.m + 1)
        pair = ring[2 * k:2 * k + 2]
        np.subtract(u_hat.ravel(), prev_u_hat.ravel(), out=pair[0])
        y = np.subtract(gt_hat.ravel(), prev_gt_hat.ravel(), out=pair[1])
        np.dot(pair, sigma * y, out=own[0])
        np.dot(pair, y, out=own[1])
        g = ring[-1]
        g[:] = gt_hat.ravel()
        np.dot(ring, sigma * g, out=now[0])
        np.dot(ring, g, out=now[1])
        if own[0, 0] + shift * own[1, 0] > 0.0:
            self.order.append(k)
            del self.order[:-self.m]
            self.stored += 1
            delta = now - gram[:, -1]
            delta[:, 2 * k:2 * k + 2] = own
            gram[:, :, 2 * k + 1] = gram[:, 2 * k + 1] = delta
        gram[:, -1] = now


def _quasi_newton_direction(u_hat: np.ndarray, qu_hat: np.ndarray, gt_hat: np.ndarray,
                            symbol: np.ndarray, shift: float,
                            pairs: _Pairs) -> np.ndarray | None:
    """The L-BFGS direction at g = ``gt_hat``, or None when the memory holds
    no pair whose sy is positive.  The two-loop recursion runs on d's
    coefficients in the ring's rows, with the scale sy / yy of the newest
    pair, in the metric sigma + s, where a pair whose sy is not positive is
    left out.  d is projected with ``_project_dst``: the pairs were taken at
    other iterates.  The caller tests the merit's slope along d."""
    gram = (pairs.gram[0] + shift * pairs.gram[1]).tolist()
    prod = gram[-1]
    ys = [2 * k + 1 for k in pairs.order if gram[2 * k][2 * k + 1] > 0.0]  # y rows
    if ys:
        n = len(ys)
        rho = [1.0 / gram[j - 1][j] for j in ys]
        alpha = [0.0] * n
        for p in range(n - 1, -1, -1):
            row, acc = gram[ys[p] - 1], prod[ys[p] - 1]
            for q in range(p + 1, n):
                acc -= alpha[q] * row[ys[q]]
            alpha[p] = rho[p] * acc
        j = ys[-1]
        gamma = gram[j - 1][j] / gram[j][j]
        coef = [0.0] * len(prod)
        coef[-1] = gamma
        for p in range(n):
            j = ys[p]
            row, acc = gram[j], prod[j]
            for q in range(n):
                acc -= alpha[q] * row[ys[q]]
            acc *= gamma
            for q in range(p):
                acc += coef[ys[q] - 1] * gram[ys[q] - 1][j]
            coef[j - 1], coef[j] = alpha[p] - rho[p] * acc, -gamma * alpha[p]
        d_hat = (np.array(coef) @ pairs.ring).reshape(gt_hat.shape)
        return _project_dst(u_hat, qu_hat, d_hat, symbol)[0]
    return None


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

    The starts are the k slab seeds of ``genus_seeds``, whose disjoint
    supports span a set of genus k, built on ``problem``, on whose grid every
    descent runs; k < 1 raises ``ValueError``.
    When no partition into k slabs has q bracketing alpha in every slab
    (``InfeasibleRegion``), the search warns once and takes the largest
    genus g < k that has seeds; at g = 1 the error propagates.  Runs that do
    not converge, or raise an ``SbpError``, are dropped; one warning gives
    the outcome of each.
    Survivors are deduplicated up to sign by their L2 distance and energy
    gap, on that grid, where their u lives.
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
