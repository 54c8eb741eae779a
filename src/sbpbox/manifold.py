"""The constraint manifold: unit mass plus prescribed coupling mass.

States live on M = S intersect N with

    S = { u : integrate(u^2) = 1 },    N = { u : integrate(q u^2) = alpha }.

Both constraints are even in u, so M is symmetric under sign flip.  Their
differentials 2u and 2q u are independent exactly when q is not constant on
the support of u; the retraction and the tangent projection both ask this
of a 2x2 Gram matrix (``_gram_det``).
The retraction uses the two-parameter ansatz u = (a + b q) v.  Subtracting
alpha times the mass constraint from the coupling constraint leaves a
homogeneous quadratic in (a, b), so b/a is a root of one quadratic and a
follows from the mass: the retraction is in closed form.  The tangent
projection removes from an H^1_0 gradient the span of the H^1_0
representers of the constraint differentials, the Dirichlet solves of
(u, q u); it works on DST-I coefficients, where those solves are divisions
by the symbol, and the descent's metric -lap + s only shifts the symbol
(``_project_dst``).  Either the ansatz reaches M or it does not: every
failure of the retraction, and a failed Gram test of the projection, is one
``ManifoldError``.

Feasible starting points tilt the principal sine mode v of a slab along
axis 0 by e^(s (q - alpha)/2): the mass constraint is a normalization, and
the coupling constraint is one strictly increasing scalar equation in s, so
a seed exists exactly when q brackets alpha on the slab's interior nodes
and meets both constraints to rounding before its retraction.  On a mirror
sector the seed is built on the sector's nodes (``feasible_init``).
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import InfeasibleRegion, ManifoldError
from .grid import Grid, norm_l2
from .problem import Problem
from .solvers import _dst_interior, _from_dst_interior, _symbols, solve_poisson_dirichlet

__all__ = [
    "constraint_values",
    "retract",
    "constraint_representers",
    "tangent_project",
    "feasible_init",
    "genus_seeds",
]

_GRAM_COND_LIMIT = 1e12
_GRAM_TRACE_BOUND = _GRAM_COND_LIMIT + 2.0 + 1.0 / _GRAM_COND_LIMIT
_ON_M_TOL = 1e-13


def constraint_values(problem: Problem, u: np.ndarray) -> tuple[float, float]:
    """Residuals (integrate(u^2) - 1, integrate(q u^2) - alpha): one weighted
    square, a sum and a dot, as in ``_moments``."""
    u = np.asarray(u, dtype=float)
    w = problem.grid.weights * u * u
    return float(w.sum()) - 1.0, float(np.vdot(w, problem.q)) - problem.alpha


def _gram_det(a: float, b: float, c: float) -> float:
    """Determinant a c - b^2 of the Gram matrix [[a, b], [b, c]] of two
    fields, which must be independent to working precision.

    A Gram matrix has a, c >= 0, so det > 0 means both eigenvalues are
    positive, and with their ratio kappa, (a + c)^2 / det = kappa + 2 +
    1/kappa: the test below passes exactly when kappa <=
    ``_GRAM_COND_LIMIT``.  A NaN entry fails it, and so does an infinite
    one, which makes det NaN or infinite; entries too large to square in
    float64 fail it too.  Raises ``ManifoldError`` otherwise.
    """
    det = a * c - b * b
    if not (0.0 < det < math.inf and (a + c) * (a + c) <= _GRAM_TRACE_BOUND * det):
        raise ManifoldError(
            f"Gram matrix [[{a!r}, {b!r}], [{b!r}, {c!r}]] is singular or has "
            f"condition number above {_GRAM_COND_LIMIT:.0e}; is q constant on "
            "the support of the field?"
        )
    return det


def _moments(problem: Problem, v: np.ndarray) -> tuple[float, float, float, float]:
    """Quadrature moments m_k = integrate(q^k v^2), k = 0..3: a sum, 3 dots."""
    q = problem.q
    w = problem.grid.weights * v * v
    qw = q * w
    return (float(w.sum()), float(np.vdot(w, q)), float(np.vdot(qw, q)),
            float(np.vdot(qw * q, q)))


def retract(problem: Problem, v: np.ndarray) -> np.ndarray:
    """Map a nearby field onto M via u = (a + b q) v, in closed form.

    With the moments m_k = integrate(q^k v^2), r = b/a solves
    A r^2 + 2 B r + C = 0, where A = m3 - alpha m2, B = m2 - alpha m1 and
    C = m1 - alpha m0: the coupling constraint minus alpha times the mass
    constraint.  The root of smaller magnitude, taken in cancellation-free
    form, is 0 when v meets the coupling constraint; then
    a = (m0 + 2 r m1 + r^2 m2)^(-1/2) > 0 and b = r a.  A field whose
    residuals are both within ``_ON_M_TOL`` is returned unchanged, as the
    input array itself.

    Raises ``ManifoldError`` when the Gram matrix of (v, q v),
    [[m0, m1], [m1, m2]], fails ``_gram_det`` (which covers a vanishing or
    non-finite v), or when the quadratic has no real root, so that no point
    of the ansatz lies on M.
    """
    v = np.asarray(v, dtype=float)
    m0, m1, m2, m3 = _moments(problem, v)
    _gram_det(m0, m1, m2)
    alpha = problem.alpha
    if abs(m0 - 1.0) <= _ON_M_TOL and abs(m1 - alpha) <= _ON_M_TOL * (1.0 + abs(alpha)):
        return v
    A, B, C = m3 - alpha * m2, m2 - alpha * m1, m1 - alpha * m0
    disc = B * B - A * C
    if not disc >= 0.0:  # negative, or NaN after an overflow in m3
        raise ManifoldError(
            f"no point of (a + b q) v lies on M: the quadratic for b/a has "
            f"discriminant {disc:.3e}"
        )
    den = B + math.copysign(math.sqrt(disc), B)
    if den == 0.0 and C != 0.0:
        raise ManifoldError("no point of (a + b q) v lies on M: the quadratic "
                            "for b/a is a nonzero constant")
    r = -C / den if den != 0.0 else 0.0
    a = 1.0 / math.sqrt(m0 + r * (2.0 * m1 + r * m2))
    return (a + r * a * problem.q) * v


def constraint_representers(problem: Problem,
                            u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H^1_0 representers of the constraint differentials (up to factor 2).

    These are the Dirichlet solves of (u, q u): their Dirichlet inner product
    with any field vanishing on the boundary reproduces its L2 pairing with
    (u, q u).
    """
    u = np.asarray(u, dtype=float)
    return (solve_poisson_dirichlet(problem.grid, u),
            solve_poisson_dirichlet(problem.grid, problem.q * u))


def tangent_project(problem: Problem, u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Remove the constraint-normal component of the H^1_0 gradient ``g`` at ``u``.

    With r = (u, q u) and d = ``constraint_representers(problem, u)``, solves
    the 2x2 system with entries inner(r_i, d_j) and right-hand side
    inner(r_i, g), and returns g - lam d1 - beta d2.  The result is
    L2-orthogonal to u and to q u by construction, which is what tangency to
    both constraints means; the matrix is the H^1_0 Gram matrix of d, so the
    projection is H^1_0-orthogonal.  Only interior nodes change, and the
    work is done on DST-I coefficients (see ``_project_dst``).  Raises
    ``ManifoldError`` when the matrix fails ``_gram_det`` (constant q on the
    support of u, or u = 0).
    """
    grid = problem.grid
    u = np.asarray(u, dtype=float)
    g = np.array(g, dtype=float)  # a copy: boundary values pass through
    coef, _, _ = _project_dst(problem, _dst_interior(grid, u),
                              _dst_interior(grid, problem.q * u), _dst_interior(grid, g),
                              _symbols(grid).dirichlet)
    return _from_dst_interior(grid, coef, g)


def _project_dst(problem: Problem, u_hat: np.ndarray, qu_hat: np.ndarray,
                 g_hat: np.ndarray, symbol: np.ndarray
                 ) -> tuple[np.ndarray, float, float]:
    """The projection of ``tangent_project`` on DST-I coefficients, in the
    metric sum(symbol a_hat b_hat) * prod h / scale: from the coefficients
    of u, q u and g, returns g_hat - lam u_hat / symbol - beta qu_hat /
    symbol, written over ``g_hat``, and (lam, beta).  Its interior values
    are one inverse transform away (``_from_dst_interior``).  The symbol
    sigma of the Dirichlet stencil gives the H^1_0 metric of
    ``tangent_project``; the descent also passes sigma + s, the metric of
    -lap + s.

    Sums over modes are scale times sums over interior nodes, each node
    counted as often as the box holds it (on a box T is symmetric and T T
    = scale; see ``optimize._tangent_gradient`` for a mirror sector), and
    in this metric the representers of (u, q u) have coefficients r_hat /
    symbol, so with the interior weight prod h every entry is a sum over
    modes times prod h / scale: inner(r_i, d_j) = sum r_i_hat r_j_hat /
    symbol and inner(r_i, g) = sum r_i_hat g_hat.  The common factor cancels and the matrix is
    symmetric; ``_gram_det`` checks it and gives the determinant of
    Cramer's rule for (lam, beta).  The result is L2-orthogonal to u and
    q u, whatever the symbol: the tangent space is the same in every metric.

    When g is the gradient of J in the metric, (lam, beta) are the Galerkin
    multipliers of grad J = lam u + beta q u in its pairing, so at a
    critical point of J on M they are (omega, -mu) in every metric.
    """
    d1, d2 = u_hat / symbol, qu_hat / symbol
    g11, g12, g22 = (float(np.vdot(u_hat, d1)), float(np.vdot(u_hat, d2)),
                     float(np.vdot(qu_hat, d2)))
    det = _gram_det(g11, g12, g22)
    r1, r2 = float(np.vdot(u_hat, g_hat)), float(np.vdot(qu_hat, g_hat))
    lam, beta = (r1 * g22 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det
    d1 *= lam
    d2 *= beta
    g_hat -= d1
    g_hat -= d2
    return g_hat, lam, beta


# ---------------------------------------------------------------------------
# Feasible seeds.

_TILT_MAX_STEPS = 100
_GREEDY_MIN_SLAB_CELLS = 16


def _principal_mode(grid: Grid, i0: int, i1: int) -> np.ndarray:
    """prod_a sin(pi (x_a - lo_a) / (hi_a - lo_a)) on the interior nodes of
    the slab (lo_0, hi_0) = (x[i0], x[i1]) along axis 0, the box (0, L_a)
    across it, zero elsewhere: DST-I mode 1 of the slab, positive exactly on
    its interior nodes that are interior nodes of the grid.  Across a
    mirrored axis the box is (0, 2 L_a), so the factor is nonzero at the
    mirror node and the mode is the box's on the sector's nodes."""
    x0 = grid.axes[0]
    box = [(x0[i0], x0[i1])] + [(0.0, 2.0 * L if a in grid.mirror else L)
                                for a, L in enumerate(grid.lengths) if a]
    factors = []
    for x, (lo, hi) in zip(grid.axes, box):  # a boundary node fails lo < x < hi
        inside = (x > lo) & (x < hi)
        factors.append(np.where(inside, np.sin(np.pi * (x - lo) / (hi - lo)), 0.0))
    return reduce(np.multiply.outer, factors)


def _tilt_root(rho: np.ndarray, d: np.ndarray) -> float:
    """The root s of g(s) = sum rho e^(s d) d, for rho > 0 and min d < 0 <
    max d.

    g' = sum rho e^(s d) d^2 > 0, so the root is unique.  The bracket starts
    at [-1, 1] / max|d| and doubles until g changes sign.  Newton steps
    s - g/g' are taken inside it, and replaced by bisection when they would
    leave it or shrink slower than bisection, until a Newton step is below
    1e-15 of |s| + 1 / max|d|.  Both sums carry the factor e^(-max s d),
    which cancels in g/g' and keeps every exponential at most 1.
    """
    def g_and_slope(s: float) -> tuple[float, float]:
        t = s * d
        ed = rho * np.exp(t - t.max()) * d
        return float(ed.sum()), float(np.vdot(ed, d))

    scale = 1.0 / float(np.abs(d).max())
    lo, hi = -scale, scale
    while g_and_slope(lo)[0] > 0.0:
        lo *= 2.0
    while g_and_slope(hi)[0] < 0.0:
        hi *= 2.0
    s, width = 0.0, hi - lo
    for _ in range(_TILT_MAX_STEPS):
        g, slope = g_and_slope(s)
        if g < 0.0:
            lo = s
        elif g > 0.0:
            hi = s
        else:
            return s
        step = g / slope
        if abs(step) <= 1e-15 * (abs(s) + scale):
            return s - step
        if not lo < s - step < hi or abs(step) > 0.5 * width:
            step = s - 0.5 * (lo + hi)
        width = abs(step)
        s -= step
    return s


def feasible_init(problem: Problem, slab: tuple[int, int] | None = None) -> np.ndarray:
    """The tilted principal mode of ``slab``: a point of M that is positive
    on the slab's interior nodes and zero elsewhere.

    ``slab = (i0, i1)`` names the face nodes of a slab along axis 0, which
    spans the box across it; the default (0, n0 - 1) is the whole box.
    With v = ``_principal_mode`` and d = q - alpha, the seed is
    u = v e^(s d/2), normalized and retracted, where s is the root of the
    coupling constraint g(s) = sum w v^2 e^(s d) d over the support
    (``_tilt_root``).  Seeds of adjacent slabs vanish on their shared face
    nodes, so their supports are disjoint.  On a mirror sector v and q are
    the box's on its nodes and its sums equal the box's, so the seed is the
    box seed's restriction, to rounding, built on the sector's nodes alone.

    Raises ``ValueError`` unless 0 <= i0 < i1 < n0, and
    ``InfeasibleRegion`` exactly when q does not strictly bracket alpha on
    the slab's interior nodes, and also when the tilt is so extreme that the
    seed fails its retraction.
    """
    grid = problem.grid
    i0, i1 = (0, grid.n[0] - 1) if slab is None else slab
    if not 0 <= i0 < i1 < grid.n[0]:
        raise ValueError(f"slab {slab} must satisfy 0 <= i0 < i1 < {grid.n[0]}")
    v = _principal_mode(grid, i0, i1)
    support = v > 0.0
    d = problem.q[support] - problem.alpha
    if not (d.size and d.min() < 0.0 < d.max()):
        raise InfeasibleRegion(f"q does not bracket alpha={problem.alpha:.6g} "
                               f"on the interior nodes of slab {i0}..{i1}")
    rho = grid.weights[support] * v[support] ** 2
    t = _tilt_root(rho, d) * d
    u = np.zeros(grid.shape)
    u[support] = v[support] * np.exp(0.5 * (t - t.max()))
    u /= norm_l2(grid, u)
    try:
        return retract(problem, u)
    except ManifoldError as exc:
        raise InfeasibleRegion(f"the tilted principal mode of slab {i0}..{i1} "
                               f"fails its retraction: {exc}") from exc


def genus_seeds(problem: Problem, k: int) -> list[np.ndarray]:
    """k members of M, on the problem's grid, with pairwise disjoint
    supports in slabs along axis 0.

    Each seed is ``feasible_init(problem, (i0, i1))`` of its slab between
    nodes i0 and i1.  Equal-width slabs are tried first when k is below the
    node count; if q fails to bracket alpha inside any of them, a greedy sweep
    re-partitions the axis from the left, each slab the shortest of at
    least ``_GREEDY_MIN_SLAB_CELLS`` cells that brackets alpha.  Raises
    ``InfeasibleRegion`` when no partition works: for k = 1 the one
    ``feasible_init`` raised, otherwise one that names how many slabs could
    be placed.  Adjacent slabs share a face node, where both seeds vanish,
    so the supports are disjoint.
    """
    if k < 1:
        raise ValueError(f"need k >= 1 families, got {k}")
    n0 = problem.grid.n[0]
    edges = [round(j * (n0 - 1) / k) for j in range(k + 1)]
    if k < n0:  # else some equal slabs would be empty
        try:
            return [feasible_init(problem, (edges[j], edges[j + 1])) for j in range(k)]
        except InfeasibleRegion:
            if k == 1:
                raise

    # Greedy fallback: cut the shortest slab from the left that brackets alpha.
    seeds: list[np.ndarray] = []
    i0 = 0
    while len(seeds) < k and i0 < n0 - 1:
        placed = False
        for i1 in range(min(i0 + _GREEDY_MIN_SLAB_CELLS, n0 - 1), n0):
            try:
                seeds.append(feasible_init(problem, (i0, i1)))
            except InfeasibleRegion:
                continue
            i0 = i1
            placed = True
            break
        if not placed:
            break
    if len(seeds) < k:
        raise InfeasibleRegion(f"only {len(seeds)} of {k} slabs along axis 0 "
                               f"can bracket alpha={problem.alpha:.6g}")
    return seeds
