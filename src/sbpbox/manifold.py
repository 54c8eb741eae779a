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
by the symbol.  Either the ansatz reaches M or it does not: every failure
of the retraction, and a failed Gram test of the projection, is one
``ManifoldError``.

Feasible starting points are built from pairs of compactly supported bumps
centered where q is small and where q is large; with disjoint supports the
mixing angle that matches both constraints exists in closed form, so the
seeds satisfy the constraints to rounding before any retraction.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleRegion, ManifoldError
from .grid import Grid, inner, norm_l2
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
                              _dst_interior(grid, problem.q * u), _dst_interior(grid, g))
    return _from_dst_interior(grid, coef, g)


def _project_dst(problem: Problem, u_hat: np.ndarray, qu_hat: np.ndarray,
                 g_hat: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``tangent_project`` on DST-I coefficients: from those of u, q u and g,
    returns the coefficients g_hat - lam u_hat / sigma - beta qu_hat / sigma
    of the projected field, written over ``g_hat``, and (lam, beta).  Its
    interior values are one inverse transform away (``_from_dst_interior``).

    The transform T is symmetric and T T = scale, and the representers have
    coefficients r_hat / sigma, so with the interior weight prod h every
    entry is a sum over modes times prod h / scale: inner(r_i, d_j) =
    sum r_i_hat r_j_hat / sigma and inner(r_i, g) = sum r_i_hat g_hat.  The
    common factor cancels and the matrix is symmetric; ``_gram_det`` checks
    it and gives the determinant of Cramer's rule for (lam, beta).

    When g is S(grad J), (lam, beta) are the Galerkin multipliers of
    grad J = lam u + beta q u in the H^1_0 pairing, so at a critical point
    of J on M they are (omega, -mu).
    """
    sigma = _symbols(problem.grid).dirichlet
    d1, d2 = u_hat / sigma, qu_hat / sigma
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

_MIN_RADIUS_CELLS = 2.05
_EDGE_MARGIN_CELLS = 1.5


def _region_box(grid: Grid, region) -> list[tuple[float, float]]:
    if region is None:
        return [(0.0, L) for L in grid.lengths]
    box = [(float(lo), float(hi)) for lo, hi in region]
    if len(box) != grid.dim:
        raise ValueError(f"region must give (lo, hi) per axis, got {region}")
    return box


def _bump(grid: Grid, center: np.ndarray, radius: float) -> np.ndarray:
    """C^1 compact bump max(0, 1 - r^2/R^2)^2, clipped to zero on the boundary."""
    r2 = sum((c - ci) ** 2 for c, ci in zip(grid.coords, center))
    w = np.clip(1.0 - r2 / radius**2, 0.0, None) ** 2
    w[~grid.interior_mask] = 0.0
    return w


def _normalized_bump(problem: Problem, center: np.ndarray,
                     radius: float) -> tuple[np.ndarray, float]:
    """Unit-mass bump and its coupling average.

    ``center`` is an interior node, where the bump equals 1, so the mass is
    never zero.
    """
    grid = problem.grid
    w = _bump(grid, center, radius)
    w = w / norm_l2(grid, w)
    return w, inner(grid, problem.q * w, w)


def feasible_init(problem: Problem, region=None) -> np.ndarray:
    """A point of M supported by two disjoint bumps inside ``region``.

    The radius is chosen first, sweeping from the fattest bump the region can
    hold downward: for each trial radius the admissible centers are the nodes
    whose distance to every region face leaves a one-node inset around the
    support, the candidate centers are the argmin/argmax of q over them, and
    the pair is accepted once the two coupling averages strictly bracket
    alpha with disjoint supports.  Preferring fat bumps keeps the gradient
    energy of the seed moderate, which matters downstream: the optimizer
    starts near the right energy scale instead of at a spike.

    The mixing weights against the two averages then satisfy both constraints
    in closed form (the cross terms vanish identically on disjoint supports),
    so the final retraction only cleans up rounding.

    ``region`` is an optional list of per-axis (lo, hi) coordinate bounds.
    Raises ``InfeasibleRegion`` when no radius admits a bracketing pair.
    """
    grid = problem.grid
    box = _region_box(grid, region)
    hmax = max(grid.h)
    margin_len = _EDGE_MARGIN_CELLS * hmax
    alpha = problem.alpha
    tiny = 1e-12 * (1.0 + abs(alpha))

    reach = np.full(grid.shape, np.inf)
    for a in range(grid.dim):
        lo, hi = box[a]
        x = grid.coords[a]
        reach = np.minimum(reach, np.minimum(x - lo, hi - x))
    r_min = _MIN_RADIUS_CELLS * hmax
    r_max = float(np.max(reach)) - margin_len
    if r_max < r_min:
        raise InfeasibleRegion(
            f"region {box} is too thin for a compactly supported bump"
        )

    r = r_max
    while r >= r_min * 0.999:
        admissible = reach >= (r + margin_len) * 0.999
        if np.any(admissible):
            qm = np.where(admissible, problem.q, np.inf)
            qM = np.where(admissible, problem.q, -np.inf)
            idx_lo = np.unravel_index(int(np.argmin(qm)), grid.shape)
            idx_hi = np.unravel_index(int(np.argmax(qM)), grid.shape)
            if problem.q[idx_lo] < alpha < problem.q[idx_hi]:
                c_lo = np.array([grid.axes[a][idx_lo[a]] for a in range(grid.dim)])
                c_hi = np.array([grid.axes[a][idx_hi[a]] for a in range(grid.dim)])
                dist = float(np.linalg.norm(c_hi - c_lo))
                # Each bump vanishes beyond r of its center: disjoint supports.
                if dist >= 2.0 * r + 3.0 * hmax:
                    w_lo, avg_lo = _normalized_bump(problem, c_lo, r)
                    w_hi, avg_hi = _normalized_bump(problem, c_hi, r)
                    if avg_lo < alpha - tiny and avg_hi > alpha + tiny:
                        s2 = (alpha - avg_lo) / (avg_hi - avg_lo)
                        u = np.sqrt(1.0 - s2) * w_lo + np.sqrt(s2) * w_hi
                        return retract(problem, u)
        r *= 0.85
    raise InfeasibleRegion(
        f"no bump radius in [{r_min:.4g}, {r_max:.4g}] gives two disjoint "
        f"bumps whose coupling averages bracket alpha={alpha:.6g} in region {box}"
    )


def _axis_slab_region(grid: Grid, i0: int, i1: int) -> list[tuple[float, float]]:
    """Region covering node indices [i0, i1] along axis 0, full transversally."""
    x = grid.axes[0]
    box = [(float(x[i0]), float(x[i1]))]
    box += [(0.0, L) for L in grid.lengths[1:]]
    return box


def genus_seeds(problem: Problem, k: int) -> list[np.ndarray]:
    """k members of M with pairwise disjoint supports in slabs along axis 0.

    Equal-width slabs are tried first; if any slab cannot bracket alpha, a
    greedy sweep re-partitions the axis into the shortest feasible slabs from
    the left.  Raises ``InfeasibleRegion`` when no partition works: for
    k = 1 the one ``feasible_init`` raised, otherwise one that names how
    many slabs could be placed.  Supports of seeds in adjacent slabs are
    separated by at least one zero node because each seed is inset from its
    slab faces.
    """
    if k < 1:
        raise ValueError(f"need k >= 1 families, got {k}")
    grid = problem.grid
    n0 = grid.n[0]
    edges = [round(j * (n0 - 1) / k) for j in range(k + 1)]
    try:
        return [
            feasible_init(problem, _axis_slab_region(grid, edges[j], edges[j + 1]))
            for j in range(k)
        ]
    except InfeasibleRegion:
        if k == 1:
            raise

    # Greedy fallback: cut the shortest slab from the left that brackets alpha.
    min_width = max(8, int(2 * (2 * _MIN_RADIUS_CELLS + 2 * _EDGE_MARGIN_CELLS)) + 2)
    seeds: list[np.ndarray] = []
    i0 = 0
    while len(seeds) < k and i0 < n0 - 1:
        placed = False
        for i1 in range(min(i0 + min_width, n0 - 1), n0):
            try:
                seeds.append(
                    feasible_init(problem, _axis_slab_region(grid, i0, i1))
                )
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
