"""Constraint manifold: retraction, tangent projection, seed construction."""

import numpy as np
import pytest

from sbpbox import BoundaryData, CouplingSpec, Grid, build_problem
from sbpbox.errors import InfeasibleRegion, ManifoldError
from sbpbox.grid import inner
from sbpbox.manifold import (
    _gram_det,
    _moments,
    constraint_values,
    feasible_init,
    genus_seeds,
    retract,
    tangent_project,
)
from conftest import coords, line_problem, oscillating_problem, random_m_point, square_problem


def constant_q_problem(n=65):
    g = Grid(lengths=(1.0,), n=(n,))
    h1 = BoundaryData.zero(g)
    h2 = BoundaryData.constant(g, {"x1": 2.0})
    return build_problem(grid=g, coupling=np.full(g.shape, 2.0),
                         h1=h1, h2=h2, kappa=1.0, p=3.0)


def cube_problem(n, alpha):
    """Unit-cube problem with affine coupling q = 1 + 0.5 x, as
    ``square_problem`` one dimension up."""
    g = Grid(lengths=(1.0,) * 3, n=(n,) * 3)
    return build_problem(grid=g, coupling=CouplingSpec("affine", {"a": 1.0, "b": 0.5}),
                         h1=BoundaryData.zero(g),
                         h2=BoundaryData.constant(g, {"x1": alpha}), kappa=1.0, p=3.0)


def problems_1d_to_3d():
    return [line_problem(129, alpha=0.5), square_problem(33, alpha=1.25),
            cube_problem(17, alpha=1.25)]


def bump(grid, center, width):
    r2 = sum(((c - ci) / width) ** 2
             for c, ci in zip(coords(grid), np.atleast_1d(center)))
    w = np.clip(1.0 - r2, 0.0, None) ** 2
    w[~grid.interior_mask] = 0.0
    return w


def gram_cases(rng):
    """Random symmetric 2x2 matrices, rotated and scaled by 10^-6 to 10^6:
    positive definite with eigenvalue ratio 1e10 to 1e14, indefinite and
    exactly singular (rank one, or zero)."""
    for _ in range(100):
        rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        scale = 10.0 ** rng.uniform(-6, 6)
        yield rot @ np.diag([scale, scale * 10.0 ** -rng.uniform(10, 14)]) @ rot.T
        yield rot @ np.diag([scale, -scale * rng.uniform(0.01, 100.0)]) @ rot.T
        # Power-of-two multiples make a c - b^2 exactly zero.
        a, t = scale * rng.uniform(0.1, 10.0), 2.0 ** int(rng.integers(-20, 20))
        yield np.array([[a, t * a], [t * a, t * t * a]])
    yield np.zeros((2, 2))


def test_gram_det_rule_is_the_condition_number_rule():
    """``_gram_det`` raises exactly when the eigenvalues (lo, hi) have
    lo <= 0 or hi / lo > 1e12, and returns a c - b^2 otherwise."""
    checked = 0
    for m in gram_cases(np.random.default_rng(10)):
        a, b, c = m[0, 0], m[0, 1], m[1, 1]
        lo, hi = np.linalg.eigvalsh(m)
        if lo > 0.0 and abs(hi / lo / 1e12 - 1.0) <= 1e-6:
            continue  # too close to the limit for either method to decide
        checked += 1
        if lo <= 0.0 or hi / lo > 1e12:
            with pytest.raises(ManifoldError, match="Gram matrix"):
                _gram_det(a, b, c)
        else:
            assert _gram_det(a, b, c) == a * c - b * b
    assert checked >= 300
    for entries in ((np.nan, 0.0, 1.0), (1.0, np.nan, 1.0), (1.0, 0.0, np.nan),
                    (np.inf, 0.0, 1.0), (1.0, 0.0, np.inf), (np.inf, np.inf, np.inf)):
        with pytest.raises(ManifoldError, match="Gram matrix"):
            _gram_det(*entries)


def test_retract_satisfies_both_constraints():
    for prob in problems_1d_to_3d():
        g = prob.grid
        rng = np.random.default_rng(0)
        mid = (0.5,) * (g.dim - 1)  # bumps centred transversally
        for _ in range(5):
            v = bump(g, (0.3, *mid), 0.2) + bump(g, (0.75, *mid), 0.18) \
                + 0.05 * rng.standard_normal(g.shape) \
                * bump(g, (0.5, *mid), 0.45)
            u = retract(prob, v)
            c1, c2 = constraint_values(prob, u)
            assert abs(c1) <= 1e-12
            assert abs(c2) <= 1e-12 * (1.0 + abs(prob.alpha))


def newton_retract(problem, v):
    """Reference for the closed form: the retraction as a 2x2 Newton
    iteration on (a, b) from (1, 0), with the residuals and Jacobian taken
    from the moments of v."""
    m = _moments(problem, v)
    alpha = problem.alpha
    a, b = 1.0, 0.0
    for _ in range(60):
        g1 = a * a * m[0] + 2 * a * b * m[1] + b * b * m[2] - 1.0
        g2 = a * a * m[1] + 2 * a * b * m[2] + b * b * m[3] - alpha
        if abs(g1) <= 1e-13 and abs(g2) <= 1e-13 * (1.0 + abs(alpha)):
            return (a + b * problem.q) * v
        j11 = 2.0 * (a * m[0] + b * m[1])
        j12 = 2.0 * (a * m[1] + b * m[2])
        j22 = 2.0 * (a * m[2] + b * m[3])
        da, db = np.linalg.solve([[j11, j12], [j12, j22]], [-g1, -g2])
        a += da
        b += db
    raise AssertionError("reference Newton did not meet tolerance in 60 steps")


def interior_noise(grid, rng):
    """A random field vanishing on the boundary, with max norm 1."""
    d = rng.standard_normal(grid.shape)
    d[~grid.interior_mask] = 0.0
    return d / np.abs(d).max()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_retract_closed_form_matches_newton(dim):
    prob = problems_1d_to_3d()[dim - 1]
    rng = np.random.default_rng(20 + dim)
    for _ in range(5):
        u = random_m_point(prob, rng)
        for scale in (1e-6, 1e-3, 1e-1):
            v = u + scale * np.abs(u).max() * interior_noise(prob.grid, rng)
            ref = newton_retract(prob, v)
            assert np.abs(retract(prob, v) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_retract_moves_a_perturbation_by_order_epsilon(dim):
    # The small root of the quadratic for b/a is the one that tends to
    # (a, b) = (1, 0) as the input approaches M; the other root would move
    # the field by order one.
    prob = problems_1d_to_3d()[dim - 1]
    rng = np.random.default_rng(30 + dim)
    u = random_m_point(prob, rng)
    d = np.abs(u).max() * interior_noise(prob.grid, rng)
    moved = []
    for eps in (1e-1, 1e-2, 1e-3):
        v = u + eps * d
        moved.append(np.abs(retract(prob, v) - v).max())
    assert moved[0] <= 0.5 * np.abs(u).max()
    assert moved[1] <= 0.15 * moved[0]
    assert moved[2] <= 0.15 * moved[1]


def test_retract_idempotent():
    prob = line_problem(129, alpha=0.5)
    v = bump(prob.grid, 0.3, 0.2) + bump(prob.grid, 0.75, 0.18)
    u = retract(prob, v)
    again = retract(prob, u)
    assert np.abs(again - u).max() <= 1e-12
    # A point already on M short-circuits: the pre-step residual check
    # returns the input array itself.
    assert again is u


def test_retract_error_modes():
    prob = line_problem(129, alpha=0.5)
    with pytest.raises(ManifoldError, match="Gram matrix"):
        retract(prob, np.zeros(prob.grid.shape))
    # alpha far outside the q-average reachable from a narrow bump at x=0.1.
    hard = line_problem(129, alpha=0.9)
    with pytest.raises(ManifoldError, match="no point of"):
        retract(hard, bump(hard.grid, 0.1, 0.05))
    # Constant coupling makes (v, q v) collinear: the ansatz is rank one.
    cq = constant_q_problem()
    with pytest.raises(ManifoldError, match="Gram matrix"):
        retract(cq, bump(cq.grid, 0.5, 0.2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_retract_rejects_non_finite_input(bad):
    """A non-finite node makes the moments NaN or infinite, and the Gram
    test of ``_gram_det`` rejects them before any root is taken."""
    prob = line_problem(129, alpha=0.5)
    v = bump(prob.grid, 0.3, 0.2) + bump(prob.grid, 0.75, 0.18)
    v[40] = bad
    with np.errstate(all="ignore"), pytest.raises(ManifoldError, match="Gram matrix"):
        retract(prob, v)


@pytest.mark.parametrize("case", ["mass", "coupling"])
def test_retract_rejects_moments_that_overflow(case):
    """Every square is finite, but a moment is not.

    ``mass``: with a tiny q the quadrature sum m0 is infinite while m1, m1^2
    and m2 stay finite, so the Gram determinant is infinite, not NaN.
    ``coupling``: with q near 1e110 every moment but m3 is finite, and
    (m0 + m2)^2 exceeds float64 range.
    """
    g = Grid(lengths=(4.0,), n=(65,))
    x = coords(g)[0]
    if case == "mass":
        coupling, v = 1e-160 * x, np.full(g.shape, 1.3e154)
    else:
        coupling, v = 1e110 * (1.0 + x), np.sin(np.pi * x / 4.0)
    v[[0, -1]] = 0.0
    assert np.isfinite(v * v).all()
    prob = build_problem(grid=g, coupling=coupling, h1=BoundaryData.zero(g),
                         h2=BoundaryData.zero(g), kappa=1.0, p=3.0)
    with np.errstate(over="ignore"), pytest.raises(ManifoldError, match="Gram matrix"):
        retract(prob, v)


def test_manifold_symmetric_under_negation():
    prob = line_problem(129, alpha=0.5)
    v = bump(prob.grid, 0.3, 0.2) + bump(prob.grid, 0.7, 0.2)
    u = retract(prob, v)
    c1, c2 = constraint_values(prob, -u)
    # Both constraints are even in u, so -u lies on M whenever u does.
    assert abs(c1) <= 1e-12
    assert abs(c2) <= 1e-12


def test_tangent_project_orthogonality():
    line = line_problem(129, alpha=0.5)
    square = square_problem(33, alpha=1.1)
    rng = np.random.default_rng(1)
    for prob, u in (
        (line, retract(line, bump(line.grid, 0.35, 0.25) + bump(line.grid, 0.75, 0.2))),
        (square, feasible_init(square)),
    ):
        g = prob.grid
        raw = rng.standard_normal(g.shape)
        raw[~g.interior_mask] = 0.0
        t = tangent_project(prob, u, raw)
        # The projection removes the Dirichlet solves of (u, q u), and the
        # result is L2-orthogonal to both constraint gradients.
        scale = 1.0 + np.abs(raw).max()
        assert abs(inner(g, t, u)) <= 1e-10 * scale
        assert abs(inner(g, t, prob.q * u)) <= 1e-10 * scale
        # Projection is idempotent.
        t2 = tangent_project(prob, u, t)
        assert np.abs(t2 - t).max() <= 1e-9 * scale


def test_tangent_project_degenerate_constant_q():
    prob = constant_q_problem()
    g = prob.grid
    u = np.sin(np.pi * coords(g)[0])
    u /= np.sqrt(inner(g, u, u))
    with pytest.raises(ManifoldError, match="Gram matrix"):
        tangent_project(prob, u, np.cos(np.pi * coords(g)[0]))


def test_feasible_init_on_manifold():
    for make in (lambda: line_problem(65, alpha=0.5),
                 lambda: line_problem(129, alpha=0.25),
                 lambda: square_problem(33, alpha=1.1)):
        prob = make()
        u0 = feasible_init(prob)
        c1, c2 = constraint_values(prob, u0)
        assert abs(c1) <= 1e-10
        assert abs(c2) <= 1e-8 * (1.0 + abs(prob.alpha))
        assert np.all(u0[~prob.grid.interior_mask] == 0.0)


def test_feasible_init_respects_region():
    prob = line_problem(129, alpha=0.3)
    u0 = feasible_init(prob, (0, 76))  # x[76] = 0.59375
    assert np.all(u0[1:76] > 0.0)
    assert np.all(u0[76:] == 0.0)
    c1, c2 = constraint_values(prob, u0)
    assert abs(c1) <= 1e-10 and abs(c2) <= 1e-8
    # Right of x[79] = 0.6171875, q = x > 0.3 on every node: q does not
    # bracket alpha, and the message names the slab's nodes.
    with pytest.raises(InfeasibleRegion, match=r"does not bracket .* slab 79\.\.128$"):
        feasible_init(prob, (79, 128))
    # A slab must run between two distinct nodes of axis 0, left to right.
    for slab in ((5, 5), (10, 3), (-1, 10), (0, 129)):
        with pytest.raises(ValueError, match="0 <= i0 < i1 < 129"):
            feasible_init(prob, slab)


def x_coupling_problem(dim, n, alpha):
    """Unit box with q = x1 and alpha on the right face: the coupling of the
    ground-3d benchmark in any dimension."""
    g = Grid(lengths=(1.0,) * dim, n=(n,) * dim)
    return build_problem(grid=g, coupling=CouplingSpec("affine", {"a": 0.0, "b": 1.0}),
                         h1=BoundaryData.zero(g),
                         h2=BoundaryData.constant(g, {"x1": alpha}), kappa=1.0, p=3.0)


def inside(grid, slab):
    """Interior nodes of the grid strictly between the slab's face nodes
    i0 and i1 on axis 0."""
    i0, i1 = slab
    mask = np.zeros(grid.shape, dtype=bool)
    mask[i0 + 1:i1] = True
    return mask & grid.interior_mask


def assert_seed(prob, u, slab):
    c1, c2 = constraint_values(prob, u)
    assert abs(c1) <= 1e-12
    assert abs(c2) <= 1e-12 * (1.0 + abs(prob.alpha))
    mask = inside(prob.grid, slab)
    assert np.all(u[mask] > 0.0)
    assert np.all(u[~mask] == 0.0)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 0.9])
@pytest.mark.parametrize("dim,n", [(2, 33), (3, 17)])
def test_feasible_init_is_a_positive_point_of_M_inside_its_region(dim, n, alpha):
    """With q = x the tilt reaches alpha near either face, where a pair of
    disjoint bumps did not fit; the seed is positive on the slab's interior
    nodes and exactly zero elsewhere, for the whole box and for the slab
    of nodes nearest to x = alpha -+ 0.3."""
    prob = x_coupling_problem(dim, n, alpha)
    sub = (round(max(0.0, alpha - 0.3) * (n - 1)), round(min(1.0, alpha + 0.3) * (n - 1)))
    assert_seed(prob, feasible_init(prob), (0, n - 1))
    assert_seed(prob, feasible_init(prob, sub), sub)


def test_feasible_init_on_the_coarsest_ground_3d_grid():
    """The ground-3d problem at 13^3, where two disjoint bumps did not fit."""
    prob = x_coupling_problem(3, 13, 0.5)
    assert_seed(prob, feasible_init(prob), (0, 12))


@pytest.mark.parametrize("alpha", [0.25, 0.3, 0.5])
def test_feasible_init_raises_exactly_when_q_fails_to_bracket_alpha(alpha):
    """Over every slab (i0, i1) of a 17-node line, and of a 17^2 square,
    ``feasible_init`` raises exactly when q does not strictly bracket alpha
    on the interior nodes.
    alpha = 0.25 and 0.5 are node values of q = x, so slabs that end with
    alpha as their largest or smallest interior value must raise."""
    for prob in (x_coupling_problem(1, 17, alpha), x_coupling_problem(2, 17, alpha)):
        for i0 in range(17):
            for i1 in range(i0 + 1, 17):
                d = prob.q[inside(prob.grid, (i0, i1))] - prob.alpha
                if d.size and d.min() < 0.0 < d.max():
                    assert_seed(prob, feasible_init(prob, (i0, i1)), (i0, i1))
                else:
                    with pytest.raises(InfeasibleRegion, match="does not bracket"):
                        feasible_init(prob, (i0, i1))


def test_feasible_init_raises_when_the_tilt_is_extreme():
    """One interior node has q just below alpha and every other one lies
    above it: the seed exists on paper but concentrates on that node, where
    q is nearly constant, and its retraction fails."""
    x = line_problem(17).grid.axes[0]
    prob = line_problem(17, alpha=x[1] + 1e-12)
    assert prob.q[1] < prob.alpha
    with pytest.raises(InfeasibleRegion, match="fails its retraction"):
        feasible_init(prob)


def one_well_problem(n=65):
    """One period of the oscillating coupling: its trough sits right of the
    middle, so q does not bracket alpha in the left half."""
    g = Grid(lengths=(1.0,), n=(n,))
    spec = CouplingSpec("oscillating", {"base": 1.0, "amplitude": 0.9,
                                        "cycles": 1, "tilt": 0.0})
    return build_problem(grid=g, coupling=spec, h1=BoundaryData.zero(g),
                         h2=BoundaryData.constant(g, {"x1": 0.35}),
                         kappa=20.0, p=3.0)


def test_genus_seeds_live_in_disjoint_slabs():
    one_well = one_well_problem()
    # Equal halves fail on the one-well coupling, so k = 2 there runs the
    # greedy re-partition.
    with pytest.raises(InfeasibleRegion):
        feasible_init(one_well, (0, 32))
    osc = oscillating_problem(129)
    for prob, k in ((osc, 1), (osc, 2), (osc, 3), (one_well, 2)):
        seeds = genus_seeds(prob, k)
        assert len(seeds) == k
        for s in seeds:
            c1, c2 = constraint_values(prob, s)
            assert abs(c1) <= 1e-10
            assert abs(c2) <= 1e-8 * (1.0 + abs(prob.alpha))
        # Pairwise disjoint supports make the family an exact sphere basis.
        for i in range(k):
            for j in range(i + 1, k):
                assert inner(prob.grid, seeds[i], seeds[j]) == 0.0


@pytest.mark.parametrize("k", [2, 3])
def test_genus_seeds_at_3d_25(k):
    """``excited.cfg`` on the 25^3 box: equal slabs, one seed each, where the
    two-bump seeds found only 1 of 2 slabs."""
    prob = oscillating_problem(25, dim=3)
    seeds = genus_seeds(prob, k)
    assert len(seeds) == k
    edges = [round(j * 24 / k) for j in range(k + 1)]
    for j, s in enumerate(seeds):
        assert_seed(prob, s, (edges[j], edges[j + 1]))


def test_genus_seeds_too_many_slabs():
    prob = oscillating_problem(65)
    with pytest.raises(InfeasibleRegion, match=r"only \d+ of 40 slabs"):
        genus_seeds(prob, 40)
    # More slabs than cells: the first of 200 equal slabs would be empty,
    # so only the greedy sweep runs.
    with pytest.raises(InfeasibleRegion, match=r"only \d+ of 200 slabs"):
        genus_seeds(prob, 200)
