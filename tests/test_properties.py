"""Property tests over random box grids in 1d, 2d and 3d.

Each example draws the dimension, 3 to 12 nodes per axis, the edge lengths
and a seed for the random data.  The examples are derandomized and the
database is off, so every run checks the same grids.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpbox import BoundaryData, Grid, build_problem, optimize
from sbpbox.dense import (
    solve_fourth_order_dense,
    solve_helmholtz_dense,
    solve_poisson_dirichlet_dense,
    solve_poisson_neumann_dense,
)
from sbpbox.errors import InfeasibleRegion, ManifoldError
from sbpbox.functional import eval_J, grad_J, zeroth_order_grad
from sbpbox.grid import (
    boundary_integrate,
    dirichlet_energy,
    dirichlet_inner,
    inner,
    integrate,
    laplacian_neumann,
    mean,
    norm_l2,
    zero_boundary,
)
from sbpbox.manifold import (
    _moments,
    constraint_representers,
    constraint_values,
    feasible_init,
    tangent_project,
)
from sbpbox.optimize import OptimizerOptions, _evaluate, _h1_check, _tangent_gradient
from sbpbox.reduction import phi_map
from sbpbox.solvers import (
    _dst_interior,
    _from_dst_interior,
    _symbols,
    solve_fourth_order_split,
    solve_helmholtz_neumann,
    solve_poisson_dirichlet,
    solve_poisson_neumann_zeromean,
)
from conftest import DescentSpy, cell_weights, oscillating_problem

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=20)


@st.composite
def grids(draw):
    dim = draw(st.integers(1, 3))
    n = tuple(draw(st.integers(3, 12)) for _ in range(dim))
    lengths = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    return Grid(lengths=lengths, n=n)


SEEDS = st.integers(0, 2**32 - 1)


def random_flux(g, rng):
    return BoundaryData(g, {face: rng.standard_normal(g.face_shape(face[0]))
                            for face in g.faces()})


def close(a, b):
    return np.abs(a - b).max() <= 1e-10 * (1.0 + np.abs(b).max())


@PROPERTY
@given(grids(), SEEDS)
def test_solves_agree_with_dense_oracle(g, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.shape)
    assert close(solve_helmholtz_neumann(g, f), solve_helmholtz_dense(g, -f))
    f0 = f - mean(g, f)
    assert close(solve_poisson_neumann_zeromean(g, f0),
                 solve_poisson_neumann_dense(g, f0))
    fd = zero_boundary(g, f)
    assert close(solve_poisson_dirichlet(g, fd),
                 solve_poisson_dirichlet_dense(g, fd))


@PROPERTY
@given(grids(), SEEDS)
def test_fused_split_agrees_with_dense_oracle(g, seed):
    f = np.random.default_rng(seed).standard_normal(g.shape)
    assert close(solve_fourth_order_split(g, f), solve_fourth_order_dense(g, f))


@PROPERTY
@given(grids(), SEEDS)
def test_phi_map_is_the_split_of_the_projected_source(g, seed):
    rng = np.random.default_rng(seed)
    zero = BoundaryData.zero(g)
    prob = build_problem(grid=g, coupling=1.0 + rng.random(g.shape),
                         h1=zero, h2=zero, kappa=1.0, p=3.0)
    u = rng.standard_normal(g.shape)
    src = prob.q * u * u
    direct = solve_fourth_order_split(g, src - mean(g, src))
    assert close(phi_map(prob, u), direct)


def sobolev_identity_holds(g, seed):
    rng = np.random.default_rng(seed)
    prob = build_problem(grid=g, coupling=1.0 + rng.random(g.shape),
                         h1=random_flux(g, rng), h2=random_flux(g, rng),
                         kappa=1.0, p=3.0)
    u = zero_boundary(g, rng.standard_normal(g.shape))
    phi = phi_map(prob, u)
    w = zeroth_order_grad(prob, u, phi)
    return close(u + solve_poisson_dirichlet(g, w),
                 solve_poisson_dirichlet(g, grad_J(prob, u, phi)))


@PROPERTY
@given(grids(), SEEDS)
def test_sobolev_gradient_is_u_plus_solve_of_w(g, seed):
    """S(grad J) = S(-lap u + w) = u + S(w): the Dirichlet solve inverts the
    three-point stencil exactly, so the descent needs no stencil."""
    assert sobolev_identity_holds(g, seed)


def test_sobolev_gradient_is_u_plus_solve_of_w_on_an_fft_axis():
    """The same identity where the solve transforms the long axis by rfft."""
    assert sobolev_identity_holds(Grid(lengths=(1.0, 2.0), n=(5, 261)), seed=7)


def check_reductions_against_sums(g, seed):
    """The dot-product reductions against their plain ``np.sum`` forms, each
    within 1e-13 times the sum of the magnitudes of its terms.  The
    projection solves a 2x2 system, which magnifies rounding in its entries
    by up to the condition number, so that enters its bound."""
    rng = np.random.default_rng(seed)
    zero = BoundaryData.zero(g)
    prob = build_problem(grid=g, coupling=1.0 + rng.random(g.shape),
                         h1=zero, h2=zero, kappa=1.0, p=3.0)
    f, k = rng.standard_normal((2,) + g.shape)
    w = g.weights

    def agree(value, terms):
        return abs(value - np.sum(terms)) <= 1e-13 * np.sum(np.abs(terms))

    assert agree(integrate(g, f), w * f)
    assert agree(inner(g, f, k), w * f * k)
    grad_terms = [cw * (np.diff(f, axis=a) / h) * (np.diff(k, axis=a) / h)
                  for a, (h, cw) in enumerate(zip(g.h, cell_weights(g)))]
    assert agree(dirichlet_inner(g, f, k),
                 np.concatenate([t.ravel() for t in grad_terms]))
    for power, m in enumerate(_moments(prob, f)):
        assert agree(m, w * prob.q**power * f * f)
    # alpha = 0 here; only the mass residual carries a constant.
    c1, c2 = constraint_values(prob, f)
    mass = np.sum(w * f * f)
    assert abs(c1 - (mass - 1.0)) <= 1e-13 * (mass + 1.0)
    assert agree(c2, w * prob.q * f * f)

    u = zero_boundary(g, f)
    try:
        projected = tangent_project(prob, u, k)
    except ManifoldError as exc:
        if "Gram matrix" not in str(exc):
            raise
        return  # too few interior nodes for two independent constraints
    d = constraint_representers(prob, u)
    gram = np.array([[np.sum(w * r * dj) for dj in d] for r in (u, prob.q * u)])
    rhs = np.array([np.sum(w * r * k) for r in (u, prob.q * u)])
    lam, beta = np.linalg.solve(gram, rhs)
    reference = k - lam * d[0] - beta * d[1]
    scale = np.linalg.cond(gram) * (np.abs(k).max() + np.abs(lam * d[0]).max()
                                    + np.abs(beta * d[1]).max())
    assert np.abs(projected - reference).max() <= 1e-13 * scale


@PROPERTY
@given(grids(), SEEDS)
def test_reductions_agree_with_their_sum_forms(g, seed):
    check_reductions_against_sums(g, seed)


def test_reductions_agree_with_their_sum_forms_on_an_fft_axis():
    """The same, where the constraint representers transform by rfft."""
    check_reductions_against_sums(Grid(lengths=(1.0, 2.0), n=(5, 261)), seed=7)


def check_dirichlet_inner_on_modes(g, seed):
    """For fields a, b that vanish on the boundary, dirichlet_inner(a, b) =
    sum(sigma a_hat b_hat) * prod h / scale, the form in which the descent
    takes its decrease rate, sy and yy: the DST-I T is symmetric with
    T T = scale and diagonalizes the stencil of -lap with symbol sigma."""
    rng = np.random.default_rng(seed)
    a, b = (zero_boundary(g, f) for f in rng.standard_normal((2,) + g.shape))
    sym = _symbols(g)
    on_modes = (float(np.sum(sym.dirichlet * _dst_interior(g, a) * _dst_interior(g, b)))
                * np.prod(g.h) / sym.scale)
    bound = 1e-13 * (np.sqrt(dirichlet_energy(g, a) * dirichlet_energy(g, b)) + 1.0)
    assert abs(on_modes - dirichlet_inner(g, a, b)) <= bound


@PROPERTY
@given(grids(), SEEDS)
def test_dirichlet_inner_is_a_sum_over_dst_modes(g, seed):
    check_dirichlet_inner_on_modes(g, seed)


@pytest.mark.parametrize("n", [(261,), (5, 261), (4, 5, 261)], ids=["1d", "2d", "3d"])
def test_dirichlet_inner_is_a_sum_over_dst_modes_on_an_fft_axis(n):
    """The same, where the long axis transforms by rfft."""
    check_dirichlet_inner_on_modes(Grid(lengths=(1.0, 2.0, 1.5)[:len(n)], n=n), seed=7)


def check_descent_gradient(g, seed):
    """The descent's tangent gradient, built from the DST-I coefficients of
    u, q u and w, is the inverse transform of the coefficients it returns
    with it; that field equals ``tangent_project`` of u + S(w) formed field
    by field, and is L2-orthogonal to u and q u; its coefficients (lam,
    beta) solve the projection's 2x2 system.  The two sides differ by
    rounding in the coefficients of the gradient, which the 2x2 solve
    magnifies by up to the condition number of its matrix."""
    rng = np.random.default_rng(seed)
    prob = build_problem(grid=g, coupling=1.0 + rng.random(g.shape),
                         h1=random_flux(g, rng), h2=random_flux(g, rng),
                         kappa=1.0, p=3.0)
    u = zero_boundary(g, rng.standard_normal(g.shape))
    phi = phi_map(prob, u)
    try:
        lam, beta, gt_hat, _ = _tangent_gradient(prob, u, phi, _dst_interior(g, u), 0.0,
                                                 _symbols(g).dirichlet)
    except ManifoldError as exc:
        if "Gram matrix" not in str(exc):
            raise
        return  # too few interior nodes for two independent constraints
    descent = _from_dst_interior(g, gt_hat, np.zeros(g.shape))
    g_h = u + solve_poisson_dirichlet(g, zeroth_order_grad(prob, u, phi))
    d = constraint_representers(prob, u)
    gram = np.array([[inner(g, r, dj) for dj in d] for r in (u, prob.q * u)])
    cond = np.linalg.cond(gram)
    scale = cond * np.abs(g_h).max()
    assert np.abs(descent - tangent_project(prob, u, g_h)).max() <= 1e-13 * scale
    for r in (u, prob.q * u):
        assert abs(inner(g, descent, r)) <= 1e-13 * scale * norm_l2(g, r)
    coeffs = np.linalg.solve(gram, [inner(g, r, g_h) for r in (u, prob.q * u)])
    assert np.abs([lam, beta] - coeffs).max() <= 1e-13 * cond * np.abs(coeffs).max()


@PROPERTY
@given(grids(), SEEDS)
def test_descent_gradient_is_the_projected_sobolev_gradient(g, seed):
    check_descent_gradient(g, seed)


@pytest.mark.parametrize("n", [(261,), (5, 261), (4, 5, 261)], ids=["1d", "2d", "3d"])
def test_descent_gradient_is_the_projected_sobolev_gradient_on_an_fft_axis(n):
    """The same, where the long axis transforms by rfft."""
    check_descent_gradient(Grid(lengths=(1.0, 2.0, 1.5)[:len(n)], n=n), seed=7)


def h1_tangent_gradient_reference(prob, u, phi, u_hat):
    """The H^1_0 descent direction written out step by step: coefficients
    u_hat + w_hat / sigma, projected by Cramer's rule on the Gram matrix
    sum(r_i_hat r_j_hat / sigma) of (u, q u).  Returns (lam, beta, gt_hat)."""
    g = prob.grid
    sigma = _symbols(g).dirichlet
    qu = prob.q * u
    w = qu * (phi + prob.chi)
    w -= prob.kappa * np.abs(u) ** (prob.p - 2.0) * u
    g_hat = _dst_interior(g, w)
    g_hat /= sigma
    g_hat += u_hat
    qu_hat = _dst_interior(g, qu)
    d1, d2 = u_hat / sigma, qu_hat / sigma
    g11, g12, g22 = (float(np.vdot(u_hat, d1)), float(np.vdot(u_hat, d2)),
                     float(np.vdot(qu_hat, d2)))
    det = g11 * g22 - g12 * g12
    r1, r2 = float(np.vdot(u_hat, g_hat)), float(np.vdot(qu_hat, g_hat))
    lam, beta = (r1 * g22 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det
    return lam, beta, g_hat - lam * d1 - beta * d2


def check_shifted_metric(g, seed):
    """The descent's metric -lap + s.  At s = 0 its direction and
    multipliers are bitwise the H^1_0 ones written out above.  For s in {1,
    sigma_1, 1e3}, with sigma_1 the smallest eigenvalue of the stencil of
    -lap, the shifted tangent norm is at most the H^1_0 one: both are sups
    of <grad J, v> / |v| over the same tangent space, and |v| grows with s.
    The H^1_0 check ``_h1_check`` is bitwise the (lam, beta, norm) of the
    unshifted pass, which returns the coefficients of q u."""
    rng = np.random.default_rng(seed)
    prob = build_problem(grid=g, coupling=1.0 + rng.random(g.shape),
                         h1=random_flux(g, rng), h2=random_flux(g, rng),
                         kappa=1.0, p=3.0)
    u = zero_boundary(g, rng.standard_normal(g.shape))
    phi = phi_map(prob, u)
    u_hat = _dst_interior(g, u)
    sym = _symbols(g)
    sigma, metric = sym.dirichlet, np.prod(g.h) / sym.scale
    try:
        lam, beta, gt_hat, qu_hat = _tangent_gradient(prob, u, phi, u_hat, 0.0, sigma)
    except ManifoldError as exc:
        if "Gram matrix" not in str(exc):
            raise
        return  # too few interior nodes for two independent constraints
    ref_lam, ref_beta, ref_hat = h1_tangent_gradient_reference(prob, u, phi, u_hat)
    assert (lam, beta) == (ref_lam, ref_beta)
    assert np.array_equal(gt_hat, ref_hat)
    assert np.array_equal(qu_hat, _dst_interior(g, prob.q * u))
    norm = np.sqrt(metric * float(np.vdot(sigma * gt_hat, gt_hat)))
    assert _h1_check(prob, u, phi, u_hat, sigma, metric) == (lam, beta, norm)
    # Where the tangent space is {0} (two interior nodes) both norms are
    # rounding in the projection of the whole gradient u + S(w).
    g_hat = u_hat + _dst_interior(g, zeroth_order_grad(prob, u, phi)) / sigma
    floor = 1e-13 * np.sqrt(metric * float(np.vdot(sigma * g_hat, g_hat)))
    for s in (1.0, float(sigma.flat[0]), 1e3):
        symbol = sigma + s
        _, _, gs_hat, _ = _tangent_gradient(prob, u, phi, u_hat, s, symbol)
        shifted = np.sqrt(metric * float(np.vdot(symbol * gs_hat, gs_hat)))
        assert shifted <= norm * (1.0 + 1e-12) + floor


@PROPERTY
@given(grids(), SEEDS)
def test_shifted_metric_bounds_the_h1_tangent_norm(g, seed):
    check_shifted_metric(g, seed)


@pytest.mark.parametrize("n", [(261,), (5, 261), (4, 5, 261)], ids=["1d", "2d", "3d"])
def test_shifted_metric_bounds_the_h1_tangent_norm_on_an_fft_axis(n):
    """The same, where the long axis transforms by rfft."""
    check_shifted_metric(Grid(lengths=(1.0, 2.0, 1.5)[:len(n)], n=n), seed=7)


def check_tail_directions(g, seed):
    """The L-BFGS tail, started at pass 1 on a random problem with q in
    [1, 2] and alpha = 1.5.  Every direction it steps along is
    L2-orthogonal to u and q u at its iterate, to 1e-12 relative, and has
    a positive slope, the product sum((sigma + s) gt_hat d_hat) * prod h /
    scale of the metric to rounding.  A pair enters the memory when its sy
    in the pass's metric is positive, and never when it is negative, beyond
    rounding of 1e-12 relative."""
    rng = np.random.default_rng(seed)
    prob = build_problem(grid=g, coupling=1.0 + rng.random(g.shape),
                         h1=BoundaryData.zero(g),
                         h2=BoundaryData.constant(g, {"x1": 1.5 / math.prod(g.lengths[1:])}),
                         kappa=1.0, p=3.0)
    assert prob.alpha == pytest.approx(1.5)
    check_tail_run(prob)


def check_tail_run(prob):
    """The checks of ``check_tail_directions`` on the descent from
    ``feasible_init(prob)``, on the problem it ran on; returns its
    ``Descent``, or None when it has no start."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_QN_START", 1)
        spy = DescentSpy(mp)
        try:
            optimize.minimize_on_M(prob, feasible_init(prob), OptimizerOptions(max_iterations=15))
        except (InfeasibleRegion, ManifoldError):
            return None  # q does not bracket alpha, or too few interior nodes
    (run,) = spy.descents
    prob, g = run.problem, run.problem.grid
    sym = _symbols(g)
    metric = math.prod(g.h) / sym.scale
    for prev, cur in zip(run.passes, run.passes[1:]):
        if cur.pairs is None:
            continue
        s_hat = _dst_interior(g, cur.u) - _dst_interior(g, prev.u)
        y_hat = cur.gt_hat - prev.gt_hat
        sy = float(np.vdot(cur.symbol * s_hat, y_hat))
        floor = 1e-12 * math.sqrt(np.vdot(cur.symbol * s_hat, s_hat)
                                  * np.vdot(cur.symbol * y_hat, y_hat))
        stored = any(np.array_equal(s_hat, a) and np.array_equal(y_hat, b)
                     for a, b in cur.pairs)
        assert stored if sy > floor else not stored if sy < -floor else True
        if cur.direction is cur.gt:
            continue  # the memory was cleared and the pass took the gradient
        d = cur.direction
        for r in (cur.u, prob.q * cur.u):
            assert abs(inner(g, d, r)) <= 1e-12 * norm_l2(g, d) * norm_l2(g, r)
        d_hat = _dst_interior(g, d)
        norms = metric * math.sqrt(np.vdot(cur.symbol * d_hat, d_hat)
                                   * np.vdot(cur.symbol * cur.gt_hat, cur.gt_hat))
        assert cur.slope > 0.0
        assert cur.slope == pytest.approx(
            metric * float(np.vdot(cur.symbol * cur.gt_hat, d_hat)), abs=1e-12 * norms)
    return run


@PROPERTY
@given(grids(), SEEDS)
def test_tail_directions_are_tangent_descent_directions(g, seed):
    check_tail_directions(g, seed)


@pytest.mark.parametrize("n, dim", [(17, 2), (13, 3)], ids=["2d", "3d"])
def test_tail_directions_on_a_mirror_sector(n, dim):
    """The same on the excited-search problem on the mirror sector of every
    transverse axis, where its search descends."""
    run = check_tail_run(optimize.mirror_sector(oscillating_problem(n, dim=dim)))
    assert run.problem.grid.mirror == tuple(range(1, dim))
    assert any(p.direction is not p.gt for p in run.tail)


def check_trial_evaluation(g, seed):
    """The descent evaluates a trial point once: its potential, DST-I
    coefficients and constraint residuals are bitwise those of
    ``phi_map``, ``_dst_interior`` and ``constraint_values``, and its J
    and integral of |grad u|^2, both formed with a sum over modes, are
    ``eval_J`` and ``dirichlet_energy`` to rounding."""
    rng = np.random.default_rng(seed)
    prob = build_problem(grid=g, coupling=1.0 + rng.random(g.shape),
                         h1=random_flux(g, rng), h2=random_flux(g, rng),
                         kappa=float(rng.integers(0, 2)), p=rng.uniform(2.1, 3.3))
    u = zero_boundary(g, rng.standard_normal(g.shape))
    phi, u_hat, j, dirichlet, c1, c2 = _evaluate(prob, u)
    assert np.array_equal(phi, phi_map(prob, u))
    assert np.array_equal(u_hat, _dst_interior(g, u))
    assert (c1, c2) == constraint_values(prob, u)
    assert j == pytest.approx(eval_J(prob, u, phi), rel=1e-13)
    assert dirichlet == pytest.approx(dirichlet_energy(g, u), rel=1e-13)


@PROPERTY
@given(grids(), SEEDS)
def test_trial_evaluation_matches_its_parts(g, seed):
    check_trial_evaluation(g, seed)


def test_trial_evaluation_matches_its_parts_on_an_fft_axis():
    """The same, where the long axis transforms by rfft."""
    check_trial_evaluation(Grid(lengths=(1.0, 2.0), n=(5, 261)), seed=7)


@PROPERTY
@given(grids(), SEEDS)
def test_zero_mean_solve_leaves_the_cached_symbols_intact(g, seed):
    """The solves share per-grid symbols and transform matrices; the
    zero-mean solve must not change the ones the Helmholtz solve reads, or
    itself on a second call, and no cached array may be written."""
    f = np.random.default_rng(seed).standard_normal(g.shape)
    f0 = f - mean(g, f)
    first = solve_poisson_neumann_zeromean(g, f0)
    helm = solve_helmholtz_neumann(g, f)
    dirichlet = solve_poisson_dirichlet(g, f)
    fresh = Grid(lengths=g.lengths, n=g.n)
    assert np.array_equal(helm, solve_helmholtz_neumann(fresh, f))
    assert close(helm, solve_helmholtz_dense(g, -f))
    assert np.array_equal(first, solve_poisson_neumann_zeromean(fresh, f0))
    assert close(first, solve_poisson_neumann_dense(g, f0))
    assert np.array_equal(dirichlet, solve_poisson_dirichlet(fresh, f))
    sym = _symbols(g)
    cached = (sym.helmholtz, sym.zeromean, sym.dirichlet, *sym.dct, *sym.dst)
    assert all(arr.flags.writeable is False for arr in cached if arr is not None)


@PROPERTY
@given(grids(), SEEDS)
def test_helmholtz_gauss_identity(g, seed):
    """boundary_integrate(flux) - integrate(v) == integrate(f)."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.shape)
    flux = random_flux(g, rng)
    v = solve_helmholtz_neumann(g, f, flux)
    lhs = boundary_integrate(g, flux) - integrate(g, v)
    rhs = integrate(g, f)
    scale = 1.0 + integrate(g, np.abs(f)) + integrate(g, np.abs(v))
    assert abs(lhs - rhs) <= 1e-12 * scale


@PROPERTY
@given(grids(), SEEDS)
def test_poisson_neumann_zero_mean(g, seed):
    rng = np.random.default_rng(seed)
    flux = random_flux(g, rng)
    f = rng.standard_normal(g.shape)
    f += boundary_integrate(g, flux) / g.volume - mean(g, f)  # compatible data
    v = solve_poisson_neumann_zeromean(g, f, flux)
    assert abs(mean(g, v)) <= 1e-12 * (1.0 + np.abs(v).max())


@PROPERTY
@given(grids(), SEEDS)
def test_sbp_identity(g, seed):
    """dirichlet_inner(f, h) == -inner(lap_neumann f, h) for any fields."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.shape)
    h = rng.standard_normal(g.shape)
    lap_f = laplacian_neumann(g, f)
    lhs = dirichlet_inner(g, f, h)
    rhs = -inner(g, lap_f, h)
    scale = 1.0 + integrate(g, np.abs(lap_f * h))
    assert abs(lhs - rhs) <= 1e-13 * scale
