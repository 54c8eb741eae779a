"""Property tests over random box grids in 1d, 2d and 3d.

Each example draws the dimension, 3 to 12 nodes per axis, the edge lengths
and a seed for the random data.  The examples are derandomized and the
database is off, so every run checks the same grids.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpbox import BoundaryData, Grid, build_problem
from sbpbox.dense import (
    solve_fourth_order_dense,
    solve_helmholtz_dense,
    solve_poisson_dirichlet_dense,
    solve_poisson_neumann_dense,
)
from sbpbox.errors import ManifoldError
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
    tangent_project,
)
from sbpbox.optimize import _evaluate, _tangent_gradient
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
                  for a, (h, cw) in enumerate(zip(g.h, g.cell_weights))]
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
    magnifies by up to the condition number of its matrix.  The direction
    is written into the buffer passed in."""
    rng = np.random.default_rng(seed)
    prob = build_problem(grid=g, coupling=1.0 + rng.random(g.shape),
                         h1=random_flux(g, rng), h2=random_flux(g, rng),
                         kappa=1.0, p=3.0)
    u = zero_boundary(g, rng.standard_normal(g.shape))
    phi = phi_map(prob, u)
    gt = np.zeros(g.shape)
    try:
        lam, beta, gt_hat = _tangent_gradient(prob, u, phi, _dst_interior(g, u), gt)
    except ManifoldError as exc:
        if "Gram matrix" not in str(exc):
            raise
        return  # too few interior nodes for two independent constraints
    descent = _from_dst_interior(g, gt_hat, np.zeros(g.shape))
    assert np.array_equal(gt, descent)
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


def check_trial_evaluation(g, seed):
    """The descent evaluates a trial point once: its potential, DST-I
    coefficients and constraint residuals are bitwise those of
    ``phi_map``, ``_dst_interior`` and ``constraint_values``, and its J,
    whose Dirichlet term is a sum over modes, is ``eval_J`` to rounding."""
    rng = np.random.default_rng(seed)
    prob = build_problem(grid=g, coupling=1.0 + rng.random(g.shape),
                         h1=random_flux(g, rng), h2=random_flux(g, rng),
                         kappa=float(rng.integers(0, 2)), p=rng.uniform(2.1, 3.3))
    u = zero_boundary(g, rng.standard_normal(g.shape))
    phi, u_hat, j, c1, c2 = _evaluate(prob, u)
    assert np.array_equal(phi, phi_map(prob, u))
    assert np.array_equal(u_hat, _dst_interior(g, u))
    assert (c1, c2) == constraint_values(prob, u)
    assert j == pytest.approx(eval_J(prob, u, phi), rel=1e-13)


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
