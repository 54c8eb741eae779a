"""The source-to-potential map: fourth-order solve, linearity, energy identity."""

import numpy as np
import pytest

from sbpbox import Grid
from sbpbox.grid import dirichlet_energy, inner, laplacian_neumann, mean
from sbpbox.reduction import interaction_energy, phi_map
from sbpbox.solvers import solve_fourth_order_split
from sbpbox.dense import solve_fourth_order_dense
from conftest import line_problem, random_m_point, square_problem


def test_split_solution_properties():
    g = Grid(lengths=(1.0, 1.0), n=(17, 17))
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.shape)
    # The potential carries the zero-mean gauge when the fluxes vanish.
    assert abs(mean(g, solve_fourth_order_split(g, f))) <= 1e-11


def test_split_matches_dense_oracle():
    for dim, n in ((1, 17), (2, 9)):
        g = Grid(lengths=(1.0,) * dim, n=(n,) * dim)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(g.shape)
        phi = solve_fourth_order_split(g, f)
        phi_d = solve_fourth_order_dense(g, f)
        scale = 1.0 + np.abs(phi_d).max()
        assert np.abs(phi - phi_d).max() <= 1e-8 * scale


def test_split_linearity():
    g = Grid(lengths=(1.0,), n=(65,))
    rng = np.random.default_rng(2)
    f1 = rng.standard_normal(g.shape)
    f2 = rng.standard_normal(g.shape)
    a, b = 2.5, -1.25
    p1 = solve_fourth_order_split(g, f1)
    p2 = solve_fourth_order_split(g, f2)
    p12 = solve_fourth_order_split(g, a * f1 + b * f2)
    scale = 1.0 + np.abs(p12).max()
    assert np.abs(p12 - (a * p1 + b * p2)).max() <= 1e-8 * scale


def test_split_eigenfunction_second_order():
    """cos(pi x) is an eigenfunction of the map: zero mean, zero fluxes,
    image cos(pi x) / (pi^4 + pi^2).  Observed order must be 2.0 +- 0.1."""
    lam = 1.0 / (np.pi ** 4 + np.pi ** 2)
    errs = []
    for n in (33, 65, 129, 257):
        g = Grid(lengths=(1.0,), n=(n,))
        f = np.cos(np.pi * g.coords[0])
        phi = solve_fourth_order_split(g, f)
        errs.append(np.abs(phi - lam * f).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) <= 0.1)


def test_phi_map_even_bitwise(bench129):
    rng = np.random.default_rng(4)
    u = random_m_point(bench129, rng)
    assert np.array_equal(phi_map(bench129, u), phi_map(bench129, -u))


@pytest.mark.parametrize("make,n_samples", [
    (lambda: line_problem(129), 8),
    (lambda: square_problem(17), 5),
])
def test_interaction_energy_identity(make, n_samples):
    """The energy of the generated potential equals its source pairing:
    integrate(lap(phi_u)^2) + integrate(|grad phi_u|^2) ==
    integrate(q u^2 phi_u) by the discrete Green identities, up to solver
    tolerance only."""
    prob = make()
    rng = np.random.default_rng(5)
    for _ in range(n_samples):
        u = rng.standard_normal(prob.grid.shape)
        phi = phi_map(prob, u)
        psi = laplacian_neumann(prob.grid, phi)
        lhs = inner(prob.grid, psi, psi) + dirichlet_energy(prob.grid, phi)
        rhs = interaction_energy(prob, u, phi)
        assert abs(lhs - rhs) <= 1e-7 * abs(rhs)


def test_phi_map_source_mean_projection(bench65):
    """The generated potential only sees the zero-mean part of q u^2, so
    adding a constant to the source through u cannot leak in: the potential
    of u and of the explicitly projected source agree."""
    rng = np.random.default_rng(8)
    u = rng.standard_normal(bench65.grid.shape)
    src = bench65.q * u * u
    direct = solve_fourth_order_split(bench65.grid, src - mean(bench65.grid, src))
    assert np.abs(phi_map(bench65, u) - direct).max() <= 1e-10
