"""Reduced energy: value identities, derivative correctness, symmetry."""

import numpy as np
import pytest

from sbpbox.functional import eval_J, grad_J
from sbpbox.grid import dirichlet_energy, dirichlet_inner, inner, zero_boundary
from sbpbox.reduction import interaction_energy, phi_map
from sbpbox.solvers import solve_poisson_dirichlet
from conftest import eval_F, line_problem, random_m_point


@pytest.fixture(scope="module")
def prob():
    return line_problem(129)


def test_reduction_identity_j_equals_f(prob):
    """Evaluating the two-field energy at the generated potential gives back
    the reduced energy: the potential terms flip sign against the coupling
    term exactly when phi solves the fourth-order equation."""
    rng = np.random.default_rng(1)
    for _ in range(4):
        u = random_m_point(prob, rng)
        phi = phi_map(prob, u)
        j = eval_J(prob, u, phi)
        f = eval_F(prob, u, phi)
        assert abs(j - f) <= 1e-8 * (1.0 + abs(j))


def test_gradient_matches_directional_derivative(prob):
    """Central differences of J along random interior directions agree with
    the pairing against the gradient field to 1e-5 relative at eps=1e-5."""
    rng = np.random.default_rng(2)
    eps = 1e-5
    for _ in range(3):
        u = random_m_point(prob, rng)
        v = zero_boundary(prob.grid, rng.standard_normal(prob.grid.shape))
        g = grad_J(prob, u)
        predicted = inner(prob.grid, g, v)
        jp = eval_J(prob, u + eps * v)
        jm = eval_J(prob, u - eps * v)
        observed = (jp - jm) / (2.0 * eps)
        assert abs(observed - predicted) <= 1e-5 * (1.0 + abs(observed))


def test_energy_even_bitwise(prob):
    rng = np.random.default_rng(3)
    u = random_m_point(prob, rng)
    jp = eval_J(prob, u)
    jm = eval_J(prob, -u)
    assert jp == jm  # no tolerance: every term is built from u*u and |u|


def test_gradient_odd_bitwise(prob):
    rng = np.random.default_rng(4)
    u = random_m_point(prob, rng)
    gp = grad_J(prob, u)
    gm = grad_J(prob, -u)
    assert np.array_equal(gm, -gp)


def test_gradient_vanishes_on_boundary(prob):
    rng = np.random.default_rng(5)
    u = random_m_point(prob, rng)
    g = grad_J(prob, u)
    assert np.all(g[~prob.grid.interior_mask] == 0.0)
    g_h = solve_poisson_dirichlet(prob.grid, g)
    assert np.all(g_h[~prob.grid.interior_mask] == 0.0)


def test_metric_gradients_are_equivalent(prob):
    """The Dirichlet solve of the L2 gradient is its H^1_0 representer:
    dirichlet_inner(g_h, v) == inner(g_l2, v) for interior directions."""
    rng = np.random.default_rng(6)
    u = random_m_point(prob, rng)
    g_l2 = grad_J(prob, u, phi_map(prob, u))
    g_h = solve_poisson_dirichlet(prob.grid, g_l2)
    for _ in range(3):
        v = zero_boundary(prob.grid, rng.standard_normal(prob.grid.shape))
        a = dirichlet_inner(prob.grid, g_h, v)
        b = inner(prob.grid, g_l2, v)
        assert abs(a - b) <= 1e-7 * (1.0 + abs(b))


def test_kappa_zero_drops_nonlinear_term():
    """With kappa = 0, J is exactly its three quadratic terms."""
    prob = line_problem(65, kappa=0.0)
    g = prob.grid
    rng = np.random.default_rng(7)
    u = random_m_point(prob, rng)
    terms = (0.5 * dirichlet_energy(g, u)
             + 0.25 * interaction_energy(prob, u, phi_map(prob, u))
             + 0.5 * inner(g, prob.q * prob.chi, u * u))
    assert eval_J(prob, u) == pytest.approx(terms, rel=1e-14)
