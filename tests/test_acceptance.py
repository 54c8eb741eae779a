"""Acceptance suite: ten independent checks of the advertised behavior,
one test (and one verdict line under ``pytest -v``) each.

Shared expensive solves are computed once through module-level caches; the
runtime-bounded criteria time the actual solve, not the cache lookup.
"""

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from sbpbox import Grid
from sbpbox.functional import eval_J, grad_J
from sbpbox.grid import (
    boundary_integrate,
    dirichlet_energy,
    inner,
    integrate,
    laplacian_neumann,
    mean,
    norm_l2,
    zero_boundary,
)
from sbpbox.problem import box_problem, solve_chi
from sbpbox.reduction import interaction_energy, phi_map
from sbpbox.solvers import solve_fourth_order_split
from sbpbox.manifold import constraint_values, feasible_init, retract
from sbpbox.optimize import (
    OptimizerOptions,
    _dedupe,
    excited_states,
    minimize_on_M,
)
from sbpbox.verify import (
    dense_kkt_polish,
    dense_oracle_compare,
    residual_original_system,
)
from conftest import coords, line_problem, oscillating_problem, random_m_point, square_problem
from test_problem import manufactured_chi

_cache = {}


def ground_state(n):
    """Benchmark minimization at resolution n, timed, cached per n."""
    key = ("ground", n)
    if key not in _cache:
        prob = line_problem(n)
        t0 = time.perf_counter()
        res = minimize_on_M(prob, feasible_init(prob), OptimizerOptions())
        _cache[key] = (prob, res, time.perf_counter() - t0)
    return _cache[key]


def excited_family():
    if "excited" not in _cache:
        prob = oscillating_problem(257, alpha=0.35, kappa=20.0)
        t0 = time.perf_counter()
        states = excited_states(prob, 3,
                                OptimizerOptions(max_iterations=8000))
        _cache["excited"] = (prob, states, time.perf_counter() - t0)
    return _cache["excited"]


def test_01_interaction_energy_identity():
    """integrate(lap(phi_u)^2) + integrate(|grad phi_u|^2) ==
    integrate(q u^2 phi_u) to 1e-7 relative, lap the Neumann stencil, for
    50 random states on the 1d n=129 and 2d 33x33 problems, under 30 s."""
    t0 = time.perf_counter()
    cases = [(line_problem(129), 50), (box_problem(square_problem(33)), 50)]
    rng = np.random.default_rng(0)
    for prob, count in cases:
        for _ in range(count):
            u = rng.standard_normal(prob.grid.shape)
            phi = phi_map(prob, u)
            psi = laplacian_neumann(prob.grid, phi)
            lhs = inner(prob.grid, psi, psi) + dirichlet_energy(prob.grid, phi)
            rhs = interaction_energy(prob, u, phi)
            assert abs(lhs - rhs) <= 1e-7 * abs(rhs)
    assert time.perf_counter() - t0 < 30.0


def test_02_potential_map_eigenfunction_and_linearity():
    """The source-to-potential map sends cos(pi x) to itself scaled by
    1/(pi^4 + pi^2) at observed order 2.0 +- 0.1, and is linear to 1e-8;
    all under 10 s."""
    t0 = time.perf_counter()
    lam = 1.0 / (np.pi ** 4 + np.pi ** 2)
    errs = []
    for n in (33, 65, 129, 257):
        g = Grid(lengths=(1.0,), n=(n,))
        f = np.cos(np.pi * coords(g)[0])
        phi = solve_fourth_order_split(g, f)
        errs.append(np.abs(phi - lam * f).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) <= 0.1)

    g = Grid(lengths=(1.0,), n=(65,))
    rng = np.random.default_rng(1)
    f1, f2 = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    a, b = 1.75, -0.6
    p1 = solve_fourth_order_split(g, f1)
    p2 = solve_fourth_order_split(g, f2)
    p12 = solve_fourth_order_split(g, a * f1 + b * f2)
    scale = 1.0 + np.abs(p12).max()
    assert np.abs(p12 - (a * p1 + b * p2)).max() <= 1e-8 * scale
    assert time.perf_counter() - t0 < 10.0


def test_03_auxiliary_potential_construction():
    """Manufactured fourth-order boundary data converge at order 2.0 +- 0.1
    and the mean identity integrate(theta) == surface(h1) holds to
    5e-8 * scale on every run."""
    chi_exact, mk = manufactured_chi(0.7)
    errs = []
    for n in (33, 65, 129, 257):
        g, h1, h2 = mk(n)
        chi, theta, alpha = solve_chi(g, h1, h2)
        surf = boundary_integrate(g, h1)
        scale = 1.0 + abs(alpha) + norm_l2(g, theta)
        assert abs(integrate(g, theta) - surf) <= 5e-8 * scale
        target = chi_exact(coords(g)[0])
        target -= mean(g, target)
        errs.append(np.abs(chi - target).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) <= 0.1)


def test_04_gradient_directional_derivatives():
    """Central differences at eps=1e-5 match the gradient pairing to 1e-5
    relative on 10 random (u, v) pairs at d=1, n=129."""
    prob = line_problem(129)
    rng = np.random.default_rng(2)
    eps = 1e-5
    for _ in range(10):
        u = random_m_point(prob, rng)
        v = zero_boundary(prob.grid, rng.standard_normal(prob.grid.shape))
        predicted = inner(prob.grid, grad_J(prob, u), v)
        jp = eval_J(prob, u + eps * v)
        jm = eval_J(prob, u - eps * v)
        observed = (jp - jm) / (2.0 * eps)
        assert abs(observed - predicted) <= 1e-5 * (1.0 + abs(observed))


def test_05_dense_oracle_equivalence():
    """All linear solves match dense LU to 1e-9 on n=17 and 9x9; the
    kappa=0 constrained state matches the dense KKT Newton to 1e-6 in J,
    omega, and mu."""
    for prob in (line_problem(17), box_problem(square_problem(9))):
        rep = dense_oracle_compare(prob)
        assert rep.max_discrepancy() <= 1e-9
        assert rep.nullspace_sigma <= 1e-12

    prob = line_problem(17, kappa=0.0)
    res = minimize_on_M(prob, feasible_init(prob),
                        OptimizerOptions(grad_tol=1e-9))
    _, omega, mu, j = dense_kkt_polish(prob, res.u, res.omega, res.mu)
    assert abs(res.j - j) <= 1e-6
    assert abs(res.omega - omega) <= 1e-6
    assert abs(res.mu - mu) <= 1e-6


def test_06_constraint_maintenance():
    """Every state returned by the solvers satisfies the unit-mass
    constraint to 1e-10 and the coupling-mass constraint to
    1e-8 * (1 + |alpha|); the retraction is idempotent to 1e-12."""
    audited = 0
    for n in (129, 257):
        prob, res, _ = ground_state(n)
        c1, c2 = constraint_values(prob, res.u)
        assert abs(c1) <= 1e-10
        assert abs(c2) <= 1e-8 * (1.0 + abs(prob.alpha))
        audited += 1
    prob, states, _ = excited_family()
    for s in states:
        c1, c2 = constraint_values(prob, s.u)
        assert abs(c1) <= 1e-10
        assert abs(c2) <= 1e-8 * (1.0 + abs(prob.alpha))
        audited += 1
    assert audited >= 4

    bench = line_problem(129)
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = random_m_point(bench, rng)
        again = retract(bench, u)
        assert np.abs(again - u).max() <= 1e-12


def test_07_benchmark_ground_state():
    """d=1, q=x, alpha=0.5, kappa=1, p=3: converges at n=129 to tangent
    gradient 1e-7 in under 60 s; J(129) and J(257) agree to 1e-3 relative;
    the strong-form residual refines at order >= 1.8; the descent's state
    is nonnegative down to -1e-8."""
    prob, res, elapsed = ground_state(129)
    assert res.converged and res.grad_norm <= 1e-7
    assert elapsed < 60.0
    assert float(res.u.min()) >= -1e-8

    prob257, res257, _ = ground_state(257)
    assert abs(res.j - res257.j) <= 1e-3 * abs(res257.j)

    eq1 = []
    for n in (65, 129, 257):
        p_n, r_n, _ = ground_state(n)
        rep = residual_original_system(p_n, r_n.u, r_n.phi, r_n.omega,
                                       r_n.mu, j=r_n.j)
        eq1.append(rep.eq1_res)
    orders = np.log2(np.array(eq1[:-1]) / np.array(eq1[1:]))
    assert np.all(orders >= 1.8)


def test_08_multiplicity_trend():
    """Multi-well oscillating coupling, k=3 disjoint-support seed families:
    at least two distinct converged states, with strictly increasing J and
    strictly increasing Dirichlet energy."""
    prob, states, _ = excited_family()
    assert len(states) >= 2
    assert all(s.converged for s in states)
    js = [s.j for s in states]
    des = [dirichlet_energy(prob.grid, s.u) for s in states]
    assert all(b > a for a, b in zip(js, js[1:]))
    assert all(b > a for a, b in zip(des, des[1:]))


def test_09_feasibility_gating(tmp_path):
    """alpha outside the coupling range, or constant coupling, exits with
    code 2 before any optimization output is produced."""
    infeasible = (
        "domain.dim = 1\ngrid.n = 33\ncoupling.kind = affine\n"
        "coupling.a = 0.0\ncoupling.b = 1.0\nboundary.h2.x1 = 1.5\n")
    constant = (
        "domain.dim = 1\ngrid.n = 33\ncoupling.kind = affine\n"
        "coupling.a = 2.0\ncoupling.b = 0.0\nboundary.h2.x1 = 2.0\n")
    for text in (infeasible, constant):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "sbpbox", "solve", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert not (out / "summary.csv").exists()


def test_10_sign_symmetry_suite():
    """Potential map and energy are even in u bitwise; M is closed under
    negation; deduplication identifies u and -u as one state."""
    prob = line_problem(129)
    rng = np.random.default_rng(4)
    u = random_m_point(prob, rng)

    pp, pm = phi_map(prob, u), phi_map(prob, -u)
    assert np.array_equal(pp, pm)

    jp = eval_J(prob, u, pp)
    jm = eval_J(prob, -u, pm)
    assert jp == jm

    c1, c2 = constraint_values(prob, -u)
    assert abs(c1) <= 1e-12 and abs(c2) <= 1e-12

    _, res, _ = ground_state(129)
    kept = _dedupe(prob.grid, [res, replace(res, u=-res.u)])
    assert len(kept) == 1
