"""Projected descent: frozen benchmark values, multipliers, multi-start."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from sbpbox import BoundaryData, CouplingSpec, Grid, build_problem, optimize
from sbpbox.config import load_config
from sbpbox.lbfgs import _QN_MEMORY, _Pairs
from sbpbox.errors import InfeasibleRegion, SbpError
from sbpbox.functional import eval_J, grad_J, zeroth_order_grad
from sbpbox.grid import dirichlet_energy, dirichlet_inner, inner
from sbpbox.manifold import (
    constraint_values,
    feasible_init,
    genus_seeds,
    tangent_project,
)
from sbpbox.optimize import (
    OptimizerOptions,
    _dedupe,
    _tangent_gradient,
    excited_states,
    minimize_on_M,
    mirror_sector,
)
from sbpbox.solvers import _dst_interior, _symbols, solve_poisson_dirichlet
from sbpbox.verify import dense_kkt_polish
from conftest import (DescentSpy, axis_slab_region, descent_view, line_problem,
                      oscillating_problem, two_bump_start)
from dataclasses import replace as dc_replace

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def test_benchmark_ground_state_frozen(bench65, bench65_state):
    """Regression anchor: values from a converged run of this solver at
    these exact settings (n=65, q=x, alpha=0.5, kappa=1, p=3),
    frozen 2026-08-19.  The state itself is checked against the strong-form
    equations in the verification tests; here we pin the numbers."""
    res = bench65_state
    assert res.converged
    assert res.grad_norm <= 1e-7
    assert res.iterations < 100
    assert res.j == pytest.approx(4.533024074158795, rel=1e-8)
    assert res.omega == pytest.approx(8.670500123859249, rel=1e-6)
    assert res.mu == pytest.approx(0.010439217266429792, rel=1e-4)
    assert float(res.u.min()) >= -1e-8
    c1, c2 = constraint_values(bench65, res.u)
    assert abs(c1) <= 1e-10
    assert abs(c2) <= 1e-8 * (1.0 + abs(bench65.alpha))


def test_benchmark_energy_decreases_under_refinement_step(bench129_state):
    # Finer grid resolves slightly more energy; the two values pin the
    # discretization drift used by the refinement tests.
    assert bench129_state.j == pytest.approx(4.53376773961271, rel=1e-8)


def test_trace_is_monotone(bench65, descent_spy):
    """On the benchmark the energies of the passes never rise, and every
    step taken is at least the step floor."""
    res = minimize_on_M(bench65, feasible_init(bench65))
    (run,) = descent_spy.descents
    js = run.js
    assert len(js) == res.iterations + 1
    assert js[-1] == res.j
    slack = 1e-12 * (1.0 + np.abs(js).max())
    assert np.all(np.diff(js) <= slack)
    assert res.grad_norm <= 1e-7
    assert np.all(run.steps() >= optimize._MIN_STEP)


@pytest.fixture(scope="module")
def slab_runs():
    """The observed descents (``Descent``) from the genus-1 and genus-2 slab
    seeds of the excited-search problem."""
    prob = oscillating_problem(65, alpha=0.35, kappa=20.0)
    starts = [u0 for genus in (1, 2) for u0 in genus_seeds(prob, genus)]
    opts = OptimizerOptions(max_iterations=8000)
    with pytest.MonkeyPatch.context() as mp:
        spy = DescentSpy(mp)
        for u0 in starts:
            minimize_on_M(prob, u0, opts)
    return spy.descents


def test_trace_obeys_zhang_hager_rule(slab_runs):
    """Each accepted energy satisfies the Armijo test, at the slope of the
    direction the pass before it stepped along (the rate of its gradient for
    a Barzilai-Borwein pass, the slope along the direction
    ``_quasi_newton_direction`` returned for an L-BFGS pass), against the
    reference value C rebuilt from the energies of the passes; an L-BFGS
    step is 1 or a backtrack of it.  No iterate rises above the start, and
    the energy does rise somewhere, so the rule is really nonmonotone."""
    rose = False
    for run in slab_runs:
        assert run.result.converged
        js = run.js
        assert len(js) == run.result.iterations + 1
        assert any(p.direction is not p.gt for p in run.tail)
        tol = 1e-14 * np.abs(js).max()
        c, q = js[0], 1.0
        for prev, j, step in zip(run.passes, js[1:], run.steps()):
            assert j <= c - optimize._ARMIJO_C * step * prev.slope + tol
            if prev.direction is not prev.gt:  # read from u - t d to eps |u| / |t d|
                assert step == pytest.approx(2.0 ** min(round(math.log2(step)), 0), rel=1e-6)
            q_old, q = q, optimize._ZH_ETA * q + 1.0
            c = (optimize._ZH_ETA * q_old * c + j) / q
        assert js.max() <= js[0]
        rose = rose or bool(np.any(np.diff(js) > 1e-6 * np.abs(js).max()))
    assert rose


def test_line_search_trials_per_iteration(slab_runs):
    """One retraction per start, the rest one per line-search trial: BB
    steps should pass on the first trial most of the time."""
    retractions = sum(len(run.retractions) for run in slab_runs)
    iterations = sum(run.result.iterations for run in slab_runs)
    assert (retractions - len(slab_runs)) / iterations <= 1.5


def test_slab_starts_take_few_iterations(slab_runs):
    """The genus-1 and genus-2 starts converge in about 110 iterations
    together with the L-BFGS tail, and in about 200 with short
    Barzilai-Borwein steps throughout (about 300 in the H^1_0 metric), where
    the long step ss / sy took about 400 in the H^1_0 metric."""
    assert sum(run.result.iterations for run in slab_runs) <= 340


def test_max_iterations_returns_unconverged(bench65, descent_spy):
    opts = OptimizerOptions(max_iterations=2)
    res = minimize_on_M(bench65, feasible_init(bench65), opts)
    assert not res.converged
    assert res.stop_reason == "max_iterations"
    assert res.iterations == 2
    # The last pass tests the gradient at the returned iterate, as for a
    # converged run: one pass per step plus the last test.  On the
    # benchmark every pass runs in the H^1_0 metric and needs no H^1_0 check.
    (run,) = descent_spy.descents
    assert len(run.passes) == res.iterations + 1 and run.checks == 0
    assert run.passes[-1].u is res.u
    assert run.passes[-1].shift == 0.0
    assert math.sqrt(run.passes[-1].rate) == res.grad_norm
    assert run.passes[-1].j == res.j
    assert_multipliers_at_iterate(bench65, res)
    res = minimize_on_M(bench65, feasible_init(bench65),
                        OptimizerOptions(max_iterations=0))
    assert (res.stop_reason, res.iterations) == ("max_iterations", 0)
    assert_multipliers_at_iterate(bench65, res)


def ground_box_problem(n):
    """The ground-state problem of the 3d benchmark (q = x, alpha = 0.5,
    kappa = 1, p = 3) on the unit cube with n nodes per axis."""
    g = Grid(lengths=(1.0,) * 3, n=(n,) * 3)
    return build_problem(grid=g, coupling=CouplingSpec("affine", {"a": 0.0, "b": 1.0}),
                         h1=BoundaryData.zero(g), h2=BoundaryData.constant(g, {"x1": 0.5}),
                         kappa=1.0, p=3.0)


@pytest.mark.parametrize("dim", [1, 3], ids=["bench65", "ground-3d"])
def test_short_descents_never_reach_the_tail(dim, bench65, descent_spy):
    """The ground descents of the benchmark (n = 65) and of the 3d ground
    workload (25^3) converge before pass ``_QN_START``: they never call the
    L-BFGS direction and allocate no pair memory, so they run the same
    arithmetic as Barzilai-Borwein steps throughout.  Each runs on its
    mirror sector, as the workload does."""
    prob = mirror_sector(bench65 if dim == 1 else ground_box_problem(25))
    res = minimize_on_M(prob, feasible_init(prob))
    (run,) = descent_spy.descents
    assert res.converged and res.iterations < optimize._QN_START
    assert run.memories == 0 and not run.tail


def test_pair_memory_keeps_the_newest_pairs_with_positive_sy():
    """``_Pairs.push`` stores a pair only when its sy in the pass's metric
    sigma + s is positive, and keeps the ``_QN_MEMORY`` newest, oldest
    first: a pair with sum(sigma s y) > 0 > sum(s y) is stored at s = 0 and
    not at a shift past their ratio."""
    sigma = _symbols(Grid(lengths=(1.0,), n=(9,))).dirichlet
    s_hat, y_hat, zero = np.zeros((3,) + sigma.shape)
    s_hat[[0, -1]] = 1.0
    y_hat[[0, -1]] = -1.0, 0.5  # sum(sigma s y) > 0 > sum(s y) = -0.5
    shift = float(np.vdot(sigma * s_hat, y_hat)) / 0.5
    pairs = _Pairs(sigma)
    pairs.push(s_hat, y_hat, zero, zero, 1.01 * shift)
    pairs.push(s_hat, -s_hat, zero, zero, 0.0)
    assert pairs.order == []
    for k in range(_QN_MEMORY + 2):
        pairs.push((k + 1) * s_hat, y_hat, zero, zero, 0.99 * shift)
    assert len(pairs.order) == _QN_MEMORY
    assert [pairs.ring[2 * k, 0] for k in pairs.order] == list(range(3, _QN_MEMORY + 3))


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("max_iterations", [3, 5000], ids=["capped", "converged"])
def test_grad_norm_is_the_sobolev_norm_of_the_projected_gradient(dim, max_iterations):
    """``grad_norm`` (and the ``grad_norm`` of report.json) is the H^1_0 norm
    sqrt(dirichlet_inner(gt, gt)) of the tangent projection gt of
    u + S(w) at the returned iterate, formed field by field; the descent
    takes it as a sum over DST-I modes, on the mirror sector in 3d."""
    prob = line_problem(65) if dim == 1 else ground_box_problem(17)
    sector = mirror_sector(prob)
    res = minimize_on_M(sector, feasible_init(sector),
                        OptimizerOptions(max_iterations=max_iterations))
    assert res.converged == (max_iterations > 3)
    assert res.grad_norm == pytest.approx(h1_tangent_norm(prob, res), rel=1e-10)


@pytest.mark.parametrize("case", [1, 3, "tail"])
def test_one_evaluation_per_trial_point(case, bench65, monkeypatch):
    """Each trial point that retracts is evaluated once, with one potential
    solve and one forward DST-I of u, and each gradient pass reuses the
    accepted point's coefficients, adding the transforms of w and q u; so
    does each H^1_0 check (``_h1_check``), a second pass at the same
    iterate that only a shifted pass needs.  Each pass
    that steps transforms its direction back once, whether it is the
    gradient or the L-BFGS direction.  An Armijo constant of 0.9 makes the
    line search reject evaluated trials, so the count tells a pass that
    transforms u again from one that reuses the trial's coefficients.  The
    cases are ground descents in 1d and 3d, which run at s = 0, and a
    descent on the excited-search problem, which reaches the L-BFGS tail at
    s > 0; the 3d descent runs on its mirror sector."""
    prob = {1: bench65, 3: ground_box_problem(17),
            "tail": oscillating_problem(65, alpha=0.35, kappa=20.0)}[case]
    monkeypatch.setattr(optimize, "_ARMIJO_C", 0.9)
    calls = {"retract": 0, "phi_map": 0, "dst": 0, "inverse": 0, "qn": 0, "h1": 0}
    shifts = []  # the shift of each _tangent_gradient call

    def counting(name, fn):
        def wrapper(*args):
            out = fn(*args)
            calls[name] += out is not None  # a raise or a None is not counted
            return out
        return wrapper

    def tangent_gradient(problem, u, phi, u_hat, shift, symbol):
        shifts.append(shift)
        return real_tangent_gradient(problem, u, phi, u_hat, shift, symbol)

    real_tangent_gradient = optimize._tangent_gradient
    for name, attr in [("retract", "retract"), ("phi_map", "phi_map"),
                       ("dst", "_dst_interior"), ("inverse", "_from_dst_interior"),
                       ("qn", "_quasi_newton_direction"), ("h1", "_h1_check")]:
        monkeypatch.setattr(optimize, attr, counting(name, getattr(optimize, attr)))
    monkeypatch.setattr(optimize, "_tangent_gradient", tangent_gradient)
    sector = mirror_sector(prob)
    res = minimize_on_M(sector, feasible_init(sector))
    assert res.converged and res.iterations > 5
    assert len(shifts) == res.iterations + 1 + calls["h1"]
    assert calls["phi_map"] == calls["retract"] > res.iterations + 1
    assert calls["dst"] == calls["phi_map"] + 2 * (res.iterations + 1) + 2 * calls["h1"]
    assert calls["inverse"] == res.iterations
    if case == "tail":  # every pass after the first is shifted; the checks are not
        assert calls["qn"] > 0 and calls["h1"] > 0
        assert shifts.count(0.0) == 1 + calls["h1"]
    else:  # every pass runs at s = 0 and needs no check
        assert calls["h1"] == 0 and not any(shifts)
    assert res.j == pytest.approx(eval_J(prob, res.u, res.phi), rel=1e-13)


def assert_multipliers_at_iterate(problem, res):
    """(omega, mu) are the coefficients (lam, -beta) of the tangent
    projection at the returned iterate, on the problem the descent ran on."""
    problem, u, phi = descent_view(problem, res)
    u_hat = _dst_interior(problem.grid, u)
    lam, beta, *_ = _tangent_gradient(problem, u, phi, u_hat, 0.0,
                                      _symbols(problem.grid).dirichlet)
    assert (res.omega, res.mu) == (lam, -beta)


def test_line_search_stall_is_a_stop_reason(bench65, monkeypatch, descent_spy):
    # First trial step 2 * initial step already sits below the step floor,
    # so the backtracking loop cannot run at all.
    monkeypatch.setattr(optimize, "_INITIAL_STEP", 1e-16)
    assert 2.0 * optimize._INITIAL_STEP < optimize._MIN_STEP
    res = minimize_on_M(bench65, feasible_init(bench65), OptimizerOptions())
    assert not res.converged
    assert res.stop_reason == "line_search_stall"
    assert res.iterations == 0
    # The run returns the iterate it stalled at, with the gradient of its
    # one pass, which runs in the H^1_0 metric, and retracts only the start.
    (run,) = descent_spy.descents
    assert len(run.passes) == res.iterations + 1 == len(run.retractions)
    assert run.passes[-1].u is res.u
    assert math.sqrt(run.passes[-1].rate) == res.grad_norm > 1e-7
    assert run.passes[-1].j == res.j
    assert_multipliers_at_iterate(bench65, res)


def h1_tangent_norm(problem, res):
    """sqrt(dirichlet_inner(gt, gt)) of the H^1_0 tangent projection gt of
    u + S(w) at the returned iterate, formed field by field."""
    g = problem.grid
    w = zeroth_order_grad(problem, res.u, res.phi)
    gt = tangent_project(problem, res.u, res.u + solve_poisson_dirichlet(g, w))
    return math.sqrt(dirichlet_inner(g, gt, gt))


@pytest.mark.parametrize("exit_", ["grad_tol", "max_iterations", "line_search_stall"])
def test_shifted_descent_reports_the_h1_gradient_on_every_exit(exit_, monkeypatch,
                                                                descent_spy):
    """On the excited-search problem the metric is shifted from the second
    pass on.  Whichever way the run stops, it returns the iterate of its
    last pass, ``grad_norm`` is the H^1_0 tangent norm there, which an
    H^1_0 check gives, and (omega,
    mu) are the H^1_0 projection's multipliers there.  A stall is forced by
    failing every retraction after the twentieth."""
    prob = oscillating_problem(65, alpha=0.35, kappa=20.0)
    if exit_ == "line_search_stall":
        real_retract, calls = optimize.retract, [0]

        def failing_retract(problem, v):
            calls[0] += 1
            if calls[0] > 20:
                raise optimize.ManifoldError("forced failure")
            return real_retract(problem, v)

        monkeypatch.setattr(optimize, "retract", failing_retract)
    opts = OptimizerOptions(max_iterations=10 if exit_ == "max_iterations" else 8000)
    res = minimize_on_M(prob, feasible_init(prob), opts)
    assert res.stop_reason == exit_
    assert res.iterations > 5
    (run,) = descent_spy.descents
    assert len(run.passes) == res.iterations + 1 and run.checks > 0
    assert run.passes[-1].u is res.u
    shifts = [p.shift for p in run.passes]
    assert shifts[0] == 0.0 and min(shifts[1:]) > 0.0
    assert res.grad_norm == pytest.approx(h1_tangent_norm(prob, res), rel=1e-10)
    assert_multipliers_at_iterate(prob, res)


def descent_iterations(monkeypatch):
    """A list that collects the iterations of each descent from now on."""
    iterations = []
    real = optimize._minimize

    def spy(problem, u0, opts):
        res = real(problem, u0, opts)
        iterations.append(res.iterations if res.converged else None)
        return res

    monkeypatch.setattr(optimize, "_minimize", spy)
    return iterations


def genus3_search_iterations(monkeypatch):
    """The iterations of the three descents of the excited search on the
    excited-search problem, from its genus-3 slab seeds, which find the two
    frozen states."""
    iterations = descent_iterations(monkeypatch)
    prob = oscillating_problem(65, alpha=0.35, kappa=20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        states = excited_states(prob, 3, OptimizerOptions(max_iterations=8000))
    assert [s.j for s in states] == [
        pytest.approx(58.89462859454396, rel=1e-6),
        pytest.approx(73.36864208910114, rel=1e-6),
    ]
    assert len(iterations) == 3 and None not in iterations
    return iterations


def test_excited_search_takes_at_most_260_iterations(monkeypatch):
    """The three genus-3 starts of the excited-search problem find the two
    frozen states within 260 descent iterations together: about 210 with
    Barzilai-Borwein steps throughout in the shifted metric (340 in the
    H^1_0 metric), about 114 with the L-BFGS tail."""
    assert sum(genus3_search_iterations(monkeypatch)) <= 260


def test_excited_search_takes_at_most_130_iterations(monkeypatch):
    """The L-BFGS tail: from pass ``_QN_START`` on, the same three starts
    step along the L-BFGS direction and take about 114 iterations together,
    where Barzilai-Borwein steps throughout took 210."""
    assert sum(genus3_search_iterations(monkeypatch)) <= 130


@pytest.mark.parametrize("alpha, js", [
    (0.2, [223.97273838]),
    (0.6, [14.7558975918, 17.0252218828]),
    (1.0, [-3.0237906037]),
    (1.4, [7.6574830380, 8.3389338848]),
    (1.8, [82.6572933439]),
])
def test_excited_cfg_finds_the_same_states_across_alpha(alpha, js, monkeypatch):
    """``demos/configs/excited.cfg`` at n = 65, with its k = 3, for alpha
    from 0.2 to 1.8: the states and their J, to 1e-9 relative, are those
    that Barzilai-Borwein steps throughout found.  At alpha = 1.8 the shift
    stays 0 and the descents cross plateaus near saddles: there the three
    starts took 1,343 iterations with BB steps throughout, and take about
    310 with the L-BFGS tail."""
    cfg = load_config(DEMO_CONFIGS / "excited.cfg")
    cfg.boundary[("h2", "x1")] = alpha
    iterations = descent_iterations(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        states = excited_states(cfg.build_problem(65), cfg.get("run.k"),
                                cfg.optimizer_options())
    assert [s.j for s in states] == [pytest.approx(j, rel=1e-9) for j in js]
    assert len(iterations) == 3 and None not in iterations
    if alpha == 1.8:
        assert sum(iterations) <= 450


def test_1d_ground_descent_at_low_alpha_takes_few_iterations():
    """The 1d ground solve with the oscillating coupling at alpha = 0.2 from
    the tilted principal mode: about 70 iterations with the L-BFGS tail,
    109 with BB steps throughout, where the H^1_0 metric took 353."""
    prob = oscillating_problem(65, alpha=0.2)
    res = minimize_on_M(prob, feasible_init(prob), OptimizerOptions(max_iterations=8000))
    assert res.converged
    assert res.iterations <= 200
    assert res.j == pytest.approx(223.97273838, rel=1e-9)


@pytest.mark.parametrize("n, dim", [(65, 1), (17, 2), (13, 3), (261, 1)],
                         ids=["1d", "2d", "3d", "1d-fft-axis"])
def test_both_metrics_give_the_same_multipliers_at_a_converged_state(n, dim):
    """At a critical point grad J = lam u + beta q u, so the projection
    gives the same (lam, beta) in every metric; at a state converged to
    ``grad_tol`` they agree to 1e-6 relative, for the shift the descent
    takes there (lam - |grad u|^2, when positive) and for 1 and 1e3.  Both
    are taken on the problem the descent ran on, the mirror sector's in 2d
    and 3d."""
    prob = oscillating_problem(n, dim=dim)
    sector = mirror_sector(prob)
    res = minimize_on_M(sector, feasible_init(sector), OptimizerOptions(max_iterations=8000))
    assert res.converged and len(res.folded) == dim - 1
    prob, u, phi = descent_view(prob, res)
    g = prob.grid
    sigma = _symbols(g).dirichlet
    u_hat = _dst_interior(g, u)
    lam, beta, *_ = _tangent_gradient(prob, u, phi, u_hat, 0.0, sigma)
    assert (lam, -beta) == (res.omega, res.mu)
    shifts = [1.0, 1e3]
    if lam > dirichlet_energy(g, u):
        shifts.append(lam - dirichlet_energy(g, u))
    for shift in shifts:
        lam_s, beta_s, *_ = _tangent_gradient(prob, u, phi, u_hat, shift,
                                              sigma + shift)
        assert lam_s == pytest.approx(lam, rel=1e-6)
        assert beta_s == pytest.approx(beta, rel=1e-6)


def test_start_must_vanish_on_the_boundary(bench65):
    """The boundary check runs once, on the start: a boundary value raises,
    and a residue within rounding is zeroed, so no iterate carries it."""
    u0 = feasible_init(bench65)
    bad = u0.copy()
    bad[0] = 1e-6
    with pytest.raises(SbpError, match="boundary magnitude"):
        minimize_on_M(bench65, bad)
    tiny = u0.copy()
    tiny[-1] = 1e-14
    res = minimize_on_M(bench65, tiny, OptimizerOptions(max_iterations=3))
    assert res.u[0] == res.u[-1] == 0.0


@pytest.mark.parametrize("kwargs", [
    {"grad_tol": 0.0},
    {"grad_tol": math.inf},
    {"grad_tol": math.nan},
    {"max_iterations": -1},
], ids=["grad_tol=0", "grad_tol=inf", "grad_tol=nan", "max_iterations=-1"])
def test_optimizer_options_reject_out_of_range(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        OptimizerOptions(**kwargs)


def test_multiplier_recovery_matches_result(bench65, bench65_state):
    """The result's (omega, mu), the coefficients of the last tangent
    projection in the H^1_0 pairing, also solve the L2 stationarity pairing
    grad J = omega u - mu q u against u and q u."""
    res = bench65_state
    g = bench65.grid
    grad = grad_J(bench65, res.u, res.phi)
    basis = (res.u, bench65.q * res.u)
    gram = np.array([[inner(g, a, b) for b in basis] for a in basis])
    omega, minus_mu = np.linalg.solve(gram, [inner(g, grad, a) for a in basis])
    assert res.omega == pytest.approx(omega, rel=1e-10)
    assert res.mu == pytest.approx(-minus_mu, rel=1e-8)


def test_dedupe_identifies_sign_flips(bench65, bench65_state):
    res = bench65_state
    flipped = dc_replace(res, u=-res.u)
    kept = _dedupe(bench65.grid, [res, flipped])
    assert len(kept) == 1
    # Genuinely different states survive.
    other = dc_replace(res, j=res.j + 1.0)
    kept = _dedupe(bench65.grid, [res, other])
    assert len(kept) == 2


def test_kappa_zero_state_matches_dense_kkt():
    """With kappa=0 the stationary system is checkable by an independent
    dense Newton solve; agreement pins J and both multipliers.  Frozen
    discrepancies from the run of 2026-08-19 were below 5e-12."""
    prob = line_problem(17, kappa=0.0)
    res = minimize_on_M(prob, feasible_init(prob),
                        OptimizerOptions(grad_tol=1e-9))
    u, omega, mu, j = dense_kkt_polish(prob, res.u, res.omega, res.mu)
    assert abs(res.j - j) <= 1e-9 * (1.0 + abs(j))
    assert abs(res.omega - omega) <= 1e-9 * (1.0 + abs(omega))
    assert abs(res.mu - mu) <= 1e-9 * (1.0 + abs(mu))


def test_excited_states_finds_separated_wells():
    """Multi-well coupling with the quadric level pinned under the trough
    values and strong focusing: the two lowest wells each hold a state.
    Frozen J values from the run of 2026-08-19 at these settings."""
    prob = oscillating_problem(65, alpha=0.35, kappa=20.0)
    states = excited_states(prob, 3, OptimizerOptions(max_iterations=8000))
    assert len(states) >= 2
    js = [s.j for s in states]
    des = [dirichlet_energy(prob.grid, s.u) for s in states]
    assert all(b > a for a, b in zip(js, js[1:]))
    assert all(b > a for a, b in zip(des, des[1:]))
    assert js[0] == pytest.approx(58.89462859454396, rel=1e-6)
    assert js[1] == pytest.approx(73.36864208910114, rel=1e-6)
    for s in states:
        assert s.converged
        c1, c2 = constraint_values(prob, s.u)
        assert abs(c1) <= 1e-10
        assert abs(c2) <= 1e-8 * (1.0 + abs(prob.alpha))


def test_merit_line_search_converges_past_the_rounding_floor_of_J():
    """The 2d 49 x 49 genus-3 start in slab 1 (of 0..2) of ``excited.cfg``.
    Retraction leaves constraint residuals near 1e-14, which move J by
    about (|omega| + |mu|) 1e-14; with the Armijo test on J this start ran
    to the cap with its gradient stuck near 2.1e-7.  The test on the merit
    (the Lagrangian) converges, in about 110 iterations with the L-BFGS
    tail (320 with Barzilai-Borwein steps throughout, 530 of them in the
    H^1_0 metric).  The start is the
    two-bump seed of that slab (``two_bump_start``), as the test was written
    for it."""
    prob = oscillating_problem(49, dim=2)
    res = minimize_on_M(prob, two_bump_start(prob, axis_slab_region(prob.grid, 16, 32)),
                        OptimizerOptions(max_iterations=2000))
    assert res.converged
    assert res.j == pytest.approx(72.196185319, rel=1e-9)


def test_3d_excited_start_reaches_grad_tol():
    """The genus-1 slab start of ``excited.cfg`` on the 25^3 box.  With the
    short BB step and the Armijo test on J it once stalled at the cap; it
    now converges in about 120 iterations with the L-BFGS tail (900 to
    1,300 with BB steps throughout, a count that moved with rounding, and
    about 1,500 in the H^1_0 metric).  The start is the two-bump seed of the whole box
    (``two_bump_start``), the long tail the test was written for."""
    prob = oscillating_problem(25, dim=3)
    res = minimize_on_M(prob, two_bump_start(prob, axis_slab_region(prob.grid, 0, 24)),
                        OptimizerOptions(max_iterations=4000))
    assert res.converged
    assert res.j == pytest.approx(49.752265733, rel=1e-9)


def test_excited_search_at_low_alpha_converges_from_every_start():
    """At alpha = 0.2 both genus-2 starts reach grad_tol (in 48 and 79
    iterations with the L-BFGS tail; 80 and 133 with BB steps throughout,
    192 and 695 in the H^1_0 metric) and meet in one state; with the Armijo test on J, two
    of the three genus-1 and genus-2 starts stalled at the cap."""
    prob = oscillating_problem(65, alpha=0.2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        states = excited_states(prob, 2, OptimizerOptions(max_iterations=2000))
    assert not [w for w in caught if "did not converge" in str(w.message)]
    assert len(states) == 1
    assert states[0].j == pytest.approx(223.97273838, rel=1e-9)


def test_excited_states_deterministic():
    prob = oscillating_problem(65, alpha=0.35, kappa=20.0)
    opts = OptimizerOptions(max_iterations=8000)
    a = excited_states(prob, 2, opts)
    b = excited_states(prob, 2, opts)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.u, rb.u)
        assert ra.j == rb.j


def test_excited_states_propagates_seed_programming_errors(monkeypatch):
    """Only ``InfeasibleRegion`` moves the search to a lower genus; any other
    error at genus k, a defect or another package error, must surface."""
    prob = oscillating_problem(65, alpha=0.35, kappa=20.0)
    for error in (TypeError("broken seed generator"),
                  SbpError("seed construction failed")):

        def broken(problem, genus):
            if genus == 2:
                raise error
            return genus_seeds(problem, genus)

        monkeypatch.setattr(optimize, "genus_seeds", broken)
        with pytest.raises(type(error), match=str(error)):
            excited_states(prob, 2, OptimizerOptions())


def test_excited_states_rejects_k_below_one():
    prob = oscillating_problem(65, alpha=0.35, kappa=20.0)
    with pytest.raises(ValueError, match="k >= 1"):
        excited_states(prob, 0)


def _spy_on_starts(monkeypatch):
    """Record the start of every descent ``excited_states`` makes."""
    starts = []
    real = optimize._minimize

    def spy(problem, u0, opts):
        starts.append(u0)
        return real(problem, u0, opts)

    monkeypatch.setattr(optimize, "_minimize", spy)
    return starts


def test_excited_states_descends_only_from_the_genus_k_seeds(monkeypatch):
    prob = oscillating_problem(65, alpha=0.35, kappa=20.0)
    seeds = genus_seeds(prob, 3)
    starts = _spy_on_starts(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        excited_states(prob, 3, OptimizerOptions(max_iterations=8000))
    assert len(starts) == 3
    for u0, seed in zip(starts, seeds):
        assert np.array_equal(u0, seed)


def test_excited_states_falls_back_to_the_largest_genus_with_seeds(monkeypatch):
    """The three-well q has no partition into 5 bracketing slabs: the
    search warns once and descends from the 4 seeds of genus 4."""
    prob = oscillating_problem(65, alpha=0.35, kappa=20.0)
    seeds = genus_seeds(prob, 4)
    starts = _spy_on_starts(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        states = excited_states(prob, 5, OptimizerOptions(max_iterations=8000))
    fallback = [str(w.message) for w in caught
                if "slab seeds of genus 4, as" in str(w.message)]
    assert len(fallback) == 1
    assert "genus 5 has none" in fallback[0]
    assert len(starts) == 4
    for u0, seed in zip(starts, seeds):
        assert np.array_equal(u0, seed)
    assert [s.j for s in states] == [
        pytest.approx(58.89462859454396, rel=1e-6),
        pytest.approx(73.36864208910114, rel=1e-6),
    ]


def test_excited_states_propagates_infeasible_region_at_genus_one():
    prob = oscillating_problem(65, alpha=0.1)  # below the range of q
    with pytest.raises(InfeasibleRegion, match="does not bracket"):
        excited_states(prob, 2, OptimizerOptions())


@pytest.mark.parametrize("n, alpha, dim", [(65, 0.35, 1), (65, 1.4, 1),
                                           (33, 0.35, 2)])
def test_excited_states_matches_the_nested_genus_start_set(n, alpha, dim):
    """Reference check: descending from every slab seed of genus 1..k, the
    start set the search once used, finds the same states as the genus-k
    seeds alone.  Both run on the mirror sector in 2d."""
    prob = oscillating_problem(n, alpha=alpha, dim=dim)
    opts = OptimizerOptions(max_iterations=8000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        states = excited_states(prob, 3, opts)
    sector = mirror_sector(prob)
    nested = [minimize_on_M(sector, u0, opts)
              for genus in (1, 2, 3) for u0 in genus_seeds(sector, genus)]
    reference = _dedupe(prob.grid, [r for r in nested if r.converged])
    assert len(states) == len(reference)
    for s, r in zip(states, reference):
        assert abs(s.j - r.j) <= 1e-9 * abs(r.j)


def test_excited_states_reports_stalled_starts_in_one_warning(monkeypatch):
    """A stalled start is dropped like any unconverged one: the search
    returns nothing and says why in a single warning."""
    monkeypatch.setattr(optimize, "_INITIAL_STEP", 1e-16)
    prob = oscillating_problem(65, alpha=0.35, kappa=20.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        states = excited_states(prob, 2, OptimizerOptions())
    assert states == []
    failed = [str(w.message) for w in caught
              if "did not converge" in str(w.message)]
    assert len(failed) == 1
    assert failed[0].startswith("2 of 2 starts did not converge: ")
    assert failed[0].count("line_search_stall at iteration 0") == 2


def test_excited_states_draws_no_random_numbers(monkeypatch):
    """The search starts only from the deterministic slab seeds: with the
    random generator disabled it still returns both frozen states."""

    def no_rng(*args, **kwargs):
        raise AssertionError("excited_states drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    prob = oscillating_problem(65, alpha=0.35, kappa=20.0)
    states = excited_states(prob, 2, OptimizerOptions(max_iterations=8000))
    assert [s.j for s in states] == [
        pytest.approx(58.89462859454396, rel=1e-6),
        pytest.approx(73.36864208910114, rel=1e-6),
    ]
