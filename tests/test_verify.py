"""Independent residual measurement, refinement orders, dense oracles."""

import csv

import numpy as np
import pytest

from sbpbox import Grid
from sbpbox.cli import _interpolate, refinement_study
from sbpbox.dense import MAX_ORACLE_NODES, check_size
from sbpbox.errors import SbpError
from sbpbox.manifold import feasible_init
from sbpbox.optimize import OptimizerOptions, minimize_on_M, polish_positive
from sbpbox.reduction import phi_map
from sbpbox.verify import (
    SUMMARY_COLUMNS,
    dense_kkt_polish,
    dense_oracle_compare,
    reconstruct_phi,
    residual_original_system,
    write_summary,
)
from conftest import line_problem, random_m_point, square_problem


@pytest.fixture(scope="module")
def bench129_report(bench129, bench129_state):
    res = bench129_state
    return residual_original_system(bench129, res.u, res.phi, res.omega,
                                    res.mu, j=res.j,
                                    iterations=res.iterations)


def test_residual_report_bounds(bench129_report):
    """Measured residual scales for the converged n=129 benchmark state,
    with an order of magnitude of headroom over the run of 2026-08-19
    (eq1 5.1e-4, native 1.0e-7, eq2 4.7e-8, bc 1.5e-5)."""
    rep = bench129_report
    assert rep.n == (129,)
    assert rep.eq1_res <= 1e-3          # wide-stencil truncation error
    assert rep.eq1_res_native <= 5e-6   # optimizer's own stencil: solver tol
    assert rep.eq2_res <= 1e-6          # potential equation, native stencils
    assert rep.bc_res <= 1e-4           # one-sided flux mismatch
    assert rep.norm_res <= 1e-10
    assert rep.compat_res <= 1e-8 * (1.0 + 0.5)


def test_residuals_scale_on_arbitrary_manifold_points(bench65):
    """eq2 measures the split solve itself, so it stays at (amplified)
    solver tolerance for any state, not only minimizers."""
    rng = np.random.default_rng(0)
    for _ in range(3):
        u = random_m_point(bench65, rng)
        rep = residual_original_system(bench65, u, phi_map(bench65, u), 1.0, 0.0)
        assert rep.eq2_res <= 1e-6
        assert rep.norm_res <= 1e-10
        assert rep.compat_res <= 1e-8 * (1.0 + abs(bench65.alpha))


def test_reconstruct_phi_composition(bench65):
    rng = np.random.default_rng(1)
    u = random_m_point(bench65, rng)
    phi = phi_map(bench65, u)
    full = reconstruct_phi(bench65, phi, 0.25)
    assert np.array_equal(full, phi + bench65.chi + 0.25)


def test_refinement_study_orders():
    opts = OptimizerOptions()
    study = refinement_study(lambda n: line_problem(int(n)), (33, 65, 129),
                             opts)
    assert len(study.reports) == 3
    assert len(study.j_orders) == 1     # needs three J values per order
    assert len(study.eq1_orders) == 2
    # The strong-form residual of the wide stencil decays at second order;
    # the energy differences do as well.
    assert all(o >= 1.8 for o in study.eq1_orders)
    assert abs(study.j_orders[0] - 2.0) <= 0.3
    js = study.j_values
    assert abs(js[2] - js[1]) < abs(js[1] - js[0])


@pytest.mark.parametrize("make,counts", [
    (lambda n: line_problem(n), (33, 65, 129)),
    (lambda n: square_problem(n, alpha=1.25), (17, 33, 65)),
    (lambda n: square_problem(n, alpha=1.25), (17, 25, 33)),
    (lambda n: square_problem(n, alpha=1.25), (65, 33, 17)),
], ids=["1d", "2d", "2d-non-nested", "2d-descending"])
def test_refinement_study_warm_starts_match_cold_solves(make, counts):
    """Each level after the first starts from the previous state, reaches
    the energy of a solve from ``feasible_init`` on the same grid, and takes
    fewer iterations to get there."""
    opts = OptimizerOptions()
    study = refinement_study(make, counts, opts)
    for level, (n, res) in enumerate(zip(counts, study.results)):
        prob = make(n)
        cold = polish_positive(prob, minimize_on_M(prob, feasible_init(prob), opts),
                               opts)
        assert res.u.shape == prob.grid.shape
        assert abs(res.j - cold.j) <= 1e-9 * abs(cold.j)
        if level == 0:
            assert res.iterations == cold.iterations
        else:
            assert res.iterations < cold.iterations


def test_interpolate_nested_copies_and_midpoints():
    rng = np.random.default_rng(3)
    for shape in [(9,), (5, 7), (3, 5, 4)]:
        u = rng.standard_normal(shape)
        fine = _interpolate(u, tuple(2 * (m - 1) + 1 for m in shape))
        even = [slice(None, None, 2)] * len(shape)
        assert np.array_equal(fine[tuple(even)], u)
        # A node odd along one axis and even along the others is the average
        # of its two coarse neighbours on that axis.
        for axis in range(len(shape)):
            odd = list(even)
            odd[axis] = slice(1, None, 2)
            lo = np.take(u, range(shape[axis] - 1), axis)
            hi = np.take(u, range(1, shape[axis]), axis)
            assert np.array_equal(fine[tuple(odd)], 0.5 * lo + 0.5 * hi)
        assert np.array_equal(_interpolate(u, shape), u)


@pytest.mark.parametrize("src,dst", [((9,), (17,)), ((17,), (7,)),
                                     ((5, 9), (12, 6)), ((4, 5, 6), (7, 3, 9))])
def test_interpolate_reproduces_multilinear_fields(src, dst):
    coeffs = np.arange(1.0, 2.0 ** len(src) + 1)

    def multilinear(shape):
        xs = np.meshgrid(*(np.linspace(0.0, 1.0, m) for m in shape), indexing="ij")
        field = np.zeros(shape)
        for mask, c in enumerate(coeffs):
            term = np.full(shape, c)
            for a, x in enumerate(xs):
                if mask >> a & 1:
                    term = term * x
            field += term
        return field

    assert np.allclose(_interpolate(multilinear(src), dst), multilinear(dst),
                       rtol=0.0, atol=1e-13)


def test_interpolate_keeps_boundary_zeros():
    prob = square_problem(17, alpha=1.25)
    u = feasible_init(prob)
    fine = _interpolate(u, (25, 33))
    for axis in range(2):
        for face in (0, -1):
            assert np.all(np.take(fine, face, axis) == 0.0)


def test_write_summary_roundtrip(tmp_path, bench129_report):
    path = tmp_path / "summary.csv"
    write_summary(path, [bench129_report])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == list(SUMMARY_COLUMNS)
    assert rows[0]["n"] == "129"
    # Floats are written with repr so they parse back exactly.
    assert float(rows[0]["J"]) == bench129_report.j
    assert float(rows[0]["omega"]) == bench129_report.omega
    assert int(rows[0]["iters"]) == bench129_report.iters


@pytest.mark.parametrize("make", [lambda: line_problem(17),
                                  lambda: square_problem(9)],
                         ids=["1d-17", "2d-9x9"])
def test_dense_oracle_agreement(make):
    """Every iterative solve agrees with the assembled-matrix LU solve; the
    symmetrized Neumann operator has exactly one (constant) null vector."""
    rep = dense_oracle_compare(make())
    assert rep.max_discrepancy() <= 1e-12
    assert rep.nullspace_sigma <= 1e-12
    assert rep.nullspace_gap > 1.0


def test_dense_oracle_size_guard():
    check_size(Grid(lengths=(1.0,), n=(MAX_ORACLE_NODES,)))
    with pytest.raises(SbpError, match="dense oracle limit"):
        check_size(Grid(lengths=(1.0,), n=(MAX_ORACLE_NODES + 1,)))
    with pytest.raises(SbpError, match="dense oracle limit"):
        dense_oracle_compare(line_problem(MAX_ORACLE_NODES + 1))


def test_dense_kkt_polish_stationarity():
    """The dense Newton refines the iterative kappa=0 state in place: the
    polished triple stays within solver tolerance of the input and repeated
    polishing is idempotent at 1e-12."""
    prob = line_problem(17, kappa=0.0)
    res = minimize_on_M(prob, feasible_init(prob),
                        OptimizerOptions(grad_tol=1e-9))
    u1, o1, m1, j1 = dense_kkt_polish(prob, res.u, res.omega, res.mu)
    u2, o2, m2, j2 = dense_kkt_polish(prob, u1, o1, m1)
    assert np.abs(u2 - u1).max() <= 1e-11
    assert abs(o2 - o1) <= 1e-11 * (1.0 + abs(o1))
    assert abs(j2 - j1) <= 1e-12 * (1.0 + abs(j1))


@pytest.mark.parametrize("n", [65, 129])
def test_dense_kkt_polish_certifies_benchmark_state(n, request):
    """The residual of an already converged state sits at a rounding floor
    that grows like 1/h^2; the Newton stopping test must sit above it, so
    polishing the descent state converges, moves J only at rounding level
    and leaves its own output unchanged."""
    prob = request.getfixturevalue(f"bench{n}")
    res = request.getfixturevalue(f"bench{n}_state")
    u1, o1, m1, j1 = dense_kkt_polish(prob, res.u, res.omega, res.mu)
    assert abs(j1 - res.j) <= 1e-12 * (1.0 + abs(res.j))
    u2, o2, m2, j2 = dense_kkt_polish(prob, u1, o1, m1)
    assert np.array_equal(u2, u1)
    assert (o2, m2, j2) == (o1, m1, j1)
