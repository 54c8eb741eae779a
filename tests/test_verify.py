"""Independent residual measurement, refinement orders, dense oracles."""

import csv

import numpy as np
import pytest

from sbpbox import BoundaryData, CouplingSpec, Grid, build_problem
from sbpbox.cli import _interpolate, refinement_study
from sbpbox.config import parse_config_text
from sbpbox.dense import MAX_ORACLE_NODES, check_size
from sbpbox.errors import SbpError
from sbpbox.functional import eval_J
from sbpbox.grid import norm_l2
from sbpbox.manifold import constraint_values, feasible_init
from sbpbox.optimize import OptimizerOptions, minimize_on_M, mirror_sector
from sbpbox.reduction import phi_map
from sbpbox.verify import (
    SUMMARY_COLUMNS,
    ResidualReport,
    _laplacian4,
    dense_kkt_polish,
    dense_oracle_compare,
    reconstruct_phi,
    residual_original_system,
    write_summary,
)
from conftest import (line_problem, random_m_point, reference_laplacian_dirichlet,
                      reference_laplacian_neumann, square_problem)


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
        sector = mirror_sector(prob)
        cold = minimize_on_M(sector, feasible_init(sector), opts)
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


# -- the audit against its whole-field formulas ------------------------------


def reference_laplacian4(grid, f):
    """``verify._laplacian4`` as it stood: (field, deep-interior mask)."""
    lap = np.zeros_like(f)
    mask = np.ones(grid.shape, dtype=bool)
    for a in range(grid.dim):
        sl = [slice(None)] * grid.dim

        def at(k):
            s = list(sl)
            s[a] = slice(2 + k, f.shape[a] - 2 + k if k != 2 else None)
            return f[tuple(s)]

        core = (-at(-2) + 16.0 * at(-1) - 30.0 * at(0)
                + 16.0 * at(1) - at(2)) / (12.0 * grid.h[a] ** 2)
        dest = list(sl)
        dest[a] = slice(2, -2)
        lap[tuple(dest)] += core
        for cut in (slice(0, 2), slice(-2, None)):
            edge = list(sl)
            edge[a] = cut
            mask[tuple(edge)] = False
    lap[~mask] = 0.0
    return lap, mask


def reference_report(problem, u, phi, omega, mu, j, iterations):
    """``residual_original_system`` as it stood, every field held whole."""
    grid, q = problem.grid, problem.q
    phi_full = phi + problem.chi + mu
    nonlin = problem.kappa * np.abs(u) ** (problem.p - 2.0) * u
    lap4, mask = reference_laplacian4(grid, u)
    eq1_field = -lap4 + (q * phi_full - omega) * u - nonlin
    eq1_field[~mask] = 0.0
    native_field = -reference_laplacian_dirichlet(grid, u) + (q * phi_full - omega) * u - nonlin
    native_field[~grid.interior_mask] = 0.0
    z = reference_laplacian_neumann(grid, phi_full, problem.h1)
    eq2_field = reference_laplacian_neumann(grid, z, problem.h2) - z - q * u * u

    def normal_derivative(f, axis, side):
        layer = [f[tuple((-1 - k if side else k) if b == axis else slice(None)
                         for b in range(grid.dim))] for k in range(3)]
        return (3.0 * layer[0] - 4.0 * layer[1] + layer[2]) / (2.0 * grid.h[axis])

    bc1 = bc2 = 0.0
    for axis, side in grid.faces():
        d_phi = normal_derivative(phi_full, axis, side)
        d_z = normal_derivative(z, axis, side)
        bc1 = max(bc1, float(np.max(np.abs(d_phi - problem.h1.face(axis, side)))))
        bc2 = max(bc2, float(np.max(np.abs(d_z - problem.h2.face(axis, side)))))
    c1, c2 = constraint_values(problem, u)
    return ResidualReport(
        n=grid.n, h=float(max(grid.h)), j=float(eval_J(problem, u, phi) if j is None else j),
        omega=float(omega), mu=float(mu), eq1_res=norm_l2(grid, eq1_field),
        eq1_res_native=norm_l2(grid, native_field), eq2_res=norm_l2(grid, eq2_field),
        bc_res=bc1, bc_res_second=bc2, norm_res=abs(c1), compat_res=abs(c2),
        iters=iterations)


def ground_state(dim, n):
    """The ground state of the benchmark's ground config, on its sector."""
    prob = parse_config_text(f"domain.dim = {dim}\ngrid.n = {n}\nphysics.kappa = 1.0\n"
                             "physics.p = 3.0\ncoupling.kind = affine\ncoupling.a = 0.0\n"
                             "coupling.b = 1.0\nboundary.h2.x1 = 0.5\n").build_problem()
    sector = mirror_sector(prob)
    res = minimize_on_M(sector, feasible_init(sector))
    assert res.folded == tuple(range(1, dim))
    return prob, res.u, res.phi, res.omega, res.mu, res.j, res.iterations


def manifold_state(prob, seed=0):
    """A point of M with its potential and made-up multipliers."""
    u = random_m_point(prob, np.random.default_rng(seed))
    return prob, u, phi_map(prob, u), 1.3, -0.2, None, 0


def asymmetric_box_state():
    g = Grid(lengths=(1.0, 0.7, 1.3), n=(9, 11, 8))
    return manifold_state(build_problem(
        grid=g, coupling=CouplingSpec("affine", {"a": 0.0, "b": 1.0}),
        h1=BoundaryData.zero(g), h2=BoundaryData.constant(g, {"x1": 0.5 / 0.91}),
        kappa=1.0, p=3.0))


def two_face_h1_state():
    """Inhomogeneous h1 on the faces x0 and y1."""
    g = Grid(lengths=(1.0, 1.2), n=(13, 11))
    h1 = BoundaryData(g, {(0, 0): 0.3 * np.cos(g.axes[1]), (0, 1): np.zeros(11),
                          (1, 0): np.zeros(13), (1, 1): -0.2 + 0.5 * g.axes[0]})
    return manifold_state(build_problem(
        grid=g, coupling=CouplingSpec("affine", {"a": 1.0, "b": 0.5}),
        h1=h1, h2=BoundaryData.constant(g, {"x1": 1.3}), kappa=1.0, p=2.5))


STATES = {
    "1d": lambda: manifold_state(line_problem(33)),
    "2d-sector": lambda: ground_state(2, 17),
    "3d-sector": lambda: ground_state(3, 13),
    "3d-box": asymmetric_box_state,
    "kappa-0": lambda: manifold_state(square_problem(9, alpha=1.2, kappa=0.0)),
    "h1-two-faces": two_face_h1_state,
}


@pytest.mark.parametrize("name", STATES)
def test_audit_is_bitwise_the_whole_field_formulas(name):
    args = STATES[name]()
    assert residual_original_system(*args) == reference_report(*args)
    grid, u = args[0].grid, args[1]
    assert _laplacian4(grid, u).tobytes() == reference_laplacian4(grid, u)[0].tobytes()
