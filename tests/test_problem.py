"""Problem assembly: coupling families, the auxiliary potential, alpha."""

import math

import numpy as np
import pytest

from sbpbox import BoundaryData, CouplingSpec, Grid, build_problem, read_field, write_field
from sbpbox import problem
from sbpbox.errors import SbpError
from sbpbox.grid import boundary_integrate, integrate, mean
from sbpbox.problem import classify_alpha, compute_alpha, solve_chi
from conftest import fourth_order_chi_residual, line_problem, square_problem


def test_compute_alpha_flux_gap():
    g = Grid(lengths=(1.0,), n=(17,))
    h1 = BoundaryData.constant(g, {"x0": 0.25})
    h2 = BoundaryData.constant(g, {"x1": 0.5, "x0": 0.125})
    # 1d faces are points: surface integrals are plain sums of face values.
    assert compute_alpha(g, h1, h2) == pytest.approx(0.5 + 0.125 - 0.25)
    g2 = Grid(lengths=(2.0, 1.0), n=(9, 9))
    h1 = BoundaryData.zero(g2)
    h2 = BoundaryData.constant(g2, {"y1": 0.5})  # edge of length 2
    assert compute_alpha(g2, h1, h2) == pytest.approx(1.0)


def test_coupling_affine_and_oscillating():
    g = Grid(lengths=(2.0,), n=(33,))
    x = g.coords[0]
    q = CouplingSpec("affine", {"a": 1.0, "b": 0.25}).evaluate(g)
    assert np.allclose(q, 1.0 + 0.25 * x, atol=1e-14)
    q = CouplingSpec("oscillating",
                     {"base": 1.0, "amplitude": 0.5, "cycles": 2,
                      "tilt": 0.1}).evaluate(g)
    expect = 1.0 + 0.5 * np.sin(2.0 * math.pi * 2 * x / 2.0) + 0.1 * x / 2.0
    assert np.allclose(q, expect, atol=1e-12)


def test_coupling_radial_bump_support():
    g = Grid(lengths=(1.0, 1.0), n=(33, 33))
    spec = CouplingSpec("radial_bump", {"base": 0.5, "height": 2.0,
                                        "center": (0.5, 0.5), "radius": 0.25})
    q = spec.evaluate(g)
    x, y = g.coords
    outside = (x - 0.5) ** 2 + (y - 0.5) ** 2 > 0.25 ** 2
    assert np.allclose(q[outside], 0.5)
    assert q.max() == pytest.approx(2.5)


def test_coupling_tabulated_roundtrip(tmp_path):
    g = Grid(lengths=(1.0,), n=(17,))
    values = 1.0 + np.linspace(0.0, 1.0, 17) ** 2
    path = tmp_path / "q.bin"
    write_field(path, g, values)
    q = CouplingSpec("tabulated", {"file": str(path)}).evaluate(g)
    assert np.array_equal(q, values)
    other = Grid(lengths=(1.0,), n=(33,))
    with pytest.raises(ValueError, match="does not match"):
        CouplingSpec("tabulated", {"file": str(path)}).evaluate(other)
    # The right node count on another box length is rejected too.
    long_path = tmp_path / "q_long.bin"
    write_field(long_path, Grid(lengths=(2.0,), n=(17,)), values)
    with pytest.raises(ValueError, match="does not match"):
        CouplingSpec("tabulated", {"file": str(long_path)}).evaluate(g)


@pytest.mark.parametrize("kind, params, key", [
    ("radial_bump", {"base": 0.5}, "radius"),
    ("tabulated", {}, "file"),
    ("affine", {"a": 1.0, "radius": 0.2}, "radius"),
    ("radial_bump", {"center": (0.5,), "radius": 0.25}, "center"),
])
def test_coupling_parameters_are_checked(kind, params, key):
    """A missing parameter, one the kind does not take, and a center with
    fewer entries than axes each raise a ValueError naming the key."""
    g = Grid(lengths=(1.0, 1.0), n=(9, 9))
    with pytest.raises(ValueError, match=key):
        CouplingSpec(kind, params).evaluate(g)


def test_coupling_unknown_kind():
    g = Grid(lengths=(1.0,), n=(9,))
    with pytest.raises(ValueError):
        CouplingSpec("quadratic", {}).evaluate(g)


def test_build_problem_validation():
    g = Grid(lengths=(1.0,), n=(17,))
    zero = BoundaryData.zero(g)
    spec = CouplingSpec("affine", {"a": 1.0, "b": 1.0})
    with pytest.raises(ValueError):
        build_problem(grid=g, coupling=spec, h1=zero, h2=zero,
                      kappa=1.0, p=2.0)  # exponent at the window edge
    with pytest.raises(ValueError):
        build_problem(grid=g, coupling=spec, h1=zero, h2=zero,
                      kappa=1.0, p=10.0 / 3.0)
    with pytest.raises(ValueError):
        build_problem(grid=g, coupling=spec, h1=zero, h2=zero,
                      kappa=-1.0, p=3.0)
    q = np.full(g.shape, np.nan)
    with pytest.raises(ValueError):
        build_problem(grid=g, coupling=q, h1=zero, h2=zero, kappa=1.0, p=3.0)


def test_problem_records_alpha_and_q_range():
    prob = line_problem(33, alpha=0.5)
    assert prob.alpha == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(prob.q_chi, prob.q * prob.chi)


def manufactured_chi(alpha):
    """chi* = 2 cosh(x) + beta x^2 on (0,1) solves the fourth-order problem
    with alpha = -2 beta: both homogeneous-solution pieces have matching
    first and third derivative fluxes, the quadratic supplies the gap."""
    beta = -alpha / 2.0

    def chi_exact(x):
        return 2.0 * np.cosh(x) + beta * x * x

    def mk(n):
        g = Grid(lengths=(1.0,), n=(n,))
        h1 = BoundaryData.constant(
            g, {"x0": 0.0, "x1": 2.0 * math.sinh(1.0) + 2.0 * beta})
        h2 = BoundaryData.constant(g, {"x0": 0.0, "x1": 2.0 * math.sinh(1.0)})
        return g, h1, h2

    return chi_exact, mk


def test_chi_manufactured_second_order():
    chi_exact, mk = manufactured_chi(0.7)
    errs = []
    for n in (33, 65, 129, 257):
        g, h1, h2 = mk(n)
        chi, theta, alpha = solve_chi(g, h1, h2)
        assert alpha == pytest.approx(0.7, abs=1e-12)
        assert abs(mean(g, chi)) <= 1e-12
        target = chi_exact(g.coords[0])
        target -= mean(g, target)
        errs.append(np.abs(chi - target).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.1)


def test_chi_theta_mean_identity():
    """integrate(theta) equals the surface integral of h1 on every run; the
    identity is structural, it holds for arbitrary (not just manufactured)
    boundary data."""
    g = Grid(lengths=(1.0, 1.0), n=(17, 17))
    h1 = BoundaryData.constant(g, {"x0": 0.2, "y1": -0.1})
    h2 = BoundaryData.constant(g, {"x1": 0.4})
    chi, theta, alpha = solve_chi(g, h1, h2)
    surf = boundary_integrate(g, h1)
    scale = 1.0 + abs(alpha)
    assert abs(integrate(g, theta) - surf) <= 5e-8 * scale
    assert abs(mean(g, chi)) <= 1e-12


def test_chi_consistency_violation_detected(monkeypatch):
    """A doctored check tolerance turns the benign solver residual into an
    error; guards that the identity really is being measured."""
    g = Grid(lengths=(1.0,), n=(33,))
    h1 = BoundaryData.constant(g, {"x1": 0.3})
    h2 = BoundaryData.constant(g, {"x1": 0.5})
    monkeypatch.setattr(problem, "_CHI_CHECK_TOL", 1e-18)
    with pytest.raises(SbpError, match="mean of theta differs"):
        solve_chi(g, h1, h2)


def test_chi_native_residual_small():
    prob = line_problem(65, alpha=0.5)
    res = fourth_order_chi_residual(prob.grid, prob.chi, prob.h1, prob.h2,
                                    prob.alpha)
    # The native stencil reproduces the discrete equation chi solves, so the
    # residual sits at solver tolerance, not at discretization error.
    assert res <= 1e-6


def test_classify_alpha_regimes():
    """q = x brackets alpha on the interior nodes 1/32 .. 31/32 only, so an
    alpha just below the largest nodal value of q is infeasible."""
    assert classify_alpha(line_problem(33, alpha=0.5)).classification == "interior"
    assert classify_alpha(line_problem(33, alpha=1.5)).classification == "infeasible"
    assert classify_alpha(line_problem(33, alpha=-0.2)).classification == "infeasible"
    rep = classify_alpha(line_problem(33, alpha=1.0 - 1e-12))
    assert rep.classification == "infeasible"
    assert (rep.q_min, rep.q_max) == (1 / 32, 31 / 32)


def test_classify_alpha_constant_coupling():
    g = Grid(lengths=(1.0,), n=(33,))
    h1 = BoundaryData.zero(g)
    h2 = BoundaryData.constant(g, {"x1": 2.0})
    prob = build_problem(grid=g, coupling=np.full(g.shape, 2.0),
                         h1=h1, h2=h2, kappa=1.0, p=3.0)
    rep = classify_alpha(prob)
    # alpha == q everywhere: q brackets alpha strictly nowhere.
    assert rep.classification == "infeasible"


def test_square_problem_assembles():
    prob = square_problem(17)
    assert prob.grid.dim == 2
    assert prob.alpha == pytest.approx(0.0, abs=1e-12)
    assert classify_alpha(prob).classification == "infeasible"


def dense_coupling(spec, grid):
    """``CouplingSpec.evaluate`` as it stood, on the coordinate fields."""
    p, x = spec.params, grid.coords
    if spec.kind == "affine":
        q = float(p.get("a", 0.0)) + float(p.get("b", 0.0)) * x[0]
    elif spec.kind == "radial_bump":
        center = np.atleast_1d(np.asarray(p.get("center", [L / 2 for L in grid.lengths]),
                                          dtype=float))
        r2 = sum((c - ci) ** 2 for c, ci in zip(x, center))
        q = float(p.get("base", 0.0)) + float(p.get("height", 1.0)) * np.clip(
            1.0 - r2 / float(p["radius"]) ** 2, 0.0, None) ** 2
    elif spec.kind == "oscillating":
        s = x[0] / grid.lengths[0]
        q = (float(p.get("base", 0.0)) + float(p.get("amplitude", 1.0))
             * np.sin(2.0 * math.pi * float(p.get("cycles", 3)) * s)
             + float(p.get("tilt", 0.0)) * s)
    else:
        q = read_field(p["file"])[1]
    return np.asarray(q, dtype=float) + np.zeros(grid.shape)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coupling_on_broadcast_axes_is_the_dense_evaluation(dim, tmp_path):
    """Bitwise, for every kind, an off-centre bump among them."""
    g = Grid(lengths=(1.0, 0.8, 1.3)[:dim], n=(13, 9, 11)[:dim])
    path = tmp_path / "q.bin"
    values = np.random.default_rng(dim).standard_normal(g.shape)
    values.flat[::5] = -0.0
    write_field(path, g, values)
    specs = [CouplingSpec("affine", {"a": -0.25, "b": 1.5}),
             CouplingSpec("radial_bump", {"radius": 0.6}),
             CouplingSpec("radial_bump", {"radius": 0.45, "base": 0.1, "height": -2.0,
                                          "center": [0.3, 0.2, 0.9][:dim]}),
             CouplingSpec("oscillating", {"base": 1.0, "amplitude": 0.9, "cycles": 3,
                                          "tilt": 0.1}),
             CouplingSpec("tabulated", {"file": str(path)})]
    for spec in specs:
        q = spec.evaluate(g)
        assert q.shape == g.shape and q.flags.writeable
        assert q.tobytes() == dense_coupling(spec, g).tobytes(), spec.kind
