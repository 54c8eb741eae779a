"""Spectral solves: manufactured solutions, dense agreement, zero data."""

import warnings

import numpy as np
import pytest

from sbpbox import BoundaryData, Grid
from sbpbox.dense import (
    solve_helmholtz_dense,
    solve_poisson_dirichlet_dense,
    solve_poisson_neumann_dense,
)
from sbpbox.errors import SbpError
from sbpbox.grid import boundary_integrate, integrate, mean, norm_l2, zero_boundary
from sbpbox.solvers import (
    _MATRIX_MAX_NODES,
    _dct1,
    _dct1_matrix,
    _dst1,
    _dst1_matrix,
    _symbols,
    solve_fourth_order_split,
    solve_helmholtz_neumann,
    solve_poisson_dirichlet,
    solve_poisson_neumann_zeromean,
)


def test_helmholtz_manufactured_second_order():
    """lap v - v = f with v* = cos(pi x): zero flux, known right side."""
    errs = []
    for n in (17, 33, 65, 129, 257, 513):
        g = Grid(lengths=(1.0,), n=(n,))
        x = g.coords[0]
        v_exact = np.cos(np.pi * x)
        f = -(np.pi ** 2 + 1.0) * v_exact
        v = solve_helmholtz_neumann(g, f)
        errs.append(np.abs(v - v_exact).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.1)


def test_helmholtz_gauss_identity():
    g = Grid(lengths=(1.0, 1.0), n=(17, 17))
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.shape)
    flux = BoundaryData.constant(g, {"x0": 0.3, "y1": -0.2})
    v = solve_helmholtz_neumann(g, f, flux)
    lhs = boundary_integrate(g, flux) - integrate(g, v)
    assert lhs == pytest.approx(integrate(g, f), abs=1e-9)


def test_poisson_neumann_zero_mean_and_compatibility():
    g = Grid(lengths=(1.0,), n=(33,))
    rng = np.random.default_rng(1)
    f = rng.standard_normal(g.shape)
    f -= mean(g, f)
    v = solve_poisson_neumann_zeromean(g, f)
    assert abs(mean(g, v)) <= 1e-12
    # Incompatible data must raise, not silently project.
    with pytest.raises(SbpError, match=r"flux is \S+, tolerance"):
        solve_poisson_neumann_zeromean(g, f + 1.0)


def test_poisson_neumann_manufactured():
    """lap v = f with v* = cos(2 pi x) (zero flux, zero mean)."""
    errs = []
    for n in (33, 65, 129, 257, 513):
        g = Grid(lengths=(1.0,), n=(n,))
        x = g.coords[0]
        v_exact = np.cos(2.0 * np.pi * x)
        f = -(2.0 * np.pi) ** 2 * v_exact
        f -= mean(g, f)
        v = solve_poisson_neumann_zeromean(g, f)
        errs.append(np.abs(v - (v_exact - mean(g, v_exact))).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.15)


def test_poisson_dirichlet_manufactured_2d():
    errs = []
    for n in (9, 17, 33):
        g = Grid(lengths=(1.0, 1.0), n=(n, n))
        x, y = g.coords
        v_exact = np.sin(np.pi * x) * np.sin(np.pi * y)
        f = 2.0 * np.pi ** 2 * v_exact
        v = solve_poisson_dirichlet(g, f)
        errs.append(np.abs(v - v_exact).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.1)


def test_poisson_dirichlet_manufactured_1d():
    """The sizes cross from matrix to FFT transforms at 257 nodes."""
    errs = []
    for n in (129, 257, 513, 1025):
        g = Grid(lengths=(1.0,), n=(n,))
        x = g.coords[0]
        v_exact = np.sin(np.pi * x)
        v = solve_poisson_dirichlet(g, np.pi ** 2 * v_exact)
        errs.append(np.abs(v - v_exact).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.1)


# (5, 261) has a matrix axis and an FFT axis.
@pytest.mark.parametrize("dim,n", [(1, 17), (2, 9),
                                   pytest.param(2, (5, 261), id="2-5x261")])
def test_dense_agreement(dim, n):
    g = Grid(lengths=(1.0,) * dim, n=(n,) * dim if np.isscalar(n) else n)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(g.shape)

    v_it = solve_helmholtz_neumann(g, f)
    v_ds = solve_helmholtz_dense(g, -f)  # dense form takes the moved rhs
    assert np.abs(v_it - v_ds).max() <= 1e-10 * (1.0 + np.abs(v_ds).max())

    f0 = f - mean(g, f)
    w_it = solve_poisson_neumann_zeromean(g, f0)
    w_ds = solve_poisson_neumann_dense(g, f0)
    assert np.abs(w_it - w_ds).max() <= 1e-10 * (1.0 + np.abs(w_ds).max())

    fd = zero_boundary(g, f)
    d_it = solve_poisson_dirichlet(g, fd)
    d_ds = solve_poisson_dirichlet_dense(g, fd)
    assert np.abs(d_it - d_ds).max() <= 1e-10 * (1.0 + np.abs(d_ds).max())


@pytest.mark.parametrize("n", [_MATRIX_MAX_NODES - 1, _MATRIX_MAX_NODES,
                               _MATRIX_MAX_NODES + 1])
def test_matrix_and_fft_transforms_agree(n):
    """Either side of the selection: each DCT-I/DST-I matrix equals its FFT
    form, and each form applied twice scales by 2 (n - 1) (DCT-I, n nodes)
    or 2 (m + 1) (DST-I, m = n - 2 interior nodes)."""
    x = np.random.default_rng(3).standard_normal((n, 2))
    for mat, fft, y in ((_dct1_matrix(n), _dct1, x),
                        (_dst1_matrix(n - 2), _dst1, x[1:-1])):
        assert np.abs(mat @ y - fft(y, 0)).max() <= 1e-13 * np.abs(mat @ y).max()
        for once in (lambda v: mat @ v, lambda v: fft(v, 0)):
            twice = once(once(y)) / (2.0 * (n - 1))
            assert np.abs(twice - y).max() <= 1e-13 * np.abs(y).max()
    sym = _symbols(Grid(lengths=(1.0,), n=(n,)))
    on_matrix = n <= _MATRIX_MAX_NODES
    assert (sym.dct[0] is not None) == on_matrix
    assert (sym.dst[0] is not None) == on_matrix


def test_zero_rhs_returns_zero():
    g = Grid(lengths=(1.0,), n=(17,))
    v = solve_poisson_dirichlet(g, np.zeros(g.shape))
    assert np.all(v == 0.0)
    assert norm_l2(g, solve_helmholtz_neumann(g, np.zeros(g.shape))) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("n", [(9,), (5, 6, 7)], ids=["1d", "3d"])
@pytest.mark.parametrize("solve", [
    solve_poisson_dirichlet,
    solve_helmholtz_neumann,
    solve_poisson_neumann_zeromean,
    solve_fourth_order_split,
], ids=lambda f: f.__name__)
def test_non_finite_data_raises(solve, n, bad):
    """A non-finite value at an interior node spreads through the transforms,
    and every solve raises an ``SbpError`` that calls it non-finite."""
    g = Grid(lengths=(1.0,) * len(n), n=n)
    f = np.zeros(g.shape)
    f[(2,) * g.dim] = bad
    with np.errstate(all="ignore"), pytest.raises(SbpError, match="non-finite"):
        solve(g, f)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_zero_mean_solve_rejects_non_finite_data_before_transforming(bad):
    """A NaN imbalance passes the compatibility test and an infinite one meets
    an infinite tolerance, so the check for non-finite data comes first: no
    transform runs, and numpy emits no ``RuntimeWarning``."""
    g = Grid(lengths=(1.0, 1.0), n=(5, 6))
    f = np.zeros(g.shape)
    f[2, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SbpError, match="non-finite data"):
            solve_poisson_neumann_zeromean(g, f)
