"""Property tests over random box grids in 1d, 2d and 3d.

Each example draws the dimension, 3 to 12 nodes per axis, the edge lengths
and a seed for the random data.  The examples are derandomized and the
database is off, so every run checks the same grids.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpbox import (
    BoundaryData,
    Grid,
    boundary_integrate,
    dirichlet_inner,
    inner,
    integrate,
    laplacian_neumann,
    mean,
    solve_helmholtz_neumann,
    solve_poisson_dirichlet,
    solve_poisson_neumann_zeromean,
)
from sbpbox.dense import (
    solve_helmholtz_dense,
    solve_poisson_dirichlet_dense,
    solve_poisson_neumann_dense,
)
from sbpbox.grid import zero_boundary

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
