"""Quadrature, stencils, and the discrete integration-by-parts identities.

The whole package leans on two exact (to rounding) facts checked here: the
trapezoid rule makes the Dirichlet form the negative adjoint of the
Dirichlet Laplacian, and the Neumann stencil telescopes so that the volume
integral of lap(f) equals the surface integral of the flux data.
"""

import numpy as np
import pytest

from sbpbox import BoundaryData, Grid, read_field, write_field
from sbpbox.errors import SbpError
from sbpbox.grid import (
    boundary_integrate,
    dirichlet_energy,
    dirichlet_inner,
    inner,
    integrate,
    laplacian_dirichlet,
    laplacian_neumann,
    mean,
    neumann_flux_field,
    norm_l2,
    require_zero_boundary,
    zero_boundary,
)
from conftest import (cell_weights, coords, reference_laplacian_dirichlet,
                      reference_laplacian_neumann)


def boundary_from_callable(grid, fn):
    """Boundary data ``fn(x1, ..., xd)`` at the nodes of every face."""
    vals = {}
    for axis, side in grid.faces():
        idx = grid.face_index(axis, side)
        face = [c[idx] for c in coords(grid)]
        vals[(axis, side)] = np.asarray(fn(*face), dtype=float).reshape(
            grid.face_shape(axis))
    return BoundaryData(grid, vals)


def grids():
    return [
        Grid(lengths=(1.0,), n=(17,)),
        Grid(lengths=(2.0, 1.0), n=(9, 13)),
        Grid(lengths=(1.0, 1.5, 0.5), n=(5, 7, 6)),
    ]


def test_grid_geometry():
    g = Grid(lengths=(2.0, 1.0), n=(5, 9))
    assert g.dim == 2
    assert g.shape == (5, 9)
    assert g.h == (0.5, 0.125)
    assert g.volume == 2.0
    assert g.node_count == 45
    assert g.interior_mask.sum() == 3 * 7


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(lengths=(1.0,), n=(2,))
    with pytest.raises(ValueError):
        Grid(lengths=(-1.0,), n=(9,))
    with pytest.raises(ValueError):
        Grid(lengths=(1.0, 1.0), n=(9,))


@pytest.mark.parametrize("g", grids(), ids=lambda g: f"{g.dim}d")
def test_trapezoid_integrates_constants_exactly(g):
    ones = np.ones(g.shape)
    assert integrate(g, ones) == pytest.approx(g.volume, rel=1e-14)
    assert mean(g, ones) == pytest.approx(1.0, rel=1e-14)
    # Trapezoid weights are exact on affine functions as well.
    f = 2.0 * coords(g)[0] + 1.0
    exact = g.volume * (g.lengths[0] + 1.0)
    assert integrate(g, f) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("g", grids(), ids=lambda g: f"{g.dim}d")
def test_inner_and_norm_consistency(g):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.shape)
    h = rng.standard_normal(g.shape)
    assert inner(g, f, h) == pytest.approx(integrate(g, f * h), rel=1e-13)
    assert norm_l2(g, f) == pytest.approx(np.sqrt(inner(g, f, f)), rel=1e-13)


@pytest.mark.parametrize("g", grids(), ids=lambda g: f"{g.dim}d")
def test_dirichlet_form_is_negative_adjoint_of_laplacian(g):
    """inner(grad f, grad h) == -inner(lap f, h) holds to rounding for
    zero-boundary fields; this is the summation-by-parts backbone."""
    rng = np.random.default_rng(5)
    f = zero_boundary(g, rng.standard_normal(g.shape))
    h = zero_boundary(g, rng.standard_normal(g.shape))
    lhs = dirichlet_inner(g, f, h)
    rhs = -inner(g, laplacian_dirichlet(g, f), h)
    scale = 1.0 + abs(lhs)
    assert abs(lhs - rhs) <= 1e-13 * scale
    # Symmetry and positivity of the form.
    assert dirichlet_inner(g, h, f) == pytest.approx(lhs, abs=1e-13 * scale)
    assert dirichlet_energy(g, f) >= 0.0
    assert dirichlet_energy(g, f) == pytest.approx(dirichlet_inner(g, f, f),
                                                   rel=1e-13)
    # On zero-boundary fields the Dirichlet stencil is the masked Neumann
    # stencil, bit for bit.
    assert np.array_equal(laplacian_dirichlet(g, f),
                          zero_boundary(g, laplacian_neumann(g, f)))


def test_laplacian_dirichlet_rejects_nonzero_boundary():
    g = Grid(lengths=(1.0,), n=(9,))
    f = np.ones(g.shape)
    with pytest.raises(SbpError, match="boundary magnitude"):
        laplacian_dirichlet(g, f)
    # A zero-boundary input passes, and the output vanishes on the boundary.
    out = laplacian_dirichlet(g, zero_boundary(g, f))
    assert np.all(out[~g.interior_mask] == 0.0)
    assert out[1] != 0.0



@pytest.mark.parametrize("edit", [
    {0: np.nan},                 # nan > limit is False
    {-1: np.inf},                # the limit 1e-12 (1 + inf) is infinite
    {0: -np.inf},
    {0: 1.0, 4: np.inf},         # an infinite interior value
    {-1: 1.0, 4: np.nan},        # a NaN interior value
], ids=["nan", "inf", "-inf", "inf-interior", "nan-interior"])
def test_require_zero_boundary_rejects_non_finite_values(edit):
    g = Grid(lengths=(1.0,), n=(9,))
    f = np.zeros(g.shape)
    f[4] = 1.0
    for i, value in edit.items():
        f[i] = value
    with pytest.raises(SbpError, match="boundary magnitude"):
        require_zero_boundary(g, f)
    with pytest.raises(SbpError, match="boundary magnitude"):
        laplacian_dirichlet(g, f)
    # A non-finite interior value alone is no boundary violation.
    f[[0, -1]] = 0.0
    np.testing.assert_array_equal(require_zero_boundary(g, f), f)

def test_laplacian_dirichlet_second_order():
    errs = []
    for n in (17, 33, 65):
        g = Grid(lengths=(1.0,), n=(n,))
        x = coords(g)[0]
        u = np.sin(np.pi * x)
        res = laplacian_dirichlet(g, u) + np.pi ** 2 * u
        errs.append(np.abs(res[g.interior_mask]).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.1)


@pytest.mark.parametrize("g", grids(), ids=lambda g: f"{g.dim}d")
def test_neumann_gauss_identity(g):
    """integrate(lap_neumann(f, flux)) == surface integral of the flux,
    exactly: the interior stencil telescopes and the ghost closure injects
    the flux with the matching face weights."""
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.shape)
    flux = boundary_from_callable(g, lambda *xs: sum(xs) + 1.0)
    out = laplacian_neumann(g, f, flux)
    lhs = integrate(g, out)
    rhs = boundary_integrate(g, flux)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs) + norm_l2(g, f) / min(g.h) ** 2)


def test_laplacian_neumann_constant_is_zero():
    for g in grids():
        out = laplacian_neumann(g, np.full(g.shape, 3.7), None)
        assert np.abs(out).max() <= 1e-12


def test_neumann_flux_field_matches_surface_integral():
    for g in grids():
        flux = boundary_from_callable(g, lambda *xs: xs[0] - 2.0 * xs[-1])
        field = neumann_flux_field(g, flux)
        assert integrate(g, field) == pytest.approx(
            boundary_integrate(g, flux), abs=1e-12)


def test_boundary_integrate_constant_data():
    g1 = Grid(lengths=(1.0,), n=(9,))
    # In 1d the two faces are points: the surface measure is counting.
    assert boundary_integrate(g1, BoundaryData.constant(g1, 1.0)) == pytest.approx(2.0)
    g2 = Grid(lengths=(2.0, 1.0), n=(9, 9))
    # Perimeter of a 2 x 1 box.
    assert boundary_integrate(g2, BoundaryData.constant(g2, 1.0)) == pytest.approx(6.0)
    one_face = BoundaryData.constant(g2, {"x1": 3.0})
    assert boundary_integrate(g2, one_face) == pytest.approx(3.0 * 1.0)


def test_boundary_data_validation():
    g = Grid(lengths=(1.0, 1.0), n=(5, 5))
    with pytest.raises(ValueError):
        BoundaryData(grid=g, values={(0, 0): np.zeros(5)})  # missing faces
    bad = {face: np.zeros(5) for face in g.faces()}
    bad[(0, 0)] = np.zeros(7)
    with pytest.raises(ValueError):
        BoundaryData(grid=g, values=bad)
    with pytest.raises(ValueError):
        BoundaryData.constant(g, {"z0": 1.0})  # no z faces in 2d
    with pytest.raises(ValueError, match="unknown face w0"):
        BoundaryData.constant(g, {"w0": 1.0})  # not a face name
    with pytest.raises(ValueError, match="unknown face 0"):
        BoundaryData.constant(g, {0: 1.0})  # neither a name nor an (axis, side) pair
    zero = BoundaryData.zero(g)
    assert zero.is_zero
    assert not BoundaryData.constant(g, {"x1": 0.5}).is_zero


def test_field_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    cases = [(g, rng.standard_normal(g.shape)) for g in grids()]
    # Values a decimal text dump could lose: nan, infinities, the sign of
    # zero, a subnormal and the largest finite doubles.
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                        1.7976931348623157e308, -1.7976931348623157e308,
                        0.0, 1.0])
    cases.append((Grid(lengths=(1.0,), n=(special.size,)), special))
    for k, (g, f) in enumerate(cases):
        path = tmp_path / f"field{k}.bin"
        write_field(path, g, f)
        g2, f2 = read_field(path)
        assert g2 == g
        assert np.array_equal(f2, f, equal_nan=True)
        assert f2.flags.writeable
    assert np.signbit(f2[3]) and not np.signbit(f2[7])


_HEADER_1D = b"# dim=1 n=5 L=1.0 dtype=<f8\n"


@pytest.mark.parametrize("content, reason", [
    (b"# dim=1 n=5 L=1.0\n" + b"0.0\n" * 5, "not a binary field file"),
    (_HEADER_1D + np.zeros(5).tobytes() + b"\0\0\0", "partial float64"),
    (_HEADER_1D + np.zeros(4).tobytes(), "expected 5 values, found 4"),
    (_HEADER_1D + np.zeros(6).tobytes(), "expected 5 values, found 6"),
    (b"# dim=3 n=3000000,3000000,3000000 L=1.0,1.0,1.0 dtype=<f8\n",
     "expected 27000000000000000000 values, found 0"),
    (b"# dim=2 n=5 L=1.0 dtype=<f8\n" + np.zeros(5).tobytes(),
     "axis counts disagree"),
], ids=["text-era", "partial-value", "too-few", "too-many", "count-past-int64",
        "axis-counts"])
def test_read_field_rejects_malformed_files(tmp_path, content, reason):
    """Each malformed dump raises a ValueError that names the file and the
    defect; a text dump is rejected by its header, never read as numbers."""
    path = tmp_path / "bad.bin"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=reason) as info:
        read_field(path)
    assert str(path) in str(info.value)


# -- the stencils against the whole-field forms they replaced ----------------


STENCIL_GRIDS = [Grid((1.3,), (11,)), Grid((1.0, 0.7), (9, 6)),
                 Grid((0.9, 1.1, 0.6), (7, 5, 6)), Grid((0.5, 0.8), (9, 5), (1,))]


@pytest.mark.parametrize("g", STENCIL_GRIDS, ids=["1d", "2d", "3d", "2d-sector"])
def test_stencils_are_bitwise_the_whole_field_forms(g):
    """Bitwise, signed zeros included: with inhomogeneous flux data, and
    for the Dirichlet stencil with a boundary of +0.0, of -0.0 and of
    values within its rounding limit."""
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.shape)
    f[tuple(rng.integers(0, m, 4) for m in g.shape)] = 0.0
    flux = boundary_from_callable(g, lambda *x: 1.0 + x[0] - 0.5 * x[-1])
    for data in (None, flux):
        assert (laplacian_neumann(g, f, data).tobytes()
                == reference_laplacian_neumann(g, f, data).tobytes())
    vanishing = zero_boundary(g, f)
    for edge in (0.0, -0.0, 3e-13):
        u = vanishing + 0.0
        u[~g.interior_mask] = edge
        u[~g.interior_mask & (rng.random(g.shape) < 0.5)] *= -1.0
        assert (laplacian_dirichlet(g, u).tobytes()
                == reference_laplacian_dirichlet(g, u).tobytes())


@pytest.mark.parametrize("g", STENCIL_GRIDS, ids=["1d", "2d", "3d", "2d-sector"])
def test_dirichlet_inner_equals_the_form_with_cached_weights(g):
    rng = np.random.default_rng(4)
    f, k = rng.standard_normal((2,) + g.shape)
    for a, b in ((f, k), (f, f)):
        cached = 0.0
        for axis, (h, w) in enumerate(zip(g.h, cell_weights(g))):
            da = np.diff(a, axis=axis)
            db = da if b is a else np.diff(b, axis=axis)
            cached += float(np.vdot(w * da, db)) / (h * h)
        assert dirichlet_inner(g, a, b) == cached
