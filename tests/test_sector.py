"""The mirror sector: its discrete identities, the seeds built on it, the
descent on it against the descent on the whole box, and the rule for when
the box is kept."""

import math

import numpy as np
import pytest

from sbpbox import BoundaryData, CouplingSpec, Grid, build_problem, cli, optimize, solvers
from sbpbox.config import parse_config_text
from sbpbox.grid import dirichlet_inner, inner, integrate, laplacian_neumann, zero_boundary
from sbpbox.manifold import feasible_init, genus_seeds
from sbpbox.optimize import OptimizerOptions, excited_states, minimize_on_M, mirror_sector
from sbpbox.problem import _mirror_invariant, solve_chi
from sbpbox.solvers import (
    _MATRIX_MAX_NODES,
    _dct1,
    _dct1_matrix,
    _dst_interior,
    _from_dst_interior,
    _symbols,
    _transform,
    solve_fourth_order_split,
)
from conftest import oscillating_problem

# The ground workloads of the benchmark: q = x, alpha = 0.5 from the flux on
# face x1, kappa = 1, p = 3.
GROUND_CFG = """\
domain.dim = {dim}
grid.n = {n}
physics.kappa = 1.0
physics.p = 3.0
coupling.kind = affine
coupling.a = 0.0
coupling.b = 1.0
boundary.h2.x1 = 0.5
run.mode = ground
"""

# Boxes with their mirrored axes; axis 0 is mirrored too where the grid
# allows it, though the descent never folds it.
SECTORS = [((1.0, 1.5), (9, 13), (1,)),
           ((2.0, 1.0), (7, 5), (0, 1)),
           ((1.0, 0.5, 2.0), (5, 7, 9), (1, 2)),
           ((1.0, 1.0, 1.0), (4, 3, 11), (1, 2))]
SECTOR_IDS = ["2d", "2d-both", "3d", "3d-short"]


def symmetric_field(box, axes, rng, vanish=False):
    """A random field of ``box`` invariant under the mirrors of ``axes``,
    zero on the boundary if ``vanish``."""
    f = rng.standard_normal(box.shape)
    for a in axes:
        f = f + np.flip(f, a)
    return zero_boundary(box, f) if vanish else f


def kept_modes(grid):
    """Index of the box's modes that a field of the sector can have."""
    return tuple(slice(None, None, 2) if a in grid.mirror else slice(None)
                 for a in range(grid.dim))


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("lengths, n, axes", SECTORS, ids=SECTOR_IDS)
def test_sector_transforms_are_the_box_transforms_on_their_modes(lengths, n, axes):
    """Forward, the sector's odd-mode DST-I and its DCT-I give the box's
    coefficients of a mirror-invariant field; the box's other coefficients
    vanish to rounding.  Inverse, each gives the box's field from the box
    coefficients on those modes.  The inverse DCT-I of a mirrored axis is
    the plain DCT-I of its m + 1 half-grid nodes."""
    box = Grid(lengths, n)
    sector = box.sector(axes)
    modes = kept_modes(sector)
    sym, box_sym = _symbols(sector), _symbols(box)
    assert sym.scale == box_sym.scale
    rng = np.random.default_rng(3)
    f = symmetric_field(box, axes, rng, vanish=True)
    coef = _dst_interior(box, f)
    assert rel_err(_dst_interior(sector, sector.fold(f)), coef[modes]) <= 1e-12
    others = coef.copy()
    others[modes] = 0.0
    assert np.abs(others).max() <= 1e-12 * np.abs(coef).max()
    kept = np.zeros_like(coef)
    kept[modes] = coef[modes]
    back = _from_dst_interior(box, kept, np.zeros(box.shape))
    assert rel_err(_from_dst_interior(sector, coef[modes], np.zeros(sector.shape)),
                   sector.fold(back)) <= 1e-12

    g = symmetric_field(box, axes, rng)
    coef = _transform(g, box_sym.dct, _dct1)
    assert rel_err(_transform(sector.fold(g), sym.dct, _dct1), coef[modes]) <= 1e-12
    kept = np.zeros_like(coef)
    kept[modes] = coef[modes]
    assert rel_err(_transform(coef[modes], sym.idct, _dct1),
                   sector.fold(_transform(kept, box_sym.idct, _dct1))) <= 1e-12
    for a in axes:
        assert np.array_equal(sym.idct[a], _dct1_matrix(sector.n[a]))
    assert rel_err(sym.dirichlet, box_sym.dirichlet[modes]) <= 1e-15
    assert rel_err(sym.helmholtz, box_sym.helmholtz[modes]) <= 1e-15


@pytest.mark.parametrize("lengths, n, axes", SECTORS, ids=SECTOR_IDS)
def test_sector_weights_stencils_and_potential_are_the_box_ones(lengths, n, axes):
    """On mirror-invariant fields the sector's quadrature, inner product,
    Neumann stencil, ``dirichlet_inner`` and fourth-order solve give the
    box's values, and unfold inverts fold."""
    box = Grid(lengths, n)
    sector = box.sector(axes)
    rng = np.random.default_rng(5)
    f, g = (symmetric_field(box, axes, rng) for _ in range(2))
    assert np.array_equal(sector.unfold(sector.fold(f)), f)
    assert sector.volume == pytest.approx(box.volume, rel=1e-15)
    assert integrate(sector, sector.fold(f)) == pytest.approx(integrate(box, f), rel=1e-13)
    assert inner(sector, sector.fold(f), sector.fold(g)) == pytest.approx(
        inner(box, f, g), rel=1e-13)
    assert dirichlet_inner(sector, sector.fold(f), sector.fold(g)) == pytest.approx(
        dirichlet_inner(box, f, g), rel=1e-13)
    assert rel_err(laplacian_neumann(sector, sector.fold(f)),
                   sector.fold(laplacian_neumann(box, f))) <= 1e-13
    assert rel_err(solve_fourth_order_split(sector, sector.fold(f)),
                   sector.fold(solve_fourth_order_split(box, f))) <= 1e-12
    assert np.array_equal(sector.interior_mask, sector.fold(box.interior_mask))


@pytest.mark.parametrize("lengths, n, axes", SECTORS, ids=SECTOR_IDS)
@pytest.mark.parametrize("shift", [0.0, 7.5])
def test_sector_mode_sums_are_the_box_products(lengths, n, axes, shift):
    """sum((sigma + s) a_hat b_hat) * prod h / scale over the sector's modes
    is dirichlet_inner(a, b) + s inner(a, b) of the unfolded fields: the
    identity behind the descent's products (``_tangent_gradient``,
    ``_project_dst``)."""
    box = Grid(lengths, n)
    sector = box.sector(axes)
    sym = _symbols(sector)
    rng = np.random.default_rng(11)
    a, b = (sector.fold(symmetric_field(box, axes, rng, vanish=True)) for _ in range(2))
    on_modes = (float(np.vdot((sym.dirichlet + shift) * _dst_interior(sector, a),
                              _dst_interior(sector, b)))
                * math.prod(sector.h) / sym.scale)
    ua, ub = sector.unfold(a), sector.unfold(b)
    exact = dirichlet_inner(box, ua, ub) + shift * inner(box, ua, ub)
    bound = 1e-13 * (math.sqrt(dirichlet_inner(box, ua, ua) * dirichlet_inner(box, ub, ub))
                     + shift * math.sqrt(inner(box, ua, ua) * inner(box, ub, ub)))
    assert abs(on_modes - exact) <= bound


def test_sector_needs_odd_counts_and_the_matrix_path():
    with pytest.raises(ValueError, match="no mirror sector"):
        Grid((1.0, 1.0), (9, 8)).sector((1,))
    with pytest.raises(ValueError, match="longer than"):
        _symbols(Grid((1.0, 1.0), (5, 2 * _MATRIX_MAX_NODES + 1)).sector((1,)))


# -- when the descent keeps the box ----------------------------------------


def ground_problem(dim, n):
    return parse_config_text(GROUND_CFG.format(dim=dim, n=n)).build_problem()


def box_problem(n, coupling=CouplingSpec("affine", {"b": 1.0})):
    """The ground problem on the unit box with ``n`` nodes and ``coupling``."""
    grid = Grid((1.0,) * len(n), n)
    return build_problem(grid, coupling, BoundaryData.zero(grid),
                         BoundaryData.constant(grid, {"x1": 0.5}), 1.0, 3.0)


def test_fold_rule_keeps_the_box():
    """The build picks, and ``mirror_sector`` folds, the transverse axes of
    odd node count on the matrix path along which q and the flux data are
    mirror-invariant, and no other: never in 1d, not along an even count
    or an FFT axis, not for an off-centre bump coupling.  Where no axis
    qualifies it returns the problem itself."""
    def axes(prob):
        sector = mirror_sector(prob)
        assert (sector is prob) == (not sector.grid.mirror)
        return sector.grid.mirror

    assert axes(ground_problem(1, 65)) == ()
    assert axes(ground_problem(3, 9)) == (1, 2)
    assert axes(box_problem((9, 8))) == ()
    assert axes(box_problem((9, 9, 8))) == (1,)
    assert axes(box_problem((5, _MATRIX_MAX_NODES + 4))) == ()
    bump = box_problem((17, 17), CouplingSpec("radial_bump",
                                              {"radius": 0.4, "center": (0.5, 0.4)}))
    assert not _mirror_invariant(bump.q, 1)
    assert axes(bump) == ()
    assert axes(box_problem((17, 17), CouplingSpec("radial_bump", {"radius": 0.4}))) == (1,)


def test_sector_folds_q_and_chi_and_keeps_the_rest():
    """The sector problem's q and chi are the box's on its nodes, and its
    data (alpha, kappa, p and the boundary data) are the box problem's."""
    prob = ground_problem(3, 9)
    sector = mirror_sector(prob)
    assert sector.grid == prob.grid.sector((1, 2))
    assert np.array_equal(sector.q, prob.q[:, :5, :5])
    assert np.array_equal(sector.chi, prob.chi[:, :5, :5])
    assert (sector.alpha, sector.kappa, sector.p, sector.h1, sector.h2) == (
        prob.alpha, prob.kappa, prob.p, prob.h1, prob.h2)


def test_descent_keeps_the_box_for_an_asymmetric_start():
    """The descent runs on the problem it is given: the symmetric seed on
    the sector, and a start without the mirror symmetry on the box problem,
    which keeps its asymmetry."""
    prob = ground_problem(2, 17)
    sector = mirror_sector(prob)
    assert sector.grid.mirror == (1,)
    opts = OptimizerOptions(max_iterations=2)
    assert minimize_on_M(sector, feasible_init(sector), opts).folded == (1,)
    tilted = feasible_init(prob) * (1.0 + 0.1 * prob.grid.coords[1])
    res = minimize_on_M(prob, tilted, opts)
    assert res.folded == ()
    assert not _mirror_invariant(res.u, 1)


@pytest.mark.parametrize("dim, n", [(2, 17), (3, 25), (3, 33)], ids=["2d", "3d", "3d-33"])
def test_seeds_on_the_sector_are_the_folded_box_seeds(dim, n):
    """``feasible_init`` and ``genus_seeds`` built on the sector equal the
    box's seeds on the sector's nodes to 1e-13 relative, nonzero at the
    mirror node, for the ground and the excited problem."""
    for prob, k in ((ground_problem(dim, n), 1), (oscillating_problem(n, dim=dim), 3)):
        sector = mirror_sector(prob)
        assert sector.grid.mirror == tuple(range(1, dim))
        pairs = [(feasible_init(sector), feasible_init(prob))]
        pairs += zip(genus_seeds(sector, k), genus_seeds(prob, k))
        for on_sector, box in pairs:
            assert on_sector.shape == sector.grid.shape
            assert rel_err(on_sector, sector.grid.fold(box)) <= 1e-13
        mirror_node = (slice(None),) + (-1,) * (dim - 1)
        assert np.any(on_sector[mirror_node] > 0.0)


def test_3d_excited_search_builds_one_sector(monkeypatch):
    """The build decides the sector once: one ``Grid.sector`` call for the
    potential and the search's three descents on the 25^3 box."""
    calls = []
    real = Grid.sector

    def counting(self, axes):
        calls.append(axes)
        return real(self, axes)

    monkeypatch.setattr(Grid, "sector", counting)
    prob = oscillating_problem(25, dim=3)
    states = excited_states(prob, 3, OptimizerOptions(max_iterations=8000))
    assert len(states) == 3 and all(s.folded == (1, 2) for s in states)
    assert calls == [(1, 2)]


# -- the potential solved on the sector -------------------------------------


def face_file(tmp_path, name, values):
    path = tmp_path / name
    np.savetxt(path, np.ravel(values))
    return f"file:{path}"


def symmetric_face_cfg(tmp_path):
    """A 3d config whose h1 data on face x0 come from a file, mirror-invariant
    along both transverse axes, with equal constant data on y0 and y1."""
    y, z = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 11)
    face = 0.2 + np.outer(y * (1.0 - y), 1.0 + np.cos(2.0 * np.pi * z))
    face = face + face[::-1]
    face = 0.25 * (face + face[:, ::-1])
    return (GROUND_CFG.format(dim=3, n="7,9,11")
            + f"boundary.h1.x0 = {face_file(tmp_path, 'x0.txt', face)}\n"
            + "boundary.h2.y0 = 0.3\nboundary.h2.y1 = 0.3\n")


@pytest.mark.parametrize("case, axes", [("2d", (1,)), ("3d", (1, 2)), ("file", (1, 2))])
def test_chi_on_the_sector_is_the_box_chi(case, axes, tmp_path):
    """The build solves theta and chi on the sector of the axes it folds,
    and chi unfolded onto the box is ``solve_chi`` on the box to 1e-13
    relative; the folded problem's chi is that chi on the sector."""
    prob = (parse_config_text(symmetric_face_cfg(tmp_path)).build_problem()
            if case == "file" else ground_problem(int(case[0]), 17))
    assert prob.sector.mirror == axes
    box_chi, _, alpha = solve_chi(prob.grid, prob.h1, prob.h2)
    assert prob.alpha == alpha
    assert rel_err(prob.chi, box_chi) <= 1e-13
    assert np.array_equal(mirror_sector(prob).chi, prob.sector.fold(prob.chi))


def test_asymmetric_data_keep_their_axis(tmp_path):
    """Flux data on one face across an axis, or face data that vary
    asymmetrically along it, keep that axis unfolded; the other axis still
    folds, and chi is the box's."""
    base = GROUND_CFG.format(dim=3, n=9)
    z = np.linspace(0.0, 1.0, 9)
    tilted = face_file(tmp_path, "x0.txt", np.outer(np.ones(9), 1.0 + z))
    for extra, axes in (("boundary.h2.y1 = 0.3", (2,)),
                        (f"boundary.h1.x0 = {tilted}", (1,))):
        prob = parse_config_text(f"{base}{extra}\n").build_problem()
        assert prob.sector.mirror == axes
        assert rel_err(prob.chi, solve_chi(prob.grid, prob.h1, prob.h2)[0]) <= 1e-13


def test_folded_problem_never_builds_the_box_symbols(monkeypatch):
    """The build, the ground descent and the excited search of a folded
    problem build the symbols of its sector only."""
    grids = []
    real = solvers._build_symbols
    monkeypatch.setattr(solvers, "_build_symbols", lambda grid: grids.append(grid) or real(grid))
    ground = ground_problem(3, 9)
    assert cli._ground_descent(ground, OptimizerOptions()).converged
    excited = oscillating_problem(17, dim=2)
    assert excited_states(excited, 2, OptimizerOptions(max_iterations=8000))
    assert {g.mirror for g in grids} == {(1,), (1, 2)}


# -- the descent on the sector against the descent on the box ----------------


def solve_both(monkeypatch, solve):
    """``solve()`` on the mirror sector, then with the fold turned off."""
    folded = solve()
    with monkeypatch.context() as mp:
        mp.setattr(optimize, "mirror_sector", lambda problem: problem)
        whole = solve()
    return folded, whole


def assert_same_states(grid, folded, whole, axes):
    assert len(folded) == len(whole) > 0
    for a, b in zip(folded, whole):
        assert a.folded == axes and b.folded == ()
        assert a.stop_reason == b.stop_reason
        assert a.j == pytest.approx(b.j, rel=1e-11)
        assert a.omega == pytest.approx(b.omega, rel=1e-9)
        assert a.mu == pytest.approx(b.mu, rel=1e-9)
        assert optimize._l2_sign_distance(grid, a.u, b.u) <= 1e-6


@pytest.mark.parametrize("dim, n", [(3, 25), (2, 33)], ids=["ground-3d", "refine-2d-33"])
def test_ground_state_on_the_sector_is_the_box_ground_state(dim, n, monkeypatch):
    prob = ground_problem(dim, n)

    def solve():
        sector = optimize.mirror_sector(prob)
        return [minimize_on_M(sector, feasible_init(sector))]

    folded, whole = solve_both(monkeypatch, solve)
    assert_same_states(prob.grid, folded, whole, tuple(range(1, dim)))


def test_3d_excited_states_on_the_sector_are_the_box_states(monkeypatch):
    prob = oscillating_problem(25, dim=3)
    opts = OptimizerOptions(max_iterations=8000)
    folded, whole = solve_both(monkeypatch, lambda: excited_states(prob, 3, opts))
    assert len(folded) == 3
    assert_same_states(prob.grid, folded, whole, (1, 2))
