"""Shared builders for the test suite.

The 1d benchmark (q = x, alpha = 0.5, kappa = 1, p = 3 on the unit
interval) is the workhorse: it is cheap, has non-constant coupling, and its
converged numbers are frozen in several regression tests.  Expensive solves
are session-scoped so the suite pays for each of them once.
"""

import faulthandler
import math
import os
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from sbpbox import (
    BoundaryData,
    CouplingSpec,
    Grid,
    build_problem,
    optimize,
)
from sbpbox.grid import (dirichlet_energy, inner, integrate, laplacian_neumann,
                         neumann_flux_field, norm_l2, require_zero_boundary)
from sbpbox.manifold import feasible_init, retract
from sbpbox.optimize import OptimizerOptions, minimize_on_M
from sbpbox.problem import box_problem
from sbpbox.solvers import _from_dst_interior, _symbols

# The entry-point test runs ``python -m sbpbox`` in a subprocess; it imports
# the package from this checkout, as the test process does through the
# ``pythonpath`` setting in pyproject.toml.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

# Per-test wall-clock bound.  The slowest test takes about a second; a hang
# (say, a descent that stopped converging) ends the run with the traceback of
# every thread instead of blocking it.
TEST_TIME_LIMIT_S = 60
_HANG_REPORT = pytest.StashKey()


def pytest_configure(config):
    # Output capture redirects fd 2 while a test runs; keep a copy of the
    # terminal's stderr so the traceback of a hung test stays visible.
    config.stash[_HANG_REPORT] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_HANG_REPORT].close()


@pytest.fixture(autouse=True)
def _time_bound(request):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=request.config.stash[_HANG_REPORT])
    yield
    faulthandler.cancel_dump_traceback_later()


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


def line_problem(n, alpha=0.5, kappa=1.0, p=3.0, coupling=None):
    """Unit-interval problem with flux-generated alpha on the right face."""
    g = Grid(lengths=(1.0,), n=(n,))
    h1 = BoundaryData.zero(g)
    h2 = BoundaryData.constant(g, {"x1": alpha})
    if coupling is None:
        coupling = CouplingSpec("affine", {"a": 0.0, "b": 1.0})
    return build_problem(grid=g, coupling=coupling, h1=h1, h2=h2,
                         kappa=kappa, p=p)


def square_problem(n, alpha=0.0, kappa=1.0, p=3.0):
    """Unit-square problem with affine coupling q = 1 + 0.5 x."""
    g = Grid(lengths=(1.0, 1.0), n=(n, n))
    h1 = BoundaryData.zero(g)
    if alpha:
        h2 = BoundaryData.constant(g, {"x1": alpha})
    else:
        h2 = BoundaryData.zero(g)
    return build_problem(grid=g,
                         coupling=CouplingSpec("affine", {"a": 1.0, "b": 0.5}),
                         h1=h1, h2=h2, kappa=kappa, p=p)


def oscillating_problem(n, alpha=0.35, kappa=20.0, dim=1):
    """Multi-well coupling whose troughs sit below alpha: traps distinct
    single-lump states in separate wells.  The problem of
    ``demos/configs/excited.cfg`` on the unit box with n nodes per axis."""
    g = Grid(lengths=(1.0,) * dim, n=(n,) * dim)
    h1 = BoundaryData.zero(g)
    h2 = BoundaryData.constant(g, {"x1": alpha})
    spec = CouplingSpec("oscillating", {"base": 1.0, "amplitude": 0.9,
                                        "cycles": 3, "tilt": 0.1})
    return build_problem(grid=g, coupling=spec, h1=h1, h2=h2,
                         kappa=kappa, p=3.0)


def random_m_point(problem, rng, scale=1.0):
    """A random point on the constraint manifold: noise bump -> retract."""
    g = problem.grid
    v = rng.standard_normal(g.shape) * scale
    window = np.ones(g.shape)
    for c, length in zip(coords(g), g.lengths):
        window *= np.sin(np.pi * c / length)
    v = v * window + 2.0 * window
    return retract(problem, v)


def axis_slab_region(grid, i0, i1):
    """Per-axis (lo, hi) bounds of the slab between nodes i0 and i1 of axis
    0, full across it: the box ``feasible_init(problem, (i0, i1))`` seeds."""
    x = grid.axes[0]
    return [(float(x[i0]), float(x[i1]))] + [(0.0, L) for L in grid.lengths[1:]]


def two_bump_start(problem, region):
    """Reference start data: the two-bump point of M that ``feasible_init``
    built before it took the tilted principal mode.  The long-tail descent
    tests were written for these spiky starts and keep them.

    The radius sweeps down by factors of 0.85 from the fattest bump the
    region holds with a 1.5-cell inset, to 2.05 cells.  Per radius the
    centers are the argmin and argmax of q over the admissible nodes; the
    first pair whose unit-mass bumps C^1 max(0, 1 - r^2/R^2)^2 are disjoint
    and whose coupling averages bracket alpha is mixed to meet both
    constraints and retracted.  ``region`` is per-axis (lo, hi) bounds.
    """
    grid, q, alpha = problem.grid, problem.q, problem.alpha
    hmax = max(grid.h)
    margin = 1.5 * hmax
    reach = np.full(grid.shape, np.inf)
    fields = coords(grid)
    for x, (lo, hi) in zip(fields, region):
        reach = np.minimum(reach, np.minimum(x - lo, hi - x))

    def unit_bump(idx, r):
        center = [axis[i] for axis, i in zip(grid.axes, idx)]
        r2 = sum((c - ci) ** 2 for c, ci in zip(fields, center))
        w = np.clip(1.0 - r2 / r**2, 0.0, None) ** 2
        w[~grid.interior_mask] = 0.0
        w = w / norm_l2(grid, w)
        return w, inner(grid, q * w, w)

    r_min, r = 2.05 * hmax, float(np.max(reach)) - margin
    while r >= r_min * 0.999:
        admissible = reach >= (r + margin) * 0.999
        idx_lo = np.unravel_index(int(np.argmin(np.where(admissible, q, np.inf))), grid.shape)
        idx_hi = np.unravel_index(int(np.argmax(np.where(admissible, q, -np.inf))), grid.shape)
        dist = math.dist([a[i] for a, i in zip(grid.axes, idx_lo)],
                         [a[i] for a, i in zip(grid.axes, idx_hi)])
        if (np.any(admissible) and q[idx_lo] < alpha < q[idx_hi]
                and dist >= 2.0 * r + 3.0 * hmax):
            (w_lo, avg_lo), (w_hi, avg_hi) = unit_bump(idx_lo, r), unit_bump(idx_hi, r)
            tiny = 1e-12 * (1.0 + abs(alpha))
            if avg_lo < alpha - tiny and avg_hi > alpha + tiny:
                s2 = (alpha - avg_lo) / (avg_hi - avg_lo)
                return retract(problem, np.sqrt(1.0 - s2) * w_lo + np.sqrt(s2) * w_hi)
        r *= 0.85
    raise AssertionError(f"no two-bump start in region {region}")


def descent_view(res):
    """The problem that the descent behind ``res`` ran on, with u and phi
    there: the mirror sector's after a folded descent, else the box's."""
    return res.problem, res.u, res.phi


def box_view(res):
    """The problem that the descent behind ``res`` ran on, unfolded onto the
    whole box, with u and phi unfolded there."""
    unfold = res.problem.grid.unfold
    return box_problem(res.problem), unfold(res.u), unfold(res.phi)


@dataclass
class Pass:
    """One pass of the descent loop, that is one ``_tangent_gradient`` call
    outside the H^1_0 check: its iterate u, the energy J that ``_evaluate``
    gave u, the shift s, the Armijo decrease rate metric * sum((sigma + s)
    gt_hat^2) of the tangent gradient gt (and its coefficients gt_hat), and
    the direction the pass stepped along with the slope of the merit along
    it: gt and the rate for a Barzilai-Borwein pass, the direction
    ``_quasi_newton_direction`` returned and its slope from
    ``optimize._slope`` for an L-BFGS pass.  For every pass that called
    that helper, ``pairs`` holds the (s_hat, y_hat) of the memory, oldest
    first, and ``symbol`` the metric sigma + s, as the helper saw them."""

    u: np.ndarray
    j: float
    shift: float
    rate: float
    gt: np.ndarray
    gt_hat: np.ndarray
    direction: np.ndarray
    slope: float
    pairs: list = None
    symbol: np.ndarray = None


@dataclass
class Descent:
    """What one call of ``optimize._minimize`` did: its ``result``, the
    ``problem`` it ran on (the mirror sector's, when the descent folded),
    each ``retract`` call's (argument, result), with None for a retraction
    that raised, each ``_evaluate`` call's (point, J), each ``Pass``, the
    number of L-BFGS memories (``_Pairs``) it allocated and the number of
    H^1_0 checks (``_h1_check``) it ran.  Fields of a pass live on the
    grid of ``problem``."""

    result: object = None
    problem: object = None
    retractions: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    memories: int = 0
    checks: int = 0

    @property
    def js(self):
        return np.array([p.j for p in self.passes])

    @property
    def tail(self):
        """The passes that called ``_quasi_newton_direction``."""
        return [p for p in self.passes if p.pairs is not None]

    def steps(self):
        """The step t that reached each pass after the first, read from the
        argument u - t d of the retraction that returned the pass's iterate,
        with d the direction of the pass before."""
        steps = []
        for prev, cur in zip(self.passes, self.passes[1:]):
            v = next(v for v, out in self.retractions if out is cur.u)
            d = prev.direction
            steps.append(float(np.vdot(prev.u - v, d) / np.vdot(d, d)))
        return np.array(steps)


class DescentSpy:
    """Observes the descent through the functions it calls: wraps
    ``_minimize``, ``_evaluate``, ``_tangent_gradient``,
    ``_quasi_newton_direction``, ``_Pairs``, ``_h1_check`` and ``retract`` of
    ``sbpbox.optimize`` with the monkeypatch ``mp`` and appends a
    ``Descent`` to ``descents`` per call of ``_minimize``.  A pass whose
    L-BFGS direction is None or has no positive slope steps along its
    gradient, as the descent does.  The ``_tangent_gradient`` call inside
    ``_h1_check`` is the descent's H^1_0 check, not a pass."""

    def __init__(self, mp):
        self.descents = []
        self.checking = False
        minimize, evaluate = optimize._minimize, optimize._evaluate
        tangent_gradient, retract = optimize._tangent_gradient, optimize.retract
        qn_direction, pairs_class = optimize._quasi_newton_direction, optimize._Pairs
        h1_check = optimize._h1_check

        def spy_minimize(problem, u0, opts):
            self.descents.append(Descent())
            self.descents[-1].result = minimize(problem, u0, opts)
            return self.descents[-1].result

        def spy_retract(problem, v):
            out = None
            try:
                out = retract(problem, v)
                return out
            finally:
                self.descents[-1].retractions.append((v, out))

        def spy_evaluate(problem, u):
            out = evaluate(problem, u)
            self.descents[-1].problem = problem
            self.descents[-1].energies.append((u, out[2]))
            return out

        def physical(grid, coef):
            return _from_dst_interior(grid, coef, np.zeros(grid.shape))

        def metric(grid):
            return math.prod(grid.h) / _symbols(grid).scale

        def spy_tangent_gradient(problem, u, phi, u_hat, shift, symbol):
            res = tangent_gradient(problem, u, phi, u_hat, shift, symbol)
            run = self.descents[-1]
            if self.checking:
                return res
            j = next(j for v, j in reversed(run.energies) if v is u)
            rate = metric(problem.grid) * float(np.vdot(symbol * res[2], res[2]))
            gt = physical(problem.grid, res[2])
            run.passes.append(Pass(u, j, shift, rate, gt, res[2].copy(), gt, rate))
            return res

        def spy_qn_direction(u_hat, qu_hat, gt_hat, symbol, shift, pairs):
            grid = self.descents[-1].problem.grid
            cur = self.descents[-1].passes[-1]
            # Slot k of the memory holds s in row 2 k and y in row 2 k + 1.
            cur.pairs = [tuple(pairs.ring[row].reshape(gt_hat.shape).copy()
                               for row in (2 * k, 2 * k + 1)) for k in pairs.order]
            cur.symbol = np.array(symbol)
            d_hat = qn_direction(u_hat, qu_hat, gt_hat, symbol, shift, pairs)
            if d_hat is not None:
                slope = optimize._slope(metric(grid), symbol, gt_hat, d_hat)
                if slope > 0.0:
                    cur.direction, cur.slope = physical(grid, d_hat), slope
            return d_hat

        def spy_h1_check(*args):
            self.descents[-1].checks += 1
            self.checking = True
            try:
                return h1_check(*args)
            finally:
                self.checking = False

        def spy_pairs(sigma):
            self.descents[-1].memories += 1
            return pairs_class(sigma)

        mp.setattr(optimize, "_minimize", spy_minimize)
        mp.setattr(optimize, "retract", spy_retract)
        mp.setattr(optimize, "_evaluate", spy_evaluate)
        mp.setattr(optimize, "_tangent_gradient", spy_tangent_gradient)
        mp.setattr(optimize, "_quasi_newton_direction", spy_qn_direction)
        mp.setattr(optimize, "_Pairs", spy_pairs)
        mp.setattr(optimize, "_h1_check", spy_h1_check)


@pytest.fixture
def descent_spy(monkeypatch):
    return DescentSpy(monkeypatch)


def eval_F(problem, u, phi):
    """The two-field energy at (u, phi), with the Neumann stencil for lap(phi).

    The linear term vanishes identically on zero-mean potentials but is kept
    so that trial potentials with nonzero mean are scored correctly.
    """
    g = problem.grid
    u = np.asarray(u, dtype=float)
    u2 = u * u
    value = 0.5 * dirichlet_energy(g, u)
    value += 0.5 * inner(g, problem.q * (phi + problem.chi), u2)
    if problem.kappa != 0.0:
        value -= problem.kappa / problem.p * integrate(g, np.abs(u) ** problem.p)
    psi = laplacian_neumann(g, phi)
    value -= 0.25 * inner(g, psi, psi)
    value -= 0.25 * dirichlet_energy(g, phi)
    value -= 0.5 * problem.alpha / g.volume * integrate(g, phi)
    return value


def coords(grid):
    """Coordinate fields of shape ``grid.shape``, one per axis, from the
    per-axis node coordinates ``grid.axes``."""
    return tuple(np.meshgrid(*grid.axes, indexing="ij"))


def cell_weights(grid):
    """Per axis, the weights of the difference quotients of
    ``sbpbox.grid.dirichlet_inner``, which builds them per call: a field of
    shape n with n_a - 1 along the axis, the full spacing there (doubled
    along a mirrored axis) and trapezoid weights across it."""
    out = []
    for a, h in enumerate(grid.h):
        vecs = list(grid.axis_weights)
        vecs[a] = np.full(grid.n[a] - 1, 2.0 * h if a in grid.mirror else h)
        out.append(reduce(np.multiply.outer, vecs))
    return tuple(out)


def reference_laplacian_neumann(grid, f, flux=None):
    """``laplacian_neumann`` as it stood with whole-field temporaries."""
    out = np.zeros_like(f)
    for a in range(grid.dim):
        h2 = grid.h[a] ** 2
        lo, mid, hi = (tuple(slice(k, k - 2 or None) if b == a else slice(None)
                             for b in range(grid.dim)) for k in range(3))
        out[mid] += (f[lo] - 2.0 * f[mid] + f[hi]) / h2
        for face, near in ((0, 1), (-1, -2)):
            face, near = (tuple(k if b == a else slice(None) for b in range(grid.dim))
                          for k in (face, near))
            out[face] += 2.0 * (f[near] - f[face]) / h2
    if flux is not None and not flux.is_zero:
        out += neumann_flux_field(grid, flux)
    return out


def reference_laplacian_dirichlet(grid, f):
    """``laplacian_dirichlet`` as it stood: the check, then a zeroed copy."""
    require_zero_boundary(grid, f)
    g = f.copy()
    g[~grid.interior_mask] = 0.0
    out = reference_laplacian_neumann(grid, g)
    out[~grid.interior_mask] = 0.0
    return out


def fourth_order_chi_residual(grid, chi, h1, h2, alpha):
    """L2 norm of lap(lap(chi)) - lap(chi) - alpha/|box| with native stencils."""
    z = laplacian_neumann(grid, chi, h1)
    res = laplacian_neumann(grid, z, h2) - z - alpha / grid.volume
    return norm_l2(grid, res)


@pytest.fixture(scope="session")
def bench65():
    return line_problem(65)


@pytest.fixture(scope="session")
def bench129():
    return line_problem(129)


@pytest.fixture(scope="session")
def bench65_state(bench65):
    return minimize_on_M(bench65, feasible_init(bench65), OptimizerOptions())


@pytest.fixture(scope="session")
def bench129_state(bench129):
    return minimize_on_M(bench129, feasible_init(bench129), OptimizerOptions())
