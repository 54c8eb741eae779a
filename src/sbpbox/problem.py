"""Problem assembly: coupling fields, boundary data, and the auxiliary potential.

A ``Problem`` bundles everything that stays fixed during a state computation:
the grid, the nodal coupling field q, the two Neumann data sets (h1, h2), the
flux gap ``alpha = surface(h2) - surface(h1)``, the nonlinearity (kappa, p),
and the auxiliary potential chi obtained from the two-step solve

    theta:  lap(theta) - theta = alpha / |box|,   d(theta)/dn = h2
    chi:    lap(chi) = theta,                     d(chi)/dn = h1,  mean(chi) = 0.

Integrating the theta equation gives ``integrate(theta) == surface(h1)``
identically, which is both the compatibility condition for the chi solve and
a free end-to-end check on the construction; it is verified on every build.

The build also decides the mirror sector (``Grid.sector``) of every
descent of the problem: the axes along which q and both flux data sets are
invariant under x_a -> L_a - x_a (``_mirror_axes``).  Then so are theta and
chi, so both are solved on the sector, whose transforms and integrals are
the box's for such fields (``solvers``), and chi is unfolded onto the box;
the box's symbols are never built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SbpError
from .grid import (
    BoundaryData,
    Grid,
    integrate,
    norm_l2,
    read_field,
)
from .solvers import _MATRIX_MAX_NODES, solve_helmholtz_neumann, solve_poisson_neumann_zeromean

__all__ = [
    "CouplingSpec",
    "Problem",
    "FeasibilityReport",
    "build_problem",
    "compute_alpha",
    "solve_chi",
    "classify_alpha",
]

P_LOWER = 2.0
P_UPPER = 10.0 / 3.0
# ``solve_chi`` tolerance on the mean identity, relative to the data scale.
_CHI_CHECK_TOL = 5e-8
# A field is mirror-invariant along an axis when it differs from its mirror
# image by at most this, relative to its largest magnitude.
_MIRROR_TOL = 1e-12
# Parameters each coupling kind takes: (required, optional).
COUPLING_PARAMS = {"affine": ((), ("a", "b")),
                   "radial_bump": (("radius",), ("base", "height", "center")),
                   "oscillating": ((), ("base", "amplitude", "cycles", "tilt")),
                   "tabulated": (("file",), ())}


@dataclass(frozen=True)
class CouplingSpec:
    """Declarative description of the coupling field q.

    kind is one of:

    * ``"affine"``: q = a + b * x1, params (a, b)
    * ``"radial_bump"``: q = base + height * max(0, 1 - |x - center|^2 / radius^2)^2,
      params (base, height, center, radius)
    * ``"oscillating"``: q = base + amplitude * sin(2 pi cycles x1 / L1) + tilt * x1 / L1,
      params (base, amplitude, cycles, tilt); each of ``cycles`` equal slabs
      along the first axis sees a full period, so any interior level is
      bracketed inside every slab
    * ``"tabulated"``: nodal values from a field file (see ``grid.read_field``),
      params (file,)
    """

    kind: str
    params: dict = field(default_factory=dict)

    def evaluate(self, grid: Grid) -> np.ndarray:
        p = self.params
        if self.kind not in COUPLING_PARAMS:
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        required, optional = COUPLING_PARAMS[self.kind]
        for key in required:
            if key not in p:
                raise ValueError(f"coupling kind {self.kind!r} needs parameter {key!r}")
        for key in p:
            if key not in required + optional:
                raise ValueError(f"coupling kind {self.kind!r} takes no parameter {key!r}")
        x = np.ix_(*grid.axes)  # broadcast axes: only q itself is a full field
        if self.kind == "affine":
            q = float(p.get("a", 0.0)) + float(p.get("b", 0.0)) * x[0]
        elif self.kind == "radial_bump":
            center = np.atleast_1d(np.asarray(p.get("center", [L / 2 for L in grid.lengths]), dtype=float))
            if center.shape != (grid.dim,):
                raise ValueError(f"coupling parameter 'center' needs {grid.dim} entries")
            radius = float(p["radius"])
            r2 = sum((c - ci) ** 2 for c, ci in zip(x, center))
            q = float(p.get("base", 0.0)) + float(p.get("height", 1.0)) * np.clip(
                1.0 - r2 / radius**2, 0.0, None
            ) ** 2
        elif self.kind == "oscillating":
            s = x[0] / grid.lengths[0]
            q = (float(p.get("base", 0.0)) + float(p.get("amplitude", 1.0))
                 * np.sin(2.0 * math.pi * float(p.get("cycles", 3)) * s)
                 + float(p.get("tilt", 0.0)) * s)
        else:
            tab_grid, values = read_field(p["file"])
            if tab_grid != grid:
                raise ValueError(
                    f"tabulated coupling grid {tab_grid} does not match {grid}"
                )
            q = values
        return np.add(q, 0.0, out=np.empty(grid.shape))  # -0.0 becomes 0.0


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the compatibility test on alpha.

    q_min and q_max are the extremes of q over the interior nodes, where
    every state lives; classification is "interior" when
    q_min < alpha < q_max and "infeasible" otherwise.
    """

    alpha: float
    q_min: float
    q_max: float
    classification: str

    def describe(self) -> str:
        return (
            f"alpha={self.alpha:.6g} against interior q range [{self.q_min:.6g}, "
            f"{self.q_max:.6g}]: {self.classification}"
        )


@dataclass(frozen=True)
class Problem:
    """Fixed data for one state computation; see the module docstring."""

    grid: Grid
    q: np.ndarray
    h1: BoundaryData
    h2: BoundaryData
    alpha: float
    kappa: float
    p: float
    chi: np.ndarray
    sector: Grid  # the grid of its descents: a mirror sector of grid, or grid

    @cached_property
    def q_chi(self) -> np.ndarray:
        return self.q * self.chi


def compute_alpha(grid: Grid, h1: BoundaryData, h2: BoundaryData) -> float:
    """Flux gap: surface integral of h2 minus surface integral of h1."""
    return h2.integral - h1.integral


def solve_chi(grid: Grid,
              h1: BoundaryData,
              h2: BoundaryData) -> tuple[np.ndarray, np.ndarray, float]:
    """Two-step construction of the auxiliary potential on ``grid``: the
    box of the data, or a sector of it along ``_mirror_axes``.

    Returns (chi, theta, alpha).  Raises ``SbpError`` when the
    mean identity ``integrate(theta) == surface(h1)`` fails beyond
    ``_CHI_CHECK_TOL`` times the data scale, which would indicate a broken
    solver rather than bad data (the identity holds by construction).
    """
    alpha = compute_alpha(grid, h1, h2)
    source = np.full(grid.shape, alpha / grid.volume)
    theta = solve_helmholtz_neumann(grid, source, h2)
    scale = 1.0 + abs(alpha) + norm_l2(grid, theta)
    defect = integrate(grid, theta) - h1.integral
    if abs(defect) > _CHI_CHECK_TOL * scale:
        raise SbpError(
            f"mean of theta differs from surface integral of h1 by {defect:.3e} "
            f"(tolerance {_CHI_CHECK_TOL * scale:.3e})"
        )
    chi = solve_poisson_neumann_zeromean(grid, theta, h1)
    return chi, theta, alpha


def build_problem(grid: Grid,
                  coupling: CouplingSpec | np.ndarray,
                  h1: BoundaryData,
                  h2: BoundaryData,
                  kappa: float,
                  p: float) -> Problem:
    """Assemble a ``Problem``: evaluate q, decide its mirror sector, solve
    for chi there, record alpha.

    Feasibility of alpha is *not* enforced here; call ``classify_alpha`` (the
    solve entry points do) so that infeasible setups can still be inspected.
    """
    if not P_LOWER < p < P_UPPER:
        raise ValueError(f"exponent p must lie in ({P_LOWER}, {P_UPPER:.6g}), got {p}")
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    q = coupling.evaluate(grid) if isinstance(coupling, CouplingSpec) else \
        np.asarray(coupling, dtype=float).reshape(grid.shape)
    if not np.all(np.isfinite(q)):
        raise ValueError("coupling field has non-finite values")
    axes = _mirror_axes(grid, q, h1, h2)
    sector = grid.sector(axes) if axes else grid
    chi, _, alpha = solve_chi(sector, h1, h2)
    return Problem(grid=grid, q=q, h1=h1, h2=h2, alpha=alpha, kappa=float(kappa),
                   p=float(p), chi=sector.unfold(chi), sector=sector)


def _mirror_invariant(f: np.ndarray, axis: int) -> bool:
    """Whether ``f`` is its mirror image along ``axis``: its first half
    against the mirror image of its last half, to ``_MIRROR_TOL``."""
    half, pre = f.shape[axis] // 2, (slice(None),) * axis
    lo, hi = f[pre + (slice(half),)], f[pre + (slice(-1, -half - 1, -1),)]
    return bool(abs(lo - hi).max() <= _MIRROR_TOL * abs(lo).max())


def _mirror_axes(grid: Grid, q: np.ndarray, h1: BoundaryData,
                 h2: BoundaryData) -> tuple[int, ...]:
    """The axes a >= 1 of odd node count on the matrix path along which q
    and both data sets are mirror-invariant: equal data on the two faces
    across a, and the data of every other face invariant along a."""
    live = [(d, b, s) for d in (h1, h2) for b, s in d.live]
    return tuple(
        a for a in range(1, grid.dim)
        if grid.n[a] % 2 and grid.n[a] <= _MATRIX_MAX_NODES
        and all(_mirror_invariant(np.stack((d.face(a, 0), d.face(a, 1))), 0) if b == a
                else _mirror_invariant(d.face(b, s), a - (a > b)) for d, b, s in live)
        and _mirror_invariant(q, a))


def classify_alpha(problem: Problem) -> FeasibilityReport:
    """The compatibility test: "interior" exactly when q strictly brackets
    alpha on the interior nodes, the rule by which ``manifold.feasible_init``
    seeds a region."""
    q = problem.q[(slice(1, -1),) * problem.grid.dim]
    q_min, q_max = float(q.min()), float(q.max())
    return FeasibilityReport(
        alpha=problem.alpha, q_min=q_min, q_max=q_max,
        classification="interior" if q_min < problem.alpha < q_max else "infeasible")
