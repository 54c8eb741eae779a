"""Uniform node-centered tensor grids on boxes: quadrature, stencils, field I/O.

A field is a plain numpy array of shape ``grid.shape``, one value per node,
boundary nodes included.  All volume integrals use tensor-product trapezoid
weights and all surface integrals use the induced face weights (counting
measure on the two endpoints in 1d).  The stencils are built so that the
discrete analogues of the Green identities hold to rounding, not just to
truncation order:

* ``laplacian_neumann`` is self-adjoint in the trapezoid inner product,
* ``dirichlet_inner(grid, f, g) == -inner(grid, laplacian_neumann(grid, f), g)``
  for every pair of fields,
* ``integrate(grid, laplacian_neumann(grid, f, flux)) == boundary_integrate(grid, flux)``.

The downstream energy identities (interaction energy, gradient consistency)
rely on these exact relations, so any change here must preserve them.  Every
reduction is one dot product of a weighted field, so the SBP and Gauss
identities hold to rounding in the summation order of the dot, not bitwise.

A grid may also be the mirror sector of a box: along each axis in
``Grid.mirror`` the box has an odd node count 2m + 1 and the sector keeps
its nodes 0..m, the last of them the mirror node m, for fields invariant
under x -> L - x there (``Grid.sector``, ``Grid.fold``, ``Grid.unfold``).
The sector's weights count each node as often as the box holds it: twice
on nodes 0..m - 1 (the trapezoid weight doubled), once on node m, and its
interior runs through node m.  Integrals, inner products, both stencils and
``dirichlet_inner`` of symmetric fields then equal those on the whole box.
Boundary data and field dumps live on the whole box only;
``neumann_flux_field`` folds symmetric data onto a sector.

A grid keeps only its quadrature weights: ``dirichlet_inner`` builds its cell
weights per call, fields are evaluated on the broadcast per-axis coordinates
``axes``, and a stencil needs one scratch field.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Mapping

import numpy as np

from .errors import SbpError

__all__ = [
    "Grid",
    "BoundaryData",
    "FACE_NAMES",
    "integrate",
    "inner",
    "mean",
    "norm_l2",
    "boundary_integrate",
    "laplacian_dirichlet",
    "laplacian_neumann",
    "neumann_flux_field",
    "dirichlet_inner",
    "dirichlet_energy",
    "write_field",
    "read_field",
]

# Face keys are (axis, side) with side 0 at coordinate 0 and side 1 at
# coordinate L.  The string aliases are used by the config format.
FACE_NAMES: dict[str, tuple[int, int]] = {
    "x0": (0, 0), "x1": (0, 1),
    "y0": (1, 0), "y1": (1, 1),
    "z0": (2, 0), "z1": (2, 1),
}


@dataclass(frozen=True)
class Grid:
    """Uniform grid on the box [0, L1] x ... x [0, Ld] including boundary nodes.

    Parameters
    ----------
    lengths : tuple of float
        Edge lengths, all positive.  One to three axes.
    n : tuple of int
        Nodes per axis, at least 3 each (the stencils need one interior node).
    mirror : tuple of int
        The axes along which this grid is the mirror sector of a box twice
        as long, with 2 n_a - 1 nodes (see the module docstring); empty for
        a whole box.

    Notes
    -----
    Node coordinates along axis ``a`` are ``np.linspace(0, L_a, n_a)`` and the
    spacing is ``h_a = L_a / (n_a - 1)``.
    """

    lengths: tuple[float, ...]
    n: tuple[int, ...]
    mirror: tuple[int, ...] = ()

    def __post_init__(self):
        lengths = tuple(map(float, self.lengths if np.iterable(self.lengths)
                            else [self.lengths]))
        n = tuple(map(int, self.n if np.iterable(self.n) else [self.n]))
        mirror = tuple(sorted({int(a) for a in self.mirror}))
        if not 1 <= len(lengths) <= 3:
            raise ValueError(f"dimension must be 1, 2 or 3, got {len(lengths)}")
        if len(n) != len(lengths):
            raise ValueError("lengths and n must have the same number of axes")
        if any(L <= 0 or not math.isfinite(L) for L in lengths):
            raise ValueError(f"edge lengths must be positive finite, got {lengths}")
        if any(not 0 <= a < len(n) for a in mirror):
            raise ValueError(f"mirror axes {mirror} outside 0..{len(n) - 1}")
        if any(m < (2 if a in mirror else 3) for a, m in enumerate(n)):
            raise ValueError(f"need at least 3 nodes per axis of the box, got {n}")
        for name, value in (("lengths", lengths), ("n", n), ("mirror", mirror)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @cached_property
    def h(self) -> tuple[float, ...]:
        return tuple(L / (m - 1) for L, m in zip(self.lengths, self.n))

    @cached_property
    def volume(self) -> float:
        """Volume of the box, of the whole box for a mirror sector."""
        return float(np.prod(self.lengths)) * 2 ** len(self.mirror)

    @cached_property
    def box_n(self) -> tuple[int, ...]:
        """Nodes per axis of the box, 2 n_a - 1 along a mirrored axis."""
        return tuple(2 * m - 1 if a in self.mirror else m for a, m in enumerate(self.n))

    @cached_property
    def node_count(self) -> int:
        return math.prod(self.n)

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """Per-axis node coordinates (1d arrays)."""
        return tuple(np.linspace(0.0, L, m) for L, m in zip(self.lengths, self.n))

    @cached_property
    def axis_weights(self) -> tuple[np.ndarray, ...]:
        """Per-axis composite trapezoid weights h*[1/2, 1, ..., 1, 1/2];
        h*[1, 2, ..., 2, 1] along a mirrored axis, whose last node is the
        mirror node."""
        out = []
        for a, (h, m) in enumerate(zip(self.h, self.n)):
            w = np.full(m, 2.0 * h if a in self.mirror else h)
            w[0] *= 0.5
            w[-1] *= 0.5
            out.append(w)
        return tuple(out)

    @cached_property
    def weights(self) -> np.ndarray:
        """Tensor-product quadrature weight per node, shape ``grid.shape``."""
        return reduce(np.multiply.outer, self.axis_weights)

    @cached_property
    def interior(self) -> tuple[slice, ...]:
        """Index of the interior nodes; along a mirrored axis it runs through
        the mirror node."""
        return tuple(slice(1, None) if a in self.mirror else slice(1, -1)
                     for a in range(self.dim))

    @cached_property
    def boundary(self) -> tuple[tuple, ...]:
        """Index tuples of the boundary faces: all but a sector's mirror nodes."""
        return tuple(self.face_index(a, s) for a, s in self.faces()
                     if not (s and a in self.mirror))

    @cached_property
    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        mask[self.interior] = True
        return mask

    def sector(self, axes: tuple[int, ...]) -> "Grid":
        """The mirror sector of this box along ``axes``, each of odd node
        count 2m + 1: its nodes 0..m there."""
        if self.mirror or any(self.n[a] % 2 == 0 for a in axes):
            raise ValueError(f"no mirror sector along axes {axes} of {self}")
        return Grid(tuple(L / 2 if a in axes else L for a, L in enumerate(self.lengths)),
                    tuple((m + 1) // 2 if a in axes else m for a, m in enumerate(self.n)),
                    axes)

    def fold(self, f: np.ndarray) -> np.ndarray:
        """The values of a field of the box on the nodes of this sector."""
        return np.ascontiguousarray(f[tuple(slice(0, m) for m in self.n)])

    def unfold(self, f: np.ndarray) -> np.ndarray:
        """The field of the box whose values on the sector are ``f`` and
        which is invariant under every mirror of the sector."""
        for a in self.mirror:
            f = np.concatenate([f, f[_axis_slice(f.ndim, a, slice(-2, None, -1))]], axis=a)
        return f

    def face_shape(self, axis: int) -> tuple[int, ...]:
        return tuple(m for j, m in enumerate(self.n) if j != axis)

    def face_index(self, axis: int, side: int) -> tuple:
        """Index tuple selecting the nodes of one face."""
        return _axis_slice(self.dim, axis, -side)

    @cached_property
    def face_weights(self) -> tuple[np.ndarray, ...]:
        """Surface quadrature weights per axis (same for both sides).

        In 1d the empty product leaves a scalar weight 1: the surface measure
        on an interval boundary is the counting measure on its two endpoints.
        """
        out = []
        for a in range(self.dim):
            vecs = [w for j, w in enumerate(self.axis_weights) if j != a]
            out.append(reduce(np.multiply.outer, vecs, np.array(1.0)))
        return tuple(out)

    def faces(self):
        return ((a, s) for a in range(self.dim) for s in (0, 1))


@dataclass(frozen=True)
class BoundaryData:
    """Scalar data on the boundary, stored per face.

    ``values[(axis, side)]`` has shape ``grid.face_shape(axis)``; in 1d the
    face arrays are 0-d.  Used both for Neumann flux data and for surface
    integrands.
    """

    grid: Grid
    values: Mapping[tuple[int, int], np.ndarray]

    def __post_init__(self):
        vals = {}
        for face in self.grid.faces():
            if face not in self.values:
                raise ValueError(f"missing boundary face {face}")
            arr = np.asarray(self.values[face], dtype=float)
            if arr.shape != self.grid.face_shape(face[0]):
                raise ValueError(f"face {face}: expected shape "
                                 f"{self.grid.face_shape(face[0])}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"face {face}: boundary data must be finite")
            vals[face] = arr
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, grid: Grid) -> "BoundaryData":
        return cls.constant(grid, 0.0)

    @classmethod
    def constant(cls, grid: Grid, value) -> "BoundaryData":
        """Constant per face; ``value`` is a scalar or a {face: scalar} map
        keyed by the names in ``FACE_NAMES``.  Unspecified faces are 0.
        """
        if np.isscalar(value):
            table = {face: float(value) for face in grid.faces()}
        else:
            table = {face: 0.0 for face in grid.faces()}
            for key, v in value.items():
                face = FACE_NAMES.get(key)
                if face not in table:
                    raise ValueError(f"unknown face {key} for dim={grid.dim}")
                table[face] = float(v)
        return cls(grid, {face: np.full(grid.face_shape(face[0]), c)
                          for face, c in table.items()})

    def face(self, axis: int, side: int) -> np.ndarray:
        return self.values[(axis, side)]

    @cached_property
    def live(self) -> tuple[tuple[int, int], ...]:
        """The faces whose data are not all zero."""
        return tuple(face for face, v in self.values.items() if np.count_nonzero(v))

    @property
    def is_zero(self) -> bool:
        return not self.live

    @cached_property
    def integral(self) -> float:
        """``boundary_integrate(self.grid, self)``, taken once per data set."""
        return boundary_integrate(self.grid, self)


def integrate(grid: Grid, f: np.ndarray) -> float:
    """Trapezoid quadrature of a nodal field over the box."""
    return float(np.vdot(grid.weights, f))


def inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    """Quadrature inner product <f, g> = integral of f*g."""
    return float(np.vdot(grid.weights * f, g))


def mean(grid: Grid, f: np.ndarray) -> float:
    return integrate(grid, f) / grid.volume


def norm_l2(grid: Grid, f: np.ndarray) -> float:
    return float(np.sqrt(max(inner(grid, f, f), 0.0)))


def boundary_integrate(grid: Grid, data: BoundaryData) -> float:
    """Surface quadrature of boundary data over all faces.

    Edge and corner nodes belong to several faces and are counted once per
    face, which is the correct decomposition of the surface integral.
    """
    total = 0.0
    for axis, side in grid.faces():
        total += float(np.vdot(grid.face_weights[axis], data.face(axis, side)))
    return total


def _axis_slice(ndim: int, axis: int, s) -> tuple:
    idx: list = [slice(None)] * ndim
    idx[axis] = s
    return tuple(idx)


def zero_boundary(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Copy of ``f`` with boundary nodes set exactly to zero."""
    out = np.array(f, dtype=float)
    for idx in grid.boundary:
        out[idx] = 0.0
    return out


def _boundary_magnitude(grid: Grid, f: np.ndarray) -> float:
    """max |f| over the boundary faces; ``SbpError`` when it exceeds ``1e-12 *
    (1 + max|f|)``, max over the finite values, or is not finite."""
    f = np.asarray(f, dtype=float)
    worst = float(np.max([np.max(np.abs(f[idx])) for idx in grid.boundary]))
    limit = 1e-12 * (1.0 + float(np.max(np.abs(f), where=np.isfinite(f), initial=0.0)))
    if not worst <= limit:
        raise SbpError(f"field has boundary magnitude {worst:.3e} (limit {limit:.3e})")
    return worst


def require_zero_boundary(grid: Grid, f: np.ndarray) -> np.ndarray:
    """``zero_boundary(grid, f)`` after ``_boundary_magnitude``'s check."""
    _boundary_magnitude(grid, f)
    return zero_boundary(grid, f)


def laplacian_dirichlet(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Second-order Laplacian of a field vanishing on the boundary
    (``require_zero_boundary``): the interior rows of ``laplacian_neumann``,
    and zero on boundary nodes.  A boundary of signed zeros is read in place:
    a term it turns into -0.0 adds to +0.0, so every row is bitwise the same."""
    out = laplacian_neumann(
        grid, f if _boundary_magnitude(grid, f) == 0.0 else zero_boundary(grid, f))
    for idx in grid.boundary:
        out[idx] = 0.0
    return out


def laplacian_neumann(grid: Grid, f: np.ndarray,
                      flux: BoundaryData | None = None) -> np.ndarray:
    """Second-order Laplacian with reflected ghost nodes on every face.

    The ghost value across a face is ``inner_neighbor + 2 h * flux`` with the
    flux taken along the outward normal, which keeps the operator self-adjoint
    in the trapezoid inner product and second-order accurate up to the
    boundary.  ``flux=None`` means homogeneous Neumann data.
    """
    f = np.asarray(f, dtype=float)
    out = np.zeros_like(f)
    scratch = np.empty(f.size)  # the one field beside ``out``
    nd = grid.dim
    for a in range(nd):
        h2 = grid.h[a] ** 2
        lo = _axis_slice(nd, a, slice(0, -2))
        mid = _axis_slice(nd, a, slice(1, -1))
        hi = _axis_slice(nd, a, slice(2, None))
        # (f[lo] - 2 f[mid] + f[hi]) / h2, in that order, in the scratch.
        s = scratch[:f[mid].size].reshape(f[mid].shape)
        np.subtract(f[lo], np.multiply(f[mid], 2.0, out=s), out=s)
        s += f[hi]
        s /= h2
        out[mid] += s
        for face, near in ((0, 1), (-1, -2)):  # the rows of the ghost nodes
            face, near = _axis_slice(nd, a, face), _axis_slice(nd, a, near)
            out[face] += 2.0 * (f[near] - f[face]) / h2
    del s, scratch  # the flux field takes its place
    if flux is not None and not flux.is_zero:
        out += neumann_flux_field(grid, flux)
    return out


def neumann_flux_field(grid: Grid, flux: BoundaryData) -> np.ndarray:
    """Contribution of inhomogeneous Neumann data to the ghost stencil.

    Adds ``2 * flux / h`` on each face (contributions accumulate on edges and
    corners).  ``laplacian_neumann(grid, f, flux)`` equals
    ``laplacian_neumann(grid, f) + neumann_flux_field(grid, flux)``.  On a
    mirror sector of ``flux.grid`` it is the box's field on the sector's
    nodes, for data invariant under the sector's mirrors.
    """
    out = np.zeros(grid.shape)
    for axis, side in grid.faces():
        if not (side and axis in grid.mirror):  # that face lies past the mirror node
            part = tuple(slice(0, m) for j, m in enumerate(grid.n) if j != axis)
            out[grid.face_index(axis, side)] += 2.0 * flux.face(axis, side)[part] / grid.h[axis]
    return out


def dirichlet_inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    """Discrete integral of grad(f) . grad(g) by forward differences.

    Per axis, difference quotients live at cell midpoints and are weighted by
    the full spacing along that axis (doubled along a mirrored one, where a
    cell stands for its image too) and trapezoid weights transversally; these
    cell weights are built per call.
    This specific quadrature satisfies, to rounding,

        dirichlet_inner(grid, f, g) == -inner(grid, laplacian_neumann(grid, f), g)

    for all fields, and the analogous identity with ``laplacian_dirichlet``
    for fields vanishing on the boundary.  The energy identities downstream
    depend on this exactness.  The descent takes its products in the
    equal form of a sum over DST-I modes; this one stays because the energy
    identities check it.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    total = 0.0
    for a, h in enumerate(grid.h):
        vecs = list(grid.axis_weights)
        vecs[a] = np.full(grid.n[a] - 1, 2.0 * h if a in grid.mirror else h)
        wdf = reduce(np.multiply.outer, vecs)
        df = np.diff(f, axis=a)
        wdf *= df
        total += float(np.vdot(wdf, df if g is f else np.diff(g, axis=a))) / (h * h)
    return total


def dirichlet_energy(grid: Grid, f: np.ndarray) -> float:
    """Discrete integral of |grad f|^2 (see ``dirichlet_inner``)."""
    return dirichlet_inner(grid, f, f)


# ---------------------------------------------------------------------------
# Field dumps: one ASCII grid header line, then the values as raw
# little-endian float64 in row-major order (last axis fastest).


def write_field(path, grid: Grid, values: np.ndarray) -> None:
    """Write a nodal field with its grid header.

    Format: the line ``# dim=<d> n=<n1,...> L=<L1,...> dtype=<f8`` then
    ``grid.node_count`` values as raw little-endian float64 in row-major
    order, so the round trip is bit exact (nan payloads and the sign of zero
    included).  The array's own buffer is written, with no copy when it is
    already C-ordered float64.
    """
    values = np.ascontiguousarray(np.reshape(values, grid.shape), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(("# dim=%d n=%s L=%s dtype=<f8\n" % (
            grid.dim,
            ",".join(str(m) for m in grid.n),
            ",".join(repr(L) for L in grid.lengths),
        )).encode("ascii"))
        fh.write(values.data)


_HEADER_RE = re.compile(r"#\s*dim=(\d+)\s+n=([\d,]+)\s+L=(\S+)\s+dtype=<f8\n")


def read_field(path) -> tuple[Grid, np.ndarray]:
    """Read a field written by ``write_field``; returns (grid, values).

    Raises ``ValueError``, naming ``path``, when the header is missing or
    malformed (a text dump without the ``dtype=<f8`` token included), when
    its axis counts disagree or describe no valid grid, and when the data is
    not exactly one float64 per node.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("latin-1")
        payload = bytearray(fh.read())  # a mutable buffer: the result is writable
    m = _HEADER_RE.fullmatch(header)
    if m is None:
        raise ValueError(
            f"{path}: not a binary field file; header {header[:80]!r} does not "
            "match '# dim=<d> n=<n1,...> L=<L1,...> dtype=<f8'")
    try:
        dim = int(m.group(1))
        n = tuple(int(v) for v in m.group(2).split(","))
        lengths = tuple(float(v) for v in m.group(3).split(","))
        if len(n) != dim or len(lengths) != dim:
            raise ValueError("header axis counts disagree")
        grid = Grid(lengths, n)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if len(payload) % 8:
        raise ValueError(f"{path}: {len(payload)} data bytes end in a partial float64")
    data = np.frombuffer(payload, dtype="<f8")
    if data.size != grid.node_count:
        raise ValueError(
            f"{path}: expected {grid.node_count} values, found {data.size}"
        )
    return grid, data.reshape(grid.shape)
