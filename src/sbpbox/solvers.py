"""Exact solves for the elliptic building blocks on the uniform box.

Each solve is a transform, a division by the symbol and the inverse
transform.  With reflected ghost nodes the Neumann stencil is the periodic
stencil applied to the even extension of a field, so the DCT-I diagonalizes
it exactly; on interior nodes the Dirichlet stencil is the periodic stencil
applied to the odd extension, which the DST-I diagonalizes (Strang, "The
Discrete Cosine Transform", SIAM Rev. 41, 1999; Schumann & Sweet 1976).  Per
axis the eigenvalue of -lap for mode k is ``4/h^2 sin^2(pi k / (2 (n - 1)))``
with k = 0..n-1 (Neumann, all nodes) or k = 1..n-2 (Dirichlet, interior
nodes); the box symbol sigma is the sum over axes.  The transforms act one
axis at a time.  On an axis of at most ``_MATRIX_MAX_NODES`` nodes each is a
product with a dense transform matrix, built once per grid; on a longer axis
it is ``numpy.fft.rfft`` of the extended field.  Both give the same
unnormalized transform, so the symbols and the scale do not depend on the
choice.

The symbols (``1 + sigma`` for Helmholtz, ``sigma`` without its constant
mode for the zero-mean Poisson solve, the interior ``sigma`` for Dirichlet),
the transform matrices and the normalization ``prod 2 (n - 1)`` depend only
on the grid, so they are computed once per ``Grid`` and cached as read-only
arrays.

On the mirror sector of a box (``Grid.mirror``, axes of 2m + 1 nodes
folded onto nodes 0..m), the fields are even about the mirror node, so
along a mirrored axis only every other mode of the box is nonzero: the odd
DST-I modes k = 1, 3, ..., 2m - 1 and the even DCT-I modes k = 0, 2, ...,
2m.  The symbols are those subsets of the box's.  The transforms are the
box's on those modes (``_sector_pair``): an m x m forward DST-I matrix and
its inverse, and an (m + 1) x (m + 1) DCT-I pair whose inverse is the plain
DCT-I of the m + 1 half-grid nodes and whose forward matrix is twice it.
They keep the box's coefficients and its scale, so every sum over modes
equals the box's.  A mirrored axis needs the matrix path.
The descent gradient and its tangent projection work on the DST-I
coefficients of interior values directly (``_dst_interior`` and its inverse
``_from_dst_interior``).
``solve_fourth_order_split``, the zero-flux fourth-order solve behind
``sbpbox.reduction.phi_map``, divides by the Helmholtz and the zero-mean
symbols in turn, in one forward and one inverse transform.

The pure Neumann Poisson problem is singular with the constants as its
nullspace.  The DCT-I mode k = 0 is proportional to the trapezoid integral,
so dropping it projects data and solution to zero quadrature mean, which
fixes the gauge.

``sbpbox.dense`` assembles the same operators as matrices and solves them by
LU; it is the independent oracle for these solves.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import SbpError
from .grid import (
    BoundaryData,
    Grid,
    _axis_slice,
    integrate,
    neumann_flux_field,
    norm_l2,
)

__all__ = [
    "solve_fourth_order_split",
    "solve_helmholtz_neumann",
    "solve_poisson_neumann_zeromean",
    "solve_poisson_dirichlet",
]


# Longest axis whose transforms are dense matrix products; longer axes use
# the FFT.  Per DST-I transform with one BLAS thread (2-vCPU Xeon), the
# matrix still wins at 257 nodes per axis (1d 12 vs 21 us, 2d 1.4 vs
# 1.8 ms) and loses from 385 on (1d 25 vs 19 us, 2d 4.8 vs 4.4 ms); at 1025
# in 1d it is 13x slower, and at 4097 one matrix takes 134 MB.  A Dirichlet
# solve on 1d 65, 2d 65^2 and 3d 25^3 is 3x, 2.5x and 10x faster than by FFT.
_MATRIX_MAX_NODES = 257


def _dct1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DCT-I along ``axis``; applied twice it scales by 2 (n - 1)."""
    back = x[_axis_slice(x.ndim, axis, slice(-2, 0, -1))]
    even = np.concatenate([x, back], axis=axis)
    return np.fft.rfft(even, axis=axis).real


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DST-I along ``axis``; applied twice it scales by 2 (m + 1)."""
    back = x[_axis_slice(x.ndim, axis, slice(None, None, -1))]
    zero = np.zeros_like(x[_axis_slice(x.ndim, axis, slice(0, 1))])
    odd = np.concatenate([zero, x, zero, -back], axis=axis)
    return -np.fft.rfft(odd, axis=axis).imag[_axis_slice(x.ndim, axis, slice(1, -1))]


@lru_cache(maxsize=16)  # a mirror sector shares the matrices of its box
def _dct1_matrix(n: int) -> np.ndarray:
    """The matrix of ``_dct1`` on n nodes: 2 cos(pi j k / (n - 1)), with
    columns 0 and n - 1 halved."""
    jk = np.outer(np.arange(n), np.arange(n)) % (2 * (n - 1))
    mat = 2.0 * np.cos(np.pi * jk / (n - 1))
    mat[:, [0, -1]] *= 0.5
    return mat


@lru_cache(maxsize=16)
def _dst1_matrix(m: int) -> np.ndarray:
    """The matrix of ``_dst1`` on m nodes: 2 sin(pi j k / (m + 1)), j, k = 1..m."""
    jk = np.outer(np.arange(1, m + 1), np.arange(1, m + 1)) % (2 * (m + 1))
    return 2.0 * np.sin(np.pi * jk / (m + 1))


def _transform(x: np.ndarray, mats: tuple[np.ndarray | None, ...],
               fft: Callable[[np.ndarray, int], np.ndarray]) -> np.ndarray:
    """Apply a per-axis transform along every axis: the matrix of that axis,
    or ``fft`` where the axis has none.

    In 1d this is one matrix-vector product.  Otherwise each step transforms
    axis 0 and moves it last, so after all axes the order is restored, and a
    C-ordered field is one contiguous matrix product per axis.
    """
    if x.ndim == 1:
        return fft(x, 0) if mats[0] is None else mats[0] @ x
    for mat in mats:
        if mat is None:
            x = np.moveaxis(fft(x, 0), 0, -1)
        else:
            x = (x.reshape(x.shape[0], -1).T @ mat.T).reshape(x.shape[1:] + mat.shape[:1])
    return x


class _Symbols(NamedTuple):
    """Per-grid divisors and transform matrices of the spectral solves
    (read-only arrays).  The forward and inverse matrices of an axis are
    one matrix unless the axis is mirrored."""

    helmholtz: np.ndarray   # 1 + sigma on the DCT-I modes
    zeromean: np.ndarray    # sigma on the DCT-I modes, inf at the constant mode
    dirichlet: np.ndarray   # sigma on the DST-I modes
    dct: tuple[np.ndarray | None, ...]  # forward DCT-I matrix per axis, None: FFT
    dst: tuple[np.ndarray | None, ...]  # forward DST-I matrix per axis, None: FFT
    idct: tuple[np.ndarray | None, ...]  # inverse DCT-I matrix per axis
    idst: tuple[np.ndarray | None, ...]  # inverse DST-I matrix per axis
    scale: float            # prod 2 (n - 1) of the box: inverse after forward


def _sigma(grid: Grid, dirichlet: bool) -> np.ndarray:
    """Eigenvalues of -lap on the transform modes, summed over axes; along a
    mirrored axis the modes even about the mirror node, every other one."""
    total = np.zeros((1,) * grid.dim)
    for a, (h, n) in enumerate(zip(grid.h, grid.box_n)):
        k = np.arange(1, n - 1) if dirichlet else np.arange(n)
        if a in grid.mirror:
            k = k[::2]
        shape = [1] * grid.dim
        shape[a] = k.size
        lam = 4.0 / h**2 * np.sin(np.pi * k / (2 * (n - 1))) ** 2
        total = total + lam.reshape(shape)
    return total


def _symbols(grid: Grid) -> _Symbols:
    """Kept on the grid object: a lookup is one dict access, not a hash.
    Every grid, a box or a mirror sector, goes through the one cache of
    ``_build_symbols``: a problem's build and its descents share one
    sector build, and a folded problem never builds the box's."""
    sym = grid.__dict__.get("_symbols")
    if sym is None:
        sym = grid.__dict__["_symbols"] = _build_symbols(grid)
    return sym


def _sector_pair(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward and inverse matrices of the box transform ``mat`` on the
    mirror sector of its axis, for fields even about the mirror node.  The
    box coefficients of such a field vanish on every other mode; the
    forward matrix gives the others, from the sector's values, by summing
    the columns of each node and its mirror image, and the inverse matrix
    is the box's, on the sector's rows and those modes."""
    keep, s = mat[::2], (mat.shape[1] + 1) // 2
    forward = keep[:, :s] + keep[:, ::-1][:, :s]
    forward[:, -1] *= 0.5  # the mirror node is its own image
    return forward, np.ascontiguousarray(mat[:s, ::2])


@lru_cache(maxsize=8)  # equal Grid objects share one build
def _build_symbols(grid: Grid) -> _Symbols:
    sigma = _sigma(grid, False)
    zeromean = sigma.copy()
    zeromean[(0,) * grid.dim] = np.inf  # drop the constant mode
    arrays = (1.0 + sigma, zeromean, _sigma(grid, True))
    sizes = {n for n in grid.box_n if n <= _MATRIX_MAX_NODES}
    dct = {n: _dct1_matrix(n) for n in sizes}
    dst = {n: _dst1_matrix(n - 2) for n in sizes}
    dct, dst = [dct.get(n) for n in grid.box_n], [dst.get(n) for n in grid.box_n]
    idct, idst = list(dct), list(dst)
    for a in grid.mirror:
        if dct[a] is None:
            raise ValueError(f"mirrored axis {a} of {grid} is longer than "
                             f"{_MATRIX_MAX_NODES} nodes")
        (dct[a], idct[a]), (dst[a], idst[a]) = _sector_pair(dct[a]), _sector_pair(dst[a])
    for arr in (*arrays, *dct, *dst, *idct, *idst):
        if arr is not None:
            arr.flags.writeable = False
    return _Symbols(*arrays, dct=tuple(dct), dst=tuple(dst), idct=tuple(idct),
                    idst=tuple(idst),
                    scale=float(np.prod([2.0 * (n - 1) for n in grid.box_n])))


def _finite(v: np.ndarray) -> np.ndarray:
    if not np.isfinite(v).all():
        raise SbpError("solution contains non-finite values")
    return v


def _spectral_solve(rhs: np.ndarray, sym: _Symbols, symbol: np.ndarray) -> np.ndarray:
    """The DCT-I solve: forward transform, division by ``symbol``, inverse."""
    return _finite(_transform(_transform(rhs, sym.dct, _dct1) / symbol, sym.idct, _dct1)
                   / sym.scale)


def solve_fourth_order_split(grid: Grid, f: np.ndarray) -> np.ndarray:
    """phi with lap(lap(phi)) - lap(phi) = f - mean(f), zero fluxes of phi
    and lap(phi), and zero mean.

    Through psi = lap(phi) the problem splits into (lap - 1) psi = f - mean(f)
    and lap(phi) = psi.  With f_hat the DCT-I of the source, psi_hat =
    -f_hat / (1 + sigma) and phi_hat = -psi_hat / sigma, so phi takes one
    forward and one inverse transform and psi is never formed.  The constant
    mode is dropped: for the source that is exactly the projection to zero
    quadrature mean, for phi it fixes the gauge.
    """
    sym = _symbols(grid)
    f_hat = _transform(np.asarray(f, dtype=float), sym.dct, _dct1)
    f_hat[(0,) * grid.dim] = 0.0
    # In place: this solve sets the descent's peak memory.
    f_hat /= sym.helmholtz
    f_hat /= sym.zeromean
    phi = _transform(f_hat, sym.idct, _dct1)
    phi /= sym.scale
    return _finite(phi)


def solve_helmholtz_neumann(grid: Grid,
                            f: np.ndarray,
                            flux: BoundaryData | None = None) -> np.ndarray:
    """Solve lap(v) - v = f with dv/dn = flux.

    The operator I - lap is symmetric positive definite in the quadrature
    inner product, so the solve is unconditionally well posed.  Satisfies the
    discrete Gauss identity
    ``boundary_integrate(flux) - integrate(v) == integrate(f)`` to rounding.
    """
    rhs = -np.asarray(f, dtype=float)
    if flux is not None and not flux.is_zero:
        rhs = rhs + neumann_flux_field(grid, flux)
    sym = _symbols(grid)
    return _spectral_solve(rhs, sym, sym.helmholtz)


def solve_poisson_neumann_zeromean(grid: Grid,
                                   f: np.ndarray,
                                   flux: BoundaryData | None = None) -> np.ndarray:
    """Solve lap(v) = f with dv/dn = flux and zero quadrature mean.

    The data must satisfy the Gauss compatibility condition
    ``integrate(f) == boundary_integrate(flux)``; the mismatch is checked
    against ``1e-8 * (norm(f) + max|flux| + 1)`` and then removed with the
    constant mode, so the solve itself sees a consistent singular system.
    Raises ``SbpError`` when the mismatch exceeds that tolerance, and for
    non-finite data, which are stopped before the check and any transform.
    """
    f = np.asarray(f, dtype=float)
    surf = 0.0 if flux is None else flux.integral
    imbalance = integrate(grid, f) - surf
    scale = norm_l2(grid, f)
    if flux is not None:
        scale += max(float(np.max(np.abs(v))) for v in flux.values.values())
    tolerance = 1e-8 * (scale + 1.0)
    # A NaN imbalance passes the gate below, and an infinite one meets an
    # infinite tolerance, so non-finite data are stopped here.
    if not (math.isfinite(imbalance) and math.isfinite(tolerance)):
        raise SbpError(f"non-finite data: integral of f minus boundary "
                       f"integral of flux is {imbalance}, data scale {scale}")
    if abs(imbalance) > tolerance:
        raise SbpError(
            f"integral of f minus boundary integral of flux is {imbalance:.3e}, "
            f"tolerance {tolerance:.3e}"
        )
    rhs = f
    if flux is not None and not flux.is_zero:
        rhs = f - neumann_flux_field(grid, flux)
    sym = _symbols(grid)
    return _spectral_solve(-rhs, sym, sym.zeromean)


def _dst_interior(grid: Grid, f: np.ndarray) -> np.ndarray:
    """DST-I coefficients of the interior values of ``f``."""
    return _transform(np.asarray(f, dtype=float)[grid.interior], _symbols(grid).dst, _dst1)


def _from_dst_interior(grid: Grid, coef: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the field with DST-I coefficients ``coef`` into the interior of
    ``out`` and return ``out``; its boundary values are left as they are."""
    sym = _symbols(grid)
    values = _transform(coef, sym.idst, _dst1)
    values /= sym.scale
    out[grid.interior] = _finite(values)
    return out


def solve_poisson_dirichlet(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Solve (-lap) v = f with v = 0 on the boundary.

    Only interior values of ``f`` enter; boundary values are ignored.  The
    result is exactly zero on boundary nodes.
    """
    coef = _dst_interior(grid, f) / _symbols(grid).dirichlet
    return _from_dst_interior(grid, coef, np.zeros(grid.shape))
