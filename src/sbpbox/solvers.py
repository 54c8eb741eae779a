"""Exact solves for the three elliptic building blocks on the uniform box.

Each solve is a transform, a division by the symbol and the inverse
transform.  With reflected ghost nodes the Neumann stencil is the periodic
stencil applied to the even extension of a field, so the DCT-I diagonalizes
it exactly; on interior nodes the Dirichlet stencil is the periodic stencil
applied to the odd extension, which the DST-I diagonalizes (Strang, "The
Discrete Cosine Transform", SIAM Rev. 41, 1999; Schumann & Sweet 1976).  Per
axis the eigenvalue of -lap for mode k is ``4/h^2 sin^2(pi k / (2 (n - 1)))``
with k = 0..n-1 (Neumann, all nodes) or k = 1..n-2 (Dirichlet, interior
nodes); the box symbol is the sum over axes.  Both transforms are taken from
``numpy.fft.rfft`` of the extended field.

The pure Neumann Poisson problem is singular with the constants as its
nullspace.  The DCT-I mode k = 0 is proportional to the trapezoid integral,
so dropping it projects data and solution to zero quadrature mean, which
fixes the gauge.

``sbpbox.dense`` assembles the same operators as matrices and solves them by
LU; it is the independent oracle for these solves.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import IncompatibleData, NoConvergence
from .grid import (
    BoundaryData,
    Grid,
    boundary_integrate,
    integrate,
    neumann_flux_field,
)

__all__ = [
    "solve_helmholtz_neumann",
    "solve_poisson_neumann_zeromean",
    "solve_poisson_dirichlet",
]


def _dct1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DCT-I along ``axis``; applied twice it scales by 2 (n - 1)."""
    x = np.moveaxis(x, axis, -1)
    even = np.concatenate([x, x[..., -2:0:-1]], axis=-1)
    return np.moveaxis(np.fft.rfft(even).real, -1, axis)


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DST-I along ``axis``; applied twice it scales by 2 (m + 1)."""
    x = np.moveaxis(x, axis, -1)
    zero = np.zeros(x.shape[:-1] + (1,))
    odd = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    return np.moveaxis(-np.fft.rfft(odd).imag[..., 1:-1], -1, axis)


def _symbol(grid: Grid, dirichlet: bool) -> np.ndarray:
    """Eigenvalues of -lap on the transform modes, summed over axes."""
    total = np.zeros((1,) * grid.dim)
    for a, (h, n) in enumerate(zip(grid.h, grid.n)):
        k = np.arange(1, n - 1) if dirichlet else np.arange(n)
        shape = [1] * grid.dim
        shape[a] = k.size
        lam = 4.0 / h**2 * np.sin(np.pi * k / (2 * (n - 1))) ** 2
        total = total + lam.reshape(shape)
    return total


def _spectral_solve(grid: Grid, rhs: np.ndarray,
                    transform: Callable[[np.ndarray, int], np.ndarray],
                    symbol: np.ndarray) -> np.ndarray:
    coef = rhs
    for a in range(grid.dim):
        coef = transform(coef, a)
    coef = coef / symbol
    for a in range(grid.dim):
        coef = transform(coef, a)
    v = coef / np.prod([2.0 * (n - 1) for n in grid.n])
    if not np.all(np.isfinite(v)):
        raise NoConvergence("solution contains non-finite values")
    return v


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
    return _spectral_solve(grid, rhs, _dct1, 1.0 + _symbol(grid, False))


def solve_poisson_neumann_zeromean(grid: Grid,
                                   f: np.ndarray,
                                   flux: BoundaryData | None = None,
                                   compat_tolerance: float | None = None) -> np.ndarray:
    """Solve lap(v) = f with dv/dn = flux and zero quadrature mean.

    The data must satisfy the Gauss compatibility condition
    ``integrate(f) == boundary_integrate(flux)``; the mismatch is checked
    against ``compat_tolerance`` (default ``1e-8 * (norm(f) + norm(flux) + 1)``)
    and then removed with the constant mode, so the solve itself sees a
    consistent singular system.
    """
    f = np.asarray(f, dtype=float)
    rhs = f
    surf = 0.0
    if flux is not None and not flux.is_zero:
        rhs = rhs - neumann_flux_field(grid, flux)
        surf = boundary_integrate(grid, flux)
    imbalance = integrate(grid, f) - surf
    if compat_tolerance is None:
        scale = float(np.sqrt(np.sum(grid.weights * f * f)))
        if flux is not None:
            scale += max(float(np.max(np.abs(v))) for v in flux.values.values())
        compat_tolerance = 1e-8 * (scale + 1.0)
    if abs(imbalance) > compat_tolerance:
        raise IncompatibleData(
            f"integral of f minus boundary integral of flux is {imbalance:.3e}, "
            f"tolerance {compat_tolerance:.3e}"
        )
    symbol = _symbol(grid, False)
    symbol[(0,) * grid.dim] = np.inf  # drop the constant mode
    return _spectral_solve(grid, -rhs, _dct1, symbol)


def solve_poisson_dirichlet(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Solve (-lap) v = f with v = 0 on the boundary.

    Only interior values of ``f`` enter; boundary values are ignored.  The
    result is exactly zero on boundary nodes.
    """
    interior = tuple(slice(1, -1) for _ in range(grid.dim))
    v = np.zeros(grid.shape)
    v[interior] = _spectral_solve(grid, np.asarray(f, dtype=float)[interior],
                                  _dst1, _symbol(grid, True))
    return v
