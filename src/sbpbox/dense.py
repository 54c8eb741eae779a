"""Dense direct counterparts of the matrix-free operators, for oracle tests.

Everything here is assembled from scratch with Kronecker products of 1d
matrices and solved with LAPACK, deliberately not reusing the stencil
application code, so that agreement between this module and the spectral
solves is evidence rather than tautology.  Grids are limited to
``MAX_ORACLE_NODES`` nodes.
"""

from __future__ import annotations

import numpy as np

from .errors import SbpError
from .grid import Grid

MAX_ORACLE_NODES = 5000

__all__ = [
    "MAX_ORACLE_NODES",
    "check_size",
    "neumann_laplacian_matrix",
    "dirichlet_laplacian_matrix",
    "weight_vector",
    "solve_helmholtz_dense",
    "solve_poisson_neumann_dense",
    "solve_poisson_dirichlet_dense",
    "fourth_order_matrix_dense",
    "solve_fourth_order_dense",
]


def check_size(grid: Grid) -> None:
    if grid.node_count > MAX_ORACLE_NODES:
        raise SbpError(
            f"grid has {grid.node_count} nodes, dense oracle limit is "
            f"{MAX_ORACLE_NODES}"
        )


def _neumann_1d(n: int, h: float) -> np.ndarray:
    a = np.zeros((n, n))
    for i in range(1, n - 1):
        a[i, i - 1] = 1.0 / h**2
        a[i, i] = -2.0 / h**2
        a[i, i + 1] = 1.0 / h**2
    a[0, 0] = -2.0 / h**2
    a[0, 1] = 2.0 / h**2
    a[n - 1, n - 2] = 2.0 / h**2
    a[n - 1, n - 1] = -2.0 / h**2
    return a


def _trapezoid_1d(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    return w


def _kron_sum(mats: list[np.ndarray]) -> np.ndarray:
    """Sum over axes of I x ... x A_axis x ... x I."""
    total = None
    for a, _ in enumerate(mats):
        term = np.array([[1.0]])
        for j, m in enumerate(mats):
            term = np.kron(term, m if j == a else np.eye(m.shape[0]))
        total = term if total is None else total + term
    return total


def neumann_laplacian_matrix(grid: Grid) -> np.ndarray:
    """Dense homogeneous-Neumann Laplacian on raveled (row-major) fields."""
    check_size(grid)
    mats = [_neumann_1d(n, h) for n, h in zip(grid.n, grid.h)]
    return _kron_sum(mats)


def dirichlet_laplacian_matrix(grid: Grid) -> np.ndarray:
    """Dense Dirichlet Laplacian: boundary rows and columns are zero.

    On interior nodes the Neumann and Dirichlet stencils coincide, so the
    interior block of the Neumann sum masked by the boundary is exactly the
    Dirichlet operator acting on fields that vanish on the boundary.
    """
    check_size(grid)
    full = _kron_sum([_neumann_1d(n, h) for n, h in zip(grid.n, grid.h)])
    interior = grid.interior_mask.ravel()
    full[~interior, :] = 0.0
    full[:, ~interior] = 0.0
    return full


def weight_vector(grid: Grid) -> np.ndarray:
    """Raveled trapezoid quadrature weights (assembled independently)."""
    w = np.array([1.0])
    for n, h in zip(grid.n, grid.h):
        w = np.kron(w, _trapezoid_1d(n, h))
    return w


def solve_helmholtz_dense(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - lap_neumann) v = rhs by LU."""
    check_size(grid)
    a = np.eye(grid.node_count) - neumann_laplacian_matrix(grid)
    v = np.linalg.solve(a, np.asarray(rhs, dtype=float).ravel())
    return v.reshape(grid.shape)


def solve_poisson_neumann_dense(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve lap_neumann v = rhs with zero quadrature mean.

    The singular system is bordered with the mean constraint: the extra
    unknown absorbs any residual imbalance in the data and the extra row
    pins the mean, giving a square nonsingular system.
    """
    check_size(grid)
    m = grid.node_count
    a = neumann_laplacian_matrix(grid)
    w = weight_vector(grid)
    big = np.zeros((m + 1, m + 1))
    big[:m, :m] = a
    big[:m, m] = 1.0
    big[m, :m] = w
    b = np.zeros(m + 1)
    b[:m] = np.asarray(rhs, dtype=float).ravel()
    sol = np.linalg.solve(big, b)
    return sol[:m].reshape(grid.shape)


def solve_poisson_dirichlet_dense(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve (-lap_dirichlet) v = rhs, v = 0 on the boundary."""
    check_size(grid)
    interior = grid.interior_mask.ravel()
    a = -dirichlet_laplacian_matrix(grid)[np.ix_(interior, interior)]
    b = np.asarray(rhs, dtype=float).ravel()[interior]
    v = np.zeros(grid.node_count)
    v[interior] = np.linalg.solve(a, b)
    return v.reshape(grid.shape)


def fourth_order_matrix_dense(grid: Grid) -> np.ndarray:
    """Bordered dense matrix for the coupled split system.

    Unknowns are (psi, phi, c): psi solves the shifted Helmholtz block,
    phi solves the Poisson block against psi, c pins the mean of phi while
    absorbing the compatibility defect.  Used by the split-system oracle.
    """
    check_size(grid)
    m = grid.node_count
    a = neumann_laplacian_matrix(grid)
    w = weight_vector(grid)
    big = np.zeros((2 * m + 1, 2 * m + 1))
    big[:m, :m] = a - np.eye(m)          # (lap - I) psi = source
    big[m:2 * m, :m] = -np.eye(m)        # lap phi - psi + c = 0
    big[m:2 * m, m:2 * m] = a
    big[m:2 * m, 2 * m] = 1.0
    big[2 * m, m:2 * m] = w              # zero-mean gauge for phi
    return big


def solve_fourth_order_dense(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Direct solve of the split system for homogeneous boundary data.

    Returns phi with the source projected to zero mean, matching the
    spectral path semantics; psi stays inside the bordered system.
    """
    check_size(grid)
    m = grid.node_count
    w = weight_vector(grid)
    fvec = np.asarray(f, dtype=float).ravel()
    fvec = fvec - np.dot(w, fvec) / grid.volume
    big = fourth_order_matrix_dense(grid)
    b = np.zeros(2 * m + 1)
    b[:m] = fvec
    sol = np.linalg.solve(big, b)
    return sol[m:2 * m].reshape(grid.shape)
