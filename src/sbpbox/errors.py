"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to catch gets its own class;
anything else propagates as a plain ValueError from input validation.
"""

from __future__ import annotations


class SbpError(Exception):
    """Base class for all package-specific errors."""


class NonzeroBoundary(SbpError):
    """A field that must vanish on the boundary does not."""


class NoConvergence(SbpError):
    """A linear solve produced non-finite values."""


class IncompatibleData(SbpError):
    """Volume and surface data violate the Gauss compatibility condition."""


class ConsistencyViolation(SbpError):
    """An identity that must hold by construction failed its tolerance."""


class ZeroField(SbpError):
    """An operation received a field with vanishing norm."""


class NewtonDivergence(SbpError):
    """A constraint solve has no solution: the retraction's quadratic for
    b/a has no real root, or ``dense_kkt_polish``'s Newton iteration stalls."""


class DegenerateConstraints(SbpError):
    """The constraint differentials 2v and 2q v are numerically dependent at
    v (q is constant on the support of v, or v vanishes): the Gram matrix of
    (v, q v) in ``retract``, or of their H^1_0 representers in the tangent
    projection, is singular or too ill-conditioned."""


class InfeasibleRegion(SbpError):
    """No feasible bump pair exists in the requested region."""


class SlabInfeasible(SbpError):
    """A slab of the seed partition cannot bracket the target constraint value.

    Attributes
    ----------
    slab_index : int
        Zero-based index of the first slab that failed.
    """

    def __init__(self, message: str, slab_index: int):
        super().__init__(message)
        self.slab_index = slab_index


class OracleTooLarge(SbpError):
    """A dense oracle was requested on a grid above its size limit."""


class ConfigError(SbpError):
    """A run configuration file is missing keys or has malformed values."""
