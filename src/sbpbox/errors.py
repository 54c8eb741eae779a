"""Exception classes shared across the package.

A class exists only where a caller tells it apart:

- ``ManifoldError``: the line search of ``optimize._minimize`` catches it
  from ``retract`` and halves the step.
- ``InfeasibleRegion``: ``manifold.genus_seeds`` catches it from
  ``feasible_init`` and tries another slab partition;
  ``optimize.excited_states`` catches it from ``genus_seeds`` and tries the
  next lower genus.
- ``SbpError``: the base class, which the command line prints as one
  ``error:`` line and ``excited_states`` catches per start.

Every other package failure is a plain ``SbpError`` whose message says what
went wrong; input validation, a bad run configuration among it, raises
``ValueError``.
"""

from __future__ import annotations


class SbpError(Exception):
    """Base class for all package-specific errors."""


class ManifoldError(SbpError):
    """No point of the ansatz (a + b q) v lies on M, or the constraint
    differentials 2v and 2q v are numerically dependent at v (q is constant
    on the support of v, or v vanishes or is not finite): a 2x2 Gram matrix
    in ``retract`` or the tangent projection fails ``_gram_det``."""


class InfeasibleRegion(SbpError):
    """No seed exists in the requested slab along axis 0: q does not
    strictly bracket alpha on its interior nodes, or the tilted seed is so
    concentrated that its retraction fails; or no slab partition along
    axis 0 brackets alpha."""
