"""Exception types shared across the package."""

from __future__ import annotations


class CanondualError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CanondualError, ValueError):
    """Operands have incompatible arity, length, or shape."""


class ColumnSpaceViolation(CanondualError):
    """A solve's residual exceeds its tolerance.

    Raised by smallmat's positive definite solvers when, after one step of
    iterative refinement, ||S x - v|| > residual_tol * (1 + ||v||): S is too
    ill-conditioned for the accuracy asked, so the dual point is treated as
    outside the domain on which the dual can be evaluated.
    """

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(f"solve residual {residual:.3e} > tol {tol:.3e}")


class SingularMatrixError(CanondualError):
    """A matrix required to be nonsingular is singular to working precision."""


class DomainViolation(CanondualError, ValueError):
    """A point lies outside the domain of a dual: that of a closed form, or
    where G(sigma) is not positive definite and no solve is made."""


class IdentityViolation(CanondualError):
    """An exact polynomial identity that must hold by construction failed."""


class NoInteriorPoint(CanondualError):
    """The feasibility search exhausted its grid without finding a strictly
    interior dual point."""


class NotConverged(CanondualError):
    """An iterative refinement did not reach its tolerance within the
    iteration budget.

    ``evaluations`` counts the objective evaluations spent before giving
    up, so callers that tolerate a failure can still account for its cost.
    """

    def __init__(self, message: str, evaluations: int = 0):
        self.evaluations = evaluations
        super().__init__(message)


class ProblemFileError(CanondualError, ValueError):
    """A problem file failed to parse or violated a validation invariant."""
