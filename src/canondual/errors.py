"""Exception types shared across the package."""

from __future__ import annotations


class CanondualError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CanondualError, ValueError):
    """Operands have incompatible arity, length, or shape."""


class ColumnSpaceViolation(CanondualError):
    """Right-hand side is not in the column space of a (near-)singular matrix.

    Raised by the symmetric solver when the least-squares residual exceeds
    the requested tolerance, i.e. the dual point lies outside the domain on
    which the dual function is well defined.
    """

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"right-hand side outside column space: residual {residual:.3e} > tol {tol:.3e}"
        )


class SingularMatrixError(CanondualError):
    """A matrix required to be nonsingular is singular to working precision."""


class DomainViolation(CanondualError, ValueError):
    """A point lies outside the feasible domain of a closed-form dual."""


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


class RootIsolationFailure(CanondualError):
    """Sign-change isolation missed a real root at the scan resolution."""


class ProblemFileError(CanondualError, ValueError):
    """A problem file failed to parse or violated a validation invariant."""
