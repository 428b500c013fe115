"""Concave maximization over the interior of the PSD-feasible dual domain.

The ascent sees the dual through one callback: at(sigma) returns the dual
point at sigma (canonical.DualPoint), whose exceeds(t) is the feasibility
threshold test (for the canonical dual lambda_min(G(sigma)) > t, decided
by a Cholesky factorisation of G - tI) and whose value, rounding bound,
gradient_with_norm() and newton_direction(grad) share one factorisation
of G; outside the region where G is positive definite they raise
DomainViolation.  The engine is a damped Newton ascent: the point's
newton_direction(grad) is the d solving -H d = grad, with a
steepest-ascent fallback when the Hessian's or that solve's matrix is not
positive definite (DomainViolation) or a solve fails its residual check
(ColumnSpaceViolation), or when d does not ascend; for a DualPoint the
direction, its slope and the gradient's norm are straight-line code of
its table's shape (canonical._point_source), solving through
smallmat.kernels(m).  A backtracking line search accepts a trial point
only when it keeps a strict feasibility margin and satisfies the Armijo
ascent condition; that point is then the next iterate.

Accepted dual values increase, with one exception at the rounding level:
when a trial step's predicted gain step * slope is below the bound on the
dual value's rounding error (point.rounding()), the value can no longer
tell the trial from the iterate, and an interior trial is accepted when
its gradient norm is smaller than the iterate's and its value at most that
bound below the iterate's.  The bound is the dual's own (for the canonical
dual a few units of roundoff times |c| + |1/2 F^T x_bar|), because the
value alone cannot show the cancellation between those terms; a point
whose bound is 0.0 never takes this path.  Every accepted iterate is
strictly interior.

The canonical pipeline (solve_canonical) climbs any dual of
canonical.DualTable form, affine in sigma or staged like Three Hump Camel,
with its exact gradient and Hessian, on one dual point at a time: the
interior start hands the point it accepted to the ascent, and the ascent
hands its last iterate to the report, which reads sigma*, x_bar, Xi and
the PSD margin from it.  Every ending (converged, iteration cap, or a
line search stalled against the feasibility boundary) is an AscentResult.
The central differences _fd_gradient and _fd_hessian are references for
verify and the tests; the ascent does not use them.

There is no randomness anywhere in the solver: identical inputs and
configuration produce bit-identical results.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from . import canonical
from .errors import ColumnSpaceViolation, DomainViolation, NoInteriorPoint
# solve_sym is not called here.  It stays bound because perfbench's tracer
# wraps it in every namespace that holds it, and the benchmark's tests check
# that dual_solver.solve_sym is smallmat.solve_sym.
from .smallmat import SymMatrix, Vector
from .smallmat import solve_sym  # noqa: F401

# sigma -> the dual point at sigma: a canonical.DualPoint, or any object with its methods.
PointFn = Callable[[tuple[float, ...]], canonical.DualPoint]

_MIN_STEP = 1e-16
INTERIOR_MARGIN = 1e-9  # feasibility margin every accepted iterate keeps
ARMIJO_C = 1e-4  # Armijo sufficient-ascent constant
BACKTRACK_RATIO = 0.5  # step shrink factor of the line search
_START_TAU_MAX = 1e6  # largest ray length the interior start tries

# Exceptions treated as "point outside the evaluable domain" by the start
# search, the line search and the finite-difference references.
_DOMAIN_ERRORS = (ColumnSpaceViolation, DomainViolation)


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        for name in ("grad_tol", "max_iter"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


class Certificate(str, enum.Enum):
    GLOBAL_MINIMUM_CERTIFIED = "GlobalMinimumCertified"
    BOUNDARY_CRITICAL = "BoundaryCritical"
    NOT_CONVERGED = "NotConverged"


@dataclass(frozen=True)
class CriticalReport:
    sigma_star: tuple[float, ...]
    x_bar: Vector
    primal: float
    complementary: float
    dual: float
    gap: float
    grad_norm: float
    psd_margin: float
    certificate: Certificate
    iterations: int


@dataclass(frozen=True)
class AscentResult:
    """The ascent's last iterate, however it ended: converged, at the
    iteration cap, or stalled (the line search underflowed its minimum
    step, pressed against the feasibility boundary)."""

    point: canonical.DualPoint = field(compare=False, repr=False)
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    stalled: bool = False

    @property
    def sigma(self) -> tuple[float, ...]:
        return self.point.sigma


def find_interior_start(at: PointFn, m: int) -> canonical.DualPoint:
    """The first dual point on a deterministic ray grid with
    exceeds(INTERIOR_MARGIN) True and a finite value.

    Candidates are the origin, then tau * u for geometrically growing tau
    over both signs of each coordinate direction and the all-ones direction.
    """
    directions = [tuple(float(j == k) for j in range(m)) for k in range(m)]
    if m > 1:
        directions.append((1.0,) * m)

    def candidates():
        yield (0.0,) * m
        tau = 2.0 ** -10
        while tau <= _START_TAU_MAX:
            for u in directions:
                for sign in (1.0, -1.0):
                    yield tuple(sign * tau * x for x in u)
            tau *= 2.0

    for sigma in candidates():
        point = at(sigma)
        if point.exceeds(INTERIOR_MARGIN) and _try_value(point.value) is not None:
            return point
    raise NoInteriorPoint(
        f"no strictly feasible point with margin > {INTERIOR_MARGIN} up to tau {_START_TAU_MAX}"
    )


def _try_value(value_fn: Callable[..., float], *args) -> float | None:
    try:
        value = value_fn(*args)
    except _DOMAIN_ERRORS:
        return None
    return value if math.isfinite(value) else None


def _fd_columns(
    fn: Callable[[tuple[float, ...]], tuple[float, ...]], sigma: tuple[float, ...], fd_step: float,
    finite: bool, what: str
) -> list[tuple[float, ...]]:
    """For each sigma_k, the central difference quotients of fn's outputs
    with step h = fd_step (1 + |sigma_k|), or, where one side is outside the
    domain (fn raises a domain error there, or, with finite, gives a
    non-finite output), the one-sided quotients against fn(sigma)."""

    def side(s: tuple[float, ...]) -> tuple[float, ...] | None:
        try:
            out = fn(s)
        except _DOMAIN_ERRORS:
            return None
        return out if not finite or all(map(math.isfinite, out)) else None

    center = None
    cols = []
    for k, sk in enumerate(sigma):
        h = fd_step * (1.0 + abs(sk))
        up = list(sigma)
        up[k] = sk + h
        down = list(sigma)
        down[k] = sk - h
        f_up = side(tuple(up))
        f_down = side(tuple(down))
        if f_up is not None and f_down is not None:
            cols.append(tuple((a - b) / (2.0 * h) for a, b in zip(f_up, f_down)))
            continue
        if center is None:
            center = fn(sigma)
        if f_up is not None:
            cols.append(tuple((a - b) / h for a, b in zip(f_up, center)))
        elif f_down is not None:
            cols.append(tuple((a - b) / h for a, b in zip(center, f_down)))
        else:
            raise DomainViolation(f"cannot difference {what} near sigma={sigma}")
    return cols


def _fd_gradient(
    value_fn: Callable[[Sequence[float]], float], sigma: tuple[float, ...], fd_step: float
) -> tuple[float, ...]:
    """Central differences with a one-sided fallback near domain edges."""
    cols = _fd_columns(lambda s: (value_fn(s),), sigma, fd_step, True, "value function")
    return tuple(col[0] for col in cols)


def _fd_hessian(
    grad_of: Callable[[Sequence[float]], Sequence[float]], sigma: tuple[float, ...], fd_step: float
) -> SymMatrix:
    """Symmetrized central differences of the gradient."""
    m = len(sigma)
    cols = _fd_columns(lambda s: tuple(grad_of(s)), sigma, fd_step, False, "gradient")
    rows = [[0.5 * (cols[i][j] + cols[j][i]) for j in range(m)] for i in range(m)]
    return SymMatrix(m, tuple(rows[i][j] for i in range(m) for j in range(i, m)))


def maximize_concave(
    at: PointFn, point: canonical.DualPoint, cfg: SolverConfig | None = None
) -> AscentResult:
    """Damped Newton ascent from a strictly feasible start point, climbed
    without rebuilding it.

    at(sigma) is the dual point at sigma: point.exceeds(t) is True when
    sigma is feasible with margin greater than t, and every iterate has
    margin greater than INTERIOR_MARGIN.  point.rounding() bounds the
    rounding error of point.value(): a trial step whose predicted gain is
    below it is accepted on a smaller gradient norm and a value at most
    that bound below the iterate's (module docstring).
    point.gradient_with_norm() is (gradient, its norm) and
    point.newton_direction(grad) the (direction, slope) of a step.

    Returns the last iterate with converged=True when the gradient norm
    drops below grad_tol, converged=False at the iteration cap, and
    stalled=True when backtracking underflows the minimum step, which
    happens when ascent is blocked by the feasibility boundary.
    """
    cfg = cfg or SolverConfig()
    if not point.exceeds(INTERIOR_MARGIN):
        raise ValueError(f"start {point.sigma} does not have margin > interior margin {INTERIOR_MARGIN:.3e}")

    value = point.value()
    grad, grad_norm = point.gradient_with_norm()

    for iteration in range(cfg.max_iter):
        if grad_norm <= cfg.grad_tol:
            return AscentResult(point, value, grad_norm, iteration, True)

        # Newton, unless the Hessian or the Newton step fails or does not ascend: then steepest ascent.
        direction, slope = point.newton_direction(grad)

        step = 1.0
        rounding = None  # the value's rounding bound at sigma, computed when first needed
        while step >= _MIN_STEP:
            trial = tuple(s + step * d for s, d in zip(point.sigma, direction))
            try:
                trial_point = at(trial)
            except _DOMAIN_ERRORS:  # a non-finite trial, from a step that overflows sigma
                trial_value = None
            else:
                trial_value = _try_value(trial_point.value) if trial_point.exceeds(INTERIOR_MARGIN) else None
            if trial_value is not None:
                if trial_value >= value + ARMIJO_C * step * slope:
                    slack, trial_grad = 0.0, None
                    break
                if rounding is None:
                    rounding = point.rounding()
                if step * slope < rounding and trial_value >= value - rounding:
                    slack, trial_grad = rounding, trial_point.gradient_with_norm()
                    if trial_grad[1] < grad_norm:
                        break
            step *= BACKTRACK_RATIO
        else:
            return AscentResult(point, value, grad_norm, iteration, False, stalled=True)

        assert trial_value >= value - slack, (
            "accepted values increase, or fall by at most the value's rounding bound on a smaller gradient"
        )
        point, value = trial_point, trial_value
        grad, grad_norm = trial_grad or point.gradient_with_norm()

    return AscentResult(point, value, grad_norm, cfg.max_iter, grad_norm <= cfg.grad_tol)


def classify_certificate(
    converged: bool,
    stalled: bool,
    psd_margin: float,
    gap: float,
    primal: float,
) -> Certificate:
    """Certificate triage of a dual ascent's end point.

    Certified requires gradient convergence, a strictly interior PSD margin,
    and a closed duality gap.  Terminations pressed against the feasibility
    boundary (stalled line search, or convergence with margin below the
    interior threshold) are boundary-critical and never certified.
    """
    gap_ok = gap <= 1e-8 * (1.0 + abs(primal))
    if converged and psd_margin >= INTERIOR_MARGIN and gap_ok:
        return Certificate.GLOBAL_MINIMUM_CERTIFIED
    if (stalled or converged) and psd_margin < 2.0 * INTERIOR_MARGIN:
        return Certificate.BOUNDARY_CRITICAL
    return Certificate.NOT_CONVERGED


def solve_canonical(pr: canonical.Problem, cfg: SolverConfig | None = None) -> CriticalReport:
    """Full dual pipeline: interior start, concave ascent with the exact
    dual gradient and Hessian, primal recovery, and certificate triage."""
    cfg = cfg or SolverConfig()
    at = partial(canonical.DualPoint, pr)
    result = maximize_concave(at, find_interior_start(at, pr.m), cfg)
    point = result.point
    psd_margin = point.min_eigenvalue()  # the one eigenvalue, for the report
    x_bar = Vector(point.x_bar())
    primal = canonical.primal_value(pr, x_bar)
    xi = point.complementary(x_bar.entries)
    gap = max(abs(primal - xi), abs(xi - result.value))
    certificate = classify_certificate(result.converged, result.stalled, psd_margin, gap, primal)
    return CriticalReport(
        sigma_star=result.sigma,
        x_bar=x_bar,
        primal=primal,
        complementary=xi,
        dual=result.value,
        gap=gap,
        grad_norm=result.grad_norm,
        psd_margin=psd_margin,
        certificate=certificate,
        iterations=result.iterations,
    )
