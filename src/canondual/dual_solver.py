"""Concave maximization over the interior of the PSD-feasible dual domain.

The ascent sees the dual through one callback: at(sigma) returns the dual
point at sigma (canonical.DualPoint), whose exceeds(t) is the feasibility
threshold test (for the canonical dual lambda_min(G(sigma)) > t, decided
by a Cholesky factorisation of G - tI) and whose value, rounding bound,
gradient and Hessian share one factorisation of G.  The engine is a damped
Newton ascent: step direction from solving -H d = grad through the
Cholesky factor of -H, with a steepest-ascent fallback when that
factorisation fails (H not negative definite), and a backtracking line
search that accepts a trial point only when it keeps a strict feasibility
margin and satisfies the Armijo ascent condition; that point is then the
next iterate.

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
with its exact gradient and Hessian.  The central differences _fd_gradient
and _fd_hessian are references for verify and the tests; the ascent does
not use them.

There is no randomness anywhere in the solver: identical inputs and
configuration produce bit-identical results.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from . import canonical
from .errors import (
    ColumnSpaceViolation,
    DomainViolation,
    LineSearchStalled,
    NoInteriorPoint,
    SingularMatrixError,
)
from .smallmat import SymMatrix, Vector, cholesky, solve_sym

# sigma -> the dual point at sigma: a canonical.DualPoint, or any object with its methods.
PointFn = Callable[[tuple[float, ...]], canonical.DualPoint]

_MIN_STEP = 1e-16
INTERIOR_MARGIN = 1e-9  # feasibility margin every accepted iterate keeps
ARMIJO_C = 1e-4  # Armijo sufficient-ascent constant
BACKTRACK_RATIO = 0.5  # step shrink factor of the line search

# Exceptions treated as "point outside the evaluable domain" by the start
# search, the line search and the finite-difference references.
_DOMAIN_ERRORS = (ColumnSpaceViolation, DomainViolation, SingularMatrixError)


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        for name in ("grad_tol", "max_iter"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


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
    sigma: tuple[float, ...]
    value: float
    grad_norm: float
    iterations: int
    converged: bool


def find_interior_start(
    at: PointFn,
    m: int,
    delta: float = INTERIOR_MARGIN,
    tau_max: float = 1e6,
) -> tuple[float, ...]:
    """First point on a deterministic ray grid with at(sigma).exceeds(delta)
    True and a finite value.

    Candidates are the origin, then tau * u for geometrically growing tau
    over both signs of each coordinate direction and the all-ones direction.
    """
    directions = [tuple(float(j == k) for j in range(m)) for k in range(m)]
    if m > 1:
        directions.append((1.0,) * m)

    def candidates():
        yield (0.0,) * m
        tau = 2.0 ** -10
        while tau <= tau_max:
            for u in directions:
                for sign in (1.0, -1.0):
                    yield tuple(sign * tau * x for x in u)
            tau *= 2.0

    for sigma in candidates():
        point = at(sigma)
        if point.exceeds(delta) and _try_value(point.value) is not None:
            return sigma
    raise NoInteriorPoint(f"no strictly feasible point with margin > {delta} up to tau {tau_max}")


def _try_value(value_fn: Callable[..., float], *args) -> float | None:
    try:
        value = value_fn(*args)
    except _DOMAIN_ERRORS:
        return None
    return value if math.isfinite(value) else None


def _fd_gradient(
    value_fn: Callable[[Sequence[float]], float], sigma: tuple[float, ...], fd_step: float
) -> tuple[float, ...]:
    """Central differences with a one-sided fallback near domain edges."""
    center = None
    grad = []
    for k, sk in enumerate(sigma):
        h = fd_step * (1.0 + abs(sk))
        up = list(sigma)
        up[k] = sk + h
        down = list(sigma)
        down[k] = sk - h
        f_up = _try_value(value_fn, tuple(up))
        f_down = _try_value(value_fn, tuple(down))
        if f_up is not None and f_down is not None:
            grad.append((f_up - f_down) / (2.0 * h))
            continue
        if center is None:
            center = value_fn(sigma)
        if f_up is not None:
            grad.append((f_up - center) / h)
        elif f_down is not None:
            grad.append((center - f_down) / h)
        else:
            raise DomainViolation(f"cannot difference value function near sigma={sigma}")
    return tuple(grad)


def _fd_hessian(
    grad_of: Callable[[Sequence[float]], Sequence[float]], sigma: tuple[float, ...], fd_step: float
) -> SymMatrix:
    """Symmetrized central differences of the gradient."""
    m = len(sigma)
    cols: list[Sequence[float] | None] = [None] * m
    center = None
    for k, sk in enumerate(sigma):
        h = fd_step * (1.0 + abs(sk))
        up = list(sigma)
        up[k] = sk + h
        down = list(sigma)
        down[k] = sk - h
        try:
            g_up = tuple(grad_of(tuple(up)))
        except _DOMAIN_ERRORS:
            g_up = None
        try:
            g_down = tuple(grad_of(tuple(down)))
        except _DOMAIN_ERRORS:
            g_down = None
        if g_up is not None and g_down is not None:
            cols[k] = tuple((a - b) / (2.0 * h) for a, b in zip(g_up, g_down))
        else:
            if center is None:
                center = tuple(grad_of(sigma))
            if g_up is not None:
                cols[k] = tuple((a - b) / h for a, b in zip(g_up, center))
            elif g_down is not None:
                cols[k] = tuple((a - b) / h for a, b in zip(center, g_down))
            else:
                raise DomainViolation(f"cannot difference gradient near sigma={sigma}")
    rows = [[0.5 * (cols[i][j] + cols[j][i]) for j in range(m)] for i in range(m)]
    return SymMatrix(m, tuple(rows[i][j] for i in range(m) for j in range(i, m)))


def _grad(point) -> tuple[tuple[float, ...], float]:
    grad = tuple(float(g) for g in point.gradient())
    return grad, math.sqrt(sum(g * g for g in grad))


def maximize_concave(at: PointFn, start: Sequence[float], cfg: SolverConfig | None = None) -> AscentResult:
    """Damped Newton ascent from a strictly feasible start.

    at(sigma) is the dual point at sigma: point.exceeds(t) is True when
    sigma is feasible with margin greater than t, and every iterate has
    margin greater than INTERIOR_MARGIN.  point.rounding() bounds the
    rounding error of point.value(): a trial step whose predicted gain is
    below it is accepted on a smaller gradient norm and a value at most
    that bound below the iterate's (module docstring).

    Terminates with converged=True when the gradient norm drops below
    grad_tol, converged=False at the iteration cap, and raises
    LineSearchStalled (carrying the last iterate) when backtracking
    underflows the minimum step, which happens when ascent is blocked by
    the feasibility boundary.
    """
    cfg = cfg or SolverConfig()
    sigma = tuple(float(s) for s in start)
    point = at(sigma)
    if not point.exceeds(INTERIOR_MARGIN):
        raise ValueError(f"start {sigma} does not have margin > interior margin {INTERIOR_MARGIN:.3e}")

    value = point.value()
    grad, grad_norm = _grad(point)

    for iteration in range(cfg.max_iter):
        if grad_norm <= cfg.grad_tol:
            return AscentResult(sigma, value, grad_norm, iteration, True)

        neg_hess = point.hessian().scale(-1.0)
        direction = None
        factor = cholesky(neg_hess)
        if factor is not None:
            try:
                d = solve_sym(neg_hess, Vector(grad), residual_tol=1e-6, factor=factor)
                if sum(g * di for g, di in zip(grad, d)) > 0.0:
                    direction = tuple(d)
            except ColumnSpaceViolation:
                direction = None
        if direction is None:
            direction = grad  # steepest ascent
        slope = sum(g * d for g, d in zip(grad, direction))

        step = 1.0
        rounding = None  # the value's rounding bound at sigma, computed when first needed
        while step >= _MIN_STEP:
            trial = tuple(s + step * d for s, d in zip(sigma, direction))
            trial_point = at(trial)
            trial_value = _try_value(trial_point.value) if trial_point.exceeds(INTERIOR_MARGIN) else None
            if trial_value is not None:
                if trial_value >= value + ARMIJO_C * step * slope:
                    slack, trial_grad = 0.0, None
                    break
                if rounding is None:
                    rounding = point.rounding()
                if step * slope < rounding and trial_value >= value - rounding:
                    slack, trial_grad = rounding, _grad(trial_point)
                    if trial_grad[1] < grad_norm:
                        break
            step *= BACKTRACK_RATIO
        else:
            raise LineSearchStalled(sigma, value, grad_norm, iteration)

        assert trial_value >= value - slack, (
            "accepted values increase, or fall by at most the value's rounding bound on a smaller gradient"
        )
        sigma, point, value = trial, trial_point, trial_value
        grad, grad_norm = trial_grad or _grad(point)

    converged = grad_norm <= cfg.grad_tol
    return AscentResult(sigma, value, grad_norm, cfg.max_iter, converged)


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
    start = find_interior_start(at, pr.m)
    stalled = False
    try:
        result = maximize_concave(at, start, cfg)
    except LineSearchStalled as stall:
        result = AscentResult(stall.sigma, stall.value, stall.grad_norm, stall.iterations, False)
        stalled = True

    sigma_star = result.sigma
    _, psd_margin = canonical.in_positive_domain(pr, sigma_star)  # the one eigenvalue, for the report
    point = at(sigma_star)
    x_bar = Vector(point.x_bar())
    primal = canonical.primal_value(pr, x_bar)
    xi = point.complementary(x_bar.entries)
    gap = max(abs(primal - xi), abs(xi - result.value))
    certificate = classify_certificate(result.converged, stalled, psd_margin, gap, primal)
    return CriticalReport(
        sigma_star=sigma_star,
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
