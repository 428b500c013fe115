"""Concave maximization over the interior of the PSD-feasible dual domain.

The engine is a damped Newton ascent on the caller's analytic gradient
and Hessian: step direction from solving -H d = grad through the Cholesky
factor of -H, with a steepest-ascent fallback when that factorisation
fails (H not negative definite), and a backtracking line search that
accepts a step only when the iterate keeps a strict feasibility margin
and satisfies the Armijo ascent condition.  Feasibility is a threshold
test: feasibility_fn(sigma, t) is True when sigma is feasible with margin
greater than t, for the canonical dual lambda_min(G(sigma)) > t decided by
a Cholesky factorisation of G - tI.

Accepted dual values increase, with one exception at the rounding level:
when a trial step's predicted gain step * slope is below the bound on the
dual value's rounding error (rounding_fn), the value can no longer tell
the trial from the iterate, and an interior trial is accepted when its
gradient norm is smaller than the iterate's and its value at most that
bound below the iterate's.  The bound is the dual's own (for the canonical
dual a few units of roundoff times |c| + |1/2 F^T x_bar|), because the value
alone cannot show the cancellation between those terms.  Every accepted
iterate is strictly interior.

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

ValueFn = Callable[[Sequence[float]], float]
GradFn = Callable[[Sequence[float]], Sequence[float]]
HessFn = Callable[[Sequence[float]], SymMatrix]
FeasFn = Callable[[Sequence[float], float], bool]
RoundingFn = Callable[[Sequence[float]], float]

_MIN_STEP = 1e-16

# Exceptions treated as "point outside the evaluable domain" by the start
# search, the line search and the finite-difference references.
_DOMAIN_ERRORS = (ColumnSpaceViolation, DomainViolation, SingularMatrixError)


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-10
    max_iter: int = 200
    interior_margin: float = 1e-9
    armijo_c: float = 1e-4
    backtrack_ratio: float = 0.5

    def __post_init__(self) -> None:
        for name in ("grad_tol", "max_iter", "interior_margin", "armijo_c"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.backtrack_ratio < 1.0:
            raise ValueError("backtrack_ratio must lie in (0, 1)")


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
    value_fn: ValueFn,
    feasibility_fn: FeasFn,
    m: int,
    delta: float = 1e-9,
    tau_max: float = 1e6,
) -> tuple[float, ...]:
    """First point on a deterministic ray grid with feasibility_fn(sigma,
    delta) True and a finite value.

    Candidates are the origin, then tau * u for geometrically growing tau
    over both signs of each coordinate direction and the all-ones direction.
    """
    directions = []
    for k in range(m):
        unit = [0.0] * m
        unit[k] = 1.0
        directions.append(tuple(unit))
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
        if feasibility_fn(sigma, delta):
            try:
                value = value_fn(sigma)
            except _DOMAIN_ERRORS:
                continue
            if math.isfinite(value):
                return sigma
    raise NoInteriorPoint(f"no strictly feasible point with margin > {delta} up to tau {tau_max}")


def _try_value(value_fn: ValueFn, sigma: Sequence[float]) -> float | None:
    try:
        value = value_fn(sigma)
    except _DOMAIN_ERRORS:
        return None
    return value if math.isfinite(value) else None


def _fd_gradient(value_fn: ValueFn, sigma: tuple[float, ...], fd_step: float) -> tuple[float, ...]:
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


def _fd_hessian(grad_of: GradFn, sigma: tuple[float, ...], fd_step: float) -> SymMatrix:
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


def _grad(gradient_fn: GradFn, sigma: tuple[float, ...]) -> tuple[tuple[float, ...], float]:
    grad = tuple(float(g) for g in gradient_fn(sigma))
    return grad, math.sqrt(sum(g * g for g in grad))


def maximize_concave(
    value_fn: ValueFn,
    gradient_fn: GradFn,
    hessian_fn: HessFn,
    feasibility_fn: FeasFn,
    start: Sequence[float],
    cfg: SolverConfig | None = None,
    rounding_fn: RoundingFn | None = None,
) -> AscentResult:
    """Damped Newton ascent from a strictly feasible start.

    feasibility_fn(sigma, t) is True when sigma is feasible with margin
    greater than t; every iterate has margin greater than
    cfg.interior_margin.  rounding_fn(sigma), when given, bounds the
    rounding error of value_fn(sigma): a trial step whose predicted gain is
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
    if not feasibility_fn(sigma, cfg.interior_margin):
        raise ValueError(f"start {sigma} does not have margin > interior margin {cfg.interior_margin:.3e}")

    value = value_fn(sigma)
    grad, grad_norm = _grad(gradient_fn, sigma)

    for iteration in range(cfg.max_iter):
        if grad_norm <= cfg.grad_tol:
            return AscentResult(sigma, value, grad_norm, iteration, True)

        neg_hess = hessian_fn(sigma).scale(-1.0)
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
        rounding = None  # value_fn's rounding bound at sigma, computed when first needed
        accepted = None
        while step >= _MIN_STEP:
            trial = tuple(s + step * d for s, d in zip(sigma, direction))
            trial_value = _try_value(value_fn, trial) if feasibility_fn(trial, cfg.interior_margin) else None
            if trial_value is not None:
                if trial_value >= value + cfg.armijo_c * step * slope:
                    accepted = (trial, trial_value, 0.0, None)
                    break
                if rounding_fn is not None:
                    if rounding is None:
                        rounding = rounding_fn(sigma)
                    if step * slope < rounding and trial_value >= value - rounding:
                        trial_grad = _grad(gradient_fn, trial)
                        if trial_grad[1] < grad_norm:
                            accepted = (trial, trial_value, rounding, trial_grad)
                            break
            step *= cfg.backtrack_ratio
        if accepted is None:
            raise LineSearchStalled(sigma, value, grad_norm, iteration)

        new_sigma, new_value, slack, new_grad = accepted
        assert new_value >= value - slack, (
            "accepted values increase, or fall by at most the value's rounding bound on a smaller gradient"
        )
        sigma, value = new_sigma, new_value
        grad, grad_norm = new_grad or _grad(gradient_fn, sigma)

    converged = grad_norm <= cfg.grad_tol
    return AscentResult(sigma, value, grad_norm, cfg.max_iter, converged)


def classify_certificate(
    converged: bool,
    stalled: bool,
    psd_margin: float,
    gap: float,
    primal: float,
    cfg: SolverConfig,
) -> Certificate:
    """Certificate triage of a dual ascent's end point.

    Certified requires gradient convergence, a strictly interior PSD margin,
    and a closed duality gap.  Terminations pressed against the feasibility
    boundary (stalled line search, or convergence with margin below the
    interior threshold) are boundary-critical and never certified.
    """
    gap_ok = gap <= 1e-8 * (1.0 + abs(primal))
    if converged and psd_margin >= cfg.interior_margin and gap_ok:
        return Certificate.GLOBAL_MINIMUM_CERTIFIED
    if (stalled or converged) and psd_margin < 2.0 * cfg.interior_margin:
        return Certificate.BOUNDARY_CRITICAL
    return Certificate.NOT_CONVERGED


def solve_canonical(pr: canonical.Problem, cfg: SolverConfig | None = None) -> CriticalReport:
    """Full dual pipeline: interior start, concave ascent with the exact
    dual gradient and Hessian, primal recovery, and certificate triage."""
    cfg = cfg or SolverConfig()
    value_fn = partial(canonical.dual_value, pr)
    feasibility_fn = partial(canonical.in_interior, pr)
    start = find_interior_start(value_fn, feasibility_fn, pr.m, cfg.interior_margin)
    stalled = False
    try:
        result = maximize_concave(
            value_fn,
            partial(canonical.dual_gradient, pr),
            partial(canonical.dual_hessian, pr),
            feasibility_fn,
            start,
            cfg,
            rounding_fn=partial(canonical.dual_rounding, pr),
        )
    except LineSearchStalled as stall:
        result = AscentResult(stall.sigma, stall.value, stall.grad_norm, stall.iterations, False)
        stalled = True

    sigma_star = result.sigma
    _, psd_margin = canonical.in_positive_domain(pr, sigma_star)  # the one eigenvalue, for the report
    x_bar = canonical.recover_primal(pr, sigma_star)
    primal = canonical.primal_value(pr, x_bar)
    xi = canonical.complementary_value(pr, x_bar, sigma_star)
    gap = max(abs(primal - xi), abs(xi - result.value))
    certificate = classify_certificate(result.converged, stalled, psd_margin, gap, primal, cfg)
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
