"""Independent brute-force verification oracles.

Nothing here shares code with the dual pipeline it checks: grid scans and
multistart Newton refinement attack bivariate objectives directly, and
univariate global minimization isolates every real root of the derivative
by sign-change bracketing.  Lattices (grid scans and the univariate node
scans) are evaluated in one pass by ``kernels.eval_lattice``.  Single
points go through ``MultiPoly.float_evaluator``, the one scalar float
evaluator, which ``MultiPoly.eval`` calls.  Newton refinement holds three
generated functions, built once per polynomial and cached on it: the
value, the rounding bound, and ``polynomial.joint_evaluator`` of the
gradient and Hessian, which returns a whole Newton step's data from one
table of powers.  Multistart ranks its starts with the value function, so
the value it reports is the one refinement saw.

Results are bit-reproducible: the pseudo-random stream is a fixed 64-bit
linear congruential generator

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

with the top 33 bits of each state mapped to [0, 1), and all reductions are
ordered by start index.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import DimensionMismatch, NotConverged, RootIsolationFailure
from .polynomial import MultiPoly, joint_evaluator

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1
_UNIT_SCALE = float(1 << 33)  # top 33 bits of the state -> [0, 1)

_EPS = sys.float_info.epsilon
_SHIFT_FLOOR = 1e-8  # relative floor on the shifted Hessian's eigenvalues
_MIN_STEP = 2.0**-60
_DECREMENT_ULPS = 4.0  # predicted decreases below this many ulps of |p| are noise


class Lcg:
    """The package-wide deterministic pseudo-random stream."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) & _MASK64
        return self.state

    def next_unit(self) -> float:
        """Uniform float in [0, 1) from the top 33 bits of the state."""
        return (self.next_u64() >> 31) / _UNIT_SCALE

    def uniform(self, lo: float, hi: float) -> float:
        """lo + (hi - lo) * next_unit(), advancing the state in place."""
        self.state = state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) & _MASK64
        return lo + (hi - lo) * ((state >> 31) / _UNIT_SCALE)


@dataclass(frozen=True)
class Box:
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lower = tuple(float(x) for x in self.lower)
        upper = tuple(float(x) for x in self.upper)
        if len(lower) != len(upper):
            raise DimensionMismatch("box bounds have different lengths")
        if any(lo >= hi for lo, hi in zip(lower, upper)):
            raise ValueError("box must satisfy lower < upper componentwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class OracleResult:
    x_best: tuple[float, ...]
    value: float
    n_evaluations: int
    refined: bool
    failed_starts: int = 0


def lattice_axes(box: Box, n_per_axis: int) -> list[np.ndarray]:
    """Node coordinates of the lattice on box, endpoints included, one
    array per axis.  ``kernels.eval_lattice`` orders the nodes row-major,
    first axis slowest, which is lexicographic in the node coordinates."""
    return [np.linspace(lo, hi, n_per_axis) for lo, hi in zip(box.lower, box.upper)]


def grid_scan(p: MultiPoly, box: Box, n_per_axis: int) -> OracleResult:
    """Exhaustive lattice evaluation; ties resolve to the lexicographically
    smallest node because argmin takes the first minimum in lattice order."""
    if p.arity != box.dim:
        raise DimensionMismatch(f"polynomial arity {p.arity} vs box dim {box.dim}")
    if p.arity > 2:
        raise DimensionMismatch("grid scan supports at most 2 variables")
    if n_per_axis < 2:
        raise ValueError("need at least 2 nodes per axis")
    axes = lattice_axes(box, n_per_axis)
    values = kernels.eval_lattice(*p.as_arrays(), axes)
    best = int(np.argmin(values))
    node = np.unravel_index(best, [n_per_axis] * p.arity)
    return OracleResult(
        x_best=tuple(float(axis[i]) for axis, i in zip(axes, node)),
        value=float(values[best]),
        n_evaluations=len(values),
        refined=False,
    )


def _newton_evaluators(p: MultiPoly):
    """Single-point evaluators of p, of its rounding-bound polynomial
    sum_t |c_t| x^e_t (called at |x|), and of its Newton-step data: one
    generated function returning the gradient and the upper triangle of the
    Hessian, row by row, from one table of powers.  Built once per
    polynomial and cached on it, like ``MultiPoly.float_evaluator``."""
    cached = getattr(p, "_newton_cache", None)
    if cached is None:
        grads = p.gradient()
        hessian = [grads[i].partial_derivative(j) for i in range(p.arity) for j in range(i, p.arity)]
        magnitude = MultiPoly(p.arity, {exps: abs(coeff) for exps, coeff in p.terms.items()})
        cached = (p.float_evaluator(), magnitude.float_evaluator(), joint_evaluator([*grads, *hessian]))
        object.__setattr__(p, "_newton_cache", cached)
    return cached


def _refine_counted(
    p: MultiPoly, start: Sequence[float], tol: float, max_iter: int, evaluators=None
) -> tuple[tuple[float, ...], int]:
    """Modified Newton descent with exact polynomial derivatives.

    Each step solves (H + tau I) d = -grad with the smallest shift tau >= 0
    that lifts the lowest Hessian eigenvalue to max(|lambda_min|, floor),
    floor = 1e-8 * max(|lambda|, |grad|) (Nocedal & Wright, Numerical
    Optimization, section 3.4).  Where p is convex (lambda_min > floor)
    this is the plain Newton step; elsewhere it is still a descent
    direction whose length follows the curvature, so walls and saddles are
    left in a few steps.  Armijo backtracking starts at the full step.

    Near a minimum the gradient stalls at its rounding level (|grad| of
    1e-9 to 1e-8 on Goldstein-Price) and the value stops resolving
    progress, so besides the absolute test the refinement stops at a
    critical point to working precision.  It returns when

      * |grad| <= tol, or
      * the step's predicted decrease -grad.d / 2 (for a Newton step, half
        the squared Newton decrement) is below 4 ulps of |p(x)|, or
      * backtracking shrinks the predicted decrease step * |grad.d| below
        the rounding bound eps * sum_t |c_t x^e_t| of the value at x
        without an Armijo acceptance.

    Every accepted step lowers the value, so the returned point is never
    worse than the start.  Raises NotConverged, carrying the evaluation
    count, when ``max_iter`` iterations do not suffice or the step length
    underflows.  Returns (point, p at point, number of objective
    evaluations); the value is the one the last accepted step computed.
    ``evaluators`` is ``_newton_evaluators(p)``, built here when not given.
    An iteration makes one call for the gradient and Hessian together, one
    value call per trial step, and evaluates the rounding bound only when
    backtracking first halves the step, the one place it is read.
    """
    n = p.arity
    value_at, bound_at, derivatives_at = evaluators or _newton_evaluators(p)
    x = [float(c) for c in start]
    value = value_at(x)
    evals = 1
    for _ in range(max_iter):
        if n == 1:
            g0, h00 = derivatives_at(x)
            g, h01, h11 = [g0], 0.0, h00
        else:
            g0, g1, h00, h01, h11 = derivatives_at(x)
            g = [g0, g1]
        gnorm = math.sqrt(sum(gi * gi for gi in g))
        if gnorm <= tol:
            return tuple(x), value, evals
        mean, radius = 0.5 * (h00 + h11), math.hypot(0.5 * (h00 - h11), h01)
        lam_lo, lam_hi = mean - radius, mean + radius
        floor = _SHIFT_FLOOR * max(abs(lam_lo), abs(lam_hi), gnorm)
        tau = 0.0 if lam_lo > floor else max(floor, -lam_lo) - lam_lo
        if n == 1:
            direction = [-g[0] / (h00 + tau)]
        else:
            a, c = h00 + tau, h11 + tau
            det = a * c - h01 * h01
            direction = [-(c * g[0] - h01 * g[1]) / det, -(a * g[1] - h01 * g[0]) / det]
        slope = sum(gi * di for gi, di in zip(g, direction))
        if -0.5 * slope <= _DECREMENT_ULPS * _EPS * abs(value):
            return tuple(x), value, evals
        noise = None
        step = 1.0
        while True:
            trial = [xi + step * di for xi, di in zip(x, direction)]
            trial_value = value_at(trial)
            evals += 1
            if trial_value <= value + 1e-4 * step * slope:
                x, value = trial, trial_value
                break
            step *= 0.5
            if noise is None:  # only backtracking reads the rounding bound
                noise = _EPS * bound_at([abs(xi) for xi in x])
            if -step * slope <= noise:
                return tuple(x), value, evals
            if step < _MIN_STEP:
                raise NotConverged(
                    f"line search stalled at {tuple(x)} with |grad|={gnorm:.3e}", evals
                )
    raise NotConverged(f"no convergence within {max_iter} iterations from {tuple(start)}", evals)


def local_refine(
    p: MultiPoly, start: Sequence[float], tol: float = 1e-10, max_iter: int = 500
) -> tuple[float, ...]:
    """Polish a starting point to a critical point of p (see _refine_counted)."""
    if p.arity > 2:
        raise DimensionMismatch("local refinement supports at most 2 variables")
    return _refine_counted(p, start, tol, max_iter)[0]


def multistart(
    p: MultiPoly,
    box: Box,
    k_starts: int,
    seed: int,
    tol: float = 1e-10,
) -> OracleResult:
    """Refine k seeded starts and keep the best by start index.

    A start whose refinement raises NotConverged is left out of the minimum
    but not out of the account: it is counted in ``failed_starts`` and its
    evaluations in ``n_evaluations``.  Raises ValueError when k_starts < 1.
    """
    if p.arity != box.dim or p.arity > 2:
        raise DimensionMismatch("multistart supports at most 2 variables matching the box")
    if k_starts < 1:
        raise ValueError(f"need at least 1 start, got {k_starts}")
    rng = Lcg(seed)
    starts = [
        tuple(rng.uniform(lo, hi) for lo, hi in zip(box.lower, box.upper))
        for _ in range(k_starts)
    ]

    evaluators = _newton_evaluators(p)  # generated once, shared by every start
    best_x: tuple[float, ...] | None = None
    best_value = math.inf
    total_evals = 0
    failed = 0
    for start in starts:  # index order: deterministic reduction
        try:
            point, value, evals = _refine_counted(p, start, tol, 500, evaluators)
        except NotConverged as failure:
            failed += 1
            total_evals += failure.evaluations
            continue
        total_evals += evals
        if value < best_value:
            best_value, best_x = value, point
    if best_x is None:
        raise NotConverged("every start failed to refine", total_evals)
    return OracleResult(
        x_best=best_x,
        value=best_value,
        n_evaluations=total_evals,
        refined=True,
        failed_starts=failed,
    )


def derivative_roots(p: MultiPoly, interval: tuple[float, float], n_scan: int = 10_000) -> list[float]:
    """All real roots of p' in [lo, hi] via sign-change scan, bisection to
    width 1e-13, and Newton polish.  Ascending, deduplicated."""
    if p.arity != 1:
        raise DimensionMismatch("derivative root isolation requires a univariate polynomial")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    dp = p.partial_derivative(0)
    if dp.is_zero():
        return []
    d2p = dp.partial_derivative(0)

    xs = np.linspace(lo, hi, n_scan + 1)
    dvals = kernels.eval_lattice(*dp.as_arrays(), [xs])

    zero = dvals == 0.0
    negative = np.signbit(dvals)
    roots: list[float] = [float(x) for x in xs[zero]]
    brackets = np.flatnonzero(~zero[:-1] & ~zero[1:] & (negative[:-1] != negative[1:]))
    for i in brackets:
        a, b = float(xs[i]), float(xs[i + 1])
        fa = float(dvals[i])
        while b - a > 1e-13:
            mid = 0.5 * (a + b)
            fm = dp.eval([mid])
            if fm == 0.0:
                a = b = mid
                break
            if (fm < 0) == (fa < 0):
                a, fa = mid, fm
            else:
                b = mid
        root = 0.5 * (a + b)
        for _ in range(4):  # Newton polish inside the bracket
            slope = d2p.eval([root])
            if slope == 0.0:
                break
            candidate = root - dp.eval([root]) / slope
            if not (a - 1e-10 <= candidate <= b + 1e-10):
                break
            root = candidate
        roots.append(root)

    roots.sort()
    merged: list[float] = []
    gap = 1e-10 * max(1.0, hi - lo)
    for r in roots:
        if not merged or r - merged[-1] > gap:
            merged.append(r)
    return merged


def univariate_global(
    p: MultiPoly, interval: tuple[float, float], n_scan: int = 10_000
) -> OracleResult:
    """Global minimum of a univariate polynomial on [lo, hi].

    Evaluates p at every isolated critical point and both endpoints.  As a
    defensive guard, the scan-node minimum of p must not undercut the
    returned minimum: local minima always put a sign change of p' between
    nodes, so an undercut means a bracket was missed.  The scan is then
    refined once at 10x resolution before RootIsolationFailure is raised.
    """
    if p.arity != 1:
        raise DimensionMismatch("univariate minimization requires arity 1")
    lo, hi = float(interval[0]), float(interval[1])

    def attempt(resolution: int) -> tuple[OracleResult, float]:
        roots = derivative_roots(p, (lo, hi), resolution)
        candidates = [lo, hi] + roots
        values = [p.eval([x]) for x in candidates]
        best_value, best_x = min(zip(values, candidates))
        xs = np.linspace(lo, hi, resolution + 1)
        node_min = float(np.min(kernels.eval_lattice(*p.as_arrays(), [xs])))
        result = OracleResult(
            x_best=(best_x,),
            value=best_value,
            n_evaluations=2 * (resolution + 1) + len(candidates),
            refined=True,
        )
        return result, node_min

    result, node_min = attempt(n_scan)
    if node_min < result.value - 1e-9 * (1.0 + abs(result.value)):
        result, node_min = attempt(10 * n_scan)
        if node_min < result.value - 1e-9 * (1.0 + abs(result.value)):
            raise RootIsolationFailure(
                f"lattice value {node_min} undercuts isolated minimum {result.value}"
            )
    return result


def cauchy_root_bound(p: MultiPoly) -> float:
    """Upper bound on |roots| of a univariate polynomial: 1 + max |a_i / a_lead|."""
    if p.arity != 1:
        raise DimensionMismatch("root bound requires arity 1")
    degree = p.total_degree()
    lead = p.coefficient((degree,))
    if degree == 0 or lead == 0:
        return 1.0
    biggest = max(
        (abs(coeff / lead) for exps, coeff in p.terms.items() if exps[0] != degree),
        default=0,
    )
    return 1.0 + float(biggest)
