"""Independent brute-force verification oracles.

Nothing here shares code with the dual pipeline it checks: grid scans and
multistart Newton refinement attack bivariate objectives directly, and
univariate global minimization isolates every real root of the derivative
exactly, by Sturm chains on integers.  Grid scans are evaluated in one
pass by ``kernels.eval_lattice``.  Single points go through
``MultiPoly.float_evaluator``, the one scalar float evaluator, which
``MultiPoly.eval`` calls.  Newton refinement holds three generated
functions, ``MultiPoly.newton_evaluators``, a cached property built once
per polynomial: the value, the rounding bound, and
``polynomial.joint_evaluator`` of the gradient and Hessian, which returns
a whole Newton step's data from one table of powers.  One refinement
iteration, for one or two variables, runs on float locals and builds no
list: the gradient, Hessian, direction and trial point are named floats,
combined in the order of float operations of sums over the coordinates.  Multistart ranks its starts with the value
function, so the value it reports is the one refinement saw.

Results are bit-reproducible: the pseudo-random stream is a fixed 64-bit
linear congruential generator

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

with the top 33 bits of each state mapped to [0, 1), and all reductions are
ordered by start index.  With M and I the multiplier and increment, the
k-th state after s_0 is

    s_k = M^k s_0 + I (1 + M + ... + M^(k-1)) mod 2^64

(F. B. Brown, "Random number generation with arbitrary strides", Trans.
Am. Nucl. Soc. 71, 1994), so ``Lcg.units`` makes any number of draws in
one numpy pass on uint64 arrays, which wrap modulo 2^64.  It is the only
draw path in the package: every seeded sample, here and in ``verify``,
comes from it, mostly through ``Lcg.uniform_rows``.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import DimensionMismatch, NotConverged
from .polynomial import MultiPoly

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1
_UNIT_SCALE = float(1 << 33)  # top 33 bits of the state -> [0, 1)
# Every operand of Lcg.units is uint64: under NumPy 2's promotion rules a
# Python int above 2^63 meeting a uint64 array may raise.
_MULTIPLIER_U64 = np.uint64(LCG_MULTIPLIER)
_INCREMENT_U64 = np.uint64(LCG_INCREMENT)
_ONE_U64 = np.uint64(1)
_UNIT_SHIFT_U64 = np.uint64(31)

_EPS = sys.float_info.epsilon
_SHIFT_FLOOR = 1e-8  # relative floor on the shifted Hessian's eigenvalues
_MIN_STEP = 2.0**-60
_DECREMENT = 4.0 * _EPS  # predicted decreases below 4 ulps of |p| are noise
_REFINE_TOL = 1e-10  # gradient norm at which multistart's refinements stop


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

    def units(self, count: int) -> np.ndarray:
        """The next count values of next_unit(), in one numpy pass, leaving
        the state where count calls of next_unit() leave it.

        The k-th state is M^k s_0 + c_k with c_k = I (1 + M + ... + M^(k-1)),
        the powers a running product and c_k a running sum, all mod 2^64."""
        powers = np.multiply.accumulate(np.full(count, _MULTIPLIER_U64))
        geometric = np.cumsum(powers) - powers + _ONE_U64  # 1 + M + ... + M^(k-1)
        states = powers * np.uint64(self.state) + geometric * _INCREMENT_U64
        if count:
            self.state = int(states[-1])
        return (states >> _UNIT_SHIFT_U64).astype(np.float64) / _UNIT_SCALE

    def uniform_rows(self, lower: Sequence[float], upper: Sequence[float], count: int) -> list[tuple[float, ...]]:
        """count rows of uniform(lower[j], upper[j]) over the columns j, drawn
        row by row as the loop over rows and columns would draw them, each
        entry lo + (hi - lo) * u by the same float operations."""
        return list(map(tuple, self.uniform_columns(lower, upper, count).T.tolist()))

    def uniform_columns(self, lower: Sequence[float], upper: Sequence[float], count: int) -> np.ndarray:
        """The draws of uniform_rows as a float64 array with one row per
        column j, shape (len(lower), count)."""
        lo, hi = np.array(lower, dtype=np.float64), np.array(upper, dtype=np.float64)
        units = self.units(count * len(lo)).reshape(count, len(lo))
        return (lo + (hi - lo) * units).T


@dataclass(frozen=True)
class Box:
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lower = tuple(float(x) for x in self.lower)
        upper = tuple(float(x) for x in self.upper)
        if len(lower) != len(upper):
            raise DimensionMismatch("box bounds have different lengths")
        if not all(map(math.isfinite, lower + upper)):
            raise ValueError(f"box bounds must be finite, got {lower} .. {upper}")
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


def _refine_counted(
    p: MultiPoly, start: Sequence[float], tol: float, max_iter: int, evaluators=None
) -> tuple[tuple[float, ...], float, int]:
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
    ``evaluators`` is ``p.newton_evaluators`` when not given.
    An iteration makes one call for the gradient and Hessian together, one
    value call per trial step, and evaluates the rounding bound only when
    backtracking first halves the step, the one place it is read.

    One iteration runs on float locals (point x0, x1, gradient g0, g1,
    Hessian h00, h01, h11, direction d0, d1, trial point t0, t1) and builds
    no list, in the same order of float operations as sums over the
    coordinates.  For n = 1 the second coordinate's x1, g1, h01 and d1 stay
    0.0 and h11 = h00, so those sums are the one coordinate's terms.  Only
    n <= 2 is handled; a larger arity needs a loop of its own.
    """
    one = p.arity == 1
    value_at, bound_at, derivatives_at = evaluators or p.newton_evaluators
    x0 = float(start[0])
    x1 = 0.0 if one else float(start[1])
    value = value_at((x0,) if one else (x0, x1))
    evals = 1
    g1 = h01 = d1 = 0.0
    for _ in range(max_iter):
        if one:
            g0, h00 = derivatives_at((x0,))
            h11 = h00
        else:
            g0, g1, h00, h01, h11 = derivatives_at((x0, x1))
        gnorm = math.sqrt(g0 * g0 + g1 * g1)
        if gnorm <= tol:
            return ((x0,) if one else (x0, x1)), value, evals
        mean, radius = 0.5 * (h00 + h11), math.hypot(0.5 * (h00 - h11), h01)
        lam_lo, lam_hi = mean - radius, mean + radius
        floor = _SHIFT_FLOOR * max(abs(lam_lo), abs(lam_hi), gnorm)
        tau = 0.0 if lam_lo > floor else max(floor, -lam_lo) - lam_lo
        if one:
            d0 = -g0 / (h00 + tau)
        else:
            a, c = h00 + tau, h11 + tau
            det = a * c - h01 * h01
            d0 = -(c * g0 - h01 * g1) / det
            d1 = -(a * g1 - h01 * g0) / det
        # A sum over the coordinates would start from 0; without it only the
        # sign of a zero slope can differ, which no comparison below sees.
        slope = g0 * d0 + g1 * d1
        if -0.5 * slope <= _DECREMENT * abs(value):
            return ((x0,) if one else (x0, x1)), value, evals
        noise = None
        step = 1.0
        while True:
            t0 = x0 + step * d0
            t1 = x1 + step * d1
            trial_value = value_at((t0,) if one else (t0, t1))
            evals += 1
            if trial_value <= value + 1e-4 * step * slope:
                x0, x1, value = t0, t1, trial_value
                break
            step *= 0.5
            if noise is None:  # only backtracking reads the rounding bound
                noise = _EPS * bound_at((abs(x0),) if one else (abs(x0), abs(x1)))
            if -step * slope <= noise:
                return ((x0,) if one else (x0, x1)), value, evals
            if step < _MIN_STEP:
                raise NotConverged(
                    f"line search stalled at {(x0,) if one else (x0, x1)} with |grad|={gnorm:.3e}",
                    evals,
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
    starts = Lcg(seed).uniform_rows(box.lower, box.upper, k_starts)

    best_x: tuple[float, ...] | None = None
    best_value = math.inf
    total_evals = 0
    failed = 0
    for start in starts:  # index order: deterministic reduction
        try:
            point, value, evals = _refine_counted(p, start, _REFINE_TOL, 500)
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


def _divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with |lead b|^k a = q b + r, deg r < deg b, highest power first."""
    scale, sign = abs(b[0]), (1 if b[0] > 0 else -1)
    q: list[int] = []
    while len(a) >= len(b):
        t = sign * a[0]
        q = [scale * c for c in q] + [t]
        a = [scale * x - t * y for x, y in itertools.zip_longest(a, b, fillvalue=0)][1:]
    return q, a


def _primitive(f: list[int]) -> list[int]:
    """f without leading zeros over the gcd of its coefficients; [] for 0."""
    f = f[next((i for i, c in enumerate(f) if c), len(f)):]
    content = math.gcd(*f)
    return [c // content for c in f] if content else []


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """f, f', then minus each remainder, scaled by positive factors (Basu,
    Pollack and Roy, ch. 2); the last member is gcd(f, f') up to a constant."""
    chain = [f, _primitive([c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])])]
    while chain[-1]:
        chain.append([-c for c in _primitive(_divide(chain[-2], chain[-1])[1])])
    return chain[:-1]


def _sign(f: list[int], num: int, shift: int) -> int:
    """The sign of f(num / 2^shift), by Horner's rule on integers."""
    acc = 0
    for k, c in enumerate(f):
        acc = acc * num + (c << (shift * k))
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], num: int, shift: int) -> int:
    signs = [s for s in (_sign(f, num, shift) for f in chain) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _refine(f: list[int], a: int, b: int, shift: int) -> float:
    """The float nearest the one root of the squarefree f in (a, b] / 2^shift:
    bisect on the sign of f until both ends round to one float."""
    sign_b = _sign(f, b, shift)
    while sign_b and a / (1 << shift) != b / (1 << shift):
        a, m, b, shift = 2 * a, a + b, 2 * b, shift + 1
        sign_m = _sign(f, m, shift)
        a, b = (a, m) if sign_m == sign_b else (m, b) if sign_m else (m, m)
    return b / (1 << shift)


def derivative_roots(p: MultiPoly, interval: tuple[float, float]) -> list[float]:
    """Every distinct real root of p' in [lo, hi], correctly rounded,
    ascending.  p' on integers, over gcd(p', p'') if that is not constant,
    is a squarefree f with the same roots.  The drop in the sign changes of
    its Sturm chain from a to b counts them in (a, b]: [lo, hi] is bisected
    at dyadic points until each part holds one, which _refine rounds."""
    if p.arity != 1:
        raise DimensionMismatch("derivative root isolation requires a univariate polynomial")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    dp = p.partial_derivative(0)
    if dp.is_zero():
        return []
    den = math.lcm(*(c.denominator for c in dp.terms.values()))
    chain = _sturm_chain(_primitive([int(dp.coefficient((e,)) * den) for e in range(dp.degree_in(0), -1, -1)]))
    if len(chain[-1]) > 1:
        chain = _sturm_chain(_primitive(_divide(chain[0], chain[-1])[0]))
    (a, da), (b, db) = lo.as_integer_ratio(), hi.as_integer_ratio()  # da, db powers of 2
    shift = max(da, db).bit_length() - 1
    a, b = a * ((1 << shift) // da), b * ((1 << shift) // db)
    roots = [lo] if _sign(chain[0], a, shift) == 0 else []
    parts = [(a, b, shift, _variations(chain, a, shift), _variations(chain, b, shift))]
    while parts:
        a, b, shift, va, vb = parts.pop()
        if va - vb == 1:
            roots.append(_refine(chain[0], a, b, shift))
        elif va > vb:
            a, m, b, shift = 2 * a, a + b, 2 * b, shift + 1
            vm = _variations(chain, m, shift)
            parts += [(a, m, shift, va, vm), (m, b, shift, vm, vb)]
    return sorted(set(roots))


def univariate_global(p: MultiPoly, interval: tuple[float, float]) -> OracleResult:
    """Global minimum of a univariate polynomial on [lo, hi]: the least value
    of p at lo, at hi and at the roots of p' there (derivative_roots)."""
    if p.arity != 1:
        raise DimensionMismatch("univariate minimization requires arity 1")
    lo, hi = float(interval[0]), float(interval[1])
    candidates = [lo, hi] + derivative_roots(p, (lo, hi))
    best_value, best_x = min((p.eval([x]), x) for x in candidates)
    return OracleResult(x_best=(best_x,), value=best_value, n_evaluations=len(candidates), refined=True)


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
