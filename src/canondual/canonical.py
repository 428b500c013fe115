"""Canonical duality framework with one dual representation.

Every dual is a DualTable: G(sigma), F(sigma) and c(sigma) as polynomials
in sigma with matrix coefficients, one DualTerm (G_a, F_a, c_a) per
monomial sigma^a.  The complementary function Xi(x, sigma) =
1/2 x^T G x - x^T F + c is quadratic in x; eliminating x through
x_bar = G^{-1} F gives the dual P^d(sigma) = -1/2 F^T x_bar + c, and with
G_k, F_k, c_k the sigma_k-derivatives of G, F, c and u_k = G_k x_bar - F_k,

    dP^d/dsigma_k = 1/2 x_bar^T G_k x_bar - x_bar^T F_k + c_k,
    d2P^d/dsigma_k dsigma_l = 1/2 x_bar^T G_kl x_bar - x_bar^T F_kl + c_kl - u_k^T G^{-1} u_l.

A CanonicalProblem, min P(x) = V(Lambda(x)) - U(x) with U(x) = -1/2 x^T A x
+ x^T f, measures Lambda_k(x) = 1/2 x^T C_k x + x^T b_k + c_k and a convex
V(xi) = sum_k a_k xi_k^2 + beta_k xi_k, has its table on 1, sigma_k and
sigma_k^2: G = A + sum_k sigma_k C_k, F = f - sum_k sigma_k b_k and
c = sum_k sigma_k c_k - V*(sigma), V*(sigma) = sum_k (sigma_k - beta_k)^2 / (4 a_k).
A staging given as data, one Stage per level, whose G is not affine in
sigma (Three Hump Camel) is a TableProblem: the table staged reads off its
last level, and its exact objective.

The problem types hold the exact rationals they are built from (ints,
"p/q" strings and floats convert exactly, through polynomial.rat), and
each derives its float view once, at construction: QuadOperator.C_rows,
CanonicalProblem.A_rows, ConvexQuadV.pairs_float, and DualTable's
accumulators, bound to the table's float coefficients.  Every float
evaluation reads these views; only primal_polynomial reads the rationals.
Matrices are given by their upper triangle, row-major.

Each slot of a table's [upper triangle of G, F, c] is a polynomial in
sigma, one term per DualTerm, and so are its first and second
sigma-derivatives.  A table's accumulators evaluate them: each is one
function of polynomial's straight-line generator, given the slots'
terms, compiled once per shape and process and bound to the table's
coefficients.  GP's and THC's tables compile once, and every canonical
problem of one (n, m) shares one compiled set, whatever its coefficients
and zeros (terms of degree 0 and 1 carry every slot).  What a dual point
computes from its slots, x_bar and the factor of G, its value, rounding
bound, Xi, gradient, exact Hessian and the ascent's Newton direction, is
straight-line code as well, generated once per shape (n, m)
(_point_source) with every dot product a plain left-to-right sum, and
bound to the table beside the accumulators and smallmat.kernels(n).

With G affine, P^d is concave wherever G(sigma) is positive semidefinite
(THC's staged dual is too; verify thc samples it); a dual critical point
where G is positive definite recovers the primal global minimizer x_bar
with a zero duality gap P(x_bar) = Xi(x_bar, sigma) = P^d(sigma).  That
open region is the only place the program evaluates P^d and its
derivatives: at any other sigma they raise DomainViolation.  The
boundary, where G is singular, gets no solve (only its margin,
in_positive_domain, is reported).

Many sigma, given as columns, one float64 array per component, are
evaluated at once: the accumulators, which only multiply and add, take the
columns as their point, smallmat's column kernels, compiled from the
source of the kernels DualPoint solves with, take the slots, and the
value and gradient are the same generated functions DualPoint calls, so
every entry has the bits of DualPoint at its sigma.  dual_columns and
dual_gradient_columns return P^d with x_bar, and the gradient, with the
mask of the samples where DualPoint raises nothing; dual_samples raises
DualPoint's error at the first sample that has one.  domain_exceeds is the
threshold test on columns.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from itertools import repeat
from fractions import Fraction
from operator import add, mul
from math import isfinite, lcm, sqrt
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ColumnSpaceViolation, DimensionMismatch, DomainViolation, IdentityViolation
from .polynomial import MAX_ARITY, Compiled, Exponents, MultiPoly, RationalLike, _bind, _shape_code, rat
# solve_sym is not called here.  It stays bound because perfbench's tracer
# wraps it in every namespace that holds it, and the benchmark's tests and
# tests/test_benchmark_coupling.py check that canonical.solve_sym exists.
from .smallmat import (
    MAX_DIM,
    Kernels,
    SymMatrix,
    Vector,
    _plain_sum,
    _sum_of,
    _triu_index,
    column_kernels,
    eigen_sym,
    kernels,
    solve_sym,  # noqa: F401
)

# DualPoint.rounding's multiple of the unit roundoff.
_ROUNDING_ULPS = 4
# in_positive_domain accepts margin >= -PSD_TOL.
PSD_TOL = 1e-9


def _exact(values: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(map(rat, values))


def _floats(values: Sequence[Fraction]) -> tuple[float, ...]:
    """The float view of exact values: numerator / denominator, which is
    what float() of a Fraction computes, without its generic dispatch."""
    return tuple([x.numerator / x.denominator for x in values])


@dataclass(frozen=True)
class QuadOperator:
    """One quadratic measure: Lambda(x) = 1/2 x^T C x + x^T b + c, C given by
    its upper triangle in row-major order.  The coefficients are exact
    (polynomial.rat); C_rows, b_float and c_float are their float view."""

    C: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    c: Fraction = Fraction(0)
    C_rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    b_float: tuple[float, ...] = field(init=False, repr=False, compare=False)
    c_float: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        C, b, c = _exact(self.C), _exact(self.b), rat(self.c)
        for name, value in (("C", C), ("b", b), ("c", c), ("C_rows", SymMatrix(len(b), _floats(C)).rows),
                            ("b_float", _floats(b)), ("c_float", _floats((c,))[0])):
            object.__setattr__(self, name, value)

    def value(self, x: Sequence[float]) -> float:
        """Lambda(x) on the float view: C x summed row by row, then
        0.5 * x^T (C x) + b^T x + c, each dot product a plain left-to-right
        sum (smallmat._plain_sum), written out."""
        cx = [reduce(add, map(mul, row, x), 0.0) for row in self.C_rows]
        return 0.5 * reduce(add, map(mul, cx, x), 0.0) + reduce(add, map(mul, self.b_float, x), 0.0) + self.c_float


@dataclass(frozen=True)
class ConvexQuadV:
    """Diagonal convex quadratic V(xi) = sum_k a_k xi_k^2 + beta_k xi_k, a_k > 0,
    given by its exact (a_k, beta_k) pairs; pairs_float is their float view.

    Strict convexity makes the gradient map invertible, so the Legendre
    conjugate V*(sigma) = sum_k (sigma_k - beta_k)^2 / (4 a_k) is globally
    defined in closed form.
    """

    pairs: tuple[tuple[Fraction, Fraction], ...]
    pairs_float: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pairs = tuple((rat(a), rat(beta)) for a, beta in self.pairs)
        if not pairs:
            raise DimensionMismatch("V needs at least one component")
        pairs_float = tuple(map(_floats, pairs))
        for k, (a, _) in enumerate(pairs_float):
            if a <= 0:
                raise ValueError(f"a[{k}] must be > 0 for strict convexity, got {a}")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "pairs_float", pairs_float)

    @property
    def m(self) -> int:
        return len(self.pairs)

    def value(self, xi: Sequence[float]) -> float:
        if len(xi) != self.m:
            raise DimensionMismatch(f"xi has length {len(xi)}, expected {self.m}")
        return _plain_sum(a * x * x + beta * x for (a, beta), x in zip(self.pairs_float, xi))


@dataclass(frozen=True)
class DualTerm:
    """The coefficients of the monomial sigma^exps in G(sigma) (its upper
    triangle, row-major), F(sigma) and c(sigma): exact rationals or floats,
    which DualTable reads through float()."""

    exps: tuple[int, ...]
    G: tuple[RationalLike, ...]
    F: tuple[RationalLike, ...]
    c: RationalLike


Accumulator = Callable[[tuple[float, ...]], tuple[float, ...]]  # sigma -> (upper triangle of G, F, c)
# For accumulate, each accumulate_grad[k] and each accumulate_hess[j] in
# turn, the compiled code of its slots' polynomials (polynomial._shape_code)
# and, for each coefficient that code takes, in its order, the (index into
# the table's flat coefficients, multiplier) it is made from.
Layout = tuple[tuple[Compiled, tuple[tuple[int, int], ...]], ...]


@cache
def _layout(n: int, m: int, exps: tuple[tuple[int, ...], ...], carried: tuple[tuple[int, ...] | None, ...]
            ) -> Layout:
    """The layout of one table shape, n, m, each term's exponents and the
    slots each term carries (None: every slot), made once per shape and
    process.  For each derivative order, (), each (k,) and each (k, l) with
    k <= l, a term sigma^a becomes e sigma^(a - e_k - ...), e the product of
    the exponents it takes down, and each slot's polynomial holds those
    derived terms, in the table's term order, whose term carries the slot.
    Their exponents are the shape compiled; each coefficient is e times the
    term's coefficient in that slot."""
    if len(set(exps)) != len(exps):
        raise DimensionMismatch("a dual table needs one term per monomial")
    width = n * (n + 3) // 2 + 1
    orders = [(), *((k,) for k in range(m)), *((k, l) for k in range(m) for l in range(k, m))]
    layout = []
    for order in orders:
        derived = []
        for i, a in enumerate(exps):
            d, e = list(a), 1
            for k in order:
                e *= d[k]
                d[k] -= 1
            if e:
                derived.append((i, tuple(d), e))
        shape, sources = [], []
        for slot in range(width):
            terms = [(i, d, e) for i, d, e in derived if carried[i] is None or slot in carried[i]]
            shape.append(tuple(d for _, d, _ in terms))
            sources += [(i * width + slot, e) for i, _, e in terms]
        layout.append((_shape_code(m, tuple(shape)), tuple(sources)))
    return tuple(layout)


class PointCode(NamedTuple):
    """The straight-line functions of one table shape (n, m), from a dual
    point's accumulated slots, x_bar and G's factor (_point_source)."""

    value: Callable[..., float]
    rounding: Callable[..., float]
    xi: Callable[..., float]
    gradient: Callable[..., tuple[float, ...]]
    norm: Callable[[Sequence[float]], float]
    hessian: Callable[..., tuple[float, ...]]
    newton: Callable[..., tuple[tuple[float, ...], float]]


def _point_source(n: int, m: int) -> str:
    """The dual point functions of shape (n, m) as straight-line code.  An
    accumulation's slots, the upper triangle of G (row-major), F and c, are
    unpacked into locals, p0, p1, ... for [G, F, c] and q{k}_0, q{k}_1, ...
    for its sigma_k-derivative.  Every dot product is the left fold
    0.0 + t0 + t1 + ... (smallmat._sum_of), the float operations of Python
    3.11's sum() over the same terms, and G x is summed row by row.

      * value(acc, x) = -1/2 F^T x + c and rounding(acc, x), a few units of
        roundoff times |c| + |1/2 F^T x|;
      * xi(acc, x) = 1/2 x^T G x - x^T F + c;
      * gradient(first, x): xi of each sigma_k-derivative's slots at x;
      * norm(g) = ||g||;
      * hessian(sigma, x, first, second, factor, acc): the upper triangle
        of xi(second[j](sigma), x) - u_k^T G^-1 u_l, (k, l) the j-th pair
        k <= l in row-major order and u_k = G_k x - F_k, each G^-1 u_l by
        kernels(n).solve through the factor of G, whose slots are acc, at
        residual tolerance 1e-6;
      * newton(sigma, x, first, second, factor, acc, g): (d, g^T d) for the
        d solving -H d = g through kernels(m) at residual tolerance 1e-6,
        H = hessian(...), where the Hessian and that solve raise no
        DomainViolation or ColumnSpaceViolation and g^T d > 0; otherwise
        (g, g^T g), steepest ascent.

    value, rounding, xi and gradient only multiply and add, so they take
    float64 columns as they take floats.  The gradient and the Hessian call
    xi rather than repeat it, which halves the compile time of the source
    at n = 4."""
    tri = n * (n + 1) // 2
    width = tri + n + 1
    xs = [f"x{i}" for i in range(n)]

    def names(prefix: str, count: int) -> str:
        return "(" + "".join(f"{prefix}{i}, " for i in range(count)) + ")"

    def dot(left: Sequence[str], right: Sequence[str]) -> str:
        return _sum_of([f"{a} * {b}" for a, b in zip(left, right)])

    def rows(p: str) -> list[str]:
        """G x, summed row by row, for the slots named p0, p1, ..."""
        return [dot([f"{p}{_triu_index(n, i, j)}" for j in range(n)], xs) for i in range(n)]

    pairs = [(k, l) for k in range(m) for l in range(k, m)]
    gs, ds = [f"g{k}" for k in range(m)], [f"d{k}" for k in range(m)]
    unpack_acc, unpack_x = f"    {names('p', width)} = acc", f"    {names('x', n)} = x"
    half_fx = f"0.5 * {dot([f'p{tri + i}' for i in range(n)], xs)}"
    lines = [
        "def value(acc, x):", unpack_acc, unpack_x, f"    return -{half_fx} + p{width - 1}",
        "def rounding(acc, x):", unpack_acc, unpack_x,
        f"    return {_ROUNDING_ULPS * sys.float_info.epsilon!r} * (abs(p{width - 1}) + abs({half_fx}))",
        "def xi(acc, x):", unpack_acc, unpack_x,
        f"    return 0.5 * {dot(rows('p'), xs)} - {dot([f'p{tri + i}' for i in range(n)], xs)} + p{width - 1}",
        "def gradient(first, x):", f"    {names('q', m)} = first",
        f"    return ({''.join(f'xi(q{k}, x), ' for k in range(m))})",
        "def norm(g):", f"    {names('g', m)} = g", f"    return sqrt{dot(gs, gs)}",
        "def hessian(sigma, x, first, second, factor, acc):", unpack_x,
        f"    {', '.join(names(f'q{k}_', width) for k in range(m))}, = first",
    ]
    for k in range(m):
        lines += [f"    u{k}_{i} = {row} - q{k}_{tri + i}" for i, row in enumerate(rows(f"q{k}_"))]
    for l in range(m):
        lines.append(f"    {names(f'w{l}_', n)} = solve(factor, acc, {names(f'u{l}_', n)}, 1e-6)")
    for j, (k, l) in enumerate(pairs):
        us, ws = [f"u{k}_{i}" for i in range(n)], [f"w{l}_{i}" for i in range(n)]
        lines.append(f"    h{j} = xi(second[{j}](sigma), x) - {dot(us, ws)}")
    lines += [
        f"    return {names('h', len(pairs))}",
        "def newton(sigma, x, first, second, factor, acc, g):", f"    {names('g', m)} = g",
        "    try:",
        f"        {names('h', len(pairs))} = hessian(sigma, x, first, second, factor, acc)",
        f"        upper = ({''.join(f'-1.0 * h{j}, ' for j in range(len(pairs)))})",
        f"        {names('d', m)} = newton_solve(newton_factor(upper, 0.0), upper, g, 1e-6)",
        "    except (ColumnSpaceViolation, DomainViolation):",
        f"        return g, {dot(gs, gs)}",
        f"    slope = {dot(gs, ds)}",
        "    if slope > 0.0:",
        f"        return {names('d', m)}, slope",
        f"    return g, {dot(gs, gs)}",
    ]
    return "\n".join(lines)


@cache
def _point_code(n: int, m: int) -> PointCode:
    """The dual point functions of shape (n, m) (_point_source), compiled
    once per shape and process."""
    namespace = {"sqrt": sqrt, "solve": kernels(n).solve, "newton_factor": kernels(m).factor,
                 "newton_solve": kernels(m).solve, "ColumnSpaceViolation": ColumnSpaceViolation,
                 "DomainViolation": DomainViolation}
    exec(compile(_point_source(n, m), f"<canonical dual point n={n} m={m}>", "exec"), namespace)
    return PointCode(*(namespace[name] for name in PointCode._fields))


@dataclass(frozen=True)
class DualTable:
    """G, F and c as polynomials in sigma, one DualTerm per monomial.

    Each slot of [upper triangle of G, F, c] is a polynomial in sigma, one
    term per DualTerm, and so is each of its first and second
    sigma-derivatives.  accumulate(sigma) evaluates the slots,
    accumulate_grad[k] their sigma_k-derivatives and accumulate_hess[j]
    their second derivatives over the upper triangle of (k, l) in row-major
    order, each one joint evaluator of polynomial's generator, compiled
    once per shape and process (_layout): the terms in the table's order,
    each derivative's coefficient the float e * c.  A term of degree 0 or 1
    carries every slot, zeros included, and any other term its nonzero
    slots, so a canonical table's shape is fixed by (n, m).  The zeros leave
    every sum as without them: at finite sigma the monomials 1 and sigma_k,
    and their derivatives, are finite, their product with 0.0 is +-0.0, and
    adding +-0.0 to a sum that starts at +0.0 changes nothing.  A monomial
    of higher degree may overflow to inf at a large finite sigma, where
    inf * 0.0 would be NaN.  A coefficient -0.0 is read as +0.0, as a sum
    that starts at 0.0 reads it: the generator writes a constant term that
    leads a sum, or is all of it, without that 0.0.

    kernels is smallmat.kernels(n), the factor and solve of G, and point the
    dual point functions of the shape (n, m) (_point_source), which read the
    accumulators' slots: both are bound once, at construction.
    """

    n: int
    m: int
    terms: tuple[DualTerm, ...]
    accumulate: Accumulator = field(init=False, repr=False, compare=False)
    accumulate_grad: tuple[Accumulator, ...] = field(init=False, repr=False, compare=False)
    accumulate_hess: tuple[Accumulator, ...] = field(init=False, repr=False, compare=False)
    kernels: Kernels = field(init=False, repr=False, compare=False)
    point: PointCode = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, m = self.n, self.m
        if not (1 <= n <= MAX_DIM and 1 <= m <= MAX_ARITY):
            raise DimensionMismatch(f"a dual table needs 1 <= n <= {MAX_DIM} and 1 <= m <= {MAX_ARITY}, "
                                    f"got n={n}, m={m}")
        shape = (m, n * (n + 1) // 2, n)
        flat: list[float] = []
        exps, carried = [], []
        for t in self.terms:
            if (len(t.exps), len(t.G), len(t.F)) != shape:
                raise DimensionMismatch(f"term {t.exps} does not fit n={n}, m={m}")
            values = [float(v) + 0.0 for v in (*t.G, *t.F, t.c)]  # + 0.0 reads -0.0 as +0.0
            flat += values
            exps.append(tuple(t.exps))
            carried.append(None if sum(t.exps) <= 1 else tuple([s for s, v in enumerate(values) if v]))
        accumulate, *derivatives = [_bind(compiled, [e * flat[j] for j, e in sources])
                                    for compiled, sources in _layout(n, m, tuple(exps), tuple(carried))]
        object.__setattr__(self, "accumulate", accumulate)
        object.__setattr__(self, "accumulate_grad", tuple(derivatives[:m]))
        object.__setattr__(self, "accumulate_hess", tuple(derivatives[m:]))
        object.__setattr__(self, "kernels", kernels(n))
        object.__setattr__(self, "point", _point_code(n, m))


@dataclass(frozen=True)
class CanonicalProblem:
    """min P(x) = V(Lambda(x)) - U(x), U(x) = -1/2 x^T A x + x^T f, with A
    given by its upper triangle in row-major order.  A and f are exact
    (polynomial.rat); A_rows and f_float are their float view."""

    n: int
    A: tuple[Fraction, ...]
    f: tuple[Fraction, ...]
    ops: tuple[QuadOperator, ...]
    V: ConvexQuadV
    A_rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    f_float: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        A, f = _exact(self.A), _exact(self.f)
        A_rows = SymMatrix(self.n, _floats(A)).rows
        if len(f) != self.n:
            raise DimensionMismatch(f"f has length {len(f)}, expected n={self.n}")
        if not self.ops:
            raise DimensionMismatch("need at least one quadratic operator")
        for k, op in enumerate(self.ops):
            if len(op.b) != self.n:
                raise DimensionMismatch(f"operator {k} has size {len(op.b)}, expected {self.n}")
        if self.V.m != len(self.ops):
            raise DimensionMismatch(
                f"V has {self.V.m} components but there are {len(self.ops)} operators"
            )
        for name, value in (("A", A), ("f", f), ("ops", tuple(self.ops)), ("A_rows", A_rows),
                            ("f_float", _floats(f))):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return len(self.ops)

    @cached_property
    def objective(self) -> MultiPoly:
        """P(x) as an exact polynomial (primal_polynomial), expanded once."""
        return primal_polynomial(self)

    @cached_property
    def table(self) -> DualTable:
        """G = A + sum_k sigma_k C_k, F = f - sum_k sigma_k b_k and
        c = sum_k sigma_k c_k - V*(sigma) on the monomials 1, sigma_k, sigma_k^2.
        G and F are the exact data; c is computed in floats from the float
        view."""
        m = self.m

        def unit(k: int, e: int) -> tuple[int, ...]:
            return tuple(e if j == k else 0 for j in range(m))

        pairs = self.V.pairs_float
        terms = [DualTerm((0,) * m, self.A, self.f, -_plain_sum(beta * beta / (4.0 * a) for a, beta in pairs))]
        terms += [
            DualTerm(unit(k, 1), op.C, tuple(-b for b in op.b), op.c_float + beta / (2.0 * a))
            for k, ((a, beta), op) in enumerate(zip(pairs, self.ops))
        ]
        zero = ((0,) * len(self.A), (0,) * self.n)
        terms += [DualTerm(unit(k, 2), *zero, -1.0 / (4.0 * a)) for k, (a, _) in enumerate(pairs)]
        return DualTable(self.n, m, tuple(terms))


@dataclass(frozen=True)
class TableProblem:
    """A problem given by its dual table and its exact objective P(x): the
    form of stagings whose G(sigma) is not affine in sigma."""

    table: DualTable
    objective: MultiPoly

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def m(self) -> int:
        return self.table.m


Problem = CanonicalProblem | TableProblem


@dataclass(frozen=True)
class Stage:
    """One level k of a generalized canonical staging: the measure Lambda_k
    and U_k, exact polynomials in (x_1..x_n, sigma_1..sigma_m), and
    V_k(xi) = a xi^2 + beta xi with a > 0."""

    measure: MultiPoly
    a: RationalLike
    beta: RationalLike
    U: MultiPoly


Sides = tuple[MultiPoly, MultiPoly]


def staged(objective: MultiPoly, n: int, stages: Sequence[Stage]) -> tuple[tuple[Sides, ...], DualTable]:
    """(Each level's identity sides, for an exact check, and the dual table
    read off the last level) of a staging of an objective in n variables.
    Xi_0 is the objective lifted to (x, sigma), n + m <= MAX_ARITY; level k
    has the sides (Xi_{k-1}, V_k(Lambda_k) - U_k) and makes
    Xi_k = Lambda_k sigma_k - (sigma_k - beta_k)^2 / (4 a_k) - U_k.  The last
    Xi must be quadratic in x (else IdentityViolation names its first such
    monomial, graded-lex).  Per sigma-monomial in colex order, its x_i x_j
    coefficients are G's upper triangle (doubled on the diagonal), minus its
    x_i coefficients F, and its constant c."""
    m = len(stages)
    xi = MultiPoly(n + m, {exps + (0,) * m: c for exps, c in objective.terms.items()})
    sides = []
    for k, stage in enumerate(stages):
        a, beta, measure = rat(stage.a), rat(stage.beta), stage.measure
        if a <= 0:
            raise ValueError(f"stage {k}: a must be > 0 for strict convexity, got {a}")
        sigma = MultiPoly.variable(n + m, n + k)
        sides.append((xi, a * measure**2 + beta * measure - stage.U))
        xi = measure * sigma - (sigma - beta) ** 2 * (1 / (4 * a)) - stage.U
    tri = n * (n + 1) // 2
    rows: dict[Exponents, list[RationalLike]] = {}
    for exps, coeff in xi.sorted_terms():
        at = [i for i in range(n) for _ in range(exps[i])]
        if len(at) > 2:
            raise IdentityViolation(f"the last level is not quadratic in x at monomial {exps}")
        row = rows.setdefault(exps[n:], [0] * (tri + n + 1))
        if not at:
            row[-1] = coeff
        elif len(at) == 1:
            row[tri + at[0]] = -coeff
        else:
            row[_triu_index(n, *at)] = coeff * (2 if at[0] == at[1] else 1)
    terms = [DualTerm(exps, tuple(row[:tri]), tuple(row[tri:-1]), row[-1])
             for exps, row in sorted(rows.items(), key=lambda item: item[0][::-1])]
    return tuple(sides), DualTable(n, m, tuple(terms))


def _point(pr: Problem, x: Sequence[float]) -> tuple[float, ...]:
    v = x.entries if isinstance(x, Vector) else tuple(map(float, x))
    if len(v) != pr.n:
        raise DimensionMismatch(f"x has length {len(v)}, expected {pr.n}")
    return v


def _measures(pr: CanonicalProblem, v: tuple[float, ...]) -> tuple[float, ...]:
    return tuple([op.value(v) for op in pr.ops])


def _u(pr: CanonicalProblem, v: tuple[float, ...]) -> float:
    ax = [reduce(add, map(mul, row, v), 0.0) for row in pr.A_rows]
    return -0.5 * reduce(add, map(mul, ax, v), 0.0) + reduce(add, map(mul, pr.f_float, v), 0.0)


def primal_value(pr: Problem, x: Sequence[float]) -> float:
    """P(x): V(Lambda(x)) - U(x) in canonical form, the objective otherwise."""
    v = _point(pr, x)
    if isinstance(pr, TableProblem):
        return pr.objective.eval(v)
    return pr.V.value(_measures(pr, v)) - _u(pr, v)


def primal_samples(pr: CanonicalProblem, x: tuple[np.ndarray, ...]) -> np.ndarray:
    """primal_value, bit for bit, at each sample x given as n columns."""
    return pr.V.value(_measures(pr, x)) - _u(pr, x)


def conjugate_value(V: ConvexQuadV, sigma: Sequence[float]) -> float:
    """Legendre conjugate V*(sigma) = sum_k (sigma_k - beta_k)^2 / (4 a_k)."""
    if len(sigma) != V.m:
        raise DimensionMismatch(f"sigma has length {len(sigma)}, expected {V.m}")
    return _plain_sum((s - beta) ** 2 / (4.0 * a) for (a, beta), s in zip(V.pairs_float, sigma))


def conjugate_values(V: ConvexQuadV, sigma: Sequence[np.ndarray]) -> np.ndarray:
    """conjugate_value at each sample sigma, given as m float64 columns, bit
    for bit: each square is taken entry by entry with pow, as ** takes it
    on a float (numpy's ** multiplies, which may round differently)."""
    if len(sigma) != V.m:
        raise DimensionMismatch(f"sigma has {len(sigma)} columns, expected {V.m}")
    return sum(np.array(list(map(pow, (s - beta).tolist(), repeat(2)))) / (4.0 * a)
               for (a, beta), s in zip(V.pairs_float, sigma))


def conjugate_gradient(V: ConvexQuadV, sigma: Sequence[float]) -> tuple[float, ...]:
    """Gradient of V*: the inverse duality map xi_k = (sigma_k - beta_k) / (2 a_k)."""
    if len(sigma) != V.m:
        raise DimensionMismatch(f"sigma has length {len(sigma)}, expected {V.m}")
    return tuple((s - beta) / (2.0 * a) for (a, beta), s in zip(V.pairs_float, sigma))


class DualPoint:
    """The dual at one sigma: [G, F, c] accumulated once by the table's
    accumulate, the threshold test exceeds(t) on those entries, and one
    x_bar, solved at the first request, from which value, rounding bound,
    gradient, Hessian and the ascent's Newton direction all come; the
    derivatives share one accumulation of [G_k, F_k, c_k].  A sigma with an
    infinite or NaN entry is outside the domain: the constructor raises
    DomainViolation.

    P^d is concave where G is positive definite, and only there does a
    point solve: value, x_bar, rounding, gradient and Hessian raise
    DomainViolation at any other G.  For every n, the factor of the
    accumulated upper triangle (table.kernels.factor), made once at the
    first solve, is both the positive definiteness test and, through
    table.kernels.solve, the solver for x_bar and the Hessian's solves,
    with the refinement step and residual check of solve_sym.  Everything
    computed from x_bar is the table's straight-line code (table.point,
    _point_source); hessian() returns its upper triangle as a SymMatrix.
    """

    __slots__ = ("sigma", "table", "acc", "_factor", "_x", "_x_tol", "_first")

    def __init__(self, pr: Problem, sigma: Sequence[float]) -> None:
        self.table = table = pr.table
        if len(sigma) != table.m:
            raise DimensionMismatch(f"sigma has length {len(sigma)}, expected {table.m}")
        self.sigma = sig = tuple(map(float, sigma))
        if not all(map(isfinite, sig)):
            raise DomainViolation(f"sigma {sig} is not finite")
        self.acc = table.accumulate(sig)
        self._factor = self._x = self._first = None

    def exceeds(self, t: float) -> bool:
        """lambda_min(G) > t: all pivots of G - t I on the accumulated entries
        are > 0 (table.kernels.factor)."""
        return self.table.kernels.factor(self.acc, t) is not None

    def x_bar(self, residual_tol: float = 1e-9) -> Sequence[float]:
        """x_bar solving G x = F, the stationary point of Xi(., sigma), or
        DomainViolation when G is not positive definite: table.kernels.solve
        through G's factor, made at the first solve and kept (as a 1-tuple:
        the factor is None when G is not positive definite).  Solved once; a
        tighter residual_tol than the solve passed repeats the solve for its
        check, which raises ColumnSpaceViolation or gives the same x_bar."""
        x = self._x
        if x is None or residual_tol < self._x_tol:
            table, acc = self.table, self.acc
            factor, solve = table.kernels
            if self._factor is None:
                self._factor = (factor(acc, 0.0),)
            x = self._x = solve(self._factor[0], acc, acc[-table.n - 1:-1], residual_tol)
            self._x_tol = residual_tol
        return x

    def value(self) -> float:
        """P^d(sigma) = -1/2 F^T x_bar + c, x_bar at its residual tolerance 1e-9."""
        return self.table.point.value(self.acc, self.x_bar())

    def rounding(self) -> float:
        """A bound on the rounding error of value(): a few units of roundoff
        times |c| + |1/2 F^T x_bar|, the two terms its last sum adds."""
        return self.table.point.rounding(self.acc, self.x_bar())

    def complementary(self, x: Sequence[float]) -> float:
        """Xi(x, sigma) = 1/2 x^T G x - x^T F + c, which in canonical form is
        Lambda(x)^T sigma - V*(sigma) - U(x)."""
        return self.table.point.xi(self.acc, x)

    def min_eigenvalue(self) -> float:
        """lambda_min(G), the PSD margin reports print (smallmat.eigen_sym);
        exceeds(t) decides thresholds without it."""
        n = self.table.n
        return eigen_sym(SymMatrix(n, self.acc[:n * (n + 1) // 2]))[0]

    def _interior(self) -> tuple[Sequence[float], list[tuple[float, ...]]]:
        """(x_bar, [G_k, F_k, c_k] for each k, accumulated once) where P^d is
        differentiable: G positive definite, which the solve for x_bar
        tests (DomainViolation otherwise)."""
        x = self.x_bar(1e-6)
        if self._first is None:
            self._first = [first(self.sigma) for first in self.table.accumulate_grad]
        return x, self._first

    def gradient(self) -> tuple[float, ...]:
        """Gradient of P^d by the envelope identity: component k is
        1/2 x_bar^T G_k x_bar - x_bar^T F_k + c_k, which in canonical form
        is Lambda_k(x_bar) - dV*/dsigma_k.  Requires G positive definite."""
        x, first = self._interior()
        return self.table.point.gradient(first, x)

    def gradient_with_norm(self) -> tuple[tuple[float, ...], float]:
        """(the gradient, its Euclidean norm), as the ascent reads them."""
        grad = self.gradient()
        return grad, self.table.point.norm(grad)

    def hessian(self) -> SymMatrix:
        """Hessian of P^d, exact:

            H_kl = 1/2 x_bar^T G_kl x_bar - x_bar^T F_kl + c_kl - u_k^T G^{-1} u_l,
            u_k = G_k x_bar - F_k,

        from d x_bar / d sigma_l = -G^{-1} u_l, the derivative of G x_bar = F.
        In canonical form u_k = C_k x_bar + b_k and the first terms are
        -delta_kl / (2 a_k).  Requires G positive definite, as the gradient does;
        the m solves reuse the factorisation of G that x_bar came from.
        """
        x, first = self._interior()
        table = self.table
        return SymMatrix(table.m, table.point.hessian(self.sigma, x, first, table.accumulate_hess,
                                                      self._factor[0], self.acc))

    def newton_direction(self, grad: tuple[float, ...]) -> tuple[tuple[float, ...], float]:
        """(direction, slope) of the ascent at this point, given its gradient:
        the Newton direction d solving -H d = grad (the bits of
        solve_sym(hessian().scale(-1.0), Vector(grad), 1e-6)) and grad^T d
        when the Hessian and that solve raise no DomainViolation or
        ColumnSpaceViolation and grad^T d > 0, otherwise steepest ascent,
        grad and grad^T grad.  Requires G positive definite, as the gradient
        does."""
        x, first = self._interior()
        table = self.table
        return table.point.newton(self.sigma, x, first, table.accumulate_hess, self._factor[0], self.acc, grad)


def dual_value(pr: Problem, sigma: Sequence[float]) -> float:
    """P^d(sigma) = -1/2 F^T G^{-1} F + c(sigma) (DualPoint.value).

    Evaluated only where G(sigma) is positive definite; elsewhere
    DomainViolation propagates from the solve.
    """
    return DualPoint(pr, sigma).value()


def dual_gradient(pr: Problem, sigma: Sequence[float]) -> tuple[float, ...]:
    """Gradient of P^d (DualPoint.gradient).  Requires G(sigma) positive definite."""
    return DualPoint(pr, sigma).gradient()


def in_positive_domain(pr: Problem, sigma: Sequence[float]) -> tuple[bool, float]:
    """Membership in the concavity region {sigma : G(sigma) PSD}, with
    margin: (lambda_min(G) >= -PSD_TOL, lambda_min(G)), computed for reports."""
    margin = DualPoint(pr, sigma).min_eigenvalue()
    return margin >= -PSD_TOL, margin


def _sample_slots(pr: Problem, sigma: Sequence[Sequence[float]]) -> tuple[np.ndarray, list[np.ndarray]]:
    """(the samples as an m x count float64 array, the slots of [upper
    triangle of G, F, c] at each), sigma given as m columns of one length.
    A slot constant in sigma is broadcast.  Every sample is accumulated, a
    non-finite one too: the callers mask it."""
    table = pr.table
    columns = [np.asarray(column, dtype=np.float64) for column in sigma]
    if len(columns) != table.m or any(column.shape != columns[0].shape or column.ndim != 1 for column in columns):
        raise DimensionMismatch(f"sigma needs {table.m} columns of samples of one length, "
                                f"got shapes {[column.shape for column in columns]}")
    stacked = np.array(columns)
    with np.errstate(all="ignore"):
        slots = table.accumulate(tuple(stacked))
    count = stacked.shape[1]
    return stacked, [slot if type(slot) is np.ndarray else np.full(count, slot) for slot in slots]


def _first(offending: np.ndarray) -> int | None:
    """The index of the first True entry, or None."""
    return int(np.argmax(offending)) if offending.any() else None


def _raise_first(pr: Problem, columns: np.ndarray, ok: np.ndarray) -> None:
    """Raise DualPoint's error at the first sample, in order, where ok is
    False: its constructor's at a non-finite sigma, else its x_bar's."""
    i = _first(~ok)
    if i is not None:
        DualPoint(pr, columns[:, i].tolist()).x_bar()


def _solved_samples(pr: Problem, sigma: Sequence[Sequence[float]], residual_tol: float
                    ) -> tuple[np.ndarray, list[np.ndarray], tuple[np.ndarray, ...], np.ndarray]:
    """(the samples, their slots, x_bar at each, a mask of the samples where
    DualPoint(pr, sample).x_bar(residual_tol) raises nothing: sigma finite,
    G positive definite and the residual within its limit), by the column
    form of the kernels DualPoint solves with."""
    columns, slots = _sample_slots(pr, sigma)
    factor, solve = column_kernels(pr.n)
    with np.errstate(all="ignore"):
        x, solved = solve(factor(slots, 0.0), slots, slots[-pr.n - 1:-1], residual_tol)
    return columns, slots, x, solved & np.isfinite(columns).all(axis=0)


def _value(table: DualTable, acc: Sequence, x: Sequence) -> np.ndarray:
    """DualPoint.value's -1/2 F^T x_bar + c, on columns."""
    with np.errstate(all="ignore"):
        return table.point.value(acc, x)


def dual_columns(pr: Problem, sigma: Sequence[Sequence[float]]
                 ) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """(P^d, x_bar, solved) at each sample sigma, given as m columns: where
    solved is True, the bits of DualPoint(pr, sigma).value() and of its
    x_bar; where it is False, DualPoint raises there and the entries are
    meaningless.  Raises nothing for a sample."""
    _, slots, x, solved = _solved_samples(pr, sigma, 1e-9)
    return _value(pr.table, slots, x), x, solved


def dual_samples(pr: Problem, sigma: Sequence[Sequence[float]]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(P^d, x_bar) at each sample sigma, given as m columns: the bits of
    DualPoint(pr, sigma).value() and of its x_bar.  The error is
    DualPoint's at the first sample, in order, that raises one."""
    columns, slots, x, solved = _solved_samples(pr, sigma, 1e-9)
    _raise_first(pr, columns, solved)
    return _value(pr.table, slots, x), x


def dual_gradient_columns(pr: Problem, sigma: Sequence[Sequence[float]]
                          ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """(the gradient of P^d, solved) at each sample sigma, given as m
    columns: where solved is True, the bits of dual_gradient(pr, sigma),
    from x_bar at its tolerance 1e-6, the table's accumulate_grad and its
    generated gradient (table.point.gradient), which take the columns as
    they take a point; where it is False, dual_gradient raises there.
    Raises nothing for a sample."""
    columns, _, x, solved = _solved_samples(pr, sigma, 1e-6)
    table = pr.table
    with np.errstate(all="ignore"):
        point = tuple(columns)
        return table.point.gradient([first(point) for first in table.accumulate_grad], x), solved


def domain_exceeds(pr: Problem, sigma: Sequence[Sequence[float]], t: float) -> np.ndarray:
    """DualPoint(pr, sigma).exceeds(t), lambda_min(G) > t, at each sample
    sigma, given as m columns.  The error is DualPoint's at the first
    non-finite sample."""
    columns, slots = _sample_slots(pr, sigma)
    _raise_first(pr, columns, np.isfinite(columns).all(axis=0))
    with np.errstate(all="ignore"):
        return column_kernels(pr.n).factor(slots, t)[1]


def primal_polynomial(pr: CanonicalProblem) -> MultiPoly:
    """P(x) as an exact polynomial of the problem's exact data.

    Expanded on integers: each Lambda_k's terms scaled to integer
    numerators over the lcm d_k of their denominators, and squared on ints
    over the upper triangle of term pairs; a_k Lambda_k^2 is then a_k / d_k^2
    times that square, beta_k Lambda_k is beta_k / d_k times Lambda_k's
    numerators, and 1/2 x^T A x - x^T f is one more such part.  Every part
    is gathered over one common denominator, and each monomial of the
    result makes one Fraction.  Used by the oracle to cross-check solutions
    of file-defined problems, printed by verify, and compared with g(t) by
    benchmarks.gp_canonical_g.
    """
    n = pr.n
    zero = (0,) * n
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def quadratic(S: Sequence[Fraction], b: Sequence[Fraction], c: Fraction) -> tuple[int, list[tuple[Exponents, int]]]:
        """The nonzero terms of 1/2 x^T S x + x^T b + c, S an upper triangle,
        as their lcm denominator d and each term's numerator over d."""
        terms = [(zero, c.numerator, c.denominator)]
        upper = iter(S)
        for i in range(n):
            terms.append((units[i], b[i].numerator, b[i].denominator))
            for j in range(i, n):
                s = next(upper)
                terms.append((tuple(map(add, units[i], units[j])), s.numerator, s.denominator * (2 if i == j else 1)))
        d = lcm(*(den for _, num, den in terms if num))
        return d, [(e, num * (d // den)) for e, num, den in terms if num]

    parts: list[tuple[int, int, dict[Exponents, int]]] = []  # (numerator, denominator, integer terms)
    for (a, beta), op in zip(pr.V.pairs, pr.ops):
        d, lam = quadratic(op.C, op.b, op.c)
        square: dict[Exponents, int] = {}
        for p, (e1, t1) in enumerate(lam):
            exps = tuple(map(add, e1, e1))
            square[exps] = square.get(exps, 0) + t1 * t1
            twice = 2 * t1
            for e2, t2 in lam[p + 1:]:
                exps = tuple(map(add, e1, e2))
                square[exps] = square.get(exps, 0) + twice * t2
        parts.append((a.numerator, a.denominator * d * d, square))
        parts.append((beta.numerator, beta.denominator * d, dict(lam)))
    # minus U(x) = +1/2 x^T A x - x^T f
    d, u = quadratic(pr.A, [-f for f in pr.f], Fraction(0))
    parts.append((1, d, dict(u)))
    common = lcm(*(den for _, den, _ in parts))
    total: dict[Exponents, int] = {}
    for num, den, terms in parts:
        scale = num * (common // den)
        for exps, value in terms.items():
            total[exps] = total.get(exps, 0) + scale * value
    return MultiPoly._of(n, {exps: Fraction(value, common) for exps, value in total.items() if value})
