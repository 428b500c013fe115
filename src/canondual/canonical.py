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
A staging whose G is not affine in sigma (Three Hump Camel) is a
TableProblem: its table and exact objective, given directly.

With G affine, P^d is concave wherever G(sigma) is positive semidefinite
(THC's staged dual is too; verify thc samples it); a dual critical point
where G is positive definite recovers the primal global minimizer x_bar
with a zero duality gap P(x_bar) = Xi(x_bar, sigma) = P^d(sigma).  That
open region is the only place the program evaluates P^d and its
derivatives: at any other sigma they raise DomainViolation.  The
boundary, where G is singular, gets no solve (only its margin,
in_positive_domain, is reported).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import add, mul, sub
from typing import Sequence

from .errors import DimensionMismatch
from .polynomial import MultiPoly
# solve_sym is not called here.  It stays bound because perfbench's tracer
# wraps it in every namespace that holds it, and the benchmark's tests and
# tests/test_benchmark_coupling.py check that canonical.solve_sym exists.
from .smallmat import (
    SymMatrix,
    Vector,
    cholesky,
    exceeds,
    full_rows,
    min_eigenvalue,
    solve_1x1,
    solve_2x2,
    solve_factored,
    solve_sym,  # noqa: F401
)

# DualPoint.rounding's multiple of the unit roundoff.
_ROUNDING_ULPS = 4
# in_positive_domain accepts margin >= -PSD_TOL.
PSD_TOL = 1e-9


@dataclass(frozen=True)
class QuadOperator:
    """One quadratic measure: Lambda(x) = 1/2 x^T C x + x^T b + c."""

    C: SymMatrix
    b: Vector
    c: float = 0.0

    def __post_init__(self) -> None:
        if self.C.n != self.b.n:
            raise DimensionMismatch(f"C is {self.C.n}x{self.C.n} but b has length {self.b.n}")
        object.__setattr__(self, "c", float(self.c))

    def value(self, x: Sequence[float]) -> float:
        """Lambda(x) on the stored rows of C, in the order of
        0.5 * C.quadratic_form(x) + b.dot(x) + c."""
        cx = [sum(map(mul, row, x)) for row in self.C.rows]
        return 0.5 * sum(map(mul, cx, x)) + sum(map(mul, self.b.entries, x)) + self.c


@dataclass(frozen=True)
class ConvexQuadV:
    """Diagonal convex quadratic V(xi) = sum_k a_k xi_k^2 + beta_k xi_k, a_k > 0.

    Strict convexity makes the gradient map invertible, so the Legendre
    conjugate V*(sigma) = sum_k (sigma_k - beta_k)^2 / (4 a_k) is globally
    defined in closed form.
    """

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pairs = tuple((float(a), float(beta)) for a, beta in self.pairs)
        if not pairs:
            raise DimensionMismatch("V needs at least one component")
        for k, (a, _) in enumerate(pairs):
            if a <= 0:
                raise ValueError(f"a[{k}] must be > 0 for strict convexity, got {a}")
        object.__setattr__(self, "pairs", pairs)

    @property
    def m(self) -> int:
        return len(self.pairs)

    def value(self, xi: Sequence[float]) -> float:
        if len(xi) != self.m:
            raise DimensionMismatch(f"xi has length {len(xi)}, expected {self.m}")
        return sum(a * x * x + beta * x for (a, beta), x in zip(self.pairs, xi))


@dataclass(frozen=True)
class DualTerm:
    """The coefficients of the monomial sigma^exps in G(sigma), F(sigma) and
    c(sigma)."""

    exps: tuple[int, ...]
    G: SymMatrix
    F: Vector
    c: float


Rows = tuple[tuple[int, float, tuple[int, ...]], ...]  # (term, coefficient, factors)


@dataclass(frozen=True)
class DualTable:
    """G, F and c as polynomials in sigma, one DualTerm per monomial.

    Construction keeps each term's nonzero coefficients as (slot, value)
    pairs over [upper triangle of G, F, c] and writes the monomials as rows
    of (term, coefficient, factors), the factors being variable indices
    repeated by exponent: value for the polynomials themselves, grad[k]
    for their sigma_k-derivatives and hess, as ((k, l), rows) over the upper
    triangle in row-major order, for the second derivatives.
    """

    n: int
    m: int
    terms: tuple[DualTerm, ...]
    entries: tuple[tuple[tuple[int, float], ...], ...] = field(init=False, repr=False, compare=False)
    value: Rows = field(init=False, repr=False, compare=False)
    grad: tuple[Rows, ...] = field(init=False, repr=False, compare=False)
    hess: tuple[tuple[tuple[int, int], Rows], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = []
        for t in self.terms:
            if len(t.exps) != self.m or t.G.n != self.n or t.F.n != self.n:
                raise DimensionMismatch(f"term {t.exps} does not fit n={self.n}, m={self.m}")
            entries.append(tuple((slot, v) for slot, v in enumerate(t.G.upper + t.F.entries + (t.c,)) if v))

        def differentiate(rows: Rows, k: int) -> Rows:
            return tuple(
                (i, coeff * f.count(k), f[:f.index(k)] + f[f.index(k) + 1:]) for i, coeff, f in rows if k in f
            )

        value = tuple(
            (i, 1.0, tuple(k for k, e in enumerate(t.exps) for _ in range(e))) for i, t in enumerate(self.terms)
        )
        grad = tuple(differentiate(value, k) for k in range(self.m))
        hess = tuple(((k, l), differentiate(grad[k], l)) for k in range(self.m) for l in range(k, self.m))
        for name, rows in (("entries", tuple(entries)), ("value", value), ("grad", grad), ("hess", hess)):
            object.__setattr__(self, name, rows)


@dataclass(frozen=True)
class CanonicalProblem:
    n: int
    A: SymMatrix
    f: Vector
    ops: tuple[QuadOperator, ...]
    V: ConvexQuadV

    def __post_init__(self) -> None:
        if self.A.n != self.n or self.f.n != self.n:
            raise DimensionMismatch(f"A and f must have size n={self.n}")
        if not self.ops:
            raise DimensionMismatch("need at least one quadratic operator")
        for k, op in enumerate(self.ops):
            if op.C.n != self.n:
                raise DimensionMismatch(f"operator {k} has size {op.C.n}, expected {self.n}")
        if self.V.m != len(self.ops):
            raise DimensionMismatch(
                f"V has {self.V.m} components but there are {len(self.ops)} operators"
            )

    @property
    def m(self) -> int:
        return len(self.ops)

    @cached_property
    def table(self) -> DualTable:
        """G = A + sum_k sigma_k C_k, F = f - sum_k sigma_k b_k and
        c = sum_k sigma_k c_k - V*(sigma) on the monomials 1, sigma_k, sigma_k^2."""
        m = self.m

        def unit(k: int, e: int) -> tuple[int, ...]:
            return tuple(e if j == k else 0 for j in range(m))

        pairs = self.V.pairs
        terms = [DualTerm((0,) * m, self.A, self.f, -sum(beta * beta / (4.0 * a) for a, beta in pairs))]
        terms += [
            DualTerm(unit(k, 1), op.C, op.b.scale(-1.0), op.c + beta / (2.0 * a))
            for k, ((a, beta), op) in enumerate(zip(pairs, self.ops))
        ]
        zero = (SymMatrix.zero(self.n), Vector((0.0,) * self.n))
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


def _point(pr: Problem, x: Sequence[float]) -> tuple[float, ...]:
    v = x.entries if isinstance(x, Vector) else tuple(map(float, x))
    if len(v) != pr.n:
        raise DimensionMismatch(f"x has length {len(v)}, expected {pr.n}")
    return v


def _measures(pr: CanonicalProblem, v: tuple[float, ...]) -> tuple[float, ...]:
    return tuple([op.value(v) for op in pr.ops])


def _u(pr: CanonicalProblem, v: tuple[float, ...]) -> float:
    ax = [sum(map(mul, row, v)) for row in pr.A.rows]
    return -0.5 * sum(map(mul, ax, v)) + sum(map(mul, pr.f.entries, v))


def primal_value(pr: Problem, x: Sequence[float]) -> float:
    """P(x): V(Lambda(x)) - U(x) in canonical form, the objective otherwise."""
    v = _point(pr, x)
    if isinstance(pr, TableProblem):
        return pr.objective.eval(v)
    return pr.V.value(_measures(pr, v)) - _u(pr, v)


def conjugate_value(V: ConvexQuadV, sigma: Sequence[float]) -> float:
    """Legendre conjugate V*(sigma) = sum_k (sigma_k - beta_k)^2 / (4 a_k)."""
    if len(sigma) != V.m:
        raise DimensionMismatch(f"sigma has length {len(sigma)}, expected {V.m}")
    return sum((s - beta) ** 2 / (4.0 * a) for (a, beta), s in zip(V.pairs, sigma))


def conjugate_gradient(V: ConvexQuadV, sigma: Sequence[float]) -> tuple[float, ...]:
    """Gradient of V*: the inverse duality map xi_k = (sigma_k - beta_k) / (2 a_k)."""
    if len(sigma) != V.m:
        raise DimensionMismatch(f"sigma has length {len(sigma)}, expected {V.m}")
    return tuple((s - beta) / (2.0 * a) for (a, beta), s in zip(V.pairs, sigma))


def _accumulate(table: DualTable, rows: Rows, sig: tuple[float, ...]) -> list[float]:
    """[upper triangle of G, F, c] summed over rows: each term's
    coefficients times its row's coefficient and monomial at sigma."""
    acc = [0.0] * (table.n * (table.n + 3) // 2 + 1)
    for i, w, factors in rows:
        for k in factors:
            w *= sig[k]
        for slot, value in table.entries[i]:
            acc[slot] += w * value
    return acc


def _f(table: DualTable, acc: list[float]) -> list[float]:
    return acc[-table.n - 1:-1]


def _gx(table: DualTable, acc: list[float], x: Sequence[float]) -> list[float]:
    """G x for accumulated coefficients."""
    return [sum(map(mul, row, x)) for row in full_rows(table.n, acc)]


def _xi(table: DualTable, acc: list[float], x: Sequence[float]) -> float:
    """1/2 x^T G x - x^T F + c for accumulated coefficients."""
    return 0.5 * sum(map(mul, _gx(table, acc, x), x)) - sum(map(mul, _f(table, acc), x)) + acc[-1]


class DualPoint:
    """The dual at one sigma: [G, F, c] accumulated once, the threshold
    test exceeds(t) on those entries, and one x_bar, solved at the first
    request, from which value, rounding bound, gradient and Hessian all
    come; the two derivatives share one accumulation of [G_k, F_k, c_k].

    P^d is concave where G is positive definite, and only there does a
    point solve: value, x_bar, rounding, gradient and Hessian raise
    DomainViolation at any other G.  Solves are solve_1x1 and solve_2x2 on
    the accumulated entries for n <= 2.  For n >= 3 the Cholesky factor of
    the accumulated upper triangle, made once, is both the positive
    definiteness test and, through solve_factored, the solver for x_bar and
    the Hessian's solves.  The n >= 2 solves keep solve_sym's refinement
    step and residual check.
    """

    __slots__ = ("sigma", "table", "acc", "_factor", "_x", "_x_tol", "_first")

    def __init__(self, pr: Problem, sigma: Sequence[float]) -> None:
        self.table = table = pr.table
        if len(sigma) != table.m:
            raise DimensionMismatch(f"sigma has length {len(sigma)}, expected {table.m}")
        self.sigma = sig = tuple(map(float, sigma))
        self.acc = _accumulate(table, table.value, sig)
        self._factor = self._x = self._first = None

    def exceeds(self, t: float) -> bool:
        """lambda_min(G) > t: smallmat.exceeds on the accumulated entries."""
        return exceeds(self.table.n, self.acc, t)

    def _factored(self) -> tuple[list[list[float]] | None, tuple[tuple[float, ...], ...]]:
        """(the Cholesky factor of G, or None when G is not positive
        definite; the rows of G), made once, for n >= 3."""
        if self._factor is None:
            n, acc = self.table.n, self.acc
            self._factor = (cholesky(n, acc, 0.0), full_rows(n, acc))
        return self._factor

    def _solve(self, v: Sequence[float], residual_tol: float) -> Sequence[float]:
        n, acc = self.table.n, self.acc
        if n == 1:
            return (solve_1x1(acc[0], v[0]),)
        if n == 2:
            return solve_2x2(acc[0], acc[1], acc[2], v[0], v[1], residual_tol)
        return solve_factored(*self._factored(), v, residual_tol)

    def x_bar(self, residual_tol: float = 1e-9) -> Sequence[float]:
        """x_bar solving G x = F, the stationary point of Xi(., sigma), or
        DomainViolation when G is not positive definite.  Solved once; a
        tighter residual_tol than the solve passed repeats the solve for its
        check, which raises ColumnSpaceViolation or gives the same x_bar."""
        x = self._x
        if x is None or residual_tol < self._x_tol:
            x = self._x = self._solve(_f(self.table, self.acc), residual_tol)
            self._x_tol = residual_tol
        return x

    def value(self, residual_tol: float = 1e-9) -> float:
        """P^d(sigma) = -1/2 F^T x_bar + c."""
        acc = self.acc
        return -0.5 * sum(map(mul, _f(self.table, acc), self.x_bar(residual_tol))) + acc[-1]

    def rounding(self) -> float:
        """A bound on the rounding error of value(): a few units of roundoff
        times |c| + |1/2 F^T x_bar|, the two terms its last sum adds."""
        half = 0.5 * sum(map(mul, _f(self.table, self.acc), self.x_bar()))
        return _ROUNDING_ULPS * sys.float_info.epsilon * (abs(self.acc[-1]) + abs(half))

    def complementary(self, x: Sequence[float]) -> float:
        """Xi(x, sigma) = 1/2 x^T G x - x^T F + c, which in canonical form is
        Lambda(x)^T sigma - V*(sigma) - U(x)."""
        return _xi(self.table, self.acc, x)

    def min_eigenvalue(self) -> float:
        """lambda_min(G), the PSD margin reports print; exceeds(t) decides
        thresholds without it."""
        return min_eigenvalue(self.table.n, self.acc)

    def _interior(self) -> tuple[Sequence[float], list[list[float]]]:
        """(x_bar, [G_k, F_k, c_k] for each k, accumulated once) where P^d is
        differentiable: G positive definite, which the solve for x_bar
        tests (DomainViolation otherwise)."""
        x = self.x_bar(1e-6)
        if self._first is None:
            self._first = [_accumulate(self.table, rows, self.sigma) for rows in self.table.grad]
        return x, self._first

    def gradient(self) -> tuple[float, ...]:
        """Gradient of P^d by the envelope identity: component k is
        1/2 x_bar^T G_k x_bar - x_bar^T F_k + c_k, which in canonical form
        is Lambda_k(x_bar) - dV*/dsigma_k.  Requires G positive definite."""
        x, first = self._interior()
        return tuple([_xi(self.table, acc, x) for acc in first])

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
        table, sig = self.table, self.sigma
        u = [tuple(map(sub, _gx(table, acc, x), _f(table, acc))) for acc in first]
        w = [self._solve(u_l, 1e-6) for u_l in u]
        return SymMatrix(table.m, tuple(
            _xi(table, _accumulate(table, rows, sig), x) - sum(map(mul, u[k], w[l])) for (k, l), rows in table.hess
        ))


def dual_value(pr: Problem, sigma: Sequence[float], residual_tol: float = 1e-9) -> float:
    """P^d(sigma) = -1/2 F^T G^{-1} F + c(sigma).

    Evaluated only where G(sigma) is positive definite; elsewhere
    DomainViolation propagates from the solve.
    """
    return DualPoint(pr, sigma).value(residual_tol)


def dual_gradient(pr: Problem, sigma: Sequence[float]) -> tuple[float, ...]:
    """Gradient of P^d (DualPoint.gradient).  Requires G(sigma) positive definite."""
    return DualPoint(pr, sigma).gradient()


def in_positive_domain(pr: Problem, sigma: Sequence[float]) -> tuple[bool, float]:
    """Membership in the concavity region {sigma : G(sigma) PSD}, with
    margin: (lambda_min(G) >= -PSD_TOL, lambda_min(G)), computed for reports."""
    margin = DualPoint(pr, sigma).min_eigenvalue()
    return margin >= -PSD_TOL, margin


def primal_polynomial(pr: CanonicalProblem) -> MultiPoly:
    """P(x) as an exact polynomial (float data converts exactly to rationals).

    Expanded on one {exponents: Fraction} map: each Lambda_k as its terms,
    then a_k Lambda_k^2 + beta_k Lambda_k over the upper triangle of term
    pairs, then 1/2 x^T A x - x^T f.  Used by the oracle to cross-check
    solutions of file-defined problems, and printed by verify.
    """
    n = pr.n
    zero = (0,) * n
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def quadratic(S: SymMatrix, b: Sequence[float], c: float) -> list[tuple[tuple[int, ...], Fraction]]:
        """The terms of 1/2 x^T S x + x^T b + c."""
        terms = {zero: Fraction(c)}
        for i in range(n):
            terms[units[i]] = Fraction(b[i])
            for j in range(i, n):
                s = Fraction(S.rows[i][j])
                terms[tuple(map(add, units[i], units[j]))] = s / 2 if i == j else s
        return [(e, t) for e, t in terms.items() if t]

    total: dict[tuple[int, ...], Fraction] = {}

    def accumulate(exps: tuple[int, ...], value: Fraction) -> None:
        total[exps] = total[exps] + value if exps in total else value

    for (a, beta), op in zip(pr.V.pairs, pr.ops):
        lam = quadratic(op.C, op.b.entries, op.c)
        a, beta = Fraction(a), Fraction(beta)
        for p, (e1, t1) in enumerate(lam):
            scaled = a * t1
            accumulate(tuple(map(add, e1, e1)), scaled * t1)
            twice = 2 * scaled
            for e2, t2 in lam[p + 1:]:
                accumulate(tuple(map(add, e1, e2)), twice * t2)
            accumulate(e1, beta * t1)
    # minus U(x) = +1/2 x^T A x - x^T f
    for exps, value in quadratic(pr.A, [-f for f in pr.f.entries], 0.0):
        accumulate(exps, value)
    return MultiPoly(n, total)
