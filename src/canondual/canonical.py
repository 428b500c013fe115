"""Canonical duality framework for quadratic geometric operators.

A problem min P(x) = 1/2 x^T A x - x^T f + W(x) is rewritten through a
vector of quadratic measures

    xi_k = Lambda_k(x) = 1/2 x^T C_k x + x^T b_k + c_k

and a strictly convex diagonal quadratic V(xi) = sum_k a_k xi_k^2 + beta_k xi_k
so that W(x) = V(Lambda(x)).  With U(x) = -1/2 x^T A x + x^T f, the
complementary function

    Xi(x, sigma) = Lambda(x)^T sigma - V*(sigma) - U(x)

is quadratic in x for fixed sigma; eliminating x yields the dual

    P^d(sigma) = -1/2 F(sigma)^T G(sigma)^{-1} F(sigma) - V*(sigma) + sum_k sigma_k c_k

with G(sigma) = A + sum_k sigma_k C_k and F(sigma) = f - sum_k sigma_k b_k.
The constant offsets c_k are carried through both Xi and P^d so that
operators like t^2 - (8/3) t - 2 fit the same machinery.

P^d is concave wherever G(sigma) is positive semidefinite; a dual critical
point in that region recovers the primal global minimizer via
x_bar = G^{-1} F, with a zero duality gap P(x_bar) = Xi(x_bar, sigma) = P^d(sigma).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, SingularMatrixError
from .polynomial import MultiPoly
from .smallmat import (
    PSD_TOL,
    SymMatrix,
    Vector,
    add_scaled,
    eigen_sym,
    is_nonsingular,
    is_psd,
    solve_sym,
)


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

    def value(self, x: Vector) -> float:
        return 0.5 * self.C.quadratic_form(x) + self.b.dot(x) + self.c


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


@dataclass(frozen=True)
class DualPoint:
    """A dual vector together with the minimum eigenvalue of G at it."""

    sigma: tuple[float, ...]
    g_margin: float


def dual_point(pr: CanonicalProblem, sigma: Sequence[float]) -> DualPoint:
    _, margin = in_positive_domain(pr, sigma)
    return DualPoint(tuple(float(s) for s in sigma), margin)


def _check_sigma(pr: CanonicalProblem, sigma: Sequence[float]) -> tuple[float, ...]:
    if len(sigma) != pr.m:
        raise DimensionMismatch(f"sigma has length {len(sigma)}, expected {pr.m}")
    return tuple(float(s) for s in sigma)


def _as_vector(pr: CanonicalProblem, x: Sequence[float]) -> Vector:
    v = x if isinstance(x, Vector) else Vector(tuple(x))
    if v.n != pr.n:
        raise DimensionMismatch(f"x has length {v.n}, expected {pr.n}")
    return v


def lambda_eval(pr: CanonicalProblem, x: Sequence[float]) -> tuple[float, ...]:
    """The measure vector xi = Lambda(x)."""
    v = _as_vector(pr, x)
    return tuple(op.value(v) for op in pr.ops)


def u_value(pr: CanonicalProblem, x: Sequence[float]) -> float:
    """U(x) = -1/2 x^T A x + x^T f."""
    v = _as_vector(pr, x)
    return -0.5 * pr.A.quadratic_form(v) + pr.f.dot(v)


def primal_value(pr: CanonicalProblem, x: Sequence[float]) -> float:
    """P(x) = V(Lambda(x)) - U(x)."""
    v = _as_vector(pr, x)
    return pr.V.value(lambda_eval(pr, v)) - u_value(pr, v)


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


def g_matrix(pr: CanonicalProblem, sigma: Sequence[float]) -> SymMatrix:
    """G(sigma) = A + sum_k sigma_k C_k."""
    sig = _check_sigma(pr, sigma)
    return add_scaled(pr.A, [(s, op.C) for s, op in zip(sig, pr.ops)])


def f_vector(pr: CanonicalProblem, sigma: Sequence[float]) -> Vector:
    """F(sigma) = f - sum_k sigma_k b_k."""
    sig = _check_sigma(pr, sigma)
    entries = list(pr.f.entries)
    for s, op in zip(sig, pr.ops):
        for i in range(pr.n):
            entries[i] -= s * op.b[i]
    return Vector(tuple(entries))


def dual_value(pr: CanonicalProblem, sigma: Sequence[float], residual_tol: float = 1e-9) -> float:
    """P^d(sigma) = -1/2 F^T G^{-1} F - V*(sigma) + sum_k sigma_k c_k.

    Well defined only where F(sigma) lies in the column space of G(sigma);
    otherwise ColumnSpaceViolation propagates from the solve.
    """
    sig = _check_sigma(pr, sigma)
    G = g_matrix(pr, sig)
    F = f_vector(pr, sig)
    x = solve_sym(G, F, residual_tol)
    offset = sum(s * op.c for s, op in zip(sig, pr.ops))
    return -0.5 * F.dot(x) - conjugate_value(pr.V, sig) + offset


def recover_primal(pr: CanonicalProblem, sigma: Sequence[float], residual_tol: float = 1e-9) -> Vector:
    """x_bar solving G(sigma) x = F(sigma): the stationary point of Xi(., sigma)."""
    sig = _check_sigma(pr, sigma)
    G = g_matrix(pr, sig)
    F = f_vector(pr, sig)
    x = solve_sym(G, F, residual_tol)
    # Stationarity of Xi in x is exactly the solve residual; solve_sym already
    # enforced it at residual_tol <= 1e-9 relative, well inside 1e-8.
    return x


def _interior_primal(pr: CanonicalProblem, sig: tuple[float, ...]) -> tuple[SymMatrix, Vector]:
    """(G(sigma), x_bar(sigma)) where P^d is differentiable: G nonsingular."""
    G = g_matrix(pr, sig)
    if not is_nonsingular(G):
        raise SingularMatrixError("G(sigma) is singular; dual derivatives undefined on the boundary")
    return G, solve_sym(G, f_vector(pr, sig), residual_tol=1e-6)


def dual_gradient(pr: CanonicalProblem, sigma: Sequence[float]) -> tuple[float, ...]:
    """Gradient of P^d by the envelope identity: component k is
    Lambda_k(x_bar(sigma)) - dV*/dsigma_k.  Requires G(sigma) nonsingular."""
    sig = _check_sigma(pr, sigma)
    _, x = _interior_primal(pr, sig)
    xi = lambda_eval(pr, x)
    grad_conj = conjugate_gradient(pr.V, sig)
    return tuple(l - g for l, g in zip(xi, grad_conj))


def dual_hessian(pr: CanonicalProblem, sigma: Sequence[float]) -> SymMatrix:
    """Hessian of P^d, exact for the affine G(sigma):

        H_kl = -(C_k x_bar + b_k)^T G^{-1} (C_l x_bar + b_l) - delta_kl / (2 a_k)

    from d x_bar / d sigma_l = -G^{-1} (C_l x_bar + b_l), the derivative of
    G x_bar = F.  Requires G(sigma) nonsingular, as the gradient does.
    """
    sig = _check_sigma(pr, sigma)
    G, x = _interior_primal(pr, sig)
    u = [op.C.matvec(x) + op.b for op in pr.ops]
    w = [solve_sym(G, u_l, residual_tol=1e-6) for u_l in u]
    upper = []
    for k, (a, _) in enumerate(pr.V.pairs):
        upper.append(-u[k].dot(w[k]) - 1.0 / (2.0 * a))
        upper.extend(-u[k].dot(w[l]) for l in range(k + 1, pr.m))
    return SymMatrix(pr.m, tuple(upper))


def complementary_value(pr: CanonicalProblem, x: Sequence[float], sigma: Sequence[float]) -> float:
    """Xi(x, sigma) = Lambda(x)^T sigma - V*(sigma) - U(x)."""
    sig = _check_sigma(pr, sigma)
    v = _as_vector(pr, x)
    xi = lambda_eval(pr, v)
    return (
        sum(l * s for l, s in zip(xi, sig))
        - conjugate_value(pr.V, sig)
        - u_value(pr, v)
    )


def in_positive_domain(
    pr: CanonicalProblem, sigma: Sequence[float], tol: float = PSD_TOL
) -> tuple[bool, float]:
    """Membership in the concavity region {sigma : G(sigma) PSD}, with margin."""
    return is_psd(g_matrix(pr, sigma), tol)


def duality_gap(
    pr: CanonicalProblem, x: Sequence[float], sigma: Sequence[float]
) -> tuple[float, float]:
    """(|P(x) - Xi(x, sigma)|, |Xi(x, sigma) - P^d(sigma)|).

    Both vanish (to rounding) exactly at a critical pair.
    """
    p = primal_value(pr, x)
    xi = complementary_value(pr, x, sigma)
    d = dual_value(pr, sigma)
    return abs(p - xi), abs(xi - d)


def primal_polynomial(pr: CanonicalProblem) -> MultiPoly:
    """P(x) as an exact polynomial (float data converts exactly to rationals).

    Used by the oracle to cross-check solutions of file-defined problems.
    """
    n = pr.n
    xs = [MultiPoly.variable(n, i) for i in range(n)]

    def quad_poly(S: SymMatrix) -> MultiPoly:
        acc = MultiPoly.zero(n)
        for i in range(n):
            for j in range(n):
                coeff = Fraction(S.entry(i, j))
                if coeff:
                    acc = acc + (xs[i] * xs[j]).scale(coeff)
        return acc

    total = MultiPoly.zero(n)
    for (a, beta), op in zip(pr.V.pairs, pr.ops):
        lam = quad_poly(op.C).scale(Fraction(1, 2)) + MultiPoly.constant(n, Fraction(op.c))
        for i in range(n):
            bi = Fraction(op.b[i])
            if bi:
                lam = lam + xs[i].scale(bi)
        total = total + (lam * lam).scale(Fraction(a)) + lam.scale(Fraction(beta))
    # minus U(x) = +1/2 x^T A x - x^T f
    total = total + quad_poly(pr.A).scale(Fraction(1, 2))
    for i in range(n):
        fi = Fraction(pr.f[i])
        if fi:
            total = total - xs[i].scale(fi)
    return total


def g_min_eigenvalue(pr: CanonicalProblem, sigma: Sequence[float]) -> float:
    return eigen_sym(g_matrix(pr, sigma))[0][0]
