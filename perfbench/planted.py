"""Canonical problems with a planted global minimiser, in exact rationals.

Recipe (the canonical duality theorem run backwards):

  1. pick A > 0, operators (C_k, b_k, c_k) and a_k > 0;
  2. pick a dual point sigma* with G(sigma*) = A + sum_k sigma*_k C_k > 0;
  3. pick x*;
  4. set f = G(sigma*) x* + sum_k sigma*_k b_k, so that G(sigma*) x* = F(sigma*),
     and beta_k = sigma*_k - 2 a_k Lambda_k(x*), so that sigma* = grad V(Lambda(x*)).

Then (x*, sigma*) is a critical pair with G(sigma*) > 0, so x* is the
unique global minimiser of P and P(x*) = P^d(sigma*).  Every number is a
dyadic rational with a few bits, so a reader that converts the file to
floats sees exactly these values.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

import reference

SIGMA_MARGIN = 0.25


def _quarters(rng: random.Random, lo: int, hi: int) -> Fraction:
    """Uniform on {lo, lo + 1/4, ..., hi}."""
    return Fraction(rng.randint(4 * lo, 4 * hi), 4)


def _sym(rng: random.Random, n: int, lo: int, hi: int) -> list[list[Fraction]]:
    S = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            S[i][j] = S[j][i] = Fraction(rng.randint(2 * lo, 2 * hi), 2)
    return S


def g_matrix(problem: dict, sigma) -> list[list[Fraction]]:
    n = problem["n"]
    G = [row[:] for row in problem["A"]]
    for s, (C, _, _) in zip(sigma, problem["operators"]):
        for i in range(n):
            for j in range(n):
                G[i][j] += s * C[i][j]
    return G


def f_vector(problem: dict, sigma) -> list[Fraction]:
    F = list(problem["f"])
    for s, (_, b, _) in zip(sigma, problem["operators"]):
        F = [fi - s * bi for fi, bi in zip(F, b)]
    return F


def is_positive_definite(S) -> bool:
    """Exact test: every pivot of the symmetric elimination is positive."""
    a = [row[:] for row in S]
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return True


def min_eigenvalue(S) -> float:
    return float(np.linalg.eigvalsh(np.array(S, dtype=float))[0])


def generate(rng: random.Random, n: int, m: int) -> dict:
    """One planted instance; the returned dict holds the problem in the
    reference module's layout plus "x_star", "sigma_star" and "value".

    A = M^T M + I with M an integer matrix, so A > 0 and the origin is a
    strictly feasible dual point; sigma* is redrawn until G(sigma*) > 0
    exactly and its smallest eigenvalue is at least SIGMA_MARGIN.
    """
    M = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    A = [[sum(M[k][i] * M[k][j] for k in range(n)) + (1 if i == j else 0) for j in range(n)]
         for i in range(n)]
    Cs = [_sym(rng, n, -1, 1) for _ in range(m)]
    operators = [(C, [Fraction(rng.randint(-2, 2)) for _ in range(n)], Fraction(rng.randint(-2, 2)))
                 for C in Cs]
    a = [Fraction(2) ** rng.randint(-2, 1) for _ in range(m)]
    problem = {"n": n, "m": m, "A": A, "f": [Fraction(0)] * n, "operators": operators,
               "V": [(ak, Fraction(0)) for ak in a]}
    while True:
        sigma = [_quarters(rng, -3, 3) for _ in range(m)]
        G = g_matrix(problem, sigma)
        if is_positive_definite(G) and min_eigenvalue(G) >= SIGMA_MARGIN:
            break
    x = [_quarters(rng, -2, 2) for _ in range(n)]
    Gx = [sum(G[i][j] * x[j] for j in range(n)) for i in range(n)]
    problem["f"] = [gx + sum(s * b[i] for s, (_, b, _) in zip(sigma, operators)) for i, gx in enumerate(Gx)]
    problem["V"] = [(ak, s - 2 * ak * reference.quad_value(C, b, c, x))
                    for ak, s, (C, b, c) in zip(a, sigma, operators)]
    problem["x_star"] = x
    problem["sigma_star"] = sigma
    problem["value"] = reference.primal_value(problem, x)
    return problem
