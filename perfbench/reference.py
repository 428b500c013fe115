"""Closed forms and exact arithmetic the benchmark checks the program against.

Nothing here imports canondual: every expected value comes from the
textbook formulas or from the benchmark's own exact polynomial expansion,
so a fault in the program's polynomial layer cannot hide itself.

Polynomials are dicts {exponent tuple: Fraction} with no zero entries.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np

EPS = sys.float_info.epsilon

GP_ARGMIN = (0.0, -1.0)
GP_MIN = 3.0
THC_ARGMIN = (0.0, 0.0)
THC_MIN = 0.0
GP_BOX = ((-2.0, 2.0), (-2.0, 2.0))
THC_BOX = ((-5.0, 5.0), (-5.0, 5.0))
ORACLE_AGREEMENT_TOL = 1e-4


# ---------------------------------------------------------------------------
# Exact polynomials
# ---------------------------------------------------------------------------

def const(arity: int, value) -> dict:
    value = Fraction(value)
    return {(0,) * arity: value} if value else {}


def var(arity: int, index: int) -> dict:
    return {tuple(1 if i == index else 0 for i in range(arity)): Fraction(1)}


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def scale(p: dict, factor) -> dict:
    factor = Fraction(factor)
    return {e: c * factor for e, c in p.items()} if factor else {}


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def power(p: dict, k: int, arity: int) -> dict:
    out = const(arity, 1)
    for _ in range(k):
        out = mul(out, p)
    return out


def lin(arity: int, coeffs, constant=0) -> dict:
    """sum_i coeffs[i] x_i + constant."""
    out = const(arity, constant)
    for i, c in enumerate(coeffs):
        out = add(out, scale(var(arity, i), c))
    return out


def derivative(p: dict, index: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[index]:
            lowered = list(e)
            lowered[index] -= 1
            out[tuple(lowered)] = c * e[index]
    return out


def eval_float(p: dict, x) -> float:
    total = 0.0
    for e, c in p.items():
        term = float(c)
        for xi, ei in zip(x, e):
            term *= float(xi) ** ei
        total += term
    return total


def abs_bound(p: dict, x) -> float:
    """sum_t |c_t| |x|^e_t: the scale of the rounding error of evaluating p."""
    return eval_float({e: abs(c) for e, c in p.items()}, [abs(float(xi)) for xi in x])


def parse_terms(text: str, arity: int) -> dict:
    """Parse the verify command's term list "num/den e1 .. ek | ..."."""
    out = {}
    text = text.strip()
    if not text:
        return out
    for item in text.split("|"):
        fields = item.split()
        num, den = fields[0].split("/")
        exps = tuple(int(f) for f in fields[1:])
        if len(exps) != arity:
            raise ValueError(f"term {item!r} does not have {arity} exponents")
        out[exps] = Fraction(int(num), int(den))
    return out


# ---------------------------------------------------------------------------
# Goldstein-Price and Three Hump Camel, from their textbook formulas
# ---------------------------------------------------------------------------

def gp_textbook(x, y):
    """Goldstein-Price in its factored textbook form (floats or numpy arrays)."""
    first = 1 + (x + y + 1) ** 2 * (19 - 14 * x + 3 * x**2 - 14 * y + 6 * x * y + 3 * y**2)
    second = 30 + (2 * x - 3 * y) ** 2 * (18 - 32 * x + 12 * x**2 + 48 * y - 36 * x * y + 27 * y**2)
    return first * second


def thc_textbook(x, y):
    """Three Hump Camel: 2x^2 - 1.05x^4 + x^6/6 + xy + y^2 (1.05 = 21/20)."""
    return 2 * x**2 - 1.05 * x**4 + x**6 / 6 + x * y + y**2


def gp_exact() -> dict:
    x, y = var(2, 0), var(2, 1)
    xy1 = lin(2, (1, 1), 1)
    q1 = add(add(lin(2, (-14, -14), 19), scale(mul(x, x), 3)),
             add(scale(mul(x, y), 6), scale(mul(y, y), 3)))
    q2 = add(add(lin(2, (-32, 48), 18), scale(mul(x, x), 12)),
             add(scale(mul(x, y), -36), scale(mul(y, y), 27)))
    first = add(const(2, 1), mul(power(xy1, 2, 2), q1))
    second = add(const(2, 30), mul(power(lin(2, (2, -3)), 2, 2), q2))
    return mul(first, second)


def gp_h_exact() -> dict:
    """h(s) = 1 + (s + 1)^2 (3 s^2 - 14 s + 19), GP's factor in s = x + y."""
    s = var(1, 0)
    return add(const(1, 1), mul(power(lin(1, (1,), 1), 2, 1),
                                add(scale(mul(s, s), 3), lin(1, (-14,), 19))))


def gp_g_exact() -> dict:
    """g(t) = 30 + t^2 (3 t^2 - 16 t + 18), GP's factor in t = 2x - 3y."""
    t = var(1, 0)
    return add(const(1, 30), mul(mul(t, t), add(scale(mul(t, t), 3), lin(1, (-16,), 18))))


def thc_exact() -> dict:
    x, y = var(2, 0), var(2, 1)
    return add(add(add(scale(power(x, 2, 2), 2), scale(power(x, 4, 2), Fraction(-21, 20))),
                   scale(power(x, 6, 2), Fraction(1, 6))),
               add(mul(x, y), mul(y, y)))


def lattice_min(closed_form, box, n: int) -> tuple[float, tuple[float, float]]:
    """Minimum of a closed form over the n x n lattice of box, with numpy."""
    xs = np.linspace(box[0][0], box[0][1], n)
    ys = np.linspace(box[1][0], box[1][1], n)
    values = closed_form(xs[:, None], ys[None, :])
    i, j = np.unravel_index(int(np.argmin(values)), values.shape)
    return float(values[i, j]), (float(xs[i]), float(ys[j]))


# ---------------------------------------------------------------------------
# Canonical problems in exact rationals
# ---------------------------------------------------------------------------

def quad_value(C, b, c, x) -> Fraction:
    """Lambda(x) = 1/2 x^T C x + b^T x + c."""
    n = len(x)
    return (Fraction(1, 2) * sum(C[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
            + sum(bi * xi for bi, xi in zip(b, x)) + c)


def primal_value(problem: dict, x) -> Fraction:
    """P(x) = sum_k a_k L_k^2 + beta_k L_k + 1/2 x^T A x - f^T x, exactly."""
    n = len(x)
    total = Fraction(1, 2) * sum(problem["A"][i][j] * x[i] * x[j] for i in range(n) for j in range(n))
    total -= sum(fi * xi for fi, xi in zip(problem["f"], x))
    for (C, b, c), (a, beta) in zip(problem["operators"], problem["V"]):
        lam = quad_value(C, b, c, x)
        total += a * lam * lam + beta * lam
    return total


def primal_exact(problem: dict) -> dict:
    """P as an exact polynomial in n variables."""
    n = problem["n"]
    xs = [var(n, i) for i in range(n)]

    def quad(S) -> dict:
        acc: dict = {}
        for i in range(n):
            for j in range(n):
                if S[i][j]:
                    acc = add(acc, scale(mul(xs[i], xs[j]), S[i][j]))
        return acc

    total = add(scale(quad(problem["A"]), Fraction(1, 2)), lin(n, [-fi for fi in problem["f"]]))
    for (C, b, c), (a, beta) in zip(problem["operators"], problem["V"]):
        lam = add(scale(quad(C), Fraction(1, 2)), lin(n, b, c))
        total = add(total, add(scale(mul(lam, lam), a), scale(lam, beta)))
    return total


def through_float(problem: dict) -> dict:
    """The problem with every rational replaced by its nearest float, as
    exact Fractions: what a reader that parses into floats computes with.
    Dyadic rationals with few bits pass through unchanged."""
    def f(x):
        return Fraction(float(x))

    return {
        "n": problem["n"],
        "m": problem["m"],
        "A": [[f(x) for x in row] for row in problem["A"]],
        "f": [f(x) for x in problem["f"]],
        "operators": [([[f(x) for x in row] for row in C], [f(x) for x in b], f(c))
                      for C, b, c in problem["operators"]],
        "V": [(f(a), f(beta)) for a, beta in problem["V"]],
    }


def problem_to_json(problem: dict) -> dict:
    def frac(x: Fraction) -> str:
        return f"{x.numerator}/{x.denominator}"

    return {
        "n": problem["n"],
        "m": problem["m"],
        "A": [[frac(x) for x in row] for row in problem["A"]],
        "f": [frac(x) for x in problem["f"]],
        "operators": [{"C": [[frac(x) for x in row] for row in C], "b": [frac(x) for x in b],
                       "c": frac(c)} for C, b, c in problem["operators"]],
        "V": [{"a": frac(a), "beta": frac(beta)} for a, beta in problem["V"]],
    }


def problem_from_json(data: dict) -> dict:
    """A problem file's contents ("p/q" strings, ints or floats) as Fractions."""
    F = Fraction
    return {
        "n": data["n"],
        "m": data["m"],
        "A": [[F(x) for x in row] for row in data["A"]],
        "f": [F(x) for x in data["f"]],
        "operators": [([[F(x) for x in row] for row in op["C"]], [F(x) for x in op["b"]],
                       F(op.get("c", 0))) for op in data["operators"]],
        "V": [(F(v["a"]), F(v.get("beta", 0))) for v in data["V"]],
    }
