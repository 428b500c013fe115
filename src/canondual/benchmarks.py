"""End-to-end pipelines for the two polynomial benchmarks.

Goldstein-Price decouples: under (s, t) = (x + y, 2x - 3y) the objective
factors as h(s) * g(t) with

    h(s) = 1 + (s + 1)^2 (3 s^2 - 14 s + 19)   (quartic, min 1 at s = -1)
    g(t) = 30 + t^2 (3 t^2 - 16 t + 18)        (quartic, min 3 at t = 3)

h and g are written once, as expressions of a polynomial argument: gp_h
and gp_g evaluate them at one variable, gp_decompose at the two variables
(s, t) before substituting the change of variables.  h is minimized by
enumerating every real root of h'; g goes through the generic canonical
machinery with measure t^2 - (8/3) t - 2 and V(xi) = 3 xi^2 - 9 xi, whose
dual is maximized at sigma = -15.  Both minima are strictly positive,
which is what justifies min (h * g) = (min h)(min g); the decomposition
and the canonical form are verified as exact rational identities at
construction time.

Three Hump Camel (2x^2 - 1.05x^4 + x^6/6 + xy + y^2) needs two staged
measures, xi1 = x^3 - (16/5) x then xi2 = x^2 + 5 sigma1 x, because the
sextic cannot be reached by a single quadratic measure.  The staging makes
G depend on sigma1^2, so THC is a canonical.TableProblem: its dual table,

    G = [[44/75 - (5/6) s1^2 + s2/30, 1], [1, 2]],
    F = ((8/15) s1 - s1 s2 / 12, 0),  c = -s1^2/24 - s2^2/240,

goes through solve_canonical like every other problem.  Both staging
identities, and the table against the level-2 complementary function, are
verified exactly in rational arithmetic (sigma1 a polynomial variable).
The closed forms thc_dual, thc_equilibrium and thc_complementary remain
as float references for verify and the tests.

gp_solve and solve_problem (thc and problem files) build their SolveReport
the same way: _cross_checked adds the brute-force oracle's multistart
value over the problem's box and whether it agrees with the certified
value within ORACLE_AGREEMENT_TOL (1 + |value|).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from . import canonical, dual_solver, oracle
from .dual_solver import CriticalReport, SolverConfig
from .errors import DomainViolation, IdentityViolation, SingularMatrixError
from .polynomial import MultiPoly, first_diff_term

GP_BOX = oracle.Box((-2.0, -2.0), (2.0, 2.0))
THC_BOX = oracle.Box((-5.0, -5.0), (5.0, 5.0))

ORACLE_STARTS = 64
ORACLE_SEED = 42
ORACLE_AGREEMENT_TOL = 1e-4


@dataclass(frozen=True)
class GpDecomposition:
    T: tuple[tuple[Fraction, ...], ...]
    T_inv: tuple[tuple[Fraction, ...], ...]
    h: MultiPoly
    g: MultiPoly


@dataclass(frozen=True)
class SolveReport:
    problem_name: str
    transformed_solution: tuple[float, ...]
    x_star: tuple[float, ...]
    value: float
    dual_report: CriticalReport
    oracle_value: float | None = None
    oracle_x: tuple[float, ...] | None = None
    oracle_agreement: bool | None = None


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gp_objective() -> MultiPoly:
    """Goldstein-Price, expanded exactly from its factored form."""
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    first = 1 + (x + y + 1) ** 2 * (19 - 14 * x + 3 * x**2 - 14 * y + 6 * x * y + 3 * y**2)
    second = 30 + (2 * x - 3 * y) ** 2 * (
        18 - 32 * x + 12 * x**2 + 48 * y - 36 * x * y + 27 * y**2
    )
    return first * second


@lru_cache(maxsize=None)
def thc_objective() -> MultiPoly:
    """Three Hump Camel Back: 2x^2 - (21/20)x^4 + (1/6)x^6 + xy + y^2."""
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    return (
        2 * x**2
        - Fraction(21, 20) * x**4
        + Fraction(1, 6) * x**6
        + x * y
        + y**2
    )


def _h(s: MultiPoly) -> MultiPoly:
    return 1 + (s + 1) ** 2 * (3 * s**2 - 14 * s + 19)


def _g(t: MultiPoly) -> MultiPoly:
    return 30 + t**2 * (3 * t**2 - 16 * t + 18)


@lru_cache(maxsize=None)
def gp_h() -> MultiPoly:
    return _h(MultiPoly.variable(1, 0))


@lru_cache(maxsize=None)
def gp_g() -> MultiPoly:
    return _g(MultiPoly.variable(1, 0))


# ---------------------------------------------------------------------------
# Goldstein-Price pipeline
# ---------------------------------------------------------------------------

_GP_T = ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(-3)))
_GP_T_INV = (
    (Fraction(3, 5), Fraction(1, 5)),
    (Fraction(2, 5), Fraction(-1, 5)),
)


@lru_cache(maxsize=None)
def gp_decompose() -> GpDecomposition:
    """The decoupling change of variables, verified exactly at build time."""
    h, g = gp_h(), gp_g()
    product_st = _h(MultiPoly.variable(2, 0)) * _g(MultiPoly.variable(2, 1))
    # Substitute s = x + y, t = 2x - 3y and compare with the expansion.
    recombined = product_st.substitute_linear(_GP_T)
    if recombined != gp_objective():
        offender = first_diff_term(recombined, gp_objective())
        raise IdentityViolation(f"h(s)g(t) decoupling failed at monomial {offender}")
    for i in range(2):
        for j in range(2):
            acc = sum(_GP_T_INV[i][k] * _GP_T[k][j] for k in range(2))
            if acc != (1 if i == j else 0):
                raise IdentityViolation("T_inv is not the exact inverse of T")
    # Positivity of both factor minima is what licenses
    # min (h*g) = (min h)(min g); h, g alone being bounded below is not enough.
    for name, poly in (("h", h), ("g", g)):
        bound = max(10.0, 1.1 * oracle.cauchy_root_bound(poly.partial_derivative(0)))
        result = oracle.univariate_global(poly, (-bound, bound))
        if result.value <= 0:
            raise IdentityViolation(f"global minimum of {name} is not strictly positive")
    return GpDecomposition(T=_GP_T, T_inv=_GP_T_INV, h=h, g=g)


def gp_solve_h() -> tuple[float, float, list[tuple[float, float]]]:
    """Global minimum of h by enumerating every critical point.

    Returns (s_star, h(s_star), [(root, h(root)), ...]).  h' factors as
    12 (s + 1)(s - 1)(s - 2): three critical points, not one, but the
    global minimum is still at s = -1 since h has a positive leading
    coefficient and h(-1) = 1 < h(2) = 28 < h(1) = 33.
    """
    h = gp_h()
    dh = h.partial_derivative(0)
    bound = max(10.0, 1.1 * oracle.cauchy_root_bound(dh))
    roots = oracle.derivative_roots(h, (-bound, bound))
    criticals = [(root, h.eval([root])) for root in roots]
    for root, value in criticals:
        if value <= 0:
            raise IdentityViolation(f"h({root}) = {value} <= 0 breaks the decoupling guard")
    s_star, h_star = min(criticals, key=lambda pair: pair[1])
    return s_star, h_star, criticals


@lru_cache(maxsize=None)
def gp_canonical_g() -> canonical.CanonicalProblem:
    """g(t) as a canonical problem: A = 106/3, f = 56, measure
    t^2 - (8/3) t - 2, V(xi) = 3 xi^2 - 9 xi.

    The identity V(Lambda(t)) - U(t) = g(t) is checked exactly on the
    problem returned, the one the solver climbs.
    """
    pr = canonical.CanonicalProblem(
        n=1,
        A=(Fraction(106, 3),),
        f=(56,),
        ops=(canonical.QuadOperator(C=(2,), b=(Fraction(-8, 3),), c=-2),),
        V=canonical.ConvexQuadV(((3, -9),)),
    )
    expanded = canonical.primal_polynomial(pr)
    if expanded != gp_g():
        raise IdentityViolation(f"canonical form of g differs at monomial {first_diff_term(expanded, gp_g())}")
    return pr


def gp_dual_closed_form(sigma: float) -> float:
    """The eliminated dual of the g(t) problem in closed form."""
    return (
        (-sigma * sigma - 18.0 * sigma - 81.0) / 12.0
        - (8.0 * sigma / 3.0 + 56.0) ** 2 / (4.0 * (sigma + 53.0 / 3.0))
        - 2.0 * sigma
    )


def gp_solve(
    cfg: SolverConfig | None = None,
    with_oracle: bool = True,
    oracle_starts: int = ORACLE_STARTS,
    oracle_seed: int = ORACLE_SEED,
) -> SolveReport:
    """Full Goldstein-Price pipeline.

    s* from root enumeration on h; (sigma*, t*) from the canonical dual of
    g; then (x*, y*) = ((3 s* + t*) / 5, (2 s* - t*) / 5) via the exact
    inverse transform, and the objective value h(s*) g(t*).
    """
    cfg = cfg or SolverConfig()
    dec = gp_decompose()
    s_star, h_star, _ = gp_solve_h()
    report = dual_solver.solve_canonical(gp_canonical_g(), cfg)
    t_star = report.x_bar[0]
    x_star = (3.0 * s_star + t_star) / 5.0
    y_star = (2.0 * s_star - t_star) / 5.0
    value = dec.h.eval([s_star]) * dec.g.eval([t_star])
    solved = SolveReport("gp", (s_star, t_star), (x_star, y_star), value, report)
    return _cross_checked(solved, gp_objective() if with_oracle else None, GP_BOX, oracle_starts, oracle_seed)


# ---------------------------------------------------------------------------
# Three Hump Camel pipeline
# ---------------------------------------------------------------------------

def _thc_level1_sides() -> tuple[MultiPoly, MultiPoly]:
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    lhs = 6 * thc_objective()
    v1 = (x**3 - Fraction(16, 5) * x) ** 2
    minus_u1 = Fraction(1, 10) * x**4 + Fraction(44, 25) * x**2 + 6 * x * y + 6 * y**2
    return lhs, v1 + minus_u1


def _thc_level2_parts(x: MultiPoly, y: MultiPoly, w: MultiPoly) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Six times the level-1 complementary function, the level-2 measure and
    U2, with w standing for the first dual component."""
    staged = (
        (x**3 - Fraction(16, 5) * x) * w
        - Fraction(1, 4) * w**2
        + Fraction(1, 10) * x**4
        + Fraction(44, 25) * x**2
        + 6 * x * y
        + 6 * y**2
    )
    u2 = (
        25 * w**2 * x**2
        - Fraction(88, 5) * x**2
        + 32 * w * x
        - 60 * x * y
        - 60 * y**2
        + Fraction(5, 2) * w**2
    )
    return staged, x**2 + 5 * w * x, u2


def _thc_level2_sides() -> tuple[MultiPoly, MultiPoly]:
    staged, measure, u2 = _thc_level2_parts(*(MultiPoly.variable(3, i) for i in range(3)))
    return 10 * staged, measure**2 - u2


@lru_cache(maxsize=None)
def thc_level1_identity() -> bool:
    """6 * f(x, y) == (x^3 - 16x/5)^2 - U1(x, y), exactly (checked once per
    process: the sides are fixed polynomials)."""
    lhs, rhs = _thc_level1_sides()
    return lhs == rhs


@lru_cache(maxsize=None)
def thc_level2_identity() -> bool:
    """60 * staged complementary == (x^2 + 5wx)^2 - U2(x, y, w), exactly
    (checked once per process)."""
    lhs, rhs = _thc_level2_sides()
    return lhs == rhs


def thc_identity_mismatch(level: int):
    """First offending monomial of the requested staging identity, or None."""
    lhs, rhs = _thc_level1_sides() if level == 1 else _thc_level2_sides()
    return first_diff_term(lhs, rhs)


# The THC dual table, exact: s1^a1 s2^a2 -> (upper triangle of G, F, c).
_THC_TABLE = {
    (0, 0): ((Fraction(44, 75), 1, 2), (0, 0), 0),
    (2, 0): ((Fraction(-5, 6), 0, 0), (0, 0), Fraction(-1, 24)),
    (0, 1): ((Fraction(1, 30), 0, 0), (0, 0), 0),
    (1, 0): ((0, 0, 0), (Fraction(8, 15), 0), 0),
    (1, 1): ((0, 0, 0), (Fraction(-1, 12), 0), 0),
    (0, 2): ((0, 0, 0), (0, 0), Fraction(-1, 240)),
}


def _thc_table_sides(terms: tuple[canonical.DualTerm, ...]) -> tuple[MultiPoly, MultiPoly]:
    """60 * sum_a sigma^a xi_a(x, y) from the table's terms, and the
    complementary function of the level-2 staging, xi2 s2 - V2*(s2) - U2
    with V2*(s2) = s2^2 / 4, both in (x, y, s1, s2)."""
    x, y, s1, s2 = (MultiPoly.variable(4, i) for i in range(4))
    table_xi = MultiPoly.zero(4)
    for t in terms:
        (a1, a2), (g11, g12, g22), (f1, f2) = t.exps, t.G, t.F
        xi = Fraction(g11, 2) * x**2 + g12 * x * y + Fraction(g22, 2) * y**2 - f1 * x - f2 * y + t.c
        table_xi = table_xi + s1**a1 * s2**a2 * xi
    _, measure, u2 = _thc_level2_parts(x, y, s1)
    return 60 * table_xi, measure * s2 - Fraction(1, 4) * s2**2 - u2


@lru_cache(maxsize=None)
def thc_problem() -> canonical.TableProblem:
    """Three Hump Camel as its dual table, whose terms hold _THC_TABLE's
    rationals, and its objective.  The terms are checked exactly against
    the level-2 staging (once per process)."""
    terms = tuple(canonical.DualTerm(exps, G, F, c) for exps, (G, F, c) in _THC_TABLE.items())
    lhs, rhs = _thc_table_sides(terms)
    if lhs != rhs:
        raise IdentityViolation(f"THC dual table differs from the staging at {first_diff_term(lhs, rhs)}")
    return canonical.TableProblem(canonical.DualTable(2, 2, terms), thc_objective())


def thc_dual(s1: float, s2: float) -> float:
    """Closed-form dual; requires strict feasibility (nonzero denominator)."""
    denominator = 125.0 * s1 * s1 - 5.0 * s2 - 13.0
    if denominator >= 0.0:
        raise DomainViolation(
            f"({s1}, {s2}) infeasible: needs s2 > 25 s1^2 - 13/5"
        )
    numerator = (
        -1250.0 * s1**4
        - 50.0 * s1 * s1 * (31.0 * s2 - 105.0)
        + s2 * s2 * (5.0 * s2 + 13.0)
    )
    return numerator / (240.0 * denominator)


def thc_equilibrium(s1: float, s2: float) -> tuple[float, float]:
    """Stationary (x, y) of the staged complementary function at (s1, s2):
    the 2x2 linear system with matrix [[2a, 1], [1, 2]],
    a = 22/75 - (5/12) s1^2 + s2/60, right side ((8/15) s1 - s1 s2 / 12, 0)."""
    alpha = 22.0 / 75.0 - (5.0 / 12.0) * s1 * s1 + s2 / 60.0
    det = 4.0 * alpha - 1.0
    scale = max(1.0, abs(alpha))
    if abs(det) <= 1e-12 * scale:
        raise SingularMatrixError(f"equilibrium system singular at ({s1}, {s2})")
    rhs = (8.0 / 15.0) * s1 - s1 * s2 / 12.0
    x = 2.0 * rhs / det
    y = -rhs / det
    return x, y


def thc_complementary(s1: float, s2: float, x: float, y: float) -> float:
    """The fully staged complementary function of (s1, s2, x, y)."""
    alpha = 22.0 / 75.0 - (5.0 / 12.0) * s1 * s1 + s2 / 60.0
    return (
        alpha * x * x
        + y * y
        + x * y
        + (s1 * s2 / 12.0 - (8.0 / 15.0) * s1) * x
        - s1 * s1 / 24.0
        - s2 * s2 / 240.0
    )


def thc_solve(
    cfg: SolverConfig | None = None,
    with_oracle: bool = True,
    oracle_starts: int = ORACLE_STARTS,
    oracle_seed: int = ORACLE_SEED,
) -> SolveReport:
    """Full Three Hump pipeline: both staging identities are validated (once
    per process) and the dual table goes through solve_canonical."""
    for level, identity in ((1, thc_level1_identity), (2, thc_level2_identity)):
        if not identity():
            raise IdentityViolation(f"level-{level} staging failed at {thc_identity_mismatch(level)}")
    objective = thc_objective() if with_oracle else None
    return solve_problem("thc", thc_problem(), cfg, objective, THC_BOX, oracle_starts, oracle_seed)


def solve_problem(
    name: str,
    pr: canonical.Problem,
    cfg: SolverConfig | None,
    objective: MultiPoly | None,
    box: oracle.Box,
    oracle_starts: int,
    oracle_seed: int,
) -> SolveReport:
    """solve_canonical on pr, cross-checked by the oracle on objective over
    box unless objective is None."""
    report = dual_solver.solve_canonical(pr, cfg)
    solved = SolveReport(name, report.sigma_star, tuple(report.x_bar), report.primal, report)
    return _cross_checked(solved, objective, box, oracle_starts, oracle_seed)


def _cross_checked(
    report: SolveReport, objective: MultiPoly | None, box: oracle.Box, oracle_starts: int, oracle_seed: int
) -> SolveReport:
    """report with the oracle's multistart on objective over box and its
    agreement with report.value, or report itself when objective is None."""
    if objective is None:
        return report
    best = oracle.multistart(objective, box, oracle_starts, oracle_seed)
    agreement = abs(report.value - best.value) <= ORACLE_AGREEMENT_TOL * (1.0 + abs(report.value))
    return replace(report, oracle_value=best.value, oracle_x=best.x_best, oracle_agreement=agreement)
