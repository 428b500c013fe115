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
sextic cannot be reached by a single quadratic measure.  THC is data: its
objective and two canonical.Stage records, run by canonical.staged, which
gives both staging identities, checked exactly, and the dual table,

    G = [[44/75 - (5/6) s1^2 + s2/30, 1], [1, 2]],
    F = ((8/15) s1 - s1 s2 / 12, 0),  c = -s1^2/24 - s2^2/240.

G depends on sigma1^2, so THC is a canonical.TableProblem.  The closed
forms thc_dual, thc_equilibrium and thc_complementary remain as float
references for verify and the tests.

gp_solve and solve_problem (thc and problem files) build their SolveReport
the same way: _cross_checked adds the brute-force oracle's multistart
value over the problem's box and whether it agrees with the certified
value within ORACLE_AGREEMENT_TOL (1 + |value|).  Where it does not, the
oracle also refines from the best node of a coarse lattice scan of the
same box and keeps the lower of the two values: every seeded start may
fall into a side basin (all 64 THC starts of seed 378328577 refine to the
side minima 0.2986), and the scan reads nothing of the dual's answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

from . import canonical, dual_solver, oracle
from .dual_solver import CriticalReport, SolverConfig
from .errors import DomainViolation, IdentityViolation, NotConverged, SingularMatrixError
from .polynomial import MultiPoly, first_diff_term

GP_BOX = oracle.Box((-2.0, -2.0), (2.0, 2.0))
THC_BOX = oracle.Box((-5.0, -5.0), (5.0, 5.0))

ORACLE_STARTS = 64
ORACLE_SEED = 42
ORACLE_AGREEMENT_TOL = 1e-4
ORACLE_GRID_NODES = 21  # per axis, of the lattice scan behind a disagreeing multistart


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

@cache
def gp_objective() -> MultiPoly:
    """Goldstein-Price, expanded exactly from its factored form."""
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    first = 1 + (x + y + 1) ** 2 * (19 - 14 * x + 3 * x**2 - 14 * y + 6 * x * y + 3 * y**2)
    second = 30 + (2 * x - 3 * y) ** 2 * (
        18 - 32 * x + 12 * x**2 + 48 * y - 36 * x * y + 27 * y**2
    )
    return first * second


@cache
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


@cache
def gp_h() -> MultiPoly:
    return _h(MultiPoly.variable(1, 0))


@cache
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


@cache
def gp_decompose() -> GpDecomposition:
    """The decoupling change of variables, verified exactly at build time,
    with both factors' minima checked positive: h's through gp_solve_h, so
    one process isolates h' once, and g's by oracle.univariate_global."""
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
    # gp_solve_h raises unless every critical value of h, so its minimum, is positive.
    gp_solve_h()
    bound = max(10.0, 1.1 * oracle.cauchy_root_bound(g.partial_derivative(0)))
    if oracle.univariate_global(g, (-bound, bound)).value <= 0:
        raise IdentityViolation("global minimum of g is not strictly positive")
    return GpDecomposition(T=_GP_T, T_inv=_GP_T_INV, h=h, g=g)


@cache
def gp_solve_h() -> tuple[float, float, tuple[tuple[float, float], ...]]:
    """Global minimum of h by enumerating every critical point, isolated
    exactly by oracle.derivative_roots: (s_star, h(s_star), ((root, h(root)), ...)).

    h' factors as 12 (s + 1)(s - 1)(s - 2): three critical points, not
    one, but the global minimum is still at s = -1 since h has a positive
    leading coefficient and h(-1) = 1 < h(2) = 28 < h(1) = 33.
    """
    h = gp_h()
    dh = h.partial_derivative(0)
    bound = max(10.0, 1.1 * oracle.cauchy_root_bound(dh))
    roots = oracle.derivative_roots(h, (-bound, bound))
    criticals = tuple((root, h.eval([root])) for root in roots)
    for root, value in criticals:
        if value <= 0:
            raise IdentityViolation(f"h({root}) = {value} <= 0 breaks the decoupling guard")
    s_star, h_star = min(criticals, key=lambda pair: pair[1])
    return s_star, h_star, criticals


@cache
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
    expanded = pr.objective
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
    value = h_star * dec.g.eval([t_star])
    solved = SolveReport("gp", (s_star, t_star), (x_star, y_star), value, report)
    return _cross_checked(solved, gp_objective() if with_oracle else None, GP_BOX, oracle_starts, oracle_seed)


# ---------------------------------------------------------------------------
# Three Hump Camel pipeline
# ---------------------------------------------------------------------------

def _thc_stages() -> tuple[canonical.Stage, canonical.Stage]:
    """THC's two levels in (x, y, s1, s2): Lambda_k = xi_k / a_k, V_k(xi) =
    a_k xi^2 with a1 = 6 and a2 = 60, and U1, U2 as the paper gives them."""
    x, y, s1, _ = (MultiPoly.variable(4, i) for i in range(4))
    sixth, sixtieth = Fraction(1, 6), Fraction(1, 60)
    u1 = -sixth * (Fraction(1, 10) * x**4 + Fraction(44, 25) * x**2 + 6 * x * y + 6 * y**2)
    u2 = sixtieth * (25 * s1**2 * x**2 - Fraction(88, 5) * x**2 + 32 * s1 * x - 60 * x * y - 60 * y**2
                     + Fraction(5, 2) * s1**2)
    return (canonical.Stage(sixth * (x**3 - Fraction(16, 5) * x), 6, 0, u1),
            canonical.Stage(sixtieth * (x**2 + 5 * s1 * x), 60, 0, u2))


@cache
def _thc_staging() -> tuple[tuple[canonical.Sides, ...], canonical.DualTable]:
    """canonical.staged of THC's objective and stages, once per process."""
    return canonical.staged(thc_objective(), 2, _thc_stages())


@cache
def thc_level1_identity() -> bool:
    """f(x, y) == V1(Lambda1) - U1, exactly (checked once per process)."""
    return thc_identity_mismatch(1) is None


@cache
def thc_level2_identity() -> bool:
    """Xi1 == V2(Lambda2) - U2, exactly (checked once per process)."""
    return thc_identity_mismatch(2) is None


def thc_identity_mismatch(level: int):
    """First offending monomial (x, y, s1, s2) of a staging identity, or None."""
    return first_diff_term(*_thc_staging()[0][level - 1])


@cache
def thc_problem() -> canonical.TableProblem:
    """Three Hump Camel as the dual table of its staging and its objective."""
    return canonical.TableProblem(_thc_staging()[1], thc_objective())


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
    agreement with report.value, or report itself when objective is None.
    A multistart that disagrees is joined by one more refinement, from the
    best node of grid_scan(objective, box, ORACLE_GRID_NODES), and the
    lower value of the two is reported (the multistart's on a tie, or when
    that refinement does not converge)."""
    if objective is None:
        return report

    def agrees(value: float) -> bool:
        return abs(report.value - value) <= ORACLE_AGREEMENT_TOL * (1.0 + abs(report.value))

    best = oracle.multistart(objective, box, oracle_starts, oracle_seed)
    x, value = best.x_best, best.value
    if not agrees(value):
        try:
            node_x = oracle.local_refine(objective, oracle.grid_scan(objective, box, ORACLE_GRID_NODES).x_best)
            node_value = objective.eval(node_x)
        except NotConverged:
            node_value = math.inf
        if node_value < value:
            x, value = node_x, node_value
    return replace(report, oracle_value=value, oracle_x=x, oracle_agreement=agrees(value))
