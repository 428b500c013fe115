"""Verification suites behind the ``verify`` CLI subcommand.

Each suite is a list of named checks mixing three kinds of evidence:

  * exact rational identities (zero tolerance),
  * sampled analytic properties (gradient vs finite differences, concavity,
    weak duality, closed-form reproduction), and
  * certificate triage facts (known spurious critical points rejected).

Sampling uses the package's seeded generator, so suites are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

from . import benchmarks, canonical, dual_solver, oracle
from .dual_solver import Certificate, SolverConfig
from .errors import CanondualError

_PRIMAL_BOX_HALFWIDTH = 10.0  # verify_problem's weak-duality samples: x in [-10, 10]^n
_FD_STEP = 1e-5  # dual-gradient-vs-fd: central difference step, times 1 + |sigma_k|
_FD_TOL = 1e-6  # dual-gradient-vs-fd: worst relative error allowed


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _fd_gradient_matches(pr: canonical.Problem, points: Sequence[tuple[float, ...]]) -> tuple[bool, str]:
    worst = 0.0
    for sigma in points:
        fd = dual_solver._fd_gradient(partial(canonical.dual_value, pr), tuple(sigma), _FD_STEP)
        for analytic, reference in zip(canonical.dual_gradient(pr, sigma), fd):
            worst = max(worst, abs(analytic - reference) / (1.0 + abs(reference)))
    return worst <= _FD_TOL, f"worst relative error {worst:.3e}"


def _complementary(pr: canonical.CanonicalProblem, sigma: Sequence[float], x: Sequence[float]) -> float:
    """Xi(x, sigma) = sum_k sigma_k Lambda_k(x) - V*(sigma) - U(x) from the
    problem's own operators and V, not from the dual table the ascent used."""
    lam = sum(s * op.value(x) for s, op in zip(sigma, pr.ops))
    return lam - canonical.conjugate_value(pr.V, sigma) - canonical._u(pr, x)


def _zero_gap_triple(pr: canonical.CanonicalProblem, report: dual_solver.CriticalReport) -> tuple[bool, float]:
    """(P(x_bar) = Xi(x_bar, sigma*) = P^d(sigma*) within 1e-8 (1 + |P|),
    Xi) for a certified report, with Xi recomputed from sigma* and x_bar."""
    xi = _complementary(pr, report.sigma_star, report.x_bar.entries)
    tol = 1e-8 * (1.0 + abs(report.primal))
    ok = (
        report.certificate == Certificate.GLOBAL_MINIMUM_CERTIFIED
        and abs(report.primal - xi) <= tol
        and abs(xi - report.dual) <= tol
    )
    return ok, xi


def _gp_feasible_samples(count: int, seed: int, margin: float = 1e-3) -> list[float]:
    rng = oracle.Lcg(seed)
    lo = -53.0 / 3.0 + margin
    return [rng.uniform(lo, 40.0) for _ in range(count)]


def verify_gp(cfg: SolverConfig | None = None) -> list[CheckResult]:
    cfg = cfg or SolverConfig()
    checks: list[CheckResult] = []

    # Exact decomposition identities (constructors raise on failure).
    try:
        benchmarks.gp_decompose()
        checks.append(_check("decoupling-identity-exact", True, "h(s)g(t) under (x+y, 2x-3y)"))
    except CanondualError as exc:
        checks.append(_check("decoupling-identity-exact", False, str(exc)))
    try:
        pr = benchmarks.gp_canonical_g()
        checks.append(_check("g-canonical-form-exact", True, "V(Lambda(t)) - U(t) == g(t)"))
    except CanondualError as exc:
        checks.append(_check("g-canonical-form-exact", False, str(exc)))
        return checks

    # Critical-point enumeration of h: three roots, minimum at -1, all values positive.
    s_star, h_star, criticals = benchmarks.gp_solve_h()
    roots = [r for r, _ in criticals]
    dh = benchmarks.gp_h().partial_derivative(0)
    residuals_ok = all(abs(dh.eval([r])) <= 1e-10 for r in roots)
    expected = [-1.0, 1.0, 2.0]
    roots_ok = len(roots) == 3 and all(abs(r - e) <= 1e-10 for r, e in zip(roots, expected))
    checks.append(
        _check(
            "h-critical-set",
            roots_ok and residuals_ok and abs(s_star + 1.0) <= 1e-10 and abs(h_star - 1.0) <= 1e-10,
            f"roots {roots}",
        )
    )
    positive = all(value > 0 for _, value in criticals)
    checks.append(_check("decoupling-positivity-guard", positive, "min h > 0 and min g > 0"))

    # Closed-form reproduction of the eliminated dual, 1000 samples, 1e-10 relative.
    closed = [(s, benchmarks.gp_dual_closed_form(s)) for s in _gp_feasible_samples(1000, seed=101)]
    worst = max(abs(canonical.dual_value(pr, (s,)) - value) / (1.0 + abs(value)) for s, value in closed)
    checks.append(_check("dual-closed-form-reproduction", worst <= 1e-10, f"worst {worst:.3e}"))

    # Analytic gradient vs central differences at 20 interior points.
    points = [(s,) for s in _gp_feasible_samples(20, seed=102, margin=0.5)]
    ok, detail = _fd_gradient_matches(pr, points)
    checks.append(_check("dual-gradient-vs-fd", ok, detail))

    # Midpoint concavity on 200 sampled feasible pairs (the domain is convex).
    rng = oracle.Lcg(103)
    concave_ok = True
    for _ in range(200):
        a = rng.uniform(-53.0 / 3.0 + 1e-3, 40.0)
        b = rng.uniform(-53.0 / 3.0 + 1e-3, 40.0)
        mid = 0.5 * (a + b)
        lhs = canonical.dual_value(pr, (mid,))
        rhs = 0.5 * (canonical.dual_value(pr, (a,)) + canonical.dual_value(pr, (b,)))
        if lhs < rhs - 1e-9:
            concave_ok = False
            break
    checks.append(_check("dual-midpoint-concavity", concave_ok))

    # Weak duality: dual values never exceed primal values (100 x 100 samples).
    rng = oracle.Lcg(104)
    sigmas = [rng.uniform(-53.0 / 3.0 + 1e-6, 40.0) for _ in range(100)]
    ts = [rng.uniform(-10.0, 10.0) for _ in range(100)]
    max_dual = max(canonical.dual_value(pr, (s,)) for s in sigmas)
    min_primal = min(canonical.primal_value(pr, (t,)) for t in ts)
    checks.append(
        _check(
            "weak-duality-sampling",
            max_dual <= min_primal + 1e-8,
            f"max dual {max_dual:.6f} vs min primal {min_primal:.6f}",
        )
    )

    # Spurious primal critical points t in {0, 1} map to infeasible dual points.
    triage_ok = True
    details = []
    for t in (Fraction(0), Fraction(1)):
        xi = t * t - Fraction(8, 3) * t - 2
        sigma = 6 * xi - 9  # duality map of V(xi) = 3 xi^2 - 9 xi
        inside, _ = canonical.in_positive_domain(pr, (float(sigma),))
        details.append(f"t={t} -> sigma={sigma}")
        expected_sigma = -21 if t == 0 else -31
        if inside or sigma != expected_sigma:
            triage_ok = False
    checks.append(_check("spurious-critical-triage", triage_ok, "; ".join(details)))

    # Zero-gap equality chain at the certified solution.
    report = dual_solver.solve_canonical(pr, cfg)
    triple_ok, xi_val = _zero_gap_triple(pr, report)
    checks.append(
        _check(
            "zero-gap-triple",
            triple_ok,
            f"P={report.primal:.12f} Xi={xi_val:.12f} Pd={report.dual:.12f}",
        )
    )
    return checks


def verify_thc(cfg: SolverConfig | None = None) -> list[CheckResult]:
    cfg = cfg or SolverConfig()
    checks: list[CheckResult] = []

    ok1 = benchmarks.thc_level1_identity()
    checks.append(
        _check(
            "staging-level1-exact",
            ok1,
            "" if ok1 else f"offending monomial {benchmarks.thc_identity_mismatch(1)}",
        )
    )
    ok2 = benchmarks.thc_level2_identity()
    checks.append(
        _check(
            "staging-level2-exact",
            ok2,
            "" if ok2 else f"offending monomial {benchmarks.thc_identity_mismatch(2)}",
        )
    )

    thc = benchmarks.thc_problem()  # the dual the solver climbs

    # Feasibility region is exactly {s2 >= 25 s1^2 - 13/5}: compare the PSD
    # margin sign with the algebraic inequality on a sample sweep.
    rng = oracle.Lcg(201)
    region_ok = True
    for _ in range(400):
        s1 = rng.uniform(-1.5, 1.5)
        s2 = rng.uniform(-5.0, 10.0)
        inside, _ = canonical.in_positive_domain(thc, (s1, s2))
        algebraic = s2 >= 25.0 * s1 * s1 - 13.0 / 5.0 - 1e-7
        if inside != algebraic and abs(s2 - (25.0 * s1 * s1 - 13.0 / 5.0)) > 1e-6:
            region_ok = False
            break
    checks.append(_check("feasibility-region-algebra", region_ok))

    # The table's dual equals the closed form at 200 strictly feasible
    # samples, 1e-9 relative.
    rng = oracle.Lcg(202)
    worst = 0.0
    for _ in range(200):
        s1 = rng.uniform(-0.9, 0.9)
        floor = 25.0 * s1 * s1 - 13.0 / 5.0
        s2 = rng.uniform(floor + 0.05, floor + 12.0)
        eliminated = canonical.dual_value(thc, (s1, s2))
        closed = benchmarks.thc_dual(s1, s2)
        worst = max(worst, abs(closed - eliminated) / (1.0 + abs(closed)))
    checks.append(_check("dual-vs-elimination", worst <= 1e-9, f"worst {worst:.3e}"))

    # Midpoint concavity over 200 feasible pairs (region is convex).
    rng = oracle.Lcg(203)
    concave_ok = True
    for _ in range(200):
        pts = []
        for _ in range(2):
            s1 = rng.uniform(-0.9, 0.9)
            floor = 25.0 * s1 * s1 - 13.0 / 5.0
            pts.append((s1, rng.uniform(floor + 0.05, floor + 12.0)))
        (a1, a2), (b1, b2) = pts
        mid = (0.5 * (a1 + b1), 0.5 * (a2 + b2))
        lhs = benchmarks.thc_dual(*mid)
        rhs = 0.5 * (benchmarks.thc_dual(a1, a2) + benchmarks.thc_dual(b1, b2))
        if lhs < rhs - 1e-9:
            concave_ok = False
            break
    checks.append(_check("dual-midpoint-concavity", concave_ok))

    # x_bar = G^{-1} F always has y = -x/2 (second stationarity row).
    rng = oracle.Lcg(204)
    half_ok = True
    for _ in range(100):
        s1 = rng.uniform(-0.9, 0.9)
        floor = 25.0 * s1 * s1 - 13.0 / 5.0
        s2 = rng.uniform(floor + 0.05, floor + 12.0)
        x, y = canonical.DualPoint(thc, (s1, s2)).x_bar()
        if abs(2.0 * y + x) > 1e-12 * (1.0 + abs(x)):
            half_ok = False
            break
    checks.append(_check("equilibrium-halving-row", half_ok, "2y + x = 0"))

    # Zero-gap equality chain at the certified solution.
    report = benchmarks.thc_solve(cfg, with_oracle=False)
    dual = report.dual_report
    xi_val = benchmarks.thc_complementary(
        dual.sigma_star[0], dual.sigma_star[1], report.x_star[0], report.x_star[1]
    )
    tol = 1e-8 * (1.0 + abs(dual.primal))
    triple_ok = (
        dual.certificate == Certificate.GLOBAL_MINIMUM_CERTIFIED
        and abs(dual.primal - xi_val) <= tol
        and abs(xi_val - dual.dual) <= tol
    )
    checks.append(
        _check(
            "zero-gap-triple",
            triple_ok,
            f"P={dual.primal:.12f} Xi={xi_val:.12f} Pd={dual.dual:.12f}",
        )
    )
    return checks


def _problem_interior_samples(
    pr: canonical.CanonicalProblem, count: int, seed: int
) -> list[tuple[float, ...]]:
    """Dual points with margin > 10 INTERIOR_MARGIN near the interior-start ray."""
    anchor = dual_solver.find_interior_start(partial(canonical.DualPoint, pr), pr.m).sigma
    rng = oracle.Lcg(seed)
    points: list[tuple[float, ...]] = []
    radius = 1.0
    attempts = 0
    while len(points) < count and attempts < 200 * count:
        attempts += 1
        trial = tuple(a + rng.uniform(-radius, radius) for a in anchor)
        if canonical.DualPoint(pr, trial).exceeds(10 * dual_solver.INTERIOR_MARGIN):
            points.append(trial)
    if len(points) < count:
        points.extend([anchor] * (count - len(points)))
    return points


def verify_problem(pr: canonical.CanonicalProblem, cfg: SolverConfig | None = None) -> list[CheckResult]:
    """Generic duality checks for a user-supplied problem."""
    cfg = cfg or SolverConfig()
    checks: list[CheckResult] = []
    rng = oracle.Lcg(301)

    # Conjugation involution: applying both duality relations returns sigma.
    invol_ok = True
    for _ in range(100):
        sigma = tuple(rng.uniform(-20.0, 20.0) for _ in range(pr.m))
        xi = canonical.conjugate_gradient(pr.V, sigma)
        back = tuple(2.0 * a * x + beta for (a, beta), x in zip(pr.V.pairs, xi))
        if any(abs(b - s) > 1e-12 * (1.0 + abs(s)) for b, s in zip(back, sigma)):
            invol_ok = False
            break
    checks.append(_check("legendre-involution", invol_ok))

    # Conjugate pairing on the gradient graph: V(xi) + V*(sigma) == xi . sigma.
    pairing_ok = True
    for _ in range(100):
        xi = tuple(rng.uniform(-10.0, 10.0) for _ in range(pr.m))
        sigma = tuple(2.0 * a * x + beta for (a, beta), x in zip(pr.V.pairs, xi))
        lhs = pr.V.value(xi) + canonical.conjugate_value(pr.V, sigma)
        rhs = sum(x * s for x, s in zip(xi, sigma))
        if abs(lhs - rhs) > 1e-10 * (1.0 + abs(rhs)):
            pairing_ok = False
            break
    checks.append(_check("conjugate-pairing-on-graph", pairing_ok))

    interior = _problem_interior_samples(pr, 20, seed=302)
    ok, detail = _fd_gradient_matches(pr, interior)
    checks.append(_check("dual-gradient-vs-fd", ok, detail))

    # Weak duality sampling over feasible duals and a primal box.
    rng = oracle.Lcg(303)
    duals = []
    for sigma in _problem_interior_samples(pr, 100, seed=304):
        duals.append(canonical.dual_value(pr, sigma))
    min_primal = math.inf
    for _ in range(100):
        x = tuple(rng.uniform(-_PRIMAL_BOX_HALFWIDTH, _PRIMAL_BOX_HALFWIDTH) for _ in range(pr.n))
        min_primal = min(min_primal, canonical.primal_value(pr, x))
    checks.append(
        _check(
            "weak-duality-sampling",
            max(duals) <= min_primal + 1e-8,
            f"max dual {max(duals):.6f} vs min primal {min_primal:.6f}",
        )
    )

    report = dual_solver.solve_canonical(pr, cfg)
    if report.certificate == Certificate.GLOBAL_MINIMUM_CERTIFIED:
        ok, _ = _zero_gap_triple(pr, report)
        checks.append(_check("zero-gap-triple", ok, f"gap {report.gap:.3e}"))
    else:
        checks.append(
            _check(
                "zero-gap-triple",
                True,
                f"skipped: certificate {report.certificate.value}",
            )
        )
    return checks
