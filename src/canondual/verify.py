"""Verification suites behind the ``verify`` CLI subcommand.

Each suite is a list of named checks mixing three kinds of evidence:

  * exact rational identities (zero tolerance),
  * sampled analytic properties (gradient vs finite differences, concavity,
    weak duality, closed-form reproduction), and
  * certificate triage facts (known spurious critical points rejected).

Sampling uses the package's seeded generator, so suites are deterministic.

The rules the suites share are stated once each: _zero_gap_triple (all
three suites; each passes in its own Xi, recomputed apart from the ascent:
_complementary for gp and file, benchmarks.thc_complementary for thc),
_midpoint_concave (gp's dual_value, thc's closed-form dual), and
_weak_duality and _fd_gradient_matches (gp and file).  Their tolerances
are the module constants below; a tolerance that one check alone uses is
written in that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

from . import benchmarks, canonical, dual_solver, oracle
from .dual_solver import Certificate, SolverConfig
from .errors import CanondualError

_PRIMAL_BOX_HALFWIDTH = 10.0  # verify_problem's weak-duality samples: x in [-10, 10]^n
_FD_STEP = 1e-5  # dual-gradient-vs-fd: central difference step, times 1 + |sigma_k|
_FD_TOL = 1e-6  # dual-gradient-vs-fd: worst relative error allowed
_CONCAVITY_TOL = 1e-9  # dual-midpoint-concavity: midpoint value may sit this far below the chord
_WEAK_DUALITY_TOL = 1e-8  # weak-duality-sampling: max dual may exceed min primal by this much
_ZERO_GAP_TOL = 1e-8  # zero-gap-triple: |P - Xi| and |Xi - Pd| allowed, times 1 + |P|


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _fd_gradient_matches(pr: canonical.Problem, points: Sequence[tuple[float, ...]]) -> CheckResult:
    worst = 0.0
    for sigma in points:
        fd = dual_solver._fd_gradient(partial(canonical.dual_value, pr), tuple(sigma), _FD_STEP)
        for analytic, reference in zip(canonical.dual_gradient(pr, sigma), fd):
            worst = max(worst, abs(analytic - reference) / (1.0 + abs(reference)))
    return _check("dual-gradient-vs-fd", worst <= _FD_TOL, f"worst relative error {worst:.3e}")


def _midpoint_concave(
    value: Callable[[tuple[float, ...]], float], pairs: Iterable[tuple[tuple[float, ...], tuple[float, ...]]]
) -> bool:
    """value((a + b) / 2) >= (value(a) + value(b)) / 2 - _CONCAVITY_TOL on
    every sampled pair (a, b) of dual points; stops at the first violation."""
    for a, b in pairs:
        mid = tuple(0.5 * (p + q) for p, q in zip(a, b))
        if value(mid) < 0.5 * (value(a) + value(b)) - _CONCAVITY_TOL:
            return False
    return True


def _weak_duality(duals: Sequence[float], primals: Sequence[float]) -> CheckResult:
    """No sampled dual value above a sampled primal value."""
    max_dual, min_primal = max(duals), min(primals)
    return _check(
        "weak-duality-sampling",
        max_dual <= min_primal + _WEAK_DUALITY_TOL,
        f"max dual {max_dual:.6f} vs min primal {min_primal:.6f}",
    )


def _complementary(pr: canonical.CanonicalProblem, sigma: Sequence[float], x: Sequence[float]) -> float:
    """Xi(x, sigma) = sum_k sigma_k Lambda_k(x) - V*(sigma) - U(x) from the
    problem's own operators and V, not from the dual table the ascent used."""
    lam = sum(s * op.value(x) for s, op in zip(sigma, pr.ops))
    return lam - canonical.conjugate_value(pr.V, sigma) - canonical._u(pr, x)


def _zero_gap_triple(report: dual_solver.CriticalReport, xi: float, detail: str | None = None) -> CheckResult:
    """P(x_bar) = Xi(x_bar, sigma*) = P^d(sigma*) within _ZERO_GAP_TOL
    (1 + |P|) for a certified report.  xi is Xi recomputed by the suite from
    sigma* and x_bar, not read from the report; the detail defaults to the
    three values."""
    tol = _ZERO_GAP_TOL * (1.0 + abs(report.primal))
    ok = (
        report.certificate == Certificate.GLOBAL_MINIMUM_CERTIFIED
        and abs(report.primal - xi) <= tol
        and abs(xi - report.dual) <= tol
    )
    if detail is None:
        detail = f"P={report.primal:.12f} Xi={xi:.12f} Pd={report.dual:.12f}"
    return _check("zero-gap-triple", ok, detail)


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
    checks.append(_fd_gradient_matches(pr, [(s,) for s in _gp_feasible_samples(20, seed=102, margin=0.5)]))

    # Midpoint concavity on 200 sampled feasible pairs (the domain is convex).
    ends = [(s,) for s in _gp_feasible_samples(400, seed=103)]
    concave_ok = _midpoint_concave(partial(canonical.dual_value, pr), zip(ends[::2], ends[1::2]))
    checks.append(_check("dual-midpoint-concavity", concave_ok))

    # Weak duality: dual values never exceed primal values (100 x 100 samples).
    rng = oracle.Lcg(104)
    sigmas = [rng.uniform(-53.0 / 3.0 + 1e-6, 40.0) for _ in range(100)]
    ts = [rng.uniform(-10.0, 10.0) for _ in range(100)]
    checks.append(
        _weak_duality(
            [canonical.dual_value(pr, (s,)) for s in sigmas],
            [canonical.primal_value(pr, (t,)) for t in ts],
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
    checks.append(_zero_gap_triple(report, _complementary(pr, report.sigma_star, report.x_bar.entries)))
    return checks


def _thc_feasible_samples(count: int, seed: int) -> list[tuple[float, float]]:
    """Strictly feasible THC dual points: s1 in [-0.9, 0.9] and s2 from 0.05
    to 12 above the boundary s2 = 25 s1^2 - 13/5."""
    rng = oracle.Lcg(seed)
    points = []
    for _ in range(count):
        s1 = rng.uniform(-0.9, 0.9)
        floor = 25.0 * s1 * s1 - 13.0 / 5.0
        points.append((s1, rng.uniform(floor + 0.05, floor + 12.0)))
    return points


def verify_thc(cfg: SolverConfig | None = None) -> list[CheckResult]:
    cfg = cfg or SolverConfig()
    checks: list[CheckResult] = []

    for level, identity in ((1, benchmarks.thc_level1_identity), (2, benchmarks.thc_level2_identity)):
        ok = identity()
        detail = "" if ok else f"offending monomial {benchmarks.thc_identity_mismatch(level)}"
        checks.append(_check(f"staging-level{level}-exact", ok, detail))

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
    worst = 0.0
    for sigma in _thc_feasible_samples(200, seed=202):
        eliminated = canonical.dual_value(thc, sigma)
        closed = benchmarks.thc_dual(*sigma)
        worst = max(worst, abs(closed - eliminated) / (1.0 + abs(closed)))
    checks.append(_check("dual-vs-elimination", worst <= 1e-9, f"worst {worst:.3e}"))

    # Midpoint concavity over 200 feasible pairs (region is convex).
    ends = _thc_feasible_samples(400, seed=203)
    concave_ok = _midpoint_concave(lambda sigma: benchmarks.thc_dual(*sigma), zip(ends[::2], ends[1::2]))
    checks.append(_check("dual-midpoint-concavity", concave_ok))

    # x_bar = G^{-1} F always has y = -x/2 (second stationarity row).
    half_ok = True
    for sigma in _thc_feasible_samples(100, seed=204):
        x, y = canonical.DualPoint(thc, sigma).x_bar()
        if abs(2.0 * y + x) > 1e-12 * (1.0 + abs(x)):
            half_ok = False
            break
    checks.append(_check("equilibrium-halving-row", half_ok, "2y + x = 0"))

    # Zero-gap equality chain at the certified solution.
    report = benchmarks.thc_solve(cfg, with_oracle=False)
    xi = benchmarks.thc_complementary(*report.dual_report.sigma_star, *report.x_star)
    checks.append(_zero_gap_triple(report.dual_report, xi))
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
        back = tuple(2.0 * a * x + beta for (a, beta), x in zip(pr.V.pairs_float, xi))
        if any(abs(b - s) > 1e-12 * (1.0 + abs(s)) for b, s in zip(back, sigma)):
            invol_ok = False
            break
    checks.append(_check("legendre-involution", invol_ok))

    # Conjugate pairing on the gradient graph: V(xi) + V*(sigma) == xi . sigma.
    pairing_ok = True
    for _ in range(100):
        xi = tuple(rng.uniform(-10.0, 10.0) for _ in range(pr.m))
        sigma = tuple(2.0 * a * x + beta for (a, beta), x in zip(pr.V.pairs_float, xi))
        lhs = pr.V.value(xi) + canonical.conjugate_value(pr.V, sigma)
        rhs = sum(x * s for x, s in zip(xi, sigma))
        if abs(lhs - rhs) > 1e-10 * (1.0 + abs(rhs)):
            pairing_ok = False
            break
    checks.append(_check("conjugate-pairing-on-graph", pairing_ok))

    checks.append(_fd_gradient_matches(pr, _problem_interior_samples(pr, 20, seed=302)))

    # Weak duality sampling over feasible duals and a primal box.
    rng = oracle.Lcg(303)
    duals = [canonical.dual_value(pr, sigma) for sigma in _problem_interior_samples(pr, 100, seed=304)]
    h = _PRIMAL_BOX_HALFWIDTH
    primals = [canonical.primal_value(pr, tuple(rng.uniform(-h, h) for _ in range(pr.n))) for _ in range(100)]
    checks.append(_weak_duality(duals, primals))

    report = dual_solver.solve_canonical(pr, cfg)
    if report.certificate == Certificate.GLOBAL_MINIMUM_CERTIFIED:
        xi = _complementary(pr, report.sigma_star, report.x_bar.entries)
        checks.append(_zero_gap_triple(report, xi, f"gap {report.gap:.3e}"))
    else:
        checks.append(_check("zero-gap-triple", True, f"skipped: certificate {report.certificate.value}"))
    return checks
