"""Verification suites behind the ``verify`` CLI subcommand.

Each suite is a list of named checks mixing three kinds of evidence:

  * exact rational identities (zero tolerance),
  * sampled analytic properties (gradient vs finite differences, concavity,
    weak duality, closed-form reproduction), and
  * certificate triage facts (known spurious critical points rejected).

Sampling uses the package's seeded generator, so suites are deterministic;
every sample is drawn through oracle.Lcg.units, most as uniform_columns.
Each suite evaluates each sample set of the dual in one numpy pass over
columns, bit for bit the DualPoint at each sample:
canonical.dual_samples, dual_columns and dual_gradient_columns (the
finite-difference gradient check, _fd_gradient_matches) and
domain_exceeds (verify_problem's interior samples and thc's region
sweep).  verify_problem's conjugate checks and primal samples are column
arithmetic too.  The references of gp and thc, gp_dual_closed_form and
thc_dual, stay scalar.

The rules the suites share are stated once each: _zero_gap_triple (all
three suites; each passes in its own Xi, recomputed apart from the ascent:
_complementary for gp and file, benchmarks.thc_complementary for thc),
_midpoint_concave (gp's sampled dual values, thc's closed-form dual), and
_weak_duality and _fd_gradient_matches (gp and file).  Their tolerances
are the module constants below; a tolerance that one check alone uses is
written in that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

import numpy as np

from . import benchmarks, canonical, dual_solver, oracle
from .dual_solver import Certificate, SolverConfig
from .errors import CanondualError
from .smallmat import _plain_sum

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
    """canonical.dual_gradient against dual_solver._fd_gradient of
    canonical.dual_value at each point, in two passes: the analytic
    gradient at the points (dual_gradient_columns), and the dual at the
    points and their 2m shifted neighbours (dual_columns), from which the
    central differences and, where one side is outside the domain (it
    raises there, or its value is not finite), the one-sided quotients
    against the point's value are formed as _fd_columns forms them.  Where
    the scalar check raises, at the first such point, in order, the scalar
    check runs there and raises its error.  The worst relative error is
    taken with max over the points and components in order, as the scalar
    loop took it."""
    m = pr.m
    sigma = np.array(points, dtype=np.float64).reshape(len(points), m).T
    analytic, analytic_ok = canonical.dual_gradient_columns(pr, sigma)
    h = _FD_STEP * (1.0 + np.abs(sigma))
    shifted = [sigma]  # the points, then each component's up and down neighbours
    for k in range(m):
        for step in (h[k], -h[k]):  # sigma_k + (-h) has the bits of sigma_k - h
            neighbour = sigma.copy()
            neighbour[k] = sigma[k] + step
            shifted.append(neighbour)
    values, _, solved = canonical.dual_columns(pr, np.concatenate(shifted, axis=1))
    values, solved = values.reshape(2 * m + 1, -1), solved.reshape(2 * m + 1, -1)
    valid = solved & np.isfinite(values)
    center, up, down = values[0], values[1::2], values[2::2]
    up_ok, down_ok = valid[1::2], valid[2::2]
    both = up_ok & down_ok
    # The scalar check's errors: the point's value, needed where a side is
    # out; "cannot difference" where both sides are; the analytic gradient.
    offending = (~both.all(axis=0) & ~solved[0]) | (~up_ok & ~down_ok).any(axis=0) | ~analytic_ok
    if offending.any():
        first = tuple(points[int(np.argmax(offending))])
        dual_solver._fd_gradient(partial(canonical.dual_value, pr), first, _FD_STEP)
        canonical.dual_gradient(pr, first)
    with np.errstate(all="ignore"):
        reference = np.where(both, (up - down) / (2.0 * h), np.where(up_ok, (up - center) / h, (center - down) / h))
        errors = np.abs(np.array(analytic) - reference) / (1.0 + np.abs(reference))
    worst = 0.0
    for error in errors.T.ravel().tolist():
        worst = max(worst, error)
    return _check("dual-gradient-vs-fd", worst <= _FD_TOL, f"worst relative error {worst:.3e}")


def _midpoint_concave(a: Sequence[float], b: Sequence[float], mid: Sequence[float]) -> bool:
    """value(mid) >= (value(a) + value(b)) / 2 - _CONCAVITY_TOL on every
    sampled pair (a, b) of dual points, given the values at each pair's
    ends and midpoint, pair by pair."""
    return not np.any(np.asarray(mid) < 0.5 * (np.asarray(a) + np.asarray(b)) - _CONCAVITY_TOL)


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
    lam = _plain_sum(s * op.value(x) for s, op in zip(sigma, pr.ops))
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
    lo = -53.0 / 3.0 + margin
    return (lo + (40.0 - lo) * oracle.Lcg(seed).units(count)).tolist()


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
    sigmas = _gp_feasible_samples(1000, seed=101)
    closed = np.array([benchmarks.gp_dual_closed_form(s) for s in sigmas])
    values, _ = canonical.dual_samples(pr, (sigmas,))
    worst = max((np.abs(values - closed) / (1.0 + np.abs(closed))).tolist())
    checks.append(_check("dual-closed-form-reproduction", worst <= 1e-10, f"worst {worst:.3e}"))

    # Analytic gradient vs central differences at 20 interior points.
    checks.append(_fd_gradient_matches(pr, [(s,) for s in _gp_feasible_samples(20, seed=102, margin=0.5)]))

    # Midpoint concavity on 200 sampled feasible pairs (the domain is convex):
    # the dual at their 400 ends and 200 midpoints.
    ends = np.array(_gp_feasible_samples(400, seed=103))
    values, _ = canonical.dual_samples(pr, (np.concatenate([ends, 0.5 * (ends[::2] + ends[1::2])]),))
    concave_ok = _midpoint_concave(values[:400:2], values[1:400:2], values[400:])
    checks.append(_check("dual-midpoint-concavity", concave_ok))

    # Weak duality: dual values never exceed primal values (100 x 100 samples).
    rng = oracle.Lcg(104)
    lo = -53.0 / 3.0 + 1e-6
    sigmas = lo + (40.0 - lo) * rng.units(100)
    ts = -10.0 + (10.0 - -10.0) * rng.units(100)
    duals = canonical.dual_samples(pr, (sigmas,))[0]
    checks.append(_weak_duality(duals.tolist(), canonical.primal_samples(pr, (ts,)).tolist()))

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
    units = oracle.Lcg(seed).units(2 * count).reshape(count, 2)
    s1 = -0.9 + (0.9 - -0.9) * units[:, 0]
    floor = 25.0 * s1 * s1 - 13.0 / 5.0
    lo, hi = floor + 0.05, floor + 12.0
    return list(zip(s1.tolist(), (lo + (hi - lo) * units[:, 1]).tolist()))


def verify_thc(cfg: SolverConfig | None = None) -> list[CheckResult]:
    cfg = cfg or SolverConfig()
    checks: list[CheckResult] = []

    for level, identity in ((1, benchmarks.thc_level1_identity), (2, benchmarks.thc_level2_identity)):
        ok = identity()
        detail = "" if ok else f"offending monomial {benchmarks.thc_identity_mismatch(level)}"
        checks.append(_check(f"staging-level{level}-exact", ok, detail))

    thc = benchmarks.thc_problem()  # the dual the solver climbs

    # Feasibility region is exactly {s2 >= 25 s1^2 - 13/5}: compare the PSD
    # threshold test with the algebraic inequality on a sample sweep.
    s1, s2 = oracle.Lcg(201).uniform_columns((-1.5, -5.0), (1.5, 10.0), 400)
    inside = canonical.domain_exceeds(thc, (s1, s2), -canonical.PSD_TOL)
    floor = 25.0 * s1 * s1 - 13.0 / 5.0
    region_ok = not np.any((inside != (s2 >= floor - 1e-7)) & (np.abs(s2 - floor) > 1e-6))
    checks.append(_check("feasibility-region-algebra", region_ok))

    # The table's dual equals the closed form at 200 strictly feasible
    # samples, 1e-9 relative.
    samples = _thc_feasible_samples(200, seed=202)
    closed = np.array([benchmarks.thc_dual(*sigma) for sigma in samples])
    eliminated, _ = canonical.dual_samples(thc, tuple(zip(*samples)))
    worst = max([0.0, *(np.abs(closed - eliminated) / (1.0 + np.abs(closed))).tolist()])
    checks.append(_check("dual-vs-elimination", worst <= 1e-9, f"worst {worst:.3e}"))

    # Midpoint concavity over 200 feasible pairs (region is convex), on the
    # closed-form dual.
    ends = _thc_feasible_samples(400, seed=203)
    mids = [tuple(0.5 * (p + q) for p, q in zip(a, b)) for a, b in zip(ends[::2], ends[1::2])]
    values = [benchmarks.thc_dual(*sigma) for sigma in ends + mids]
    concave_ok = _midpoint_concave(values[:400:2], values[1:400:2], values[400:])
    checks.append(_check("dual-midpoint-concavity", concave_ok))

    # x_bar = G^{-1} F always has y = -x/2 (second stationarity row).
    _, (x, y) = canonical.dual_samples(thc, tuple(zip(*_thc_feasible_samples(100, seed=204))))
    half_ok = not np.any(np.abs(2.0 * y + x) > 1e-12 * (1.0 + np.abs(x)))
    checks.append(_check("equilibrium-halving-row", half_ok, "2y + x = 0"))

    # Zero-gap equality chain at the certified solution.
    report = benchmarks.thc_solve(cfg, with_oracle=False)
    xi = benchmarks.thc_complementary(*report.dual_report.sigma_star, *report.x_star)
    checks.append(_zero_gap_triple(report.dual_report, xi))
    return checks


def _problem_interior_samples(
    pr: canonical.CanonicalProblem, anchor: tuple[float, ...], count: int, seed: int
) -> list[tuple[float, ...]]:
    """Dual points with margin > 10 INTERIOR_MARGIN near anchor, the interior
    start: anchor plus uniform(-1, 1) offsets, in draw order, from at most
    200 count trials, padded with anchor.  The trials are drawn count at a
    time and each chunk is tested in one pass (canonical.domain_exceeds);
    the generator is this function's own, so the draws left unused change
    nothing."""
    rng = oracle.Lcg(seed)
    points: list[tuple[float, ...]] = []
    radius = 1.0
    attempts, limit = 0, 200 * count
    origin = np.array(anchor, dtype=np.float64).reshape(pr.m, 1)
    while len(points) < count and attempts < limit:
        chunk = min(count, limit - attempts)
        attempts += chunk
        trials = origin + rng.uniform_columns((-radius,) * pr.m, (radius,) * pr.m, chunk)
        inside = canonical.domain_exceeds(pr, trials, 10 * dual_solver.INTERIOR_MARGIN)
        points += map(tuple, trials[:, inside].T[:count - len(points)].tolist())
    if len(points) < count:
        points.extend([anchor] * (count - len(points)))
    return points


def verify_problem(pr: canonical.CanonicalProblem, cfg: SolverConfig | None = None) -> list[CheckResult]:
    """Generic duality checks for a user-supplied problem.  Each sample set
    is evaluated in one numpy pass, as float64 columns, bit for bit the
    scalar evaluation of each sample."""
    cfg = cfg or SolverConfig()
    checks: list[CheckResult] = []
    rng = oracle.Lcg(301)
    pairs = pr.V.pairs_float

    # Conjugation involution: applying both duality relations returns sigma.
    # All 100 samples are drawn first, so pairing's draws follow them.
    sigma = rng.uniform_columns((-20.0,) * pr.m, (20.0,) * pr.m, 100)
    back = [2.0 * a * x + beta for (a, beta), x in zip(pairs, canonical.conjugate_gradient(pr.V, sigma))]
    invol_ok = not any(np.any(np.abs(b - s) > 1e-12 * (1.0 + np.abs(s))) for b, s in zip(back, sigma))
    checks.append(_check("legendre-involution", invol_ok))

    # Conjugate pairing on the gradient graph: V(xi) + V*(sigma) == xi . sigma.
    xi = rng.uniform_columns((-10.0,) * pr.m, (10.0,) * pr.m, 100)
    sigma = [2.0 * a * x + beta for (a, beta), x in zip(pairs, xi)]
    lhs = pr.V.value(xi) + canonical.conjugate_values(pr.V, sigma)
    rhs = sum(x * s for x, s in zip(xi, sigma))
    pairing_ok = not np.any(np.abs(lhs - rhs) > 1e-10 * (1.0 + np.abs(rhs)))
    checks.append(_check("conjugate-pairing-on-graph", pairing_ok))

    # The interior start, found once for both dual samples; solve_canonical
    # finds its own.
    anchor = dual_solver.find_interior_start(partial(canonical.DualPoint, pr), pr.m).sigma
    checks.append(_fd_gradient_matches(pr, _problem_interior_samples(pr, anchor, 20, seed=302)))

    # Weak duality sampling over feasible duals and a primal box, P through
    # the float evaluator of its exact expansion (the one verify file
    # prints), which takes the box's columns as it takes a point.
    duals, _ = canonical.dual_samples(pr, np.array(_problem_interior_samples(pr, anchor, 100, seed=304)).T)
    h = _PRIMAL_BOX_HALFWIDTH
    box = oracle.Lcg(303).uniform_columns((-h,) * pr.n, (h,) * pr.n, 100)
    with np.errstate(all="ignore"):
        primals = np.broadcast_to(pr.objective.float_evaluator()(tuple(box)), (100,))
    checks.append(_weak_duality(duals.tolist(), primals.tolist()))

    report = dual_solver.solve_canonical(pr, cfg)
    if report.certificate == Certificate.GLOBAL_MINIMUM_CERTIFIED:
        xi = _complementary(pr, report.sigma_star, report.x_bar.entries)
        checks.append(_zero_gap_triple(report, xi, f"gap {report.gap:.3e}"))
    else:
        checks.append(_check("zero-gap-triple", True, f"skipped: certificate {report.certificate.value}"))
    return checks
