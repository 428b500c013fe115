"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from canondual import benchmarks, canonical, cli, oracle, verify
from canondual.dual_solver import Certificate
from tests.test_cli import run_cli

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


@pytest.fixture(scope="module")
def gp_report():
    benchmarks.gp_solve()  # warm expansion caches so timing sees steady state
    return benchmarks.gp_solve()


@pytest.fixture(scope="module")
def thc_report():
    benchmarks.thc_solve()
    return benchmarks.thc_solve()


def test_c1_goldstein_price_end_to_end(gp_report):
    t0 = time.perf_counter()
    report = benchmarks.gp_solve()
    elapsed = time.perf_counter() - t0
    s_star, t_star = report.transformed_solution
    ok = (
        abs(report.dual_report.sigma_star[0] + 15.0) <= 1e-6
        and abs(t_star - 3.0) <= 1e-8
        and abs(s_star + 1.0) <= 1e-10
        and abs(report.x_star[0]) <= 1e-8
        and abs(report.x_star[1] + 1.0) <= 1e-8
        and abs(report.value - 3.0) <= 1e-8
        and report.dual_report.certificate is Certificate.GLOBAL_MINIMUM_CERTIFIED
        and elapsed < 1.0
    )
    _report(
        "criterion 1: Goldstein-Price end-to-end",
        ok,
        f"sigma*={report.dual_report.sigma_star[0]:.9f} (s*,t*)=({s_star:.9f},{t_star:.9f}) "
        f"x*={report.x_star} value={report.value:.12f} {elapsed * 1e3:.0f}ms",
    )


def test_c2_three_hump_end_to_end(thc_report):
    t0 = time.perf_counter()
    report = benchmarks.thc_solve()
    elapsed = time.perf_counter() - t0
    s1, s2 = report.dual_report.sigma_star
    ok = (
        abs(s1) <= 1e-6
        and abs(s2) <= 1e-6
        and abs(report.x_star[0]) <= 1e-8
        and abs(report.x_star[1]) <= 1e-8
        and abs(report.value) <= 1e-10
        and report.dual_report.certificate is Certificate.GLOBAL_MINIMUM_CERTIFIED
        and elapsed < 1.0
    )
    _report(
        "criterion 2: Three Hump end-to-end",
        ok,
        f"sigma*=({s1:.2e},{s2:.2e}) x*={report.x_star} value={report.value:.2e} "
        f"{elapsed * 1e3:.0f}ms",
    )


def test_c3_zero_gap_equality_at_certified_solutions(gp_report, thc_report):
    pr = benchmarks.gp_canonical_g()
    gp_dual = gp_report.dual_report
    xi_gp = canonical.DualPoint(pr, gp_dual.sigma_star).complementary(gp_dual.x_bar.entries)
    tol_gp = 1e-8 * (1.0 + abs(gp_dual.primal))
    gp_ok = (
        abs(gp_dual.primal - xi_gp) <= tol_gp and abs(xi_gp - gp_dual.dual) <= tol_gp
    )

    thc_dual_report = thc_report.dual_report
    xi_thc = benchmarks.thc_complementary(
        thc_dual_report.sigma_star[0],
        thc_dual_report.sigma_star[1],
        thc_report.x_star[0],
        thc_report.x_star[1],
    )
    tol_thc = 1e-8 * (1.0 + abs(thc_dual_report.primal))
    thc_ok = (
        abs(thc_dual_report.primal - xi_thc) <= tol_thc
        and abs(xi_thc - thc_dual_report.dual) <= tol_thc
    )
    _report(
        "criterion 3: zero-gap equality chain at both certified solutions",
        gp_ok and thc_ok,
        f"gp |P-Xi|={abs(gp_dual.primal - xi_gp):.2e} thc |P-Xi|={abs(thc_dual_report.primal - xi_thc):.2e}",
    )


def test_c4_symbolic_identity_suite():
    results = []

    # Product decoupling under the linear change of variables, exactly.
    try:
        benchmarks.gp_decompose()
        results.append(True)
    except Exception:
        results.append(False)

    # Canonical form of the decoupled quartic, exactly.
    try:
        benchmarks.gp_canonical_g()
        results.append(True)
    except Exception:
        results.append(False)

    # Both staging identities for the sextic, exactly.
    results.append(benchmarks.thc_level1_identity())
    results.append(benchmarks.thc_level2_identity())

    # Closed-form dual reproduction by the generic machinery: 1000 samples,
    # 1e-10 relative.
    pr = benchmarks.gp_canonical_g()
    rng = oracle.Lcg(41)
    worst_gp = 0.0
    for _ in range(1000):
        sigma = rng.uniform(-53.0 / 3.0 + 1e-3, 40.0)
        closed = benchmarks.gp_dual_closed_form(sigma)
        generic = canonical.dual_value(pr, (sigma,))
        worst_gp = max(worst_gp, abs(generic - closed) / (1.0 + abs(closed)))
    results.append(worst_gp <= 1e-10)

    # Closed-form dual vs equilibrium elimination: 200 samples, 1e-9 relative.
    rng = oracle.Lcg(42)
    worst_thc = 0.0
    for _ in range(200):
        s1 = rng.uniform(-0.9, 0.9)
        floor = 25.0 * s1 * s1 - 13.0 / 5.0
        s2 = rng.uniform(floor + 0.05, floor + 12.0)
        x, y = benchmarks.thc_equilibrium(s1, s2)
        eliminated = benchmarks.thc_complementary(s1, s2, x, y)
        closed = benchmarks.thc_dual(s1, s2)
        worst_thc = max(worst_thc, abs(closed - eliminated) / (1.0 + abs(closed)))
    results.append(worst_thc <= 1e-9)

    _report(
        "criterion 4: symbolic identity suite",
        all(results),
        f"dual reproduction worst {worst_gp:.2e}, elimination worst {worst_thc:.2e}",
    )


def test_c5_oracle_agreement(gp_report, thc_report):
    t0 = time.perf_counter()
    ms_gp = oracle.multistart(benchmarks.gp_objective(), benchmarks.GP_BOX, 64, seed=42)
    ms_thc = oracle.multistart(benchmarks.thc_objective(), benchmarks.THC_BOX, 64, seed=42)
    grid_gp = oracle.grid_scan(benchmarks.gp_objective(), benchmarks.GP_BOX, 401)
    grid_thc = oracle.grid_scan(benchmarks.thc_objective(), benchmarks.THC_BOX, 401)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(ms_gp.value - gp_report.value) <= 1e-6
        and abs(ms_thc.value - thc_report.value) <= 1e-6
        and abs(grid_gp.value - gp_report.value) <= 1e-2
        and abs(grid_thc.value - thc_report.value) <= 1e-2
        and elapsed < 10.0
    )
    _report(
        "criterion 5: oracle agreement",
        ok,
        f"multistart ({ms_gp.value:.9f}, {ms_thc.value:.2e}); "
        f"grid ({grid_gp.value:.4f}, {grid_thc.value:.2e}); {elapsed:.2f}s",
    )


def test_c6_dual_structure_properties():
    pr = benchmarks.gp_canonical_g()

    # Analytic gradient vs central differences, 20 interior points per problem.
    rng = oracle.Lcg(61)
    fd_ok = True
    for _ in range(20):
        sigma = rng.uniform(-53.0 / 3.0 + 0.5, 40.0)
        analytic = canonical.dual_gradient(pr, (sigma,))[0]
        h = 1e-5 * (1.0 + abs(sigma))
        fd = (
            canonical.dual_value(pr, (sigma + h,)) - canonical.dual_value(pr, (sigma - h,))
        ) / (2.0 * h)
        if abs(analytic - fd) > 1e-6 * (1.0 + abs(fd)):
            fd_ok = False
    convex = cli.load_problem_file(PROBLEMS / "convex_1d.json")
    for _ in range(20):
        sigma = rng.uniform(-5.0, 5.0)
        analytic = canonical.dual_gradient(convex, (sigma,))[0]
        h = 1e-5 * (1.0 + abs(sigma))
        fd = (
            canonical.dual_value(convex, (sigma + h,))
            - canonical.dual_value(convex, (sigma - h,))
        ) / (2.0 * h)
        if abs(analytic - fd) > 1e-6 * (1.0 + abs(fd)):
            fd_ok = False

    # Midpoint concavity for both duals, 200 sampled pairs each.
    rng = oracle.Lcg(62)
    concave_ok = True
    for _ in range(200):
        a = rng.uniform(-53.0 / 3.0 + 1e-3, 40.0)
        b = rng.uniform(-53.0 / 3.0 + 1e-3, 40.0)
        mid = canonical.dual_value(pr, (0.5 * (a + b),))
        if mid < 0.5 * (canonical.dual_value(pr, (a,)) + canonical.dual_value(pr, (b,))) - 1e-9:
            concave_ok = False
    for _ in range(200):
        pts = []
        for _ in range(2):
            s1 = rng.uniform(-0.9, 0.9)
            floor = 25.0 * s1 * s1 - 13.0 / 5.0
            pts.append((s1, rng.uniform(floor + 0.05, floor + 12.0)))
        (a1, a2), (b1, b2) = pts
        mid_value = benchmarks.thc_dual(0.5 * (a1 + b1), 0.5 * (a2 + b2))
        if mid_value < 0.5 * (benchmarks.thc_dual(a1, a2) + benchmarks.thc_dual(b1, b2)) - 1e-9:
            concave_ok = False

    # Weak duality over 100 x 100 samples for the decoupled quartic instance.
    rng = oracle.Lcg(63)
    sigmas = [rng.uniform(-53.0 / 3.0 + 1e-6, 40.0) for _ in range(100)]
    ts = [rng.uniform(-10.0, 10.0) for _ in range(100)]
    max_dual = max(canonical.dual_value(pr, (s,)) for s in sigmas)
    min_primal = min(canonical.primal_value(pr, (t,)) for t in ts)
    weak_ok = max_dual <= min_primal + 1e-8

    _report(
        "criterion 6: dual-structure properties",
        fd_ok and concave_ok and weak_ok,
        f"fd={fd_ok} concavity={concave_ok} weak-duality={weak_ok}",
    )


def test_c7_certificate_triage_of_spurious_critical_points():
    pr = benchmarks.gp_canonical_g()
    ok = True
    mapped = []
    for t, expected in ((Fraction(0), -21), (Fraction(1), -31)):
        xi = t * t - Fraction(8, 3) * t - 2
        sigma = 6 * xi - 9
        mapped.append(int(sigma))
        inside, _ = canonical.in_positive_domain(pr, (float(sigma),))
        ok &= sigma == expected and not inside
    _report(
        "criterion 7: spurious primal critical points rejected",
        ok,
        f"t=0,1 -> sigma={mapped}, both infeasible",
    )


def test_c8_erratum_regression_three_critical_points():
    s_star, _, criticals = benchmarks.gp_solve_h()
    dh = benchmarks.gp_h().partial_derivative(0)
    roots = [r for r, _ in criticals]
    ok = (
        len(criticals) == 3
        and all(abs(r - e) <= 1e-9 for r, e in zip(roots, (-1.0, 1.0, 2.0)))
        and all(abs(dh.eval((r,))) <= 1e-10 for r in roots)
        and abs(s_star + 1.0) <= 1e-10
    )
    _report(
        "criterion 8: factor minimization enumerates all three critical points",
        ok,
        f"roots={roots}",
    )


def test_c9_determinism_of_cli_reports():
    ok = True
    for problem in ("gp", "thc"):
        first = run_cli("solve", problem, "--format", "json")
        second = run_cli("solve", problem, "--format", "json")
        ok &= first[1].encode() == second[1].encode() and first[0] == second[0] == 0
        # and the payload really is the certified result
        data = json.loads(first[1])
        ok &= data["certificate"] == "GlobalMinimumCertified"
    _report("criterion 9: byte-identical consecutive CLI reports", ok)


def test_full_verification_suites_pass():
    # Not a numbered criterion: the CLI-facing check suites must be green.
    gp_checks = verify.verify_gp()
    thc_checks = verify.verify_thc()
    failures = [c.name for c in gp_checks + thc_checks if not c.passed]
    _report("verification suites (gp + thc)", not failures, f"failures={failures}")
