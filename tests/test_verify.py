"""The verify suites: their checks in order, the zero-gap check against the
problem's own data, and the shared concavity and weak-duality rules."""

import dataclasses
import json
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from canondual import benchmarks, canonical, cli, dual_solver, verify
from canondual.benchmarks import gp_canonical_g
from canondual.dual_solver import Certificate, solve_canonical
from canondual.errors import CanondualError, DomainViolation
from canondual.oracle import Lcg
from tests.test_dual_solver import CRAWLS_ALONG_THE_BOUNDARY, STALLED_UNDER_FD_HESSIAN

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
DATA = Path(__file__).resolve().parent / "data"


def _planted(text):
    return cli.parse_problem_dict(json.loads(text))


CERTIFIED = {
    "gp_canonical_g": gp_canonical_g,
    "gp_g.json": partial(cli.load_problem_file, PROBLEMS / "gp_g.json"),
    "convex_1d.json": partial(cli.load_problem_file, PROBLEMS / "convex_1d.json"),
    **{f"planted_{i}": partial(_planted, entry[0]) for i, entry in enumerate(STALLED_UNDER_FD_HESSIAN)},
    "crawls_along_the_boundary": partial(_planted, CRAWLS_ALONG_THE_BOUNDARY[0]),
}


@pytest.mark.parametrize("name", CERTIFIED)
def test_recomputed_xi_agrees_with_the_report(name):
    # Sum_k sigma*_k Lambda_k(x_bar) - V*(sigma*) - U(x_bar) against the
    # dual table's 1/2 x^T G x - x^T F + c that the report carries.
    pr = CERTIFIED[name]()
    report = solve_canonical(pr)
    assert report.certificate is Certificate.GLOBAL_MINIMUM_CERTIFIED
    xi = verify._complementary(pr, report.sigma_star, report.x_bar.entries)
    assert xi == pytest.approx(report.complementary, rel=1e-12, abs=1e-12)


def _shifted_with_restated_xi(pr, cfg=None, solve=solve_canonical):
    """The certified report with sigma* moved by 1 in each component and Xi,
    P^d restated as P: its own fields still close the chain."""
    report = solve(pr, cfg)
    return dataclasses.replace(
        report,
        sigma_star=tuple(s + 1.0 for s in report.sigma_star),
        complementary=report.primal,
        dual=report.primal,
    )


def _verify_gp_g_file():
    return verify.verify_problem(cli.load_problem_file(PROBLEMS / "gp_g.json"))


SUITES = {"verify_gp": verify.verify_gp, "verify_thc": verify.verify_thc, "verify_problem": _verify_gp_g_file}


@pytest.mark.parametrize("suite", SUITES.values(), ids=SUITES)
def test_zero_gap_triple_fails_on_a_shifted_sigma(monkeypatch, suite):
    checks = {check.name: check for check in suite()}
    assert checks["zero-gap-triple"].passed
    monkeypatch.setattr(dual_solver, "solve_canonical", _shifted_with_restated_xi)
    checks = {check.name: check for check in suite()}
    assert not checks["zero-gap-triple"].passed


CHECK_NAMES = {
    "verify_gp": [
        "decoupling-identity-exact",
        "g-canonical-form-exact",
        "h-critical-set",
        "decoupling-positivity-guard",
        "dual-closed-form-reproduction",
        "dual-gradient-vs-fd",
        "dual-midpoint-concavity",
        "weak-duality-sampling",
        "spurious-critical-triage",
        "zero-gap-triple",
    ],
    "verify_thc": [
        "staging-level1-exact",
        "staging-level2-exact",
        "feasibility-region-algebra",
        "dual-vs-elimination",
        "dual-midpoint-concavity",
        "equilibrium-halving-row",
        "zero-gap-triple",
    ],
    "verify_problem": [
        "legendre-involution",
        "conjugate-pairing-on-graph",
        "dual-gradient-vs-fd",
        "weak-duality-sampling",
        "zero-gap-triple",
    ],
}


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_suites_keep_their_checks_in_order(name):
    checks = SUITES[name]()
    assert [check.name for check in checks] == CHECK_NAMES[name]
    assert all(check.passed for check in checks)


def _midpoint_values(value, pairs):
    """value at each pair's ends a and b and at its midpoint, as
    _midpoint_concave takes them."""
    mids = [tuple(0.5 * (p + q) for p, q in zip(a, b)) for a, b in pairs]
    return [value(a) for a, _ in pairs], [value(b) for _, b in pairs], [value(mid) for mid in mids]


def test_midpoint_concavity_rejects_a_convex_function():
    pairs = [((-1.0,), (1.0,)), ((0.0,), (2.0,))]
    assert verify._midpoint_concave(*_midpoint_values(lambda s: -s[0] ** 2, pairs))
    assert not verify._midpoint_concave(*_midpoint_values(lambda s: s[0] ** 2, pairs))


def test_midpoint_concavity_reads_every_pair():
    # 200 pairs on which -s^2 is concave, then one more convex bump on the
    # last pair only; lists and arrays alike.
    ends = [(float(k),) for k in range(400)]
    pairs = list(zip(ends[::2], ends[1::2]))
    a, b, mid = _midpoint_values(lambda s: -s[0] ** 2, pairs)
    assert verify._midpoint_concave(a, b, mid)
    mid[-1] = 0.5 * (a[-1] + b[-1]) - 2.0 * verify._CONCAVITY_TOL
    assert not verify._midpoint_concave(a, b, mid)
    assert not verify._midpoint_concave(np.array(a), np.array(b), np.array(mid))
    mid[-1] = 0.5 * (a[-1] + b[-1]) - 0.5 * verify._CONCAVITY_TOL
    assert verify._midpoint_concave(a, b, mid)


def test_weak_duality_fails_when_a_dual_value_exceeds_a_primal_value():
    held = verify._weak_duality([1.0, 2.0], [2.0, 5.0])
    assert held.passed and held.detail == "max dual 2.000000 vs min primal 2.000000"
    broken = verify._weak_duality([1.0, 2.5], [2.0, 5.0])
    assert broken.name == "weak-duality-sampling"
    assert not broken.passed and broken.detail == "max dual 2.500000 vs min primal 2.000000"


# -- the samplers against the scalar draws they replaced ---------------------
# Each reference draws with Lcg.uniform, one value at a time; the suites
# draw through Lcg.units and must give the same samples, bit for bit.


def _scalar_gp_feasible_samples(count, seed, margin=1e-3):
    rng = Lcg(seed)
    lo = -53.0 / 3.0 + margin
    return [rng.uniform(lo, 40.0) for _ in range(count)]


def _scalar_thc_feasible_samples(count, seed):
    rng = Lcg(seed)
    points = []
    for _ in range(count):
        s1 = rng.uniform(-0.9, 0.9)
        floor = 25.0 * s1 * s1 - 13.0 / 5.0
        points.append((s1, rng.uniform(floor + 0.05, floor + 12.0)))
    return points


def _scalar_interior_samples(pr, anchor, count, seed):
    rng = Lcg(seed)
    points = []
    attempts = 0
    while len(points) < count and attempts < 200 * count:
        attempts += 1
        trial = tuple(a + rng.uniform(-1.0, 1.0) for a in anchor)
        if canonical.DualPoint(pr, trial).exceeds(10 * dual_solver.INTERIOR_MARGIN):
            points.append(trial)
    if len(points) < count:
        points.extend([anchor] * (count - len(points)))
    return points


def _scalar_rows(rng, lower, upper, count):
    return [tuple(rng.uniform(lo, hi) for lo, hi in zip(lower, upper)) for _ in range(count)]


@pytest.mark.parametrize("count, seed, margin", [(1000, 101, 1e-3), (20, 102, 0.5), (400, 103, 1e-3), (0, 1, 0.0)])
def test_gp_feasible_samples_are_the_scalar_draws(count, seed, margin):
    assert verify._gp_feasible_samples(count, seed, margin) == _scalar_gp_feasible_samples(count, seed, margin)


@pytest.mark.parametrize("count, seed", [(200, 202), (400, 203), (100, 204), (0, 1)])
def test_thc_feasible_samples_are_the_scalar_draws(count, seed):
    assert verify._thc_feasible_samples(count, seed) == _scalar_thc_feasible_samples(count, seed)


def test_problem_interior_samples_are_the_scalar_draws(pool_paths):
    problems = [gp_canonical_g(), cli.load_problem_file(PROBLEMS / "gp_g.json")]
    problems += [cli.load_problem_file(path) for path in pool_paths]
    for pr in problems:
        anchor = dual_solver.find_interior_start(partial(canonical.DualPoint, pr), pr.m).sigma
        for count, seed in ((20, 302), (100, 304)):
            expected = _scalar_interior_samples(pr, anchor, count, seed)
            assert verify._problem_interior_samples(pr, anchor, count, seed) == expected
    # No trial is accepted around an anchor outside the domain: 200 count
    # trials, then the anchor as padding.
    outside = (-100.0,)
    assert verify._problem_interior_samples(gp_canonical_g(), outside, 3, 7) == [outside] * 3
    assert _scalar_interior_samples(gp_canonical_g(), outside, 3, 7) == [outside] * 3


def _recorded(monkeypatch, module, name):
    """Record the arguments of every call of module.name."""
    calls = []
    original = getattr(module, name)

    def record(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, record)
    return calls


def test_verify_gp_weak_duality_draws_are_the_scalar_draws(monkeypatch):
    recorded = _recorded(monkeypatch, verify, "_weak_duality")
    verify.verify_gp()
    rng = Lcg(104)
    sigmas = [rng.uniform(-53.0 / 3.0 + 1e-6, 40.0) for _ in range(100)]
    ts = [rng.uniform(-10.0, 10.0) for _ in range(100)]
    pr = gp_canonical_g()
    assert recorded == [([canonical.dual_value(pr, (s,)) for s in sigmas],
                         [canonical.primal_value(pr, (t,)) for t in ts])]


def test_verify_thc_region_sweep_draws_are_the_scalar_draws(monkeypatch):
    # One batched threshold test over the 400 rows; each row's membership is
    # DualPoint's exceeds(-PSD_TOL) there, and in_positive_domain's
    # margin >= -PSD_TOL, which the sweep read before, agrees on every row.
    calls = []
    original = canonical.domain_exceeds

    def record(pr, sigma, t):
        calls.append((pr, sigma, t, original(pr, sigma, t)))
        return calls[-1][-1]

    monkeypatch.setattr(canonical, "domain_exceeds", record)
    verify.verify_thc()
    sweep = _scalar_rows(Lcg(201), (-1.5, -5.0), (1.5, 10.0), 400)
    [(pr, (s1, s2), t, inside)] = calls
    assert list(zip(s1.tolist(), s2.tolist())) == sweep
    thc = benchmarks.thc_problem()
    assert pr is thc and t == -canonical.PSD_TOL
    assert inside.tolist() == [canonical.DualPoint(thc, row).exceeds(t) for row in sweep]
    assert inside.tolist() == [canonical.in_positive_domain(thc, row)[0] for row in sweep]


@pytest.mark.parametrize("index", [0, 35])
def test_verify_problem_draws_are_the_scalar_draws(monkeypatch, pool_paths, index):
    # Involution, pairing (after all 100 involution samples), each as one
    # set of columns, the two interior samples around one anchor, and the
    # primal box.
    pr = cli.load_problem_file(pool_paths[index])
    involution = _recorded(monkeypatch, canonical, "conjugate_gradient")
    pairing = _recorded(monkeypatch, canonical, "conjugate_values")
    gradient_points = _recorded(monkeypatch, verify, "_fd_gradient_matches")
    weak = _recorded(monkeypatch, verify, "_weak_duality")
    anchors = _recorded(monkeypatch, dual_solver, "find_interior_start")
    verify.verify_problem(pr)
    assert len(anchors) == 2  # verify_problem's, once for both samples, and solve_canonical's
    rng = Lcg(301)
    sigmas = _scalar_rows(rng, (-20.0,) * pr.m, (20.0,) * pr.m, 100)
    xis = _scalar_rows(rng, (-10.0,) * pr.m, (10.0,) * pr.m, 100)
    [(_, sigma)] = involution
    assert list(zip(*(column.tolist() for column in sigma))) == sigmas
    [(_, sigma)] = pairing
    assert list(zip(*(column.tolist() for column in sigma))) == [
        tuple(2.0 * a * x + beta for (a, beta), x in zip(pr.V.pairs_float, xi)) for xi in xis
    ]
    anchor = dual_solver.find_interior_start(partial(canonical.DualPoint, pr), pr.m).sigma
    assert gradient_points == [(pr, _scalar_interior_samples(pr, anchor, 20, 302))]
    primal = pr.objective.float_evaluator()
    duals = [canonical.dual_value(pr, sigma) for sigma in _scalar_interior_samples(pr, anchor, 100, 304)]
    box = _scalar_rows(Lcg(303), (-10.0,) * pr.n, (10.0,) * pr.n, 100)
    assert weak == [(duals, [primal(x) for x in box])]


# -- verify_problem against the scalar suite it replaced ---------------------


def _scalar_fd_gradient_matches(pr, points):
    worst = 0.0
    for sigma in points:
        fd = dual_solver._fd_gradient(partial(canonical.dual_value, pr), tuple(sigma), verify._FD_STEP)
        for analytic, reference in zip(canonical.dual_gradient(pr, sigma), fd):
            worst = max(worst, abs(analytic - reference) / (1.0 + abs(reference)))
    return verify._check("dual-gradient-vs-fd", worst <= verify._FD_TOL, f"worst relative error {worst:.3e}")


def _scalar_verify_problem(pr):
    """verify_problem as a loop over samples: one DualPoint, conjugate or
    primal evaluation per sample."""
    checks = []
    rng = Lcg(301)
    invol_ok = True
    for sigma in rng.uniform_rows((-20.0,) * pr.m, (20.0,) * pr.m, 100):
        xi = canonical.conjugate_gradient(pr.V, sigma)
        back = tuple(2.0 * a * x + beta for (a, beta), x in zip(pr.V.pairs_float, xi))
        if any(abs(b - s) > 1e-12 * (1.0 + abs(s)) for b, s in zip(back, sigma)):
            invol_ok = False
            break
    checks.append(verify._check("legendre-involution", invol_ok))
    pairing_ok = True
    for xi in rng.uniform_rows((-10.0,) * pr.m, (10.0,) * pr.m, 100):
        sigma = tuple(2.0 * a * x + beta for (a, beta), x in zip(pr.V.pairs_float, xi))
        lhs = pr.V.value(xi) + canonical.conjugate_value(pr.V, sigma)
        rhs = sum(x * s for x, s in zip(xi, sigma))
        if abs(lhs - rhs) > 1e-10 * (1.0 + abs(rhs)):
            pairing_ok = False
            break
    checks.append(verify._check("conjugate-pairing-on-graph", pairing_ok))
    anchor = dual_solver.find_interior_start(partial(canonical.DualPoint, pr), pr.m).sigma
    checks.append(_scalar_fd_gradient_matches(pr, _scalar_interior_samples(pr, anchor, 20, 302)))
    duals = [canonical.dual_value(pr, sigma) for sigma in _scalar_interior_samples(pr, anchor, 100, 304)]
    primal = pr.objective.float_evaluator()
    primals = [primal(x) for x in _scalar_rows(Lcg(303), (-10.0,) * pr.n, (10.0,) * pr.n, 100)]
    checks.append(verify._weak_duality(duals, primals))
    report = solve_canonical(pr)
    if report.certificate == Certificate.GLOBAL_MINIMUM_CERTIFIED:
        xi = verify._complementary(pr, report.sigma_star, report.x_bar.entries)
        checks.append(verify._zero_gap_triple(report, xi, f"gap {report.gap:.3e}"))
    else:
        checks.append(verify._check("zero-gap-triple", True, f"skipped: certificate {report.certificate.value}"))
    return checks


def _outcome(suite, *args):
    """The suite's checks, or the type and message of what it raises."""
    try:
        return suite(*args)
    except CanondualError as exc:
        return type(exc), str(exc)


def test_verify_problem_is_the_scalar_suite(pool_paths):
    # Names, outcomes and detail strings, F2's failing pool problems 23, 30
    # and 33 and both survey files included.
    paths = [*sorted(PROBLEMS.glob("*.json")), *pool_paths, *sorted(DATA.glob("survey_*.json"))]
    failing = []
    for path in paths:
        pr = cli.load_problem_file(path)
        checks = _outcome(verify.verify_problem, pr)
        assert checks == _outcome(_scalar_verify_problem, pr), path.name
        failing += [path.name for check in checks if not check.passed]
    assert failing == ["planted_23.json", "planted_30.json", "planted_33.json",
                       "survey_4_3_0.json", "survey_4_4_13.json"]


@pytest.mark.parametrize("points", [
    [(5.0,), (-53.0 / 3.0 + 1e-4,), (-53.0 / 3.0 + 3e-4,)],  # the second's lower side is outside the domain
    [(5.0,), (-53.0 / 3.0 - 1.0,), (-30.0,)],  # the second is outside: its value raises
    [],
])
def test_gp_gradient_check_is_the_scalar_check_near_the_boundary(points):
    pr = gp_canonical_g()
    h = verify._FD_STEP * (1.0 + abs(points[1][0])) if points else 0.0
    if points and points[1][0] > -53.0 / 3.0:
        assert not canonical.DualPoint(pr, (points[1][0] - h,)).exceeds(0.0)
    assert _outcome(verify._fd_gradient_matches, pr, points) == _outcome(_scalar_fd_gradient_matches, pr, points)


def test_gradient_check_raises_cannot_difference_where_both_sides_are_out():
    # THC's domain s2 >= 25 s1^2 - 13/5 is about 1e-5 wide in s1 at 2e-9
    # above its lowest point: both s1 neighbours are outside it.
    pr = benchmarks.thc_problem()
    points = [(0.1, 1.0), (0.0, -13.0 / 5.0 + 2e-9), (0.2, 2.0)]
    outcome = _outcome(verify._fd_gradient_matches, pr, points)
    assert outcome == _outcome(_scalar_fd_gradient_matches, pr, points)
    assert outcome[0] is DomainViolation and outcome[1].startswith("cannot difference value function")


def test_verify_file_leaks_no_numpy_warning(monkeypatch, capsys, pool_paths):
    # The column passes divide by pivots <= 0 and take their square roots on
    # the rejected trials; none of it may reach the user.
    exceeds = _recorded(monkeypatch, canonical, "domain_exceeds")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(["verify", "file", str(pool_paths[35])]) == 0
    assert capsys.readouterr().err == ""
    assert any(not canonical.DualPoint(pr, sigma).exceeds(0.0) for pr, trials, _ in exceeds for sigma in trials.T)
