"""The verify suites: their checks in order, the zero-gap check against the
problem's own data, and the shared concavity and weak-duality rules."""

import dataclasses
import json
from functools import partial
from pathlib import Path

import pytest

from canondual import cli, dual_solver, verify
from canondual.benchmarks import gp_canonical_g
from canondual.dual_solver import Certificate, solve_canonical
from tests.test_dual_solver import CRAWLS_ALONG_THE_BOUNDARY, STALLED_UNDER_FD_HESSIAN

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


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


def test_midpoint_concavity_rejects_a_convex_function():
    pairs = [((-1.0,), (1.0,)), ((0.0,), (2.0,))]
    assert verify._midpoint_concave(lambda s: -s[0] ** 2, pairs)
    assert not verify._midpoint_concave(lambda s: s[0] ** 2, pairs)


def test_weak_duality_fails_when_a_dual_value_exceeds_a_primal_value():
    held = verify._weak_duality([1.0, 2.0], [2.0, 5.0])
    assert held.passed and held.detail == "max dual 2.000000 vs min primal 2.000000"
    broken = verify._weak_duality([1.0, 2.5], [2.0, 5.0])
    assert broken.name == "weak-duality-sampling"
    assert not broken.passed and broken.detail == "max dual 2.500000 vs min primal 2.000000"
