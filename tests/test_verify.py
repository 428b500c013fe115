"""The verify suites' zero-gap check against the problem's own data."""

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
    return cli.parse_problem_dict(json.loads(text)).to_problem()


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


@pytest.mark.parametrize("suite", [
    verify.verify_gp,
    lambda: verify.verify_problem(cli.load_problem_file(PROBLEMS / "gp_g.json")),
], ids=["verify_gp", "verify_problem"])
def test_zero_gap_triple_fails_on_a_shifted_sigma(monkeypatch, suite):
    checks = {check.name: check for check in suite()}
    assert checks["zero-gap-triple"].passed
    monkeypatch.setattr(dual_solver, "solve_canonical", _shifted_with_restated_xi)
    checks = {check.name: check for check in suite()}
    assert not checks["zero-gap-triple"].passed
