"""The concave-maximization engine and its certificate triage."""

import dataclasses
import json
import math
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from canondual import canonical, dual_solver
from canondual.cli import load_problem_file, parse_problem_dict
from canondual.benchmarks import gp_canonical_g, thc_problem
from canondual.dual_solver import (
    Certificate,
    SolverConfig,
    find_interior_start,
    maximize_concave,
    solve_canonical,
)
from canondual.errors import ColumnSpaceViolation, DomainViolation, NoInteriorPoint
from canondual.smallmat import Kernels, SymMatrix, Vector, solve_sym

# Canonical problems with planted exact minimisers on which the ascent with a
# finite-difference Hessian stalled at |grad| 2e-10 to 8e-10, just above
# grad_tol, and ended NotConverged after 141 to 200 iterations.  Each entry
# is (problem file, x*, P(x*)).
STALLED_UNDER_FD_HESSIAN = [
    (
        """{"n": 3, "m": 3,
            "A": [[2, -1, 1], [-1, 4, 3], [1, 3, 10]],
            "f": ["-13/16", "-43/16", "275/32"],
            "operators": [
                {"C": [["-1/2", "-1/2", "1/2"], ["-1/2", 0, "1/2"], ["1/2", "1/2", 1]],
                 "b": [2, 0, 2], "c": 1},
                {"C": [[0, 0, "1/2"], [0, "1/2", 1], ["1/2", 1, "-1/2"]],
                 "b": [0, 1, 0], "c": 2},
                {"C": [["-1/2", 0, 0], [0, "1/2", "-1/2"], [0, "-1/2", 1]],
                 "b": [-2, 0, 2], "c": 0}],
            "V": [{"a": 1, "beta": "-141/32"}, {"a": 2, "beta": "35/16"},
                  {"a": 2, "beta": -15}]}""",
        ("-1/4", "-5/4", "1"),
        "-170843/4096",
    ),
    (
        """{"n": 2, "m": 3,
            "A": [[6, -2], [-2, 5]],
            "f": ["59/8", "5/4"],
            "operators": [
                {"C": [[0, 0], [0, -1]], "b": [1, 1], "c": 1},
                {"C": [["-1/2", 1], [1, -1]], "b": [2, -1], "c": 1},
                {"C": [[-1, "-1/2"], ["-1/2", "-1/2"]], "b": [0, 0], "c": 0}],
            "V": [{"a": "1/4", "beta": "-5/4"}, {"a": 1, "beta": -3},
                  {"a": 2, "beta": "21/4"}]}""",
        ("1", "1"),
        "-189/16",
    ),
    (
        """{"n": 2, "m": 1,
            "A": [[1, 0], [0, 5]],
            "f": ["-1/16", "163/16"],
            "operators": [{"C": [[1, 1], [1, "1/2"]], "b": [2, 1], "c": 1}],
            "V": [{"a": "1/2", "beta": "71/32"}]}""",
        ("-7/4", "2"),
        "-22801/2048",
    ),
    (
        """{"n": 4, "m": 3,
            "A": [[8, -3, 2, 6], [-3, 11, 4, -9], [2, 4, 8, -2], [6, -9, -2, 11]],
            "f": ["-315/32", "317/16", "-361/32", "-397/32"],
            "operators": [
                {"C": [["1/2", 0, "1/2", -1], [0, "-1/2", 0, 1],
                       ["1/2", 0, -1, "-1/2"], [-1, 1, "-1/2", -1]],
                 "b": [2, -2, -1, -1], "c": -1},
                {"C": [["-1/2", "-1/2", "1/2", 0], ["-1/2", 0, "-1/2", "1/2"],
                       ["1/2", "-1/2", "1/2", -1], [0, "1/2", -1, "-1/2"]],
                 "b": [0, 2, 0, 0], "c": 1},
                {"C": [[-1, "-1/2", -1, -1], ["-1/2", "-1/2", "-1/2", "-1/2"],
                       [-1, "-1/2", -1, 1], [-1, "-1/2", 1, "1/2"]],
                 "b": [-1, 1, -2, -1], "c": 0}],
            "V": [{"a": 1, "beta": "65/16"}, {"a": "1/2", "beta": "27/16"},
                  {"a": 1, "beta": "-383/32"}]}""",
        ("3/2", "3/2", "-7/4", "-3/4"),
        "-268493/4096",
    ),
]

# A planted problem (n = 3, m = 3) whose ascent crawls along the PSD
# boundary before Newton takes over, and whose last steps gain less than the
# dual value's rounding error: (problem file, x*, P(x*)).
CRAWLS_ALONG_THE_BOUNDARY = (
    """{"n": 3, "m": 3,
        "A": [[3, 1, 0], [1, 7, 0], [0, 0, 1]],
        "f": ["-55/16", "83/16", "-67/32"],
        "operators": [
            {"C": [["-1/2", "1/2", "1/2"], ["1/2", 1, 0], ["1/2", 0, "1/2"]],
             "b": [-2, 1, -2], "c": 2},
            {"C": [[-1, -1, -1], [-1, "1/2", -1], [-1, -1, -1]],
             "b": [-1, 2, -2], "c": 0},
            {"C": [["-1/2", "1/2", 1], ["1/2", 1, 0], [1, 0, "1/2"]],
             "b": [2, 2, -1], "c": -2}],
        "V": [{"a": 1, "beta": "157/32"}, {"a": "1/4", "beta": "205/128"},
              {"a": 1, "beta": "-95/32"}]}""",
    ("5/4", "1/4", "1/2"),
    "-25169/16384",
)


def always_feasible(sigma, margin):
    return True


def reference_gradient_with_norm(gradient):
    """The gradient and its norm as the interpreted ascent made them."""
    grad = tuple(float(g) for g in gradient())
    return grad, math.sqrt(sum(g * g for g in grad))


def reference_newton_direction(hessian, grad):
    """The ascent's (direction, slope) as the interpreted ascent made them:
    the Newton step from solve_sym(-H, grad) when the Hessian and that solve
    raise nothing and it ascends, steepest ascent otherwise."""
    direction = grad
    try:
        d = solve_sym(hessian().scale(-1.0), Vector(grad), 1e-6)
    except (ColumnSpaceViolation, DomainViolation):
        pass
    else:
        if sum(g * di for g, di in zip(grad, d)) > 0.0:
            direction = tuple(d)
    return direction, sum(g * d for g, d in zip(grad, direction))


def formula_points(value, gradient=None, hessian=None, rounding=0.0, feasible=always_feasible):
    """at(sigma) for a dual given by formulas in sigma, whose gradient norm
    and step direction are the reference formulas.  A rounding bound of 0.0
    never admits a rounding-level step: every step's predicted gain is
    positive."""

    class Point:
        def __init__(self, sigma):
            self.sigma = sigma

        def exceeds(self, t):
            return feasible(self.sigma, t)

        def value(self):
            return value(self.sigma)

        def rounding(self):
            return rounding

        def gradient(self):
            return gradient(self.sigma)

        def hessian(self):
            return hessian(self.sigma)

        def gradient_with_norm(self):
            return reference_gradient_with_norm(self.gradient)

        def newton_direction(self, grad):
            return reference_newton_direction(self.hessian, grad)

    return Point


def dual_points(pr):
    """at(sigma) of a problem's dual, the first argument of maximize_concave."""
    return partial(canonical.DualPoint, pr)


def boundary_problem():
    """Dual critical point on the PSD boundary: ascent is blocked at the
    feasibility wall, so the run must end BoundaryCritical, not certified."""
    return canonical.CanonicalProblem(
        n=1,
        A=(0,),
        f=(0,),
        ops=(canonical.QuadOperator(C=(2,), b=(0,), c=0),),
        V=canonical.ConvexQuadV(((1, -2),)),
    )


class TestFindInteriorStart:
    def test_decoupled_quartic_accepts_origin(self):
        pr = gp_canonical_g()
        start = find_interior_start(dual_points(pr), 1)
        assert isinstance(start, canonical.DualPoint)
        assert start.sigma == (0.0,)

    def test_three_hump_accepts_origin(self):
        pr = thc_problem()
        start = find_interior_start(dual_points(pr), 2)
        assert start.sigma == (0.0, 0.0)

    def test_infeasible_everywhere(self):
        tried = []

        def feasible(sigma, t):
            tried.append(sigma)
            return False

        with pytest.raises(NoInteriorPoint):
            find_interior_start(formula_points(lambda s: 0.0, feasible=feasible), 2)
        # The origin, then 2^-10 .. 2^19 (the largest power of two <= 1e6)
        # over 3 directions and both signs.
        assert len(tried) == 1 + 30 * 3 * 2
        assert max(abs(s) for sigma in tried for s in sigma) == 2.0 ** 19

    def test_origin_excluded_finds_ray_point(self):
        # Feasible iff sigma_0 >= 1: the ray grid must find it.
        def feas(sigma, t):
            return sigma[0] - 1.0 > t

        start = find_interior_start(formula_points(lambda s: 0.0, feasible=feas), 1)
        assert start.sigma[0] >= 1.0


class TestMaximizeConcave:
    def test_exact_newton_on_quadratic(self):
        at = formula_points(lambda s: -s[0] ** 2, lambda s: (-2.0 * s[0],), lambda s: SymMatrix(1, (-2.0,)))
        result = maximize_concave(at, at((1.0,)))
        assert abs(result.sigma[0]) <= 1e-12
        assert result.converged
        assert result.iterations <= 2

    def test_decoupled_quartic_dual(self):
        at = dual_points(gp_canonical_g())
        result = maximize_concave(at, at((0.0,)))
        assert result.converged
        assert result.sigma[0] == pytest.approx(-15.0, abs=1e-8)
        assert result.value == pytest.approx(3.0, abs=1e-8)

    def test_overflowing_step_backtracks_to_a_stall(self):
        # A Newton direction with an infinite entry makes every trial sigma
        # non-finite, which DualPoint rejects with DomainViolation: the line
        # search backtracks as at an infeasible trial and reports a stall.
        class Overflowing(canonical.DualPoint):
            def newton_direction(self, grad):
                return tuple(math.copysign(math.inf, g) for g in grad), math.inf

        at = partial(Overflowing, gp_canonical_g())
        result = maximize_concave(at, at((0.0,)))
        assert result.stalled and not result.converged
        assert result.sigma == (0.0,) and result.iterations == 0

    def test_three_hump_dual_converges_at_start(self):
        at = dual_points(thc_problem())
        result = maximize_concave(at, at((0.0, 0.0)))
        assert result.converged
        assert result.iterations == 0
        assert result.sigma == (0.0, 0.0)
        assert result.grad_norm <= 1e-10

    def test_monotone_ascent_values(self):
        # Track every value through a point that records them: the final
        # value must dominate the start, and the engine's per-step assertion
        # guarantees monotonicity along the way.
        calls = []

        class Recorded(canonical.DualPoint):
            def value(self):
                v = super().value()
                calls.append(v)
                return v

        at = partial(Recorded, gp_canonical_g())
        result = maximize_concave(at, at((0.0,)))
        assert result.value >= calls[0]

    def test_stall_returns_the_last_iterate(self):
        at = dual_points(boundary_problem())
        result = maximize_concave(at, at((1.0,)))
        assert result.stalled and not result.converged
        assert result.sigma[0] == pytest.approx(0.0, abs=1e-6)
        assert result.grad_norm > 1e-10  # still pushing toward the boundary
        assert result.point.sigma == result.sigma
        assert result.value == result.point.value()

    def test_rejects_infeasible_start(self):
        at = dual_points(boundary_problem())
        with pytest.raises(ValueError):
            maximize_concave(at, at((-1.0,)))

    def test_one_accumulation_and_one_factorisation_per_dual_point(self):
        # The n = 4, m = 3 planted problem: 10 Newton steps, two of which
        # backtrack from infeasible trials.  Each dual point accumulates
        # [G, F, c] once, and
        # the points whose value is asked factor G once: the interior start,
        # which the ascent climbs from, and the 10 accepted trials, the last
        # of which the report reads.  Each iterate adds m accumulations of
        # the first derivatives, shared by its gradient and Hessian, and
        # m(m+1)/2 of the second.  Rebuilding the start and the end point,
        # and G again for the reported eigenvalue, took 111 accumulations
        # and 13 factorisations; one callback per quantity took 175 and 34.
        # The table's factor also makes the threshold tests, of G - t I with
        # t = INTERIOR_MARGIN: one at each of the 15 points built (the
        # origin, 10 accepted and 4 infeasible trials), and the ascent's test
        # of its start.
        counts = {"accumulations": 0, "factorisations": 0, "threshold tests": 0}

        def counted(original, name="accumulations"):
            def call(*args):
                counts[name] += 1
                return original(*args)

            return call

        pr = parse_problem_dict(json.loads(STALLED_UNDER_FD_HESSIAN[3][0]))
        table = pr.table
        factor, solve = table.kernels

        def counted_factor(upper, shift):
            counts["factorisations" if shift == 0.0 else "threshold tests"] += 1
            return factor(upper, shift)

        object.__setattr__(table, "kernels", Kernels(counted_factor, solve))
        for name in ("accumulate_grad", "accumulate_hess"):
            object.__setattr__(table, name, tuple(map(counted, getattr(table, name))))
        object.__setattr__(table, "accumulate", counted(table.accumulate))
        report = solve_canonical(pr)
        assert report.certificate is Certificate.GLOBAL_MINIMUM_CERTIFIED
        assert report.iterations == 10
        assert counts == {"accumulations": 108, "factorisations": report.iterations + 1,
                          "threshold tests": 16}

    def test_determinism(self):
        pr = gp_canonical_g()

        at = dual_points(pr)

        def run():
            result = maximize_concave(at, at((0.0,)))
            return result.sigma, result

        assert run() == run()


class TestRoundingLevelSteps:
    """Steps whose predicted gain is below the value's rounding error."""

    # -(s - 1)^2 through a cancellation against 1e3: near s = 1 every
    # computed value is 0.0, so no step can show an Armijo gain.
    @staticmethod
    def value(sigma):
        return (1e3 - (sigma[0] - 1.0) ** 2) - 1e3

    ROUNDING = 4 * sys.float_info.epsilon * 1e3

    gradient = staticmethod(lambda s: (-2.0 * (s[0] - 1.0),))
    hessian = staticmethod(lambda s: SymMatrix(1, (-2.0,)))

    def test_stalls_without_a_rounding_bound(self):
        at = formula_points(self.value, self.gradient, self.hessian, rounding=0.0)
        result = maximize_concave(at, at((1.0 + 1e-8,)))
        assert result.stalled and not result.converged
        assert result.iterations == 0
        assert result.sigma == (1.0 + 1e-8,)
        assert result.grad_norm == pytest.approx(2e-8, rel=1e-6)

    def test_accepts_a_smaller_gradient_at_an_unresolved_value(self):
        counts = {"gradient": 0}

        def gradient(sigma):
            counts["gradient"] += 1
            return self.gradient(sigma)

        at = formula_points(self.value, gradient, self.hessian, rounding=self.ROUNDING)
        result = maximize_concave(at, at((1.0 + 1e-8,)))
        assert result.converged and not result.stalled
        assert result.sigma == (1.0,)
        assert result.iterations == 1
        # The trial's gradient is kept for the accepted iterate.
        assert counts["gradient"] == result.iterations + 1

    def test_value_may_fall_by_at_most_the_bound(self):
        # The value at the optimum reads 1e-15 low, as rounding might have it.
        def value(sigma):
            return -((sigma[0] - 1.0) ** 2) - (1e-15 if sigma[0] == 1.0 else 0.0)

        start = (1.0 + 1e-9,)
        at = formula_points(value, self.gradient, self.hessian, rounding=1e-13)
        result = maximize_concave(at, at(start))
        assert result.converged and result.sigma == (1.0,)
        assert value(start) - 1e-13 <= result.value < value(start)
        # A bound below the fall rejects the optimum: Armijo steps take over.
        at = formula_points(value, self.gradient, self.hessian, rounding=1e-16)
        result = maximize_concave(at, at(start))
        assert result.converged and result.sigma != (1.0,)
        assert result.value >= value(start)

    def test_crawl_along_the_boundary_certifies(self):
        text, x_star, value = CRAWLS_ALONG_THE_BOUNDARY
        report = solve_canonical(parse_problem_dict(json.loads(text)))
        assert report.certificate is Certificate.GLOBAL_MINIMUM_CERTIFIED
        for got, want in zip(report.x_bar, x_star):
            assert got == pytest.approx(float(Fraction(want)), abs=1e-9)
        planted = float(Fraction(value))
        assert report.primal == pytest.approx(planted, abs=1e-9 * (1.0 + abs(planted)))
        assert report.grad_norm <= SolverConfig().grad_tol


class TestSolveCanonical:
    def test_decoupled_quartic_certified(self):
        report = solve_canonical(gp_canonical_g())
        assert report.certificate is Certificate.GLOBAL_MINIMUM_CERTIFIED
        assert report.sigma_star[0] == pytest.approx(-15.0, abs=1e-6)
        assert report.x_bar[0] == pytest.approx(3.0, abs=1e-8)
        assert report.primal == pytest.approx(3.0, abs=1e-8)
        assert report.dual == pytest.approx(3.0, abs=1e-8)
        assert report.gap <= 1e-8 * (1.0 + abs(report.primal))
        assert report.psd_margin == pytest.approx(16.0 / 3.0, abs=1e-6)

    def test_convex_quadratic_with_trivial_measure(self):
        # minimize x^2 - 2x: dual is -1 - sigma^2/4, maximized at 0.
        pr = canonical.CanonicalProblem(
            n=1,
            A=(2,),
            f=(2,),
            ops=(canonical.QuadOperator(C=(0,), b=(0,), c=0),),
            V=canonical.ConvexQuadV(((1, 0),)),
        )
        report = solve_canonical(pr)
        assert report.certificate is Certificate.GLOBAL_MINIMUM_CERTIFIED
        assert report.sigma_star[0] == pytest.approx(0.0, abs=1e-10)
        assert report.x_bar[0] == pytest.approx(1.0, abs=1e-10)
        assert report.primal == pytest.approx(-1.0, abs=1e-12)

    def test_boundary_critical_never_certified(self):
        report = solve_canonical(boundary_problem())
        assert report.certificate is Certificate.BOUNDARY_CRITICAL
        assert report.psd_margin == pytest.approx(1e-9, rel=1e-3)
        assert report.x_bar[0] == 0.0

    def test_certified_dominates_primal_samples(self):
        from canondual.oracle import Lcg

        pr = gp_canonical_g()
        report = solve_canonical(pr)
        rng = Lcg(99)
        for _ in range(10_000):
            t = rng.uniform(-10.0, 10.0)
            assert report.primal <= canonical.primal_value(pr, (t,)) + 1e-8

    def test_reports_are_deterministic(self):
        assert solve_canonical(gp_canonical_g()) == solve_canonical(gp_canonical_g())


    @pytest.mark.parametrize(
        "text, x_star, value", STALLED_UNDER_FD_HESSIAN, ids=["n3m3", "n2m3", "n2m1", "n4m3"]
    )
    def test_certifies_at_the_planted_minimiser(self, text, x_star, value):
        pr = parse_problem_dict(json.loads(text))
        report = solve_canonical(pr)
        assert report.certificate is Certificate.GLOBAL_MINIMUM_CERTIFIED
        for got, want in zip(report.x_bar, x_star):
            assert got == pytest.approx(float(Fraction(want)), abs=1e-9)
        planted = float(Fraction(value))
        assert report.primal == pytest.approx(planted, abs=1e-9 * (1.0 + abs(planted)))
        assert report.grad_norm <= SolverConfig().grad_tol
        # Newton with the exact Hessian converges quadratically near sigma*.
        assert report.iterations <= 20


# Problems of the planted recipe (perfbench/planted.generate, seeds
# "survey:0.25:n:m:i") on which the Hessian's solve failed its residual
# check, outside the guard that sends a failed Newton solve to steepest
# ascent: solve and verify stopped at "error: solve residual ... > tol ...".
DATA = Path(__file__).resolve().parent / "data"


class TestHessianInsideTheGuard:
    def test_a_failed_hessian_solve_takes_a_steepest_ascent_step(self):
        # n = 4, m = 4, i = 13: certified at its planted minimiser.
        report = solve_canonical(load_problem_file(DATA / "survey_4_4_13.json"))
        assert report.certificate is Certificate.GLOBAL_MINIMUM_CERTIFIED
        for got, want in zip(report.x_bar, (-1.25, -0.25, 1.0, -1.75)):
            assert got == pytest.approx(want, abs=1e-9)
        assert report.primal == pytest.approx(-63.5594482421875, abs=1e-12)

    def test_the_crawl_still_ends_at_the_boundary(self):
        # n = 4, m = 3, i = 0: no escaped error now, but the ascent still
        # crawls to the PSD boundary; the planted sigma* is interior, so the
        # label is wrong (a barrier path is the open remedy).
        report = solve_canonical(load_problem_file(DATA / "survey_4_3_0.json"))
        assert report.certificate is Certificate.BOUNDARY_CRITICAL


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert [f.name for f in dataclasses.fields(cfg)] == ["grad_tol", "max_iter"]
        assert cfg.grad_tol == 1e-10
        assert cfg.max_iter == 200
        # The line search's settings are module constants, set by no caller.
        assert dual_solver.INTERIOR_MARGIN == 1e-9
        assert dual_solver.ARMIJO_C == 1e-4
        assert dual_solver.BACKTRACK_RATIO == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        # NaN passes a "<= 0" test; a tolerance must also be finite.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                SolverConfig(grad_tol=bad)
        with pytest.raises(TypeError):
            SolverConfig(backtrack_ratio=0.5)


class TestNotConvergedReporting:
    def test_iteration_cap_reports_not_converged(self):
        # One iteration cannot reach grad_tol from a cold start on this dual.
        cfg = SolverConfig(max_iter=1)
        report = solve_canonical(gp_canonical_g(), cfg)
        assert report.certificate is Certificate.NOT_CONVERGED
        assert report.iterations == 1
