"""The concave-maximization engine and its certificate triage."""

import json
import sys
from fractions import Fraction

import pytest

from canondual import canonical
from canondual.cli import parse_problem_dict
from canondual.benchmarks import gp_canonical_g, thc_problem
from canondual.dual_solver import (
    Certificate,
    SolverConfig,
    find_interior_start,
    maximize_concave,
    solve_canonical,
)
from canondual.errors import LineSearchStalled, NoInteriorPoint
from canondual.smallmat import SymMatrix, Vector

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


def dual_fns(pr):
    """(value, gradient, Hessian, feasibility) of a problem's dual, in the
    argument order of maximize_concave."""
    return (
        lambda s: canonical.dual_value(pr, s),
        lambda s: canonical.dual_gradient(pr, s),
        lambda s: canonical.dual_hessian(pr, s),
        lambda s, t: canonical.in_interior(pr, s, t),
    )


def boundary_problem():
    """Dual critical point on the PSD boundary: ascent is blocked at the
    feasibility wall, so the run must end BoundaryCritical, not certified."""
    return canonical.CanonicalProblem(
        n=1,
        A=SymMatrix(1, (0.0,)),
        f=Vector((0.0,)),
        ops=(canonical.QuadOperator(C=SymMatrix(1, (2.0,)), b=Vector((0.0,)), c=0.0),),
        V=canonical.ConvexQuadV(((1.0, -2.0),)),
    )


class TestFindInteriorStart:
    def test_decoupled_quartic_accepts_origin(self):
        pr = gp_canonical_g()
        start = find_interior_start(
            lambda s: canonical.dual_value(pr, s),
            lambda s, t: canonical.in_interior(pr, s, t),
            1,
        )
        assert start == (0.0,)

    def test_three_hump_accepts_origin(self):
        pr = thc_problem()
        start = find_interior_start(
            lambda s: canonical.dual_value(pr, s), lambda s, t: canonical.in_interior(pr, s, t), 2
        )
        assert start == (0.0, 0.0)

    def test_infeasible_everywhere(self):
        with pytest.raises(NoInteriorPoint):
            find_interior_start(lambda s: 0.0, lambda s, t: False, 2, tau_max=10.0)

    def test_origin_excluded_finds_ray_point(self):
        # Feasible iff sigma_0 >= 1: the ray grid must find it.
        def feas(sigma, t):
            return sigma[0] - 1.0 > t

        start = find_interior_start(lambda s: 0.0, feas, 1)
        assert start[0] >= 1.0


class TestMaximizeConcave:
    def test_exact_newton_on_quadratic(self):
        result = maximize_concave(
            lambda s: -s[0] ** 2,
            lambda s: (-2.0 * s[0],),
            lambda s: SymMatrix(1, (-2.0,)),
            always_feasible,
            (1.0,),
        )
        assert abs(result.sigma[0]) <= 1e-12
        assert result.converged
        assert result.iterations <= 2

    def test_decoupled_quartic_dual(self):
        result = maximize_concave(*dual_fns(gp_canonical_g()), (0.0,))
        assert result.converged
        assert result.sigma[0] == pytest.approx(-15.0, abs=1e-8)
        assert result.value == pytest.approx(3.0, abs=1e-8)

    def test_three_hump_dual_converges_at_start(self):
        result = maximize_concave(*dual_fns(thc_problem()), (0.0, 0.0))
        assert result.converged
        assert result.iterations == 0
        assert result.sigma == (0.0, 0.0)
        assert result.grad_norm <= 1e-10

    def test_monotone_ascent_values(self):
        # Track every accepted value through a wrapper around the value
        # function: the final value must dominate the start, and the engine's
        # per-step assertion guarantees monotonicity along the way.
        pr = gp_canonical_g()
        calls = []

        def value_fn(sigma):
            v = canonical.dual_value(pr, sigma)
            calls.append(v)
            return v

        _, gradient_fn, hessian_fn, feasibility_fn = dual_fns(pr)
        result = maximize_concave(value_fn, gradient_fn, hessian_fn, feasibility_fn, (0.0,))
        assert result.value >= calls[0]

    def test_stall_raises_with_payload(self):
        with pytest.raises(LineSearchStalled) as info:
            maximize_concave(*dual_fns(boundary_problem()), (1.0,))
        stall = info.value
        assert stall.sigma[0] == pytest.approx(0.0, abs=1e-6)
        assert stall.grad_norm > 1e-10  # still pushing toward the boundary

    def test_rejects_infeasible_start(self):
        with pytest.raises(ValueError):
            maximize_concave(*dual_fns(boundary_problem()), (-1.0,))

    def test_exact_hessian_needs_one_gradient_per_iteration(self):
        pr = gp_canonical_g()
        counts = {"gradient": 0, "hessian": 0}

        def gradient_fn(sigma):
            counts["gradient"] += 1
            return canonical.dual_gradient(pr, sigma)

        def hessian_fn(sigma):
            counts["hessian"] += 1
            return canonical.dual_hessian(pr, sigma)

        result = maximize_concave(
            lambda s: canonical.dual_value(pr, s),
            gradient_fn,
            hessian_fn,
            lambda s, t: canonical.in_interior(pr, s, t),
            (0.0,),
        )
        assert result.converged
        assert result.sigma[0] == pytest.approx(-15.0, abs=1e-8)
        assert counts == {"gradient": result.iterations + 1, "hessian": result.iterations}

    def test_determinism(self):
        pr = gp_canonical_g()

        def run():
            return maximize_concave(*dual_fns(pr), (0.0,))

        assert run() == run()


class TestRoundingLevelSteps:
    """Steps whose predicted gain is below the value's rounding error."""

    # -(s - 1)^2 through a cancellation against 1e3: near s = 1 every
    # computed value is 0.0, so no step can show an Armijo gain.
    @staticmethod
    def value_fn(sigma):
        return (1e3 - (sigma[0] - 1.0) ** 2) - 1e3

    @staticmethod
    def rounding_fn(sigma):
        return 4 * sys.float_info.epsilon * 1e3

    gradient_fn = staticmethod(lambda s: (-2.0 * (s[0] - 1.0),))
    hessian_fn = staticmethod(lambda s: SymMatrix(1, (-2.0,)))

    def test_stalls_without_a_rounding_bound(self):
        with pytest.raises(LineSearchStalled):
            maximize_concave(self.value_fn, self.gradient_fn, self.hessian_fn, always_feasible, (1.0 + 1e-8,))

    def test_accepts_a_smaller_gradient_at_an_unresolved_value(self):
        counts = {"gradient": 0}

        def gradient_fn(sigma):
            counts["gradient"] += 1
            return self.gradient_fn(sigma)

        result = maximize_concave(
            self.value_fn, gradient_fn, self.hessian_fn, always_feasible, (1.0 + 1e-8,),
            rounding_fn=self.rounding_fn,
        )
        assert result.converged
        assert result.sigma == (1.0,)
        assert result.iterations == 1
        # The trial's gradient is kept for the accepted iterate.
        assert counts["gradient"] == result.iterations + 1

    def test_value_may_fall_by_at_most_the_bound(self):
        # The value at the optimum reads 1e-15 low, as rounding might have it.
        def value_fn(sigma):
            return -((sigma[0] - 1.0) ** 2) - (1e-15 if sigma[0] == 1.0 else 0.0)

        start = (1.0 + 1e-9,)
        args = (value_fn, self.gradient_fn, self.hessian_fn, always_feasible, start)
        result = maximize_concave(*args, rounding_fn=lambda s: 1e-13)
        assert result.converged and result.sigma == (1.0,)
        assert value_fn(start) - 1e-13 <= result.value < value_fn(start)
        # A bound below the fall rejects the optimum: Armijo steps take over.
        result = maximize_concave(*args, rounding_fn=lambda s: 1e-16)
        assert result.converged and result.sigma != (1.0,)
        assert result.value >= value_fn(start)

    def test_crawl_along_the_boundary_certifies(self):
        text, x_star, value = CRAWLS_ALONG_THE_BOUNDARY
        report = solve_canonical(parse_problem_dict(json.loads(text)).to_problem())
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
            A=SymMatrix(1, (2.0,)),
            f=Vector((2.0,)),
            ops=(canonical.QuadOperator(C=SymMatrix(1, (0.0,)), b=Vector((0.0,)), c=0.0),),
            V=canonical.ConvexQuadV(((1.0, 0.0),)),
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
        pr = parse_problem_dict(json.loads(text)).to_problem()
        report = solve_canonical(pr)
        assert report.certificate is Certificate.GLOBAL_MINIMUM_CERTIFIED
        for got, want in zip(report.x_bar, x_star):
            assert got == pytest.approx(float(Fraction(want)), abs=1e-9)
        planted = float(Fraction(value))
        assert report.primal == pytest.approx(planted, abs=1e-9 * (1.0 + abs(planted)))
        assert report.grad_norm <= SolverConfig().grad_tol
        # Newton with the exact Hessian converges quadratically near sigma*.
        assert report.iterations <= 20


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.grad_tol == 1e-10
        assert cfg.max_iter == 200
        assert cfg.interior_margin == 1e-9
        assert not hasattr(cfg, "fd_step")
        assert cfg.armijo_c == 1e-4
        assert cfg.backtrack_ratio == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(backtrack_ratio=1.0)


class TestNotConvergedReporting:
    def test_iteration_cap_reports_not_converged(self):
        # One iteration cannot reach grad_tol from a cold start on this dual.
        cfg = SolverConfig(max_iter=1)
        report = solve_canonical(gp_canonical_g(), cfg)
        assert report.certificate is Certificate.NOT_CONVERGED
        assert report.iterations == 1
