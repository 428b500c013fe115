"""Brute-force oracles: grid scans, refinement, multistart, root isolation."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canondual import kernels, oracle, polynomial, verify
from canondual.benchmarks import GP_BOX, THC_BOX, gp_g, gp_h, gp_objective, thc_objective
from canondual.errors import DimensionMismatch, NotConverged, RootIsolationFailure
from canondual.oracle import (
    Box,
    Lcg,
    cauchy_root_bound,
    derivative_roots,
    grid_scan,
    local_refine,
    multistart,
    univariate_global,
)
from canondual.polynomial import MultiPoly


def poly1(terms):
    return MultiPoly.from_terms(1, terms)


class TestLcg:
    def test_matches_reference_recurrence(self):
        rng = Lcg(42)
        state = 42
        for _ in range(5):
            state = (6364136223846793005 * state + 1442695040888963407) % (1 << 64)
            assert rng.next_u64() == state

    def test_unit_floats_use_top_33_bits(self):
        rng_a, rng_b = Lcg(7), Lcg(7)
        for _ in range(100):
            u = rng_b.next_unit()
            assert u == (rng_a.next_u64() >> 31) / float(1 << 33)
            assert 0.0 <= u < 1.0

    def test_uniform_respects_bounds(self):
        rng = Lcg(1)
        values = [rng.uniform(-2.0, 3.0) for _ in range(1000)]
        assert all(-2.0 <= v < 3.0 for v in values)
        assert min(values) < -1.5 and max(values) > 2.5

    @pytest.mark.parametrize("seed", [0, 1, 42, 301, (1 << 64) - 1])
    def test_uniform_is_the_scaled_unit_stream(self, seed):
        rng, reference = Lcg(seed), Lcg(seed)
        bounds = [(-2.0, 3.0), (-53.0 / 3.0 + 1e-3, 40.0), (0.0, 1.0), (-10.0, 10.0)]
        for i in range(10_000):
            lo, hi = bounds[i % len(bounds)]
            assert rng.uniform(lo, hi) == lo + (hi - lo) * reference.next_unit()
        assert rng.state == reference.state


class TestBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            Box((0.0,), (0.0,))
        with pytest.raises(DimensionMismatch):
            Box((0.0,), (1.0, 2.0))


class TestGridScan:
    def test_three_node_parabola(self):
        result = grid_scan(poly1({(2,): 1}), Box((-1.0,), (1.0,)), 3)
        assert result.x_best == (0.0,)
        assert result.value == 0.0
        assert result.n_evaluations == 3
        assert not result.refined

    def test_goldstein_price_401(self):
        result = grid_scan(gp_objective(), GP_BOX, 401)
        assert abs(result.value - 3.0) <= 1e-2
        cell = 4.0 / 400.0
        assert abs(result.x_best[0] - 0.0) <= cell
        assert abs(result.x_best[1] + 1.0) <= cell
        assert result.n_evaluations == 401 * 401

    def test_three_hump_401(self):
        result = grid_scan(thc_objective(), THC_BOX, 401)
        assert abs(result.value) <= 1e-2
        cell = 10.0 / 400.0
        assert abs(result.x_best[0]) <= cell and abs(result.x_best[1]) <= cell

    def test_tie_breaks_to_lexicographically_smallest(self):
        # Constant polynomial: every node ties; the first lattice node wins.
        result = grid_scan(MultiPoly.constant(2, 7), Box((-1.0, -1.0), (1.0, 1.0)), 3)
        assert result.x_best == (-1.0, -1.0)

    def test_tie_between_symmetric_minima_breaks_to_first_node(self):
        # (x^2 - 1)^2 + (y^2 - 1)^2 takes its minimum 0 exactly at the four
        # nodes (+-1, +-1) of the 5 x 5 lattice on [-2, 2]^2.
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = (x**2 - 1) ** 2 + (y**2 - 1) ** 2
        result = grid_scan(p, Box((-2.0, -2.0), (2.0, 2.0)), 5)
        assert result.x_best == (-1.0, -1.0)
        assert result.value == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_scan(poly1({(2,): 1}), Box((-1.0,), (1.0,)), 1)
        with pytest.raises(DimensionMismatch):
            grid_scan(gp_objective(), Box((-1.0,), (1.0,)), 3)


class TestLocalRefine:
    def test_convex_quadratic_in_two_newton_steps(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        point, value, evals = oracle._refine_counted(x**2 + y**2, (1.0, 1.0), 1e-10, 500)
        assert point == pytest.approx((0.0, 0.0), abs=1e-12)
        assert value == (x**2 + y**2).eval(point)
        assert evals <= 4  # start value + at most one eval per Newton step

    def test_goldstein_price_from_grid_node(self):
        start = grid_scan(gp_objective(), GP_BOX, 401).x_best
        point = local_refine(gp_objective(), start, tol=1e-10)
        assert point == pytest.approx((0.0, -1.0), abs=1e-8)
        assert gp_objective().eval(point) == pytest.approx(3.0, abs=1e-8)

    def test_three_hump_from_offset_start(self):
        point = local_refine(thc_objective(), (0.1, -0.05), tol=1e-10)
        assert point == pytest.approx((0.0, 0.0), abs=1e-8)

    def test_not_converged_budget(self):
        with pytest.raises(NotConverged):
            local_refine(gp_objective(), (2.0, 2.0), tol=1e-10, max_iter=1)

    def test_not_converged_carries_evaluation_count(self):
        with pytest.raises(NotConverged) as failure:
            oracle._refine_counted(gp_objective(), (2.0, 2.0), 1e-10, 1)
        assert failure.value.evaluations >= 2  # the start plus one trial step

    def test_leaves_a_local_maximum_downhill(self):
        # At (0.01, 0.3) the Hessian of x^4 - x^2 + y^2 is indefinite; the
        # shifted Newton step must still descend, to the well at x = 1/sqrt(2).
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        point = local_refine(x**4 - x**2 + y**2, (0.01, 0.3))
        assert point == pytest.approx((2**-0.5, 0.0), abs=1e-8)


def _critical_to_working_precision(p: MultiPoly, point, tol: float) -> bool:
    """A strict local minimum, up to rounding: the Hessian is positive
    definite, and either |grad| <= tol or the Newton model promises a
    decrease below the rounding bound eps * sum_t |c_t x^e_t| of the value
    (with 4 ulps of slack)."""
    grads = p.gradient()
    g0, g1 = (gp.eval(point) for gp in grads)
    h00 = grads[0].partial_derivative(0).eval(point)
    h01 = grads[0].partial_derivative(1).eval(point)
    h11 = grads[1].partial_derivative(1).eval(point)
    det = h00 * h11 - h01 * h01
    if not (h00 > 0 and det > 0):
        return False
    if g0 * g0 + g1 * g1 <= tol * tol:
        return True
    decrement = (h11 * g0 * g0 - 2.0 * h01 * g0 * g1 + h00 * g1 * g1) / det
    magnitude = MultiPoly(2, {e: abs(c) for e, c in p.terms.items()})
    bound = sys.float_info.epsilon * magnitude.eval([abs(c) for c in point])
    return 0.5 * decrement <= 4.0 * bound


class TestRefineConvergence:
    @pytest.mark.parametrize("name", ["gp", "thc"])
    def test_every_seeded_start_reaches_a_critical_point(self, name):
        # The 64 starts multistart draws with seed 42.  Each refinement
        # must return (no NotConverged) a point that is critical to working
        # precision and no worse than its start.
        p, box = (gp_objective(), GP_BOX) if name == "gp" else (thc_objective(), THC_BOX)
        rng = Lcg(42)
        for _ in range(64):
            start = tuple(rng.uniform(lo, hi) for lo, hi in zip(box.lower, box.upper))
            point, _, _ = oracle._refine_counted(p, start, 1e-10, 500)
            assert _critical_to_working_precision(p, point, 1e-10), (start, point)
            assert p.eval(point) <= p.eval(start), (start, point)


def _refine_reference(p: MultiPoly, start, tol: float, max_iter: int):
    """Newton refinement as it stood with five single-polynomial evaluators
    (two gradient entries, three Hessian entries) and the rounding bound
    evaluated on every iteration: the reference for _refine_counted, which
    also returns the value its last accepted step computed."""
    n = p.arity
    grads = p.gradient()
    value_at = p.float_evaluator()
    bound_at = MultiPoly(n, {e: abs(c) for e, c in p.terms.items()}).float_evaluator()
    grad_at = [gp.float_evaluator() for gp in grads]
    hess_at = [[grads[i].partial_derivative(j).float_evaluator() for j in range(i, n)] for i in range(n)]
    x = [float(c) for c in start]
    value = value_at(x)
    evals = 1
    for _ in range(max_iter):
        g = [fn(x) for fn in grad_at]
        gnorm = math.sqrt(sum(gi * gi for gi in g))
        if gnorm <= tol:
            return tuple(x), value, evals
        if n == 1:
            h00 = h11 = hess_at[0][0](x)
            h01 = 0.0
        else:
            h00, h01, h11 = hess_at[0][0](x), hess_at[0][1](x), hess_at[1][0](x)
        mean, radius = 0.5 * (h00 + h11), math.hypot(0.5 * (h00 - h11), h01)
        lam_lo, lam_hi = mean - radius, mean + radius
        floor = 1e-8 * max(abs(lam_lo), abs(lam_hi), gnorm)
        tau = 0.0 if lam_lo > floor else max(floor, -lam_lo) - lam_lo
        if n == 1:
            direction = [-g[0] / (h00 + tau)]
        else:
            a, c = h00 + tau, h11 + tau
            det = a * c - h01 * h01
            direction = [-(c * g[0] - h01 * g[1]) / det, -(a * g[1] - h01 * g[0]) / det]
        slope = sum(gi * di for gi, di in zip(g, direction))
        if -0.5 * slope <= 4.0 * sys.float_info.epsilon * abs(value):
            return tuple(x), value, evals
        noise = sys.float_info.epsilon * bound_at([abs(xi) for xi in x])
        step = 1.0
        while True:
            trial = [xi + step * di for xi, di in zip(x, direction)]
            trial_value = value_at(trial)
            evals += 1
            if trial_value <= value + 1e-4 * step * slope:
                x, value = trial, trial_value
                break
            step *= 0.5
            if -step * slope <= noise:
                return tuple(x), value, evals
            if step < 2.0**-60:
                raise NotConverged("line search stalled", evals)
    raise NotConverged("no convergence", evals)


def _outcome(refine, p, start, max_iter):
    try:
        return refine(p, start, 1e-10, max_iter)
    except NotConverged as failure:
        return "NotConverged", failure.evaluations


def _double_well():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    return x**4 - x**2 + y**2


class TestNewtonStepEvaluator:
    @pytest.mark.parametrize(
        "name, poly, box",
        [
            ("gp", gp_objective, GP_BOX),
            ("thc", thc_objective, THC_BOX),
            ("double well", _double_well, Box((-2.0, -2.0), (2.0, 2.0))),
            ("quartic g", gp_g, Box((-3.0,), (6.0,))),
        ],
    )
    @pytest.mark.parametrize("max_iter", [500, 6])
    def test_matches_the_five_evaluator_reference(self, name, poly, box, max_iter):
        # Same point, same evaluation count and the same NotConverged cases
        # over the 64 starts multistart draws with seed 42; a budget of 6
        # iterations lets some starts converge and others fail.
        p = poly()
        rng = Lcg(42)
        failures = 0
        for _ in range(64):
            start = tuple(rng.uniform(lo, hi) for lo, hi in zip(box.lower, box.upper))
            expected = _outcome(_refine_reference, p, start, max_iter)
            assert _outcome(oracle._refine_counted, p, start, max_iter) == expected, (name, start)
            failures += expected[0] == "NotConverged"
        assert failures == 0 if max_iter == 500 else 0 < failures < 64

    def test_one_derivative_call_per_iteration_and_the_bound_only_on_backtracking(self):
        # A convex quadratic: one full Newton step, then |grad| = 0.  Two
        # iterations, no step halving, so the rounding bound is never read.
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        p = (x - 1) ** 2 + 2 * (y + Fraction(1, 2)) ** 2
        value_at, bound_at, derivatives_at = oracle._newton_evaluators(p)
        calls = {"derivatives": 0, "bound": 0}

        def counted(key, fn):
            def wrapper(point):
                calls[key] += 1
                return fn(point)

            return wrapper

        evaluators = (value_at, counted("bound", bound_at), counted("derivatives", derivatives_at))
        assert oracle._refine_counted(p, (3.0, 3.0), 1e-10, 500, evaluators) == ((1.0, -0.5), 0.0, 2)
        assert calls == {"derivatives": 2, "bound": 0}


class TestCompiledOnce:
    @pytest.fixture
    def compiled(self, monkeypatch):
        calls = []
        real = polynomial._compile_evaluator
        monkeypatch.setattr(
            polynomial, "_compile_evaluator", lambda *args: calls.append(args) or real(*args)
        )
        return calls

    def test_second_derivative_roots_call_compiles_nothing(self, compiled):
        p = poly1({(4,): 1, (2,): -3, (1,): 1})  # fresh, irrational critical points
        first = derivative_roots(p, (-10.0, 10.0))
        assert compiled
        compiled.clear()
        assert derivative_roots(p, (-10.0, 10.0)) == first
        assert compiled == []

    def test_second_verify_gp_call_compiles_nothing(self, compiled):
        first = verify.verify_gp()
        compiled.clear()
        assert verify.verify_gp() == first
        assert compiled == []


class TestMultistart:
    def test_goldstein_price(self):
        result = multistart(gp_objective(), GP_BOX, 64, seed=42)
        assert result.value == pytest.approx(3.0, abs=1e-6)
        assert result.refined

    def test_three_hump(self):
        result = multistart(thc_objective(), THC_BOX, 64, seed=42)
        assert abs(result.value) <= 1e-8

    def test_constant_polynomial(self):
        result = multistart(MultiPoly.constant(2, Fraction(5, 2)), THC_BOX, 4, seed=1)
        assert result.value == 2.5

    def test_deterministic_across_runs(self):
        run_a = multistart(gp_objective(), GP_BOX, 16, seed=42)
        run_b = multistart(gp_objective(), GP_BOX, 16, seed=42)
        run_c = multistart(gp_objective(), GP_BOX, 16, seed=42)
        assert run_a == run_b == run_c

    def test_seeded_benchmark_starts_all_converge(self):
        for poly, box in ((gp_objective(), GP_BOX), (thc_objective(), THC_BOX)):
            assert multistart(poly, box, 64, seed=42).failed_starts == 0

    def test_failed_starts_are_counted_with_their_evaluations(self, monkeypatch):
        rng = Lcg(42)
        starts = [
            tuple(rng.uniform(lo, hi) for lo, hi in zip(THC_BOX.lower, THC_BOX.upper))
            for _ in range(8)
        ]
        real_refine = oracle._refine_counted
        # Starts 0, 2, 4, 6 refine normally, and are ranked by the value the
        # refinement returns, with no further evaluation; starts 1, 3, 5, 7
        # fail after spending 7 evaluations each.
        expected = sum(real_refine(thc_objective(), s, 1e-10, 500)[2] for s in starts[::2])
        expected += 4 * 7

        def odd_starts_fail(p, start, tol, max_iter, evaluators=None):
            if starts.index(start) % 2:
                raise NotConverged("rigged", evaluations=7)
            return real_refine(p, start, tol, max_iter, evaluators)

        monkeypatch.setattr(oracle, "_refine_counted", odd_starts_fail)
        result = multistart(thc_objective(), THC_BOX, 8, seed=42)
        assert result.failed_starts == 4
        assert result.n_evaluations == expected

    def test_every_start_failing_raises_with_the_total(self, monkeypatch):
        def always_fails(p, start, tol, max_iter, evaluators=None):
            raise NotConverged("rigged", evaluations=3)

        monkeypatch.setattr(oracle, "_refine_counted", always_fails)
        with pytest.raises(NotConverged) as failure:
            multistart(thc_objective(), THC_BOX, 5, seed=1)
        assert failure.value.evaluations == 15

    def test_newton_evaluators_are_built_once_per_polynomial(self):
        p = MultiPoly.from_terms(2, gp_objective().terms)  # fresh, nothing cached
        first = multistart(p, GP_BOX, 16, seed=42)
        evaluators = oracle._newton_evaluators(p)
        second = multistart(p, GP_BOX, 16, seed=42)
        assert oracle._newton_evaluators(p) is evaluators
        assert second == first
        assert multistart(MultiPoly.from_terms(2, p.terms), GP_BOX, 16, seed=42) == first

    def test_value_is_the_generated_evaluator_at_the_point(self):
        # Starts are ranked with the evaluator Newton refinement uses, so
        # the reported value is that function's, bit for bit.
        for poly, box in ((gp_objective(), GP_BOX), (thc_objective(), THC_BOX)):
            result = multistart(poly, box, 64, seed=42)
            assert result.value == poly.float_evaluator()(result.x_best)

    def test_refinement_uses_the_generated_evaluator(self):
        # Single points never go through the batch kernels.
        p = gp_objective()
        assert oracle._newton_evaluators(p)[0] is p.float_evaluator()

    @pytest.mark.parametrize("k_starts", [0, -3])
    def test_fewer_than_one_start_is_a_value_error(self, k_starts):
        with pytest.raises(ValueError, match="at least 1 start"):
            multistart(thc_objective(), THC_BOX, k_starts, seed=1)

    def test_grid_never_beats_multistart(self):
        for poly, box in ((gp_objective(), GP_BOX), (thc_objective(), THC_BOX)):
            coarse = grid_scan(poly, box, 51)
            refined = multistart(poly, box, 32, seed=42)
            assert coarse.value >= refined.value - 1e-12


class TestUnivariateGlobal:
    def test_quartic_g(self):
        result = univariate_global(gp_g(), (-10.0, 10.0))
        assert result.x_best[0] == pytest.approx(3.0, abs=1e-10)
        assert result.value == pytest.approx(3.0, abs=1e-10)
        roots = derivative_roots(gp_g(), (-10.0, 10.0))
        assert roots == pytest.approx([0.0, 1.0, 3.0], abs=1e-10)
        values = [gp_g().eval((r,)) for r in roots]
        assert values == pytest.approx([30.0, 35.0, 3.0], abs=1e-9)

    def test_quartic_h(self):
        result = univariate_global(gp_h(), (-10.0, 10.0))
        assert result.x_best[0] == pytest.approx(-1.0, abs=1e-10)
        assert result.value == pytest.approx(1.0, abs=1e-10)
        assert derivative_roots(gp_h(), (-10.0, 10.0)) == pytest.approx(
            [-1.0, 1.0, 2.0], abs=1e-10
        )

    def test_shifted_square(self):
        p = poly1({(2,): 1, (1,): -2, (0,): 1})  # (x - 1)^2
        result = univariate_global(p, (0.0, 2.0))
        assert result.x_best[0] == pytest.approx(1.0, abs=1e-10)
        assert abs(result.value) <= 1e-12

    def test_endpoint_minimum(self):
        p = poly1({(1,): 1})  # monotone: minimum at the left endpoint
        result = univariate_global(p, (-3.0, 4.0))
        assert result.x_best == (-3.0,)
        assert result.value == -3.0

    def test_root_residuals(self):
        for p in (gp_g(), gp_h()):
            dp = p.partial_derivative(0)
            grid = np.linspace(-10, 10, 2001).reshape(-1, 1)
            max_abs = float(np.max(np.abs(kernels.eval_many(*dp.as_arrays(), grid))))
            for root in derivative_roots(p, (-10.0, 10.0)):
                assert abs(dp.eval((root,))) <= 1e-9 * (1.0 + max_abs)

    def test_agrees_with_canonical_dual_results(self):
        # Independent cross-check of the certified benchmark values.
        assert univariate_global(gp_g(), (-10.0, 10.0)).value == pytest.approx(3.0, abs=1e-8)
        assert univariate_global(gp_h(), (-10.0, 10.0)).value == pytest.approx(1.0, abs=1e-8)

    def test_isolation_guard_raises_when_roots_are_missed(self, monkeypatch):
        # Force the scan to miss every root: the lattice then undercuts the
        # endpoint-only minimum and the guard must fire after one retry.
        monkeypatch.setattr(oracle, "derivative_roots", lambda p, interval, n_scan=10_000: [])
        p = poly1({(2,): 1, (1,): -2, (0,): 1})  # (x - 1)^2, interior minimum 0
        with pytest.raises(RootIsolationFailure):
            univariate_global(p, (0.0, 3.0))

    def test_arity_guard(self):
        with pytest.raises(DimensionMismatch):
            univariate_global(gp_objective(), (-1.0, 1.0))


class TestCauchyBound:
    def test_brackets_all_critical_points(self):
        dh = gp_h().partial_derivative(0)
        dg = gp_g().partial_derivative(0)
        assert cauchy_root_bound(dh) >= 2.0
        assert cauchy_root_bound(dg) >= 3.0
        for dp, roots in ((dh, (-1, 1, 2)), (dg, (0, 1, 3))):
            bound = cauchy_root_bound(dp)
            assert all(abs(r) <= bound for r in roots)


def derivative_roots_with_loops(p, interval, n_scan):
    """derivative_roots with its node scan written as two Python loops over
    the nodes, the reference for the vectorised scan."""
    lo, hi = float(interval[0]), float(interval[1])
    dp = p.partial_derivative(0)
    if dp.is_zero():
        return []
    d2p = dp.partial_derivative(0)
    xs = np.linspace(lo, hi, n_scan + 1)
    dvals = kernels.eval_lattice(*dp.as_arrays(), [xs])
    roots = []
    for x, val in zip(xs, dvals):
        if val == 0.0:
            roots.append(float(x))
    for i in range(len(xs) - 1):
        a, b = float(xs[i]), float(xs[i + 1])
        fa, fb = float(dvals[i]), float(dvals[i + 1])
        if fa == 0.0 or fb == 0.0 or (fa < 0) == (fb < 0):
            continue
        while b - a > 1e-13:
            mid = 0.5 * (a + b)
            fm = dp.eval([mid])
            if fm == 0.0:
                a = b = mid
                break
            if (fm < 0) == (fa < 0):
                a, fa = mid, fm
            else:
                b = mid
        root = 0.5 * (a + b)
        for _ in range(4):
            slope = d2p.eval([root])
            if slope == 0.0:
                break
            candidate = root - dp.eval([root]) / slope
            if not (a - 1e-10 <= candidate <= b + 1e-10):
                break
            root = candidate
        roots.append(root)
    roots.sort()
    merged = []
    gap = 1e-10 * max(1.0, hi - lo)
    for r in roots:
        if not merged or r - merged[-1] > gap:
            merged.append(r)
    return merged


# On [-4, 4] with 64 cells the nodes are the multiples of 1/8, exact floats.
node_roots = st.integers(-32, 32).map(lambda k: Fraction(k, 8))
cell_roots = st.fractions(min_value=-4, max_value=4, max_denominator=50)
root_lists = st.lists(st.one_of(node_roots, cell_roots), min_size=1, max_size=5)
scales = st.sampled_from([Fraction(1), Fraction(-3), Fraction(5, 7), Fraction(-1, 16)])


@given(root_lists, scales)
def test_vectorised_scan_matches_the_loops(roots, scale):
    s = MultiPoly.variable(1, 0)
    dp = MultiPoly.constant(1, scale)
    for r in roots:
        dp = dp * (s - r)
    p = MultiPoly.from_terms(1, {(e + 1,): c / (e + 1) for (e,), c in dp.terms.items()})
    assert p.partial_derivative(0) == dp
    expected = derivative_roots_with_loops(p, (-4.0, 4.0), 64)
    assert derivative_roots(p, (-4.0, 4.0), 64) == expected
