"""Both benchmark pipelines end to end, plus their exact staging identities."""

from fractions import Fraction

import numpy as np
import pytest

from canondual import benchmarks, canonical
from canondual.dual_solver import Certificate, _fd_gradient
from canondual.errors import DomainViolation, IdentityViolation, SingularMatrixError
from canondual.oracle import Lcg
from canondual.polynomial import MultiPoly
from tests.test_canonical import g_and_f


class TestObjectives:
    def test_three_hump_coefficients_exact(self):
        f2 = benchmarks.thc_objective()
        assert f2.coefficient((2, 0)) == 2
        assert f2.coefficient((4, 0)) == Fraction(-21, 20)
        assert f2.coefficient((6, 0)) == Fraction(1, 6)
        assert f2.coefficient((1, 1)) == 1
        assert f2.coefficient((0, 2)) == 1
        assert len(f2.terms) == 5

    def test_three_hump_values(self):
        f2 = benchmarks.thc_objective()
        assert f2.eval((0.0, 0.0)) == 0.0
        assert f2.eval((1.0, 0.0)) == pytest.approx(67.0 / 60.0, abs=1e-15)
        assert f2.eval_exact((1, 0)) == Fraction(2) - Fraction(21, 20) + Fraction(1, 6)

    def test_goldstein_price_expansion_matches_factored_form(self):
        # Cross-check the exact expansion against the factored form in floats
        # at pseudo-random points (the expansion is derived, not transcribed).
        f1 = benchmarks.gp_objective()

        def factored(x, y):
            a = 1 + (x + y + 1) ** 2 * (19 - 14 * x + 3 * x * x - 14 * y + 6 * x * y + 3 * y * y)
            b = 30 + (2 * x - 3 * y) ** 2 * (
                18 - 32 * x + 12 * x * x + 48 * y - 36 * x * y + 27 * y * y
            )
            return a * b

        rng = Lcg(21)
        for _ in range(50):
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            assert f1.eval((x, y)) == pytest.approx(factored(x, y), rel=1e-12, abs=1e-9)

    def test_goldstein_price_at_minimizer(self):
        assert benchmarks.gp_objective().eval((0.0, -1.0)) == pytest.approx(3.0, abs=1e-12)


class TestGpDecomposition:
    def test_identity_holds(self):
        dec = benchmarks.gp_decompose()
        assert dec.h == MultiPoly.from_terms(
            1, {(4,): 3, (3,): -8, (2,): -6, (1,): 24, (0,): 20}
        )
        assert dec.g == MultiPoly.from_terms(1, {(4,): 3, (3,): -16, (2,): 18, (0,): 30})
        assert dec.h.eval((-1.0,)) == 1.0
        assert dec.h.eval((0.0,)) == 20.0
        assert dec.g.eval((0.0,)) == 30.0

    def test_inverse_transform_is_exact(self):
        dec = benchmarks.gp_decompose()
        for i in range(2):
            for j in range(2):
                acc = sum(dec.T_inv[i][k] * dec.T[k][j] for k in range(2))
                assert acc == (1 if i == j else 0)

    def test_displayed_inverse_recovery(self):
        # T_inv applied to (s, t) = (-1, 3) gives exactly (0, -1).
        dec = benchmarks.gp_decompose()
        s, t = Fraction(-1), Fraction(3)
        x = dec.T_inv[0][0] * s + dec.T_inv[0][1] * t
        y = dec.T_inv[1][0] * s + dec.T_inv[1][1] * t
        assert (x, y) == (0, -1)


class TestGpSolveH:
    def test_three_critical_points(self):
        s_star, h_star, criticals = benchmarks.gp_solve_h()
        roots = [r for r, _ in criticals]
        values = [v for _, v in criticals]
        assert len(criticals) == 3
        assert roots == pytest.approx([-1.0, 1.0, 2.0], abs=1e-10)
        assert values == pytest.approx([1.0, 33.0, 28.0], abs=1e-9)
        assert s_star == pytest.approx(-1.0, abs=1e-10)
        assert h_star == pytest.approx(1.0, abs=1e-10)

    def test_roots_match_numpy_companion_oracle(self):
        # Independent oracle: eigenvalue-based rootfinding on h'.
        expected = sorted(np.roots([12.0, -24.0, -12.0, 24.0]).real)
        roots = [r for r, _ in benchmarks.gp_solve_h()[2]]
        assert roots == pytest.approx(expected, abs=1e-9)

    def test_derivative_residuals(self):
        dh = benchmarks.gp_h().partial_derivative(0)
        for root, _ in benchmarks.gp_solve_h()[2]:
            assert abs(dh.eval((root,))) <= 1e-10


class TestGpCanonical:
    def test_primal_matches_quartic_at_three(self):
        from canondual import canonical

        pr = benchmarks.gp_canonical_g()
        assert canonical.primal_value(pr, (3.0,)) == pytest.approx(3.0, abs=1e-12)

    def test_dual_matches_closed_form_at_minus_fifteen(self):
        from canondual import canonical

        pr = benchmarks.gp_canonical_g()
        assert canonical.dual_value(pr, (-15.0,)) == pytest.approx(
            benchmarks.gp_dual_closed_form(-15.0), abs=1e-12
        )

    def test_feasible_interval_boundary(self):
        from canondual import canonical

        pr = benchmarks.gp_canonical_g()
        _, margin = canonical.in_positive_domain(pr, (-53.0 / 3.0,))
        assert abs(margin) <= 1e-9

    def test_solved_problem_expands_to_g_exactly(self):
        # The identity holds on the problem the solver climbs, with 106/3
        # and -8/3 held exactly; its float view is float() of them.
        pr = benchmarks.gp_canonical_g()
        assert canonical.primal_polynomial(pr) == benchmarks.gp_g()
        assert pr.A == (Fraction(106, 3),) and pr.A_rows == ((106 / 3,),)
        assert pr.ops[0].b == (Fraction(-8, 3),) and pr.ops[0].b_float == (-8 / 3,)


@pytest.fixture(scope="module")
def gp_report():
    return benchmarks.gp_solve()


@pytest.fixture(scope="module")
def thc_report():
    return benchmarks.thc_solve()


class TestGpSolve:
    @pytest.fixture
    def report(self, gp_report):
        return gp_report

    def test_headline_results(self, report):
        assert report.x_star[0] == pytest.approx(0.0, abs=1e-8)
        assert report.x_star[1] == pytest.approx(-1.0, abs=1e-8)
        assert report.value == pytest.approx(3.0, abs=1e-8)
        assert report.dual_report.sigma_star[0] == pytest.approx(-15.0, abs=1e-6)
        s_star, t_star = report.transformed_solution
        assert s_star == pytest.approx(-1.0, abs=1e-10)
        assert t_star == pytest.approx(3.0, abs=1e-8)
        assert report.dual_report.certificate is Certificate.GLOBAL_MINIMUM_CERTIFIED

    def test_value_is_product_of_factor_minima(self, report):
        s_star, t_star = report.transformed_solution
        dec = benchmarks.gp_decompose()
        assert report.value == pytest.approx(
            dec.h.eval((s_star,)) * dec.g.eval((t_star,)), abs=1e-12
        )

    def test_oracle_agreement(self, report):
        assert report.oracle_agreement is True
        assert report.oracle_value == pytest.approx(3.0, abs=1e-4)

    def test_grid_floor_near_three(self):
        from canondual.oracle import grid_scan

        result = grid_scan(benchmarks.gp_objective(), benchmarks.GP_BOX, 401)
        assert result.value >= 3.0 - 1e-6
        cell = 4.0 / 400.0
        assert abs(result.x_best[0]) <= cell and abs(result.x_best[1] + 1.0) <= cell


class TestThcIdentities:
    def test_level1_exact(self):
        assert benchmarks.thc_level1_identity()
        assert benchmarks.thc_identity_mismatch(1) is None

    def test_level2_exact(self):
        assert benchmarks.thc_level2_identity()
        assert benchmarks.thc_identity_mismatch(2) is None

    def test_checked_once_per_process(self, monkeypatch):
        built = []
        for name in ("_thc_level1_sides", "_thc_level2_sides"):
            real = getattr(benchmarks, name)
            monkeypatch.setattr(benchmarks, name, lambda real=real: built.append(1) or real())
        benchmarks.thc_level1_identity.cache_clear()
        benchmarks.thc_level2_identity.cache_clear()
        for _ in range(3):
            benchmarks.thc_solve(with_oracle=False)
        assert benchmarks.thc_level1_identity() and benchmarks.thc_level2_identity()
        assert len(built) == 2

    def test_small_perturbation_breaks_equality(self):
        lhs, rhs = benchmarks._thc_level1_sides()
        assert lhs == rhs
        nudged = rhs + MultiPoly.from_terms(2, {(4, 0): Fraction(1, 1000)})
        assert lhs != nudged
        lhs3, rhs3 = benchmarks._thc_level2_sides()
        nudged3 = rhs3 + MultiPoly.from_terms(3, {(2, 0, 1): Fraction(1, 1000)})
        assert lhs3 != nudged3

    def test_dual_table_matches_level2_staging(self):
        lhs, rhs = benchmarks._thc_table_sides(benchmarks.thc_problem().table.terms)
        assert lhs == rhs

    def test_solved_table_holds_the_exact_rationals(self):
        # The terms the solver reads are the ones checked against the
        # staging: _THC_TABLE's rationals, not float copies of them.
        terms = benchmarks.thc_problem().table.terms
        assert {t.exps: (t.G, t.F, t.c) for t in terms} == benchmarks._THC_TABLE
        assert terms[0].G[0] == Fraction(44, 75) and terms[0].G[0] != 44 / 75

    def test_perturbed_dual_table_is_rejected(self, monkeypatch):
        table = dict(benchmarks._THC_TABLE)
        table[(1, 1)] = ((0, 0, 0), (Fraction(-1, 13), 0), 0)
        monkeypatch.setattr(benchmarks, "_THC_TABLE", table)
        benchmarks.thc_problem.cache_clear()
        try:
            with pytest.raises(IdentityViolation):
                benchmarks.thc_problem()
        finally:
            monkeypatch.undo()
            benchmarks.thc_problem.cache_clear()

    def test_dual_table_checked_once_per_process(self, monkeypatch):
        built = []
        real = benchmarks._thc_table_sides
        monkeypatch.setattr(benchmarks, "_thc_table_sides", lambda terms: built.append(1) or real(terms))
        benchmarks.thc_problem.cache_clear()
        for _ in range(3):
            benchmarks.thc_solve(with_oracle=False)
        assert len(built) == 1


class TestThcDual:
    def test_known_values(self):
        assert benchmarks.thc_dual(0.0, 0.0) == 0.0
        assert benchmarks.thc_dual(0.0, 1.0) == pytest.approx(-1.0 / 240.0, abs=1e-15)

    def test_bundled_evaluator_matches_functions(self):
        # The dual table bundles the value and the feasibility matrix; its G
        # is twice the matrix [[a, 1/2], [1/2, 1]] of the closed form.
        thc = benchmarks.thc_problem()
        assert canonical.dual_value(thc, (0.0, 1.0)) == benchmarks.thc_dual(0.0, 1.0)
        inside, margin = canonical.in_positive_domain(thc, (0.0, 0.0))
        assert inside and margin == pytest.approx((97.0 - np.sqrt(8434.0)) / 75.0, abs=1e-12)
        assert g_and_f(thc, (0.0, 0.0))[0].rows[0][1] == 1.0

    def test_dual_table_matches_closed_form(self):
        thc = benchmarks.thc_problem()
        rng = Lcg(26)
        for _ in range(200):
            s1 = rng.uniform(-0.9, 0.9)
            floor = 25.0 * s1 * s1 - 13.0 / 5.0
            sigma = (s1, rng.uniform(floor + 0.05, floor + 12.0))
            closed = benchmarks.thc_dual(*sigma)
            assert abs(canonical.dual_value(thc, sigma) - closed) <= 1e-12 * (1.0 + abs(closed))
            reference = _fd_gradient(lambda s: benchmarks.thc_dual(*s), sigma, 1e-6)
            scale = 1.0 + max(abs(g) for g in reference)
            for got, want in zip(canonical.dual_gradient(thc, sigma), reference):
                assert abs(got - want) <= 1e-6 * scale

    def test_infeasible_point_rejected(self):
        with pytest.raises(DomainViolation):
            benchmarks.thc_dual(1.0, 0.0)

    def test_feasibility_region_matches_parabola(self):
        rng = Lcg(22)
        for _ in range(300):
            s1 = rng.uniform(-1.5, 1.5)
            s2 = rng.uniform(-5.0, 10.0)
            inside, _ = canonical.in_positive_domain(benchmarks.thc_problem(), (s1, s2))
            algebraic = s2 - (25.0 * s1 * s1 - 13.0 / 5.0)
            if abs(algebraic) > 1e-6:
                assert inside == (algebraic > 0)

    def test_cross_validates_against_elimination(self):
        rng = Lcg(23)
        for _ in range(200):
            s1 = rng.uniform(-0.9, 0.9)
            floor = 25.0 * s1 * s1 - 13.0 / 5.0
            s2 = rng.uniform(floor + 0.05, floor + 12.0)
            x, y = benchmarks.thc_equilibrium(s1, s2)
            eliminated = benchmarks.thc_complementary(s1, s2, x, y)
            closed = benchmarks.thc_dual(s1, s2)
            assert abs(closed - eliminated) <= 1e-9 * (1.0 + abs(closed))


class TestThcEquilibrium:
    def test_origin(self):
        assert benchmarks.thc_equilibrium(0.0, 0.0) == (0.0, 0.0)

    def test_zero_rhs_when_first_dual_component_vanishes(self):
        assert benchmarks.thc_equilibrium(0.0, 1.0) == (0.0, 0.0)

    def test_second_row_forces_half_ratio(self):
        rng = Lcg(24)
        for _ in range(100):
            s1 = rng.uniform(-0.9, 0.9)
            floor = 25.0 * s1 * s1 - 13.0 / 5.0
            s2 = rng.uniform(floor + 0.05, floor + 12.0)
            x, y = benchmarks.thc_equilibrium(s1, s2)
            assert 2.0 * y + x == pytest.approx(0.0, abs=1e-12 * (1.0 + abs(x)))

    def test_singular_system_raises(self):
        # 4 alpha - 1 = 0 along 22/75 - (5/12) s1^2 + s2/60 = 1/4.
        s1 = 0.5
        s2 = 60.0 * (0.25 - 22.0 / 75.0 + (5.0 / 12.0) * s1 * s1)
        with pytest.raises(SingularMatrixError):
            benchmarks.thc_equilibrium(s1, s2)


class TestThcSolve:
    @pytest.fixture
    def report(self, thc_report):
        return thc_report

    def test_headline_results(self, report):
        assert report.dual_report.sigma_star == pytest.approx((0.0, 0.0), abs=1e-6)
        assert report.x_star == pytest.approx((0.0, 0.0), abs=1e-8)
        assert abs(report.value) <= 1e-10
        assert report.dual_report.certificate is Certificate.GLOBAL_MINIMUM_CERTIFIED

    def test_zero_gap_triple(self, report):
        s1, s2 = report.dual_report.sigma_star
        xi = benchmarks.thc_complementary(s1, s2, *report.x_star)
        assert abs(report.value - xi) <= 1e-10
        assert abs(xi - report.dual_report.dual) <= 1e-10

    def test_oracle_agreement(self, report):
        assert report.oracle_agreement is True
        assert abs(report.oracle_value - report.value) <= 1e-4 * (1.0 + abs(report.value))

    def test_psd_margin_is_interior(self, report):
        assert report.dual_report.psd_margin == pytest.approx(
            (97.0 - np.sqrt(8434.0)) / 75.0, abs=1e-12
        )


class TestDualConcavity:
    def test_midpoint_concavity_of_closed_form(self):
        rng = Lcg(25)
        for _ in range(200):
            pts = []
            for _ in range(2):
                s1 = rng.uniform(-0.9, 0.9)
                floor = 25.0 * s1 * s1 - 13.0 / 5.0
                pts.append((s1, rng.uniform(floor + 0.05, floor + 12.0)))
            (a1, a2), (b1, b2) = pts
            mid_value = benchmarks.thc_dual(0.5 * (a1 + b1), 0.5 * (a2 + b2))
            avg = 0.5 * (benchmarks.thc_dual(a1, a2) + benchmarks.thc_dual(b1, b2))
            assert mid_value >= avg - 1e-9
