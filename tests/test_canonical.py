"""The canonical duality framework on the decoupled quartic and synthetic problems."""

import json
import math
import struct
import sys
from fractions import Fraction
from functools import partial
from operator import mul, sub
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canondual import canonical, cli
from canondual.benchmarks import gp_canonical_g, gp_dual_closed_form, gp_g, thc_problem
from canondual.canonical import _ROUNDING_ULPS, _accumulate, _f, _gx, _xi
from canondual.dual_solver import _fd_gradient, _fd_hessian, solve_canonical
from canondual.errors import ColumnSpaceViolation, DimensionMismatch, DomainViolation
from canondual.oracle import Lcg
from canondual.polynomial import MultiPoly
from canondual.smallmat import (
    SymMatrix,
    Vector,
    _triu_index,
    cholesky,
    eigen_sym,
    full_rows,
    solve_1x1,
    solve_2x2,
    solve_factored,
)
from tests.test_dual_solver import CRAWLS_ALONG_THE_BOUNDARY, STALLED_UNDER_FD_HESSIAN


@pytest.fixture(scope="module")
def gp():
    return gp_canonical_g()


def g_and_f(pr, sigma):
    """G(sigma) as a SymMatrix and F(sigma) as a list, as one DualPoint
    accumulates them."""
    point = canonical.DualPoint(pr, sigma)
    return SymMatrix(point.table.n, point.acc[:-point.table.n - 1]), _f(point.table, point.acc)


def measures(pr, x):
    """Lambda(x), one QuadOperator.value per measure."""
    return tuple(op.value(x) for op in pr.ops)


def make_problem(A, f, C, b, c, a, beta, n=1):
    def entries(x):
        return tuple(x) if isinstance(x, (list, tuple)) else (x,)

    return canonical.CanonicalProblem(
        n=n,
        A=entries(A),
        f=entries(f),
        ops=(canonical.QuadOperator(C=entries(C), b=entries(b), c=c),),
        V=canonical.ConvexQuadV(((a, beta),)),
    )


def shift_diagonal(upper, n, shift):
    """The upper triangle of S + shift * I, S the n x n symmetric matrix
    with the given upper triangle."""
    diagonal = {_triu_index(n, i, i) for i in range(n)}
    return tuple(x + shift if k in diagonal else x for k, x in enumerate(upper))


def constant_g_problem(upper):
    """A one-term table, m = 1, whose G is the symmetric matrix with the
    given upper triangle at every sigma, with F = 0 and c = 0."""
    n = {1: 1, 3: 2, 6: 3, 10: 4}[len(upper)]
    term = canonical.DualTerm((0,), tuple(upper), (0.0,) * n, 0.0)
    return canonical.TableProblem(canonical.DualTable(n, 1, (term,)), MultiPoly.zero(n))


def ill_conditioned_problem():
    """n = 2 with G = [[1, 1], [1, 1 + 1e-9]] and F = (0.1, 0.3) at every
    sigma: positive definite, condition number about 4e9, and a refined
    solve leaves residual 1e-8 (1 + ||F||)."""
    return make_problem(A=[1.0, 1.0, 1.0 + 1e-9], f=[0.1, 0.3], C=[0.0] * 3, b=[0.0] * 2, c=0.0, a=1.0,
                        beta=0.0, n=2)


class TestLambdaEval:
    def test_at_recovered_minimizer(self, gp):
        assert measures(gp, (3.0,)) == pytest.approx((-1.0,), abs=1e-12)

    def test_at_vertex_of_the_measure(self, gp):
        # The measure is (t - 4/3)^2 - 34/9, so its minimum value is -34/9.
        assert measures(gp, (4.0 / 3.0,))[0] == pytest.approx(-34.0 / 9.0, abs=1e-12)

    def test_plain_square_measure_at_origin(self):
        pr = make_problem(A=0.0, f=0.0, C=2.0, b=0.0, c=0.0, a=1.0, beta=0.0)
        assert measures(pr, (0.0,)) == (0.0,)

    def test_dimension_mismatch(self, gp):
        with pytest.raises(DimensionMismatch):
            canonical.primal_value(gp, (1.0, 2.0))


class TestPrimalValue:
    @pytest.mark.parametrize("t", [3.0, 0.0, 1.0, -2.5, 0.7])
    def test_matches_quartic(self, gp, t):
        assert canonical.primal_value(gp, (t,)) == pytest.approx(gp_g().eval((t,)), abs=1e-9)

    def test_reported_values(self, gp):
        assert canonical.primal_value(gp, (3.0,)) == pytest.approx(3.0, abs=1e-12)
        assert canonical.primal_value(gp, (0.0,)) == pytest.approx(30.0, abs=1e-12)
        assert canonical.primal_value(gp, (1.0,)) == pytest.approx(35.0, abs=1e-12)


class TestConjugate:
    def test_certified_point_value(self):
        V = canonical.ConvexQuadV(((3.0, -9.0),))
        assert canonical.conjugate_value(V, (-15.0,)) == pytest.approx(3.0, abs=1e-12)

    def test_plain_square(self):
        V = canonical.ConvexQuadV(((1.0, 0.0),))
        assert canonical.conjugate_value(V, (0.0,)) == 0.0
        assert canonical.conjugate_gradient(V, (0.0,)) == (0.0,)
        assert canonical.conjugate_value(V, (2.0,)) == pytest.approx(1.0)
        assert canonical.conjugate_gradient(V, (2.0,)) == (1.0,)

    def test_convexity_validation(self):
        with pytest.raises(ValueError):
            canonical.ConvexQuadV(((0.0, 1.0),))


class TestGAndF:
    def test_at_certified_point(self, gp):
        G, F = g_and_f(gp, (-15.0,))
        assert G.upper[0] == pytest.approx(16.0 / 3.0, abs=1e-12)
        assert F[0] == pytest.approx(16.0, abs=1e-12)

    def test_at_zero_reduces_to_problem_data(self, gp):
        G, F = g_and_f(gp, (0.0,))
        assert G.rows == gp.A_rows
        assert tuple(F) == gp.f_float

    def test_boundary_of_feasible_interval(self, gp):
        assert g_and_f(gp, (-53.0 / 3.0,))[0].upper[0] == pytest.approx(0.0, abs=1e-12)


class TestDualValue:
    def test_at_certified_point(self, gp):
        assert canonical.dual_value(gp, (-15.0,)) == pytest.approx(3.0, abs=1e-12)

    def test_at_minus_nine(self, gp):
        assert canonical.dual_value(gp, (-9.0,)) == pytest.approx(-150.0 / 13.0, abs=1e-10)

    def test_pure_conjugate_when_forcing_vanishes(self):
        pr = make_problem(A=1.0, f=0.0, C=0.0, b=0.0, c=0.0, a=1.0, beta=0.0)
        assert canonical.dual_value(pr, (1.0,)) == pytest.approx(-0.25, abs=1e-14)

    def test_closed_form_reproduction_at_1000_samples(self, gp):
        rng = Lcg(11)
        worst = 0.0
        for _ in range(1000):
            sigma = rng.uniform(-53.0 / 3.0 + 1e-3, 40.0)
            a = canonical.dual_value(gp, (sigma,))
            b = gp_dual_closed_form(sigma)
            worst = max(worst, abs(a - b) / (1.0 + abs(b)))
        assert worst <= 1e-10


def closed_form_slope(sigma):
    """The derivative of gp_dual_closed_form, -(s^2 + 18 s + 81)/12 -
    N^2/(4 D) - 2 s with N = 8 s/3 + 56 and D = s + 53/3."""
    n, d = 8.0 * sigma / 3.0 + 56.0, sigma + 53.0 / 3.0
    return -(2.0 * sigma + 18.0) / 12.0 - (2.0 * n * (8.0 / 3.0) * d - n * n) / (4.0 * d * d) - 2.0


class TestDualGradient:
    def test_vanishes_at_certified_point(self, gp):
        grad = canonical.dual_gradient(gp, (-15.0,))
        assert abs(grad[0]) <= 1e-10
        # Both envelope pieces individually: measure at t=3 and conjugate slope.
        assert measures(gp, (3.0,))[0] == pytest.approx(-1.0, abs=1e-12)
        assert canonical.conjugate_gradient(gp.V, (-15.0,))[0] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_finite_differences(self, gp):
        rng = Lcg(12)
        for _ in range(20):
            sigma = rng.uniform(-53.0 / 3.0 + 0.5, 40.0)
            analytic = canonical.dual_gradient(gp, (sigma,))[0]
            h = 1e-5 * (1.0 + abs(sigma))
            fd = (
                canonical.dual_value(gp, (sigma + h,))
                - canonical.dual_value(gp, (sigma - h,))
            ) / (2.0 * h)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_zero_at_constructed_stationary_point(self):
        # With no coupling (C=0, b=0) the gradient is c - (sigma - beta)/(2a),
        # which vanishes exactly at sigma = 2 a c + beta.
        pr = make_problem(A=1.0, f=0.0, C=0.0, b=0.0, c=1.5, a=1.0, beta=0.0)
        assert canonical.dual_gradient(pr, (3.0,)) == pytest.approx((0.0,), abs=1e-14)

    def test_singular_g_raises(self, gp):
        # G(-53/3) = 0 exactly: the edge of the region has no solve.
        with pytest.raises(DomainViolation):
            canonical.dual_gradient(gp, (-53.0 / 3.0,))

    def test_fd_reference_is_one_sided_at_the_edge(self, gp):
        # From sigma = -53/3 + 1e-4 the lower step, 1e-5 (1 + |sigma|), lands
        # where G < 0 and the dual has no solve, so the reference is the
        # forward difference, not a central one across the pole of P^d.  It
        # is the closed form's slope somewhere in [sigma, sigma + h], and the
        # slope falls (P^d is concave), so it lies between the end slopes.
        sigma = -53.0 / 3.0 + 1e-4
        h = 1e-5 * (1.0 + abs(sigma))
        assert sigma - h < -53.0 / 3.0 < sigma
        (got,) = _fd_gradient(lambda s: canonical.dual_value(gp, s), (sigma,), 1e-5)
        assert got == pytest.approx((gp_dual_closed_form(sigma + h) - gp_dual_closed_form(sigma)) / h, rel=1e-6)
        assert closed_form_slope(sigma + h) < got < closed_form_slope(sigma)


def fd_hessian(pr, sigma):
    """Central differences of the analytic gradient, the reference for the
    exact Hessian."""
    return _fd_hessian(lambda s: canonical.dual_gradient(pr, s), tuple(sigma), 1e-5)


def assert_hessians_close(exact, reference, rel):
    scale = 1.0 + max(abs(x) for x in reference.upper)
    for got, want in zip(exact.upper, reference.upper):
        assert abs(got - want) <= rel * scale


class TestDualHessian:
    def test_matches_central_differences_of_gradient(self, gp):
        rng = Lcg(13)
        for _ in range(20):
            sigma = (rng.uniform(-53.0 / 3.0 + 0.5, 40.0),)
            assert canonical.in_positive_domain(gp, sigma)[1] >= 0.1
            assert_hessians_close(canonical.DualPoint(gp, sigma).hessian(), fd_hessian(gp, sigma), 1e-6)

    def test_equals_second_derivative_of_closed_form(self, gp):
        # gp_dual_closed_form is -(s^2 + 18 s + 81)/12 - N^2/(4 D) - 2 s with
        # N = 8 s/3 + 56 and D = s + 53/3.  N = (8/3) D + 80/9, so
        # N^2/D = (8/3)^2 D + const + (80/9)^2 / D and the second derivative
        # of the closed form is -1/6 - (80/9)^2 / (2 D^3).
        rng = Lcg(14)
        for _ in range(100):
            sigma = rng.uniform(-53.0 / 3.0 + 0.1, 40.0)
            d = sigma + 53.0 / 3.0
            expected = -1.0 / 6.0 - (80.0 / 9.0) ** 2 / (2.0 * d**3)
            (got,) = canonical.DualPoint(gp, (sigma,)).hessian().upper
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
        # The formula itself reproduces central differences of the closed form.
        sigma, h = 2.0, 1e-3
        fd = (gp_dual_closed_form(sigma + h) - 2.0 * gp_dual_closed_form(sigma)
              + gp_dual_closed_form(sigma - h)) / h**2
        expected = -1.0 / 6.0 - (80.0 / 9.0) ** 2 / (2.0 * (sigma + 53.0 / 3.0) ** 3)
        assert fd == pytest.approx(expected, rel=1e-6)

    def test_negative_definite_in_the_interior(self, gp):
        rng = Lcg(15)
        for _ in range(100):
            sigma = (rng.uniform(-53.0 / 3.0 + 1e-3, 1e3),)
            assert eigen_sym(canonical.DualPoint(gp, sigma).hessian().scale(-1.0))[0] > 0.0

    def test_uncoupled_measure_leaves_only_the_conjugate(self):
        # C = 0 and b = 0: x_bar does not move with sigma, H = -1/(2a).
        pr = make_problem(A=2.0, f=1.0, C=0.0, b=0.0, c=0.5, a=4.0, beta=1.0)
        assert canonical.DualPoint(pr, (0.7,)).hessian().upper == (-1.0 / 8.0,)

    def test_singular_g_raises(self, gp):
        with pytest.raises(DomainViolation):
            canonical.DualPoint(gp, (-53.0 / 3.0,)).hessian()

    def test_dimension_mismatch(self, gp):
        with pytest.raises(DimensionMismatch):
            canonical.DualPoint(gp, (1.0, 2.0)).hessian()


coefficient = st.integers(-8, 8).map(lambda k: k / 4.0)


@st.composite
def interior_canonical_points(draw):
    """A random canonical problem (n <= 4, m <= 3) and a dual point where
    G has minimum eigenvalue at least 0.1; A is shifted to make it so."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    tri = n * (n + 1) // 2

    def sym():
        return tuple(draw(st.lists(coefficient, min_size=tri, max_size=tri)))

    def vec():
        return tuple(draw(st.lists(coefficient, min_size=n, max_size=n)))

    A = sym()
    ops = tuple(canonical.QuadOperator(C=sym(), b=vec(), c=draw(coefficient)) for _ in range(m))
    V = canonical.ConvexQuadV(tuple(
        (draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])), draw(coefficient)) for _ in range(m)
    ))
    sigma = tuple(draw(st.lists(coefficient, min_size=m, max_size=m)))
    f = vec()
    margin = canonical.DualPoint(canonical.CanonicalProblem(n=n, A=A, f=f, ops=ops, V=V), sigma).min_eigenvalue()
    if margin < 0.1:
        A = shift_diagonal(A, n, 0.2 - margin + draw(coefficient) ** 2)
    pr = canonical.CanonicalProblem(n=n, A=A, f=f, ops=ops, V=V)
    return pr, sigma


@given(interior_canonical_points())
def test_hessian_matches_central_differences_on_random_problems(case):
    pr, sigma = case
    assert canonical.in_positive_domain(pr, sigma)[1] >= 0.1
    exact = canonical.DualPoint(pr, sigma).hessian()
    assert_hessians_close(exact, fd_hessian(pr, sigma), 1e-5)
    assert eigen_sym(exact.scale(-1.0))[0] > 0.0


@st.composite
def interior_table_points(draw):
    """A random dual table (n <= 3, m <= 2) on every monomial of degree <= 2
    in sigma, so G is not affine, and a dual point where G has minimum
    eigenvalue at least 0.1; the constant G is shifted to make it so."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    tri = n * (n + 1) // 2
    monomials = [e for e in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)) if sum(e[m:]) == 0]
    terms = [
        canonical.DualTerm(
            exps[:m],
            tuple(draw(st.lists(coefficient, min_size=tri, max_size=tri))),
            tuple(draw(st.lists(coefficient, min_size=n, max_size=n))),
            draw(coefficient),
        )
        for exps in monomials
    ]
    sigma = tuple(draw(st.lists(coefficient, min_size=m, max_size=m)))
    pr = canonical.TableProblem(canonical.DualTable(n, m, tuple(terms)), MultiPoly.zero(n))
    margin = canonical.DualPoint(pr, sigma).min_eigenvalue()
    if margin < 0.1:
        shift = 0.2 - margin + draw(coefficient) ** 2
        constant = terms[0]
        terms[0] = canonical.DualTerm(constant.exps, shift_diagonal(constant.G, n, shift), constant.F, constant.c)
        pr = canonical.TableProblem(canonical.DualTable(n, m, tuple(terms)), MultiPoly.zero(n))
    return pr, sigma


@given(interior_table_points())
def test_table_derivatives_match_central_differences(case):
    # A sigma^2 term in G moves the singular set of G(sigma) closer than an
    # affine G with the same margin would, which raises the third
    # derivatives of P^d: the differences take a step of 1e-6, not 1e-5.
    pr, sigma = case
    assert canonical.in_positive_domain(pr, sigma)[1] >= 0.1
    reference = _fd_gradient(lambda s: canonical.dual_value(pr, s), sigma, 1e-6)
    scale = 1.0 + max(abs(g) for g in reference)
    for got, want in zip(canonical.dual_gradient(pr, sigma), reference):
        assert abs(got - want) <= 1e-6 * scale
    reference = _fd_hessian(lambda s: canonical.dual_gradient(pr, s), sigma, 1e-6)
    assert_hessians_close(canonical.DualPoint(pr, sigma).hessian(), reference, 1e-5)


@given(interior_canonical_points(), st.floats(-2.0, 2.0))
def test_dual_point_against_numpy(case, t):
    # One factorisation per dual point: the value and x_bar come from the
    # factor of G, the threshold test from one of G - tI.
    pr, sigma = case
    G, F = g_and_f(pr, sigma)
    G, F = np.array(G.to_rows()), np.array(F)
    x = np.linalg.solve(G, F)
    scale = 1e-12 * np.linalg.cond(G) * (1.0 + np.abs(x).max())
    point = canonical.DualPoint(pr, sigma)
    assert np.allclose(point.x_bar(), x, rtol=0.0, atol=scale)
    c = point.complementary((0.0,) * pr.n)  # Xi(0, sigma) = c(sigma)
    assert point.value() == pytest.approx(-0.5 * float(F @ x) + c, abs=scale * (1.0 + np.abs(F).sum()))
    lam = float(np.linalg.eigvalsh(G)[0])
    assert point.min_eigenvalue() == pytest.approx(lam, abs=1e-9 * (1.0 + np.abs(G).max()))
    if abs(lam - t) > 1e-9 * (1.0 + abs(t) + np.abs(G).max()):
        assert point.exceeds(t) is (lam > t)


class TestScalarDualPoint:
    def test_primal_is_one_correctly_rounded_division(self, gp):
        rng = Lcg(16)
        for _ in range(200):
            sigma = (rng.uniform(-53.0 / 3.0 + 1e-3, 40.0),)
            G, (f,) = g_and_f(gp, sigma)
            expected = float(Fraction(f) / Fraction(G.upper[0]))
            point = canonical.DualPoint(gp, sigma)
            assert tuple(point.x_bar()) == (expected,)
            assert point.value() == -0.5 * (f * expected) + point.complementary((0.0,))

    def test_exceeds_is_a_strict_threshold(self, gp):
        # G(sigma) = 2 sigma + 106/3 is exact at sigma = -16 (G = 10/3 in floats).
        point = canonical.DualPoint(gp, (-16.0,))
        g = point.min_eigenvalue()
        assert g == g_and_f(gp, (-16.0,))[0].upper[0]
        assert point.exceeds(g - 1e-12)
        assert not point.exceeds(g)
        assert not canonical.DualPoint(gp, (-53.0 / 3.0,)).exceeds(0.0)


class TestComplementary:
    def test_equality_chain_at_critical_pair(self, gp):
        xi = canonical.DualPoint(gp, (-15.0,)).complementary((3.0,))
        assert xi == pytest.approx(canonical.primal_value(gp, (3.0,)), abs=1e-10)
        assert xi == pytest.approx(canonical.dual_value(gp, (-15.0,)), abs=1e-10)

    def test_at_frozen_primal_point(self, gp):
        # Lambda(0) = -2 and U(0) = 0, so Xi(0, s) = -V*(s) - 2 s.
        for sigma in (-15.0, -5.0, 0.0, 7.5):
            expected = -canonical.conjugate_value(gp.V, (sigma,)) - 2.0 * sigma
            assert canonical.DualPoint(gp, (sigma,)).complementary((0.0,)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_zero_problem(self):
        pr = make_problem(A=0.0, f=0.0, C=0.0, b=0.0, c=0.0, a=1.0, beta=0.0)
        assert canonical.DualPoint(pr, (0.0,)).complementary((4.0,)) == 0.0


class TestRecoverPrimal:
    def test_certified_point(self, gp):
        assert canonical.DualPoint(gp, (-15.0,)).x_bar()[0] == pytest.approx(3.0, abs=1e-12)

    def test_at_zero(self, gp):
        assert canonical.DualPoint(gp, (0.0,)).x_bar()[0] == pytest.approx(84.0 / 53.0, abs=1e-12)

    def test_unconstrained_quadratic(self):
        pr = make_problem(A=1.0, f=1.0, C=0.0, b=0.0, c=0.0, a=1.0, beta=0.0)
        assert canonical.DualPoint(pr, (0.0,)).x_bar()[0] == pytest.approx(1.0, abs=1e-14)


class TestPositiveDomain:
    def test_certified_point_is_interior(self, gp):
        ok, margin = canonical.in_positive_domain(gp, (-15.0,))
        assert ok and margin == pytest.approx(16.0 / 3.0, abs=1e-12)

    def test_outside(self, gp):
        ok, margin = canonical.in_positive_domain(gp, (-20.0,))
        assert not ok and margin < 0

    def test_boundary(self, gp):
        ok, margin = canonical.in_positive_domain(gp, (-53.0 / 3.0,))
        assert ok and abs(margin) <= 1e-9

    def test_identity_g_is_psd_with_margin_one(self):
        # G(0) = A = I: a constant G through a table with one term.
        assert canonical.in_positive_domain(constant_g_problem([1.0, 0.0, 1.0]), (0.0,)) == (True, 1.0)

    def test_explicit_negative_eigenvalue(self):
        assert canonical.in_positive_domain(constant_g_problem([0.0, 0.0, -1.0]), (0.0,)) == (False, -1.0)

    def test_three_hump_origin_is_psd(self):
        # G(0, 0) = [[44/75, 1], [1, 2]]: determinant 13/75 > 0.
        ok, margin = canonical.in_positive_domain(thc_problem(), (0.0, 0.0))
        assert ok and margin == pytest.approx((97.0 - math.sqrt(8434.0)) / 75.0, abs=1e-14)

    def test_zero_g_is_psd_from_both_sides(self):
        for sign in (1.0, -1.0):
            ok, margin = canonical.in_positive_domain(constant_g_problem([sign * 0.0] * 6), (0.0,))
            assert ok and margin == 0.0

    def test_spurious_primal_critical_points_are_rejected(self, gp):
        # The other critical points of the quartic, t = 0 and t = 1, map
        # through sigma = 6 xi - 9 to exactly -21 and -31: both infeasible.
        for t, expected_sigma in ((Fraction(0), -21), (Fraction(1), -31)):
            xi = t * t - Fraction(8, 3) * t - 2
            sigma = 6 * xi - 9
            assert sigma == expected_sigma
            ok, _ = canonical.in_positive_domain(gp, (float(sigma),))
            assert not ok


def chain_gaps(pr, x, sigma):
    """(|P(x) - Xi(x, sigma)|, |Xi(x, sigma) - P^d(sigma)|) at one dual point."""
    point = canonical.DualPoint(pr, sigma)
    xi = point.complementary(x)
    return abs(canonical.primal_value(pr, x) - xi), abs(xi - point.value())


class TestDualityGap:
    def test_zero_at_critical_pair(self, gp):
        gap_px, gap_xd = chain_gaps(gp, (3.0,), (-15.0,))
        assert gap_px <= 1e-8 * 4 and gap_xd <= 1e-8 * 4

    def test_positive_at_noncritical_primal(self, gp):
        gap_px, _ = chain_gaps(gp, (0.0,), (-15.0,))
        assert gap_px > 1.0  # |30 - Xi(0, -15)| is large

    def test_degenerate_zero_problem(self):
        # G == 0: Xi(0, 0) = P(0) = 0, but the dual has no solve there.
        pr = make_problem(A=0.0, f=0.0, C=0.0, b=0.0, c=0.0, a=1.0, beta=0.0)
        point = canonical.DualPoint(pr, (0.0,))
        assert point.complementary((0.0,)) == canonical.primal_value(pr, (0.0,)) == 0.0
        with pytest.raises(DomainViolation):
            chain_gaps(pr, (0.0,), (0.0,))

    def test_propagates_column_space_violation(self):
        # A positive definite G too ill-conditioned for the value's residual check.
        with pytest.raises(ColumnSpaceViolation):
            chain_gaps(ill_conditioned_problem(), (0.0, 0.0), (0.0,))


class TestWeakDualityAndConcavity:
    def test_weak_duality_sampling(self, gp):
        rng = Lcg(13)
        sigmas = [rng.uniform(-53.0 / 3.0 + 1e-6, 40.0) for _ in range(100)]
        ts = [rng.uniform(-10.0, 10.0) for _ in range(100)]
        max_dual = max(canonical.dual_value(gp, (s,)) for s in sigmas)
        min_primal = min(canonical.primal_value(gp, (t,)) for t in ts)
        assert max_dual <= min_primal + 1e-8

    def test_midpoint_concavity(self, gp):
        rng = Lcg(14)
        for _ in range(200):
            a = rng.uniform(-53.0 / 3.0 + 1e-3, 40.0)
            b = rng.uniform(-53.0 / 3.0 + 1e-3, 40.0)
            mid = canonical.dual_value(gp, (0.5 * (a + b),))
            avg = 0.5 * (canonical.dual_value(gp, (a,)) + canonical.dual_value(gp, (b,)))
            assert mid >= avg - 1e-9


def _primal_polynomial_reference(pr):
    """P(x) by MultiPoly ring operations: the expansion primal_polynomial
    replaced by one accumulated term map."""
    n = pr.n
    xs = [MultiPoly.variable(n, i) for i in range(n)]

    def quad_poly(S):
        acc = MultiPoly.zero(n)
        for i in range(n):
            for j in range(n):
                coeff = S[_triu_index(n, i, j)]
                if coeff:
                    acc = acc + (xs[i] * xs[j]).scale(coeff)
        return acc

    total = MultiPoly.zero(n)
    for (a, beta), op in zip(pr.V.pairs, pr.ops):
        lam = quad_poly(op.C).scale(Fraction(1, 2)) + MultiPoly.constant(n, op.c)
        for i in range(n):
            bi = op.b[i]
            if bi:
                lam = lam + xs[i].scale(bi)
        total = total + (lam * lam).scale(a) + lam.scale(beta)
    total = total + quad_poly(pr.A).scale(Fraction(1, 2))
    for i in range(n):
        fi = pr.f[i]
        if fi:
            total = total - xs[i].scale(fi)
    return total


PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"
PROBLEMS = sorted(PROBLEMS_DIR.glob("*.json"))


@given(interior_canonical_points())
def test_primal_polynomial_is_the_ring_expansion(case):
    pr, _ = case
    assert canonical.primal_polynomial(pr) == _primal_polynomial_reference(pr)


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda p: p.name)
def test_primal_polynomial_of_problem_files(path):
    pr = cli.load_problem_file(path)
    poly = canonical.primal_polynomial(pr)
    assert poly == _primal_polynomial_reference(pr)
    assert poly.to_text() == _primal_polynomial_reference(pr).to_text()


@given(interior_canonical_points(), st.data())
def test_primal_value_is_bit_identical_to_the_object_form(case, data):
    # Reference: V(Lambda(x)) - U(x) from float() of the exact data, x^T S x
    # as the sum of x_i (S x)_i and v^T x summed in index order; the float
    # views must give the same bits.
    pr, _ = case
    n = pr.n
    x = Vector(tuple(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))))

    def quadratic_form(upper):
        return sum(sum(float(upper[_triu_index(n, i, j)]) * x[j] for j in range(n)) * x[i] for i in range(n))

    def dot(v):
        return sum(float(v[i]) * x[i] for i in range(n))

    xi = tuple(0.5 * quadratic_form(op.C) + dot(op.b) + float(op.c) for op in pr.ops)
    u = -0.5 * quadratic_form(pr.A) + dot(pr.f)
    assert measures(pr, x.entries) == xi
    assert canonical.primal_value(pr, x) == pr.V.value(xi) - u
    assert canonical.primal_value(pr, x.entries) == pr.V.value(xi) - u
    assert canonical.primal_value(pr, list(x)) == pr.V.value(xi) - u


class TestPrimalPolynomial:
    def test_matches_primal_value_on_samples(self, gp):
        poly = canonical.primal_polynomial(gp)
        rng = Lcg(15)
        for _ in range(50):
            t = rng.uniform(-6.0, 6.0)
            assert poly.eval((t,)) == pytest.approx(
                canonical.primal_value(gp, (t,)), rel=1e-9, abs=1e-9
            )

    def test_coefficients_match_quartic_to_rounding(self):
        # problems/gp_g.json's reader stores 106/3 and -8/3 rounded to
        # floats, so its expansion differs from the exact quartic, but only
        # at float-representation level.
        diff = canonical.primal_polynomial(cli.load_problem_file(PROBLEMS_DIR / "gp_g.json")) - gp_g()
        assert diff.terms
        assert all(abs(float(c)) <= 1e-12 for c in diff.terms.values())


# -- one evaluation per dual point --------------------------------------------
#
# The separate per-quantity formulas DualPoint replaced, kept as the
# reference: each accumulates the table and factors G afresh.  Like DualPoint
# they solve only at a positive definite G.


def _check_sigma(pr, sigma):
    if len(sigma) != pr.m:
        raise DimensionMismatch(f"sigma has length {len(sigma)}, expected {pr.m}")
    return tuple(map(float, sigma))


def _solver(table, acc):
    n = table.n
    if n == 1:
        g = acc[0]
        return lambda v, tol: (solve_1x1(g, v[0]),)
    if n == 2:
        a, b, d = acc[0], acc[1], acc[2]
        return lambda v, tol: solve_2x2(a, b, d, v[0], v[1], tol)
    factor, rows = cholesky(n, acc, 0.0), full_rows(n, acc)
    return lambda v, tol: solve_factored(factor, rows, v, tol)


def _at(pr, sigma):
    sig = _check_sigma(pr, sigma)
    table = pr.table
    return sig, table, _accumulate(table, table.value, sig)


def reference_dual_value(pr, sigma, residual_tol=1e-9):
    _, table, acc = _at(pr, sigma)
    F = _f(table, acc)
    return -0.5 * sum(map(mul, F, _solver(table, acc)(F, residual_tol))) + acc[-1]


def reference_dual_rounding(pr, sigma):
    _, table, acc = _at(pr, sigma)
    F = _f(table, acc)
    half = 0.5 * sum(map(mul, F, _solver(table, acc)(F, 1e-9)))
    return _ROUNDING_ULPS * sys.float_info.epsilon * (abs(acc[-1]) + abs(half))


def reference_x_bar(pr, sigma, residual_tol=1e-9):
    _, table, acc = _at(pr, sigma)
    return Vector(_solver(table, acc)(_f(table, acc), residual_tol))


def _interior_primal(pr, sigma):
    sig, table, acc = _at(pr, sigma)
    solve = _solver(table, acc)
    return sig, table, solve, solve(_f(table, acc), 1e-6)


def reference_dual_gradient(pr, sigma):
    sig, table, _, x = _interior_primal(pr, sigma)
    return tuple(_xi(table, _accumulate(table, rows, sig), x) for rows in table.grad)


def reference_hessian(pr, sigma):
    sig, table, solve, x = _interior_primal(pr, sigma)
    first = [_accumulate(table, rows, sig) for rows in table.grad]
    u = [tuple(map(sub, _gx(table, acc, x), _f(table, acc))) for acc in first]
    w = [solve(u_l, 1e-6) for u_l in u]
    return SymMatrix(pr.m, tuple(
        _xi(table, _accumulate(table, rows, sig), x) - sum(map(mul, u[k], w[l])) for (k, l), rows in table.hess
    ))


def packed(values):
    values = [float(v) for v in values]
    return struct.pack(f"{len(values)}d", *values)


def assert_point_matches_reference(pr, sigma):
    """Value, rounding bound, x_bar, Xi(x_bar), gradient and Hessian of one
    DualPoint equal the separate formulas bit for bit, whichever quantity
    the point is asked for first."""
    x = reference_x_bar(pr, sigma).entries
    want = packed([
        reference_dual_value(pr, sigma), reference_dual_rounding(pr, sigma), *x,
        _xi(pr.table, _at(pr, sigma)[2], x),
        *reference_dual_gradient(pr, sigma), *reference_hessian(pr, sigma).upper,
    ])
    point = canonical.DualPoint(pr, sigma)
    assert packed([
        point.value(), point.rounding(), *point.x_bar(), point.complementary(point.x_bar()),
        *point.gradient(), *point.hessian().upper,
    ]) == want
    point = canonical.DualPoint(pr, sigma)
    hessian, gradient = point.hessian().upper, point.gradient()
    assert packed([
        point.value(), point.rounding(), *point.x_bar(), point.complementary(point.x_bar()), *gradient, *hessian,
    ]) == want


def _planted(text):
    return cli.parse_problem_dict(json.loads(text))


SHIPPED_AND_PLANTED = {
    "gp_canonical_g": gp_canonical_g,
    "thc_problem": thc_problem,
    **{f"planted_{i}": partial(_planted, entry[0]) for i, entry in enumerate(STALLED_UNDER_FD_HESSIAN)},
    "crawls_along_the_boundary": partial(_planted, CRAWLS_ALONG_THE_BOUNDARY[0]),
}


@pytest.mark.parametrize("name", SHIPPED_AND_PLANTED)
def test_dual_point_matches_the_separate_formulas(name):
    # The ascent's end and interior draws around it, 60 at three radii in turn.
    pr = SHIPPED_AND_PLANTED[name]()
    center = solve_canonical(pr).sigma_star
    rng = Lcg(17)
    samples = [center]
    for radius in (1e-3, 0.5, 4.0) * 20:
        sigma = tuple(s + rng.uniform(-radius, radius) for s in center)
        if canonical.DualPoint(pr, sigma).exceeds(1e-9):
            samples.append(sigma)
    assert len(samples) >= 20
    for sigma in samples:
        assert_point_matches_reference(pr, sigma)


@given(st.one_of(interior_canonical_points(), interior_table_points()))
def test_dual_point_matches_the_separate_formulas_on_random_problems(case):
    assert_point_matches_reference(*case)


class TestDualPoint:
    def test_carries_feasibility_margin(self, gp):
        # G(-15) = 2 (-15) + 106/3 = 16/3: the threshold test is strict.
        point = canonical.DualPoint(gp, (-15.0,))
        assert point.sigma == (-15.0,)
        (g,) = g_and_f(gp, (-15.0,))[0].upper
        assert g == pytest.approx(16.0 / 3.0, abs=1e-12)
        assert point.exceeds(g - 1e-12)
        assert not point.exceeds(g)

    def test_tighter_residual_check_after_a_looser_solve(self):
        # G positive definite with condition number about 4e9: the refined
        # x_bar leaves residual 1e-8 (1 + ||F||), inside the derivatives'
        # 1e-6 but outside the value's 1e-9.
        pr = ill_conditioned_problem()
        point = canonical.DualPoint(pr, (0.0,))
        x = point.x_bar(1e-6)
        G, F = g_and_f(pr, (0.0,))
        assert np.allclose(x, np.linalg.solve(np.array(G.to_rows()), np.array(F)), rtol=1e-6)
        with pytest.raises(ColumnSpaceViolation):
            point.value()
        with pytest.raises(ColumnSpaceViolation):
            canonical.dual_value(pr, (0.0,))
        assert canonical.DualPoint(pr, (0.0,)).x_bar(residual_tol=1e-6) == x

    def test_singular_g_raises_for_derivatives_after_a_solve(self, gp):
        # A solve at a loose tolerance first: at a singular G it raises, and
        # so does every derivative after it; at a positive definite G the
        # derivatives repeat the solve at their own tolerance.
        point = canonical.DualPoint(gp, (-53.0 / 3.0,))
        for request in (lambda: point.x_bar(1.0), point.gradient, point.hessian):
            with pytest.raises(DomainViolation):
                request()
        point = canonical.DualPoint(gp, (-15.0,))
        point.x_bar(1.0)
        assert point.gradient() == canonical.dual_gradient(gp, (-15.0,))
        assert point.hessian() == canonical.DualPoint(gp, (-15.0,)).hessian()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_indefinite_g_raises_everywhere(self, n):
        # G = diag(1, ..., 1, -1), or -1 for n = 1: nonsingular, not positive definite.
        diagonal = [1.0] * (n - 1) + [-1.0]
        A = [diagonal[i] if i == j else 0.0 for i in range(n) for j in range(i, n)]
        pr = make_problem(A=A, f=[1.0] * n, C=[0.0] * len(A), b=[0.0] * n, c=0.0, a=1.0, beta=0.0, n=n)
        point = canonical.DualPoint(pr, (0.5,))
        assert not point.exceeds(0.0)
        for request in (point.value, point.x_bar, point.gradient, point.hessian):
            with pytest.raises(DomainViolation):
                request()


# -- Legendre relations as properties ----------------------------------------

a_values = st.floats(0.1, 8.0, allow_nan=False)
beta_values = st.floats(-10.0, 10.0, allow_nan=False)
sigma_values = st.floats(-30.0, 30.0, allow_nan=False)


@given(a_values, beta_values, sigma_values)
def test_conjugation_involution(a, beta, sigma):
    V = canonical.ConvexQuadV(((a, beta),))
    xi = canonical.conjugate_gradient(V, (sigma,))[0]
    back = 2.0 * a * xi + beta
    assert back == pytest.approx(sigma, rel=1e-12, abs=1e-12)


@given(
    st.fractions(min_value="1/10", max_value=8, max_denominator=40),
    st.fractions(min_value=-10, max_value=10, max_denominator=40),
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
)
def test_conjugation_involution_exact_in_rationals(a, beta, sigma):
    # The same relation carried out in Fraction arithmetic is an identity.
    xi = (sigma - beta) / (2 * a)
    assert 2 * a * xi + beta == sigma
    assert math.isclose(float(xi), canonical.conjugate_gradient(
        canonical.ConvexQuadV(((float(a), float(beta)),)), (float(sigma),)
    )[0], rel_tol=1e-12, abs_tol=1e-12)


@given(a_values, beta_values, st.floats(-10.0, 10.0, allow_nan=False))
def test_conjugate_pairing_on_gradient_graph(a, beta, xi):
    V = canonical.ConvexQuadV(((a, beta),))
    sigma = 2.0 * a * xi + beta
    lhs = V.value((xi,)) + canonical.conjugate_value(V, (sigma,))
    rhs = xi * sigma
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
