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
from canondual.canonical import _ROUNDING_ULPS, _accumulate, _f, _g, _gx, _xi
from canondual.dual_solver import _fd_gradient, _fd_hessian, solve_canonical
from canondual.errors import ColumnSpaceViolation, DimensionMismatch, SingularMatrixError
from canondual.oracle import Lcg
from canondual.polynomial import MultiPoly
from canondual.smallmat import (
    SymMatrix,
    Vector,
    _cholesky,
    add_scaled,
    exceeds,
    full_rows,
    is_nonsingular,
    min_eigenvalue,
    solve_1x1,
    solve_2x2,
    solve_factored,
    solve_sym,
)
from tests.test_dual_solver import CRAWLS_ALONG_THE_BOUNDARY, STALLED_UNDER_FD_HESSIAN


@pytest.fixture(scope="module")
def gp():
    return gp_canonical_g()


def make_problem(A, f, C, b, c, a, beta, n=1):
    return canonical.CanonicalProblem(
        n=n,
        A=SymMatrix(n, tuple(A)) if isinstance(A, (list, tuple)) else SymMatrix(1, (A,)),
        f=Vector(tuple(f) if isinstance(f, (list, tuple)) else (f,)),
        ops=(
            canonical.QuadOperator(
                C=SymMatrix(n, tuple(C)) if isinstance(C, (list, tuple)) else SymMatrix(1, (C,)),
                b=Vector(tuple(b) if isinstance(b, (list, tuple)) else (b,)),
                c=c,
            ),
        ),
        V=canonical.ConvexQuadV(((a, beta),)),
    )


class TestLambdaEval:
    def test_at_recovered_minimizer(self, gp):
        assert canonical.lambda_eval(gp, (3.0,)) == pytest.approx((-1.0,), abs=1e-12)

    def test_at_vertex_of_the_measure(self, gp):
        # The measure is (t - 4/3)^2 - 34/9, so its minimum value is -34/9.
        assert canonical.lambda_eval(gp, (4.0 / 3.0,))[0] == pytest.approx(-34.0 / 9.0, abs=1e-12)

    def test_plain_square_measure_at_origin(self):
        pr = make_problem(A=0.0, f=0.0, C=2.0, b=0.0, c=0.0, a=1.0, beta=0.0)
        assert canonical.lambda_eval(pr, (0.0,)) == (0.0,)

    def test_dimension_mismatch(self, gp):
        with pytest.raises(DimensionMismatch):
            canonical.lambda_eval(gp, (1.0, 2.0))


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
        assert canonical.g_matrix(gp, (-15.0,)).entry(0, 0) == pytest.approx(16.0 / 3.0, abs=1e-12)
        assert canonical.f_vector(gp, (-15.0,))[0] == pytest.approx(16.0, abs=1e-12)

    def test_at_zero_reduces_to_problem_data(self, gp):
        assert canonical.g_matrix(gp, (0.0,)).entry(0, 0) == gp.A.entry(0, 0)
        assert canonical.f_vector(gp, (0.0,)).entries == gp.f.entries

    def test_boundary_of_feasible_interval(self, gp):
        assert canonical.g_matrix(gp, (-53.0 / 3.0,)).entry(0, 0) == pytest.approx(0.0, abs=1e-12)


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


class TestDualGradient:
    def test_vanishes_at_certified_point(self, gp):
        grad = canonical.dual_gradient(gp, (-15.0,))
        assert abs(grad[0]) <= 1e-10
        # Both envelope pieces individually: measure at t=3 and conjugate slope.
        assert canonical.lambda_eval(gp, (3.0,))[0] == pytest.approx(-1.0, abs=1e-12)
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
        with pytest.raises(SingularMatrixError):
            canonical.dual_gradient(gp, (-53.0 / 3.0,))


def fd_dual_hessian(pr, sigma):
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
            assert_hessians_close(canonical.dual_hessian(gp, sigma), fd_dual_hessian(gp, sigma), 1e-6)

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
            got = canonical.dual_hessian(gp, (sigma,)).entry(0, 0)
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
            assert min_eigenvalue(canonical.dual_hessian(gp, sigma).scale(-1.0)) > 0.0

    def test_uncoupled_measure_leaves_only_the_conjugate(self):
        # C = 0 and b = 0: x_bar does not move with sigma, H = -1/(2a).
        pr = make_problem(A=2.0, f=1.0, C=0.0, b=0.0, c=0.5, a=4.0, beta=1.0)
        assert canonical.dual_hessian(pr, (0.7,)).upper == (-1.0 / 8.0,)

    def test_singular_g_raises(self, gp):
        with pytest.raises(SingularMatrixError):
            canonical.dual_hessian(gp, (-53.0 / 3.0,))

    def test_dimension_mismatch(self, gp):
        with pytest.raises(DimensionMismatch):
            canonical.dual_hessian(gp, (1.0, 2.0))


coefficient = st.integers(-8, 8).map(lambda k: k / 4.0)


@st.composite
def interior_canonical_points(draw):
    """A random canonical problem (n <= 4, m <= 3) and a dual point where
    G has minimum eigenvalue at least 0.1; A is shifted to make it so."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    tri = n * (n + 1) // 2

    def sym():
        return SymMatrix(n, tuple(draw(st.lists(coefficient, min_size=tri, max_size=tri))))

    def vec():
        return Vector(tuple(draw(st.lists(coefficient, min_size=n, max_size=n))))

    A = sym()
    ops = tuple(canonical.QuadOperator(C=sym(), b=vec(), c=draw(coefficient)) for _ in range(m))
    V = canonical.ConvexQuadV(tuple(
        (draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])), draw(coefficient)) for _ in range(m)
    ))
    sigma = tuple(draw(st.lists(coefficient, min_size=m, max_size=m)))
    margin = min_eigenvalue(add_scaled(A, [(s, op.C) for s, op in zip(sigma, ops)]))
    if margin < 0.1:
        A = add_scaled(A, [(0.2 - margin + draw(coefficient) ** 2, SymMatrix.identity(n))])
    pr = canonical.CanonicalProblem(n=n, A=A, f=vec(), ops=ops, V=V)
    return pr, sigma


@given(interior_canonical_points())
def test_dual_hessian_matches_central_differences_on_random_problems(case):
    pr, sigma = case
    assert canonical.in_positive_domain(pr, sigma)[1] >= 0.1
    exact = canonical.dual_hessian(pr, sigma)
    assert_hessians_close(exact, fd_dual_hessian(pr, sigma), 1e-5)
    assert min_eigenvalue(exact.scale(-1.0)) > 0.0


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
            SymMatrix(n, tuple(draw(st.lists(coefficient, min_size=tri, max_size=tri)))),
            Vector(tuple(draw(st.lists(coefficient, min_size=n, max_size=n)))),
            draw(coefficient),
        )
        for exps in monomials
    ]
    sigma = tuple(draw(st.lists(coefficient, min_size=m, max_size=m)))
    pr = canonical.TableProblem(canonical.DualTable(n, m, tuple(terms)), MultiPoly.zero(n))
    margin = min_eigenvalue(canonical.g_matrix(pr, sigma))
    if margin < 0.1:
        shift = 0.2 - margin + draw(coefficient) ** 2
        constant = terms[0]
        terms[0] = canonical.DualTerm(
            constant.exps, add_scaled(constant.G, [(shift, SymMatrix.identity(n))]), constant.F, constant.c
        )
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
    assert_hessians_close(canonical.dual_hessian(pr, sigma), reference, 1e-5)


@given(interior_canonical_points(), st.floats(-2.0, 2.0))
def test_dual_point_against_numpy(case, t):
    # One factorisation per dual point: the value and x_bar come from the
    # factor of G, the threshold test from one of G - tI.
    pr, sigma = case
    G = np.array(canonical.g_matrix(pr, sigma).to_rows())
    F = np.array(canonical.f_vector(pr, sigma).entries)
    x = np.linalg.solve(G, F)
    scale = 1e-12 * np.linalg.cond(G) * (1.0 + np.abs(x).max())
    assert np.allclose(canonical.recover_primal(pr, sigma).entries, x, rtol=0.0, atol=scale)
    c = canonical.complementary_value(pr, (0.0,) * pr.n, sigma)  # Xi(0, sigma) = c(sigma)
    assert canonical.dual_value(pr, sigma) == pytest.approx(-0.5 * float(F @ x) + c, abs=scale * (1.0 + np.abs(F).sum()))
    lam = float(np.linalg.eigvalsh(G)[0])
    if abs(lam - t) > 1e-9 * (1.0 + abs(t) + np.abs(G).max()):
        assert canonical.in_interior(pr, sigma, t) is (lam > t)


class TestScalarDualPoint:
    def test_primal_is_one_correctly_rounded_division(self, gp):
        rng = Lcg(16)
        for _ in range(200):
            sigma = (rng.uniform(-53.0 / 3.0 + 1e-3, 40.0),)
            (g,) = canonical.g_matrix(gp, sigma).upper
            (f,) = canonical.f_vector(gp, sigma).entries
            expected = float(Fraction(f) / Fraction(g))
            assert canonical.recover_primal(gp, sigma).entries == (expected,)
            assert canonical.dual_value(gp, sigma) == -0.5 * (f * expected) + (
                canonical.complementary_value(gp, (0.0,), sigma)
            )

    def test_in_interior_is_a_strict_threshold(self, gp):
        # G(sigma) = 2 sigma + 106/3 is exact at sigma = -16 (G = 10/3 in floats).
        g = canonical.g_matrix(gp, (-16.0,)).upper[0]
        assert canonical.in_interior(gp, (-16.0,), g - 1e-12)
        assert not canonical.in_interior(gp, (-16.0,), g)
        assert not canonical.in_interior(gp, (-53.0 / 3.0,), 0.0)


class TestComplementary:
    def test_equality_chain_at_critical_pair(self, gp):
        xi = canonical.complementary_value(gp, (3.0,), (-15.0,))
        assert xi == pytest.approx(canonical.primal_value(gp, (3.0,)), abs=1e-10)
        assert xi == pytest.approx(canonical.dual_value(gp, (-15.0,)), abs=1e-10)

    def test_at_frozen_primal_point(self, gp):
        # Lambda(0) = -2 and U(0) = 0, so Xi(0, s) = -V*(s) - 2 s.
        for sigma in (-15.0, -5.0, 0.0, 7.5):
            expected = -canonical.conjugate_value(gp.V, (sigma,)) - 2.0 * sigma
            assert canonical.complementary_value(gp, (0.0,), (sigma,)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_zero_problem(self):
        pr = make_problem(A=0.0, f=0.0, C=0.0, b=0.0, c=0.0, a=1.0, beta=0.0)
        assert canonical.complementary_value(pr, (4.0,), (0.0,)) == 0.0


class TestRecoverPrimal:
    def test_certified_point(self, gp):
        assert canonical.recover_primal(gp, (-15.0,))[0] == pytest.approx(3.0, abs=1e-12)

    def test_at_zero(self, gp):
        assert canonical.recover_primal(gp, (0.0,))[0] == pytest.approx(84.0 / 53.0, abs=1e-12)

    def test_unconstrained_quadratic(self):
        pr = make_problem(A=1.0, f=1.0, C=0.0, b=0.0, c=0.0, a=1.0, beta=0.0)
        assert canonical.recover_primal(pr, (0.0,))[0] == pytest.approx(1.0, abs=1e-14)


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

    def test_spurious_primal_critical_points_are_rejected(self, gp):
        # The other critical points of the quartic, t = 0 and t = 1, map
        # through sigma = 6 xi - 9 to exactly -21 and -31: both infeasible.
        for t, expected_sigma in ((Fraction(0), -21), (Fraction(1), -31)):
            xi = t * t - Fraction(8, 3) * t - 2
            sigma = 6 * xi - 9
            assert sigma == expected_sigma
            ok, _ = canonical.in_positive_domain(gp, (float(sigma),))
            assert not ok


class TestDualityGap:
    def test_zero_at_critical_pair(self, gp):
        gap_px, gap_xd = canonical.duality_gap(gp, (3.0,), (-15.0,))
        assert gap_px <= 1e-8 * 4 and gap_xd <= 1e-8 * 4

    def test_positive_at_noncritical_primal(self, gp):
        gap_px, _ = canonical.duality_gap(gp, (0.0,), (-15.0,))
        assert gap_px > 1.0  # |30 - Xi(0, -15)| is large

    def test_degenerate_zero_problem(self):
        pr = make_problem(A=0.0, f=0.0, C=0.0, b=0.0, c=0.0, a=1.0, beta=0.0)
        assert canonical.duality_gap(pr, (0.0,), (0.0,)) == (0.0, 0.0)

    def test_propagates_column_space_violation(self):
        # Singular G with F outside its column space: A=0, C=0 (so G == 0), f != 0.
        pr = make_problem(A=0.0, f=1.0, C=0.0, b=0.0, c=0.0, a=1.0, beta=0.0)
        with pytest.raises(ColumnSpaceViolation):
            canonical.duality_gap(pr, (0.0,), (0.0,))


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
                coeff = Fraction(S.entry(i, j))
                if coeff:
                    acc = acc + (xs[i] * xs[j]).scale(coeff)
        return acc

    total = MultiPoly.zero(n)
    for (a, beta), op in zip(pr.V.pairs, pr.ops):
        lam = quad_poly(op.C).scale(Fraction(1, 2)) + MultiPoly.constant(n, Fraction(op.c))
        for i in range(n):
            bi = Fraction(op.b[i])
            if bi:
                lam = lam + xs[i].scale(bi)
        total = total + (lam * lam).scale(Fraction(a)) + lam.scale(Fraction(beta))
    total = total + quad_poly(pr.A).scale(Fraction(1, 2))
    for i in range(n):
        fi = Fraction(pr.f[i])
        if fi:
            total = total - xs[i].scale(fi)
    return total


PROBLEMS = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.json"))


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
    # Reference: V(Lambda(x)) - U(x) through SymMatrix.quadratic_form and
    # Vector.dot; the plain-tuple evaluation must give the same bits.
    pr, _ = case
    x = Vector(tuple(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=pr.n, max_size=pr.n))))
    xi = tuple(0.5 * op.C.quadratic_form(x) + op.b.dot(x) + op.c for op in pr.ops)
    u = -0.5 * pr.A.quadratic_form(x) + pr.f.dot(x)
    assert canonical.lambda_eval(pr, x) == xi
    assert canonical.lambda_eval(pr, x.entries) == xi
    assert canonical.u_value(pr, list(x)) == u
    assert canonical.primal_value(pr, x.entries) == pr.V.value(xi) - u


class TestPrimalPolynomial:
    def test_matches_primal_value_on_samples(self, gp):
        poly = canonical.primal_polynomial(gp)
        rng = Lcg(15)
        for _ in range(50):
            t = rng.uniform(-6.0, 6.0)
            assert poly.eval((t,)) == pytest.approx(
                canonical.primal_value(gp, (t,)), rel=1e-9, abs=1e-9
            )

    def test_coefficients_match_quartic_to_rounding(self, gp):
        # The problem stores 106/3 and -8/3 as floats, so the reconstruction
        # differs from the exact quartic only at float-representation level.
        diff = canonical.primal_polynomial(gp) - gp_g()
        assert all(abs(float(c)) <= 1e-12 for c in diff.terms.values())


# -- one evaluation per dual point --------------------------------------------
#
# The separate per-quantity formulas DualPoint replaced, kept verbatim as the
# reference: each accumulates the table and factors G afresh.


def _check_sigma(pr, sigma):
    if len(sigma) != pr.m:
        raise DimensionMismatch(f"sigma has length {len(sigma)}, expected {pr.m}")
    return tuple(map(float, sigma))


def _solver(table, acc):
    n = table.n
    if n == 1:
        g = acc[0]
        return exceeds(1, acc, 0.0), lambda v, tol: (solve_1x1(g, v[0], tol),)
    if n == 2:
        a, b, d = acc[0], acc[1], acc[2]
        return exceeds(2, acc, 0.0), lambda v, tol: solve_2x2(a, b, d, v[0], v[1], tol)
    factor = _cholesky(n, acc, 0.0)
    if factor is not None:
        rows = full_rows(n, acc)
        return True, lambda v, tol: solve_factored(factor, rows, v, tol)
    G = _g(table, acc)
    return False, lambda v, tol: solve_sym(G, v, tol).entries


def _at(pr, sigma):
    sig = _check_sigma(pr, sigma)
    table = pr.table
    return sig, table, _accumulate(table, table.value, sig)


def reference_dual_value(pr, sigma, residual_tol=1e-9):
    _, table, acc = _at(pr, sigma)
    F = _f(table, acc)
    return -0.5 * sum(map(mul, F, _solver(table, acc)[1](F, residual_tol))) + acc[-1]


def reference_dual_rounding(pr, sigma):
    _, table, acc = _at(pr, sigma)
    F = _f(table, acc)
    half = 0.5 * sum(map(mul, F, _solver(table, acc)[1](F, 1e-9)))
    return _ROUNDING_ULPS * sys.float_info.epsilon * (abs(acc[-1]) + abs(half))


def reference_recover_primal(pr, sigma, residual_tol=1e-9):
    _, table, acc = _at(pr, sigma)
    return Vector(_solver(table, acc)[1](_f(table, acc), residual_tol))


def _interior_primal(pr, sigma):
    sig, table, acc = _at(pr, sigma)
    positive, solve = _solver(table, acc)
    if not positive and not is_nonsingular(_g(table, acc)):
        raise SingularMatrixError("G(sigma) is singular; dual derivatives undefined on the boundary")
    return sig, table, solve, solve(_f(table, acc), 1e-6)


def reference_dual_gradient(pr, sigma):
    sig, table, _, x = _interior_primal(pr, sigma)
    return tuple(_xi(table, _accumulate(table, rows, sig), x) for rows in table.grad)


def reference_dual_hessian(pr, sigma):
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
    x = reference_recover_primal(pr, sigma).entries
    want = packed([
        reference_dual_value(pr, sigma), reference_dual_rounding(pr, sigma), *x,
        _xi(pr.table, _at(pr, sigma)[2], x),
        *reference_dual_gradient(pr, sigma), *reference_dual_hessian(pr, sigma).upper,
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
    return cli.parse_problem_dict(json.loads(text)).to_problem()


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
        if canonical.in_interior(pr, sigma, 1e-9):
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
        (g,) = canonical.g_matrix(gp, (-15.0,)).upper
        assert g == pytest.approx(16.0 / 3.0, abs=1e-12)
        assert point.exceeds(g - 1e-12)
        assert not point.exceeds(g)

    def test_tighter_residual_check_after_a_looser_solve(self):
        # G = 0 and F = 1e-8: the least-squares x_bar = 0 leaves residual
        # 1e-8, inside the derivatives' 1e-6 but outside the value's 1e-9.
        pr = make_problem(A=0.0, f=1e-8, C=1.0, b=0.0, c=0.0, a=1.0, beta=0.0)
        point = canonical.DualPoint(pr, (0.0,))
        assert point.x_bar(1e-6) == (0.0,)
        with pytest.raises(ColumnSpaceViolation):
            point.value()
        with pytest.raises(ColumnSpaceViolation):
            canonical.dual_value(pr, (0.0,))
        assert canonical.recover_primal(pr, (0.0,), residual_tol=1e-6).entries == (0.0,)

    def test_singular_g_raises_for_derivatives_after_a_solve(self, gp):
        point = canonical.DualPoint(gp, (-53.0 / 3.0,))
        point.x_bar(1.0)
        with pytest.raises(SingularMatrixError):
            point.gradient()
        with pytest.raises(SingularMatrixError):
            point.hessian()


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
