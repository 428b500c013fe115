"""The canonical duality framework on the decoupled quartic and synthetic problems."""

import json
import math
import random
import struct
import sys
from fractions import Fraction
from functools import partial
from operator import mul, sub
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canondual import canonical, cli, dual_solver, polynomial
from canondual.benchmarks import gp_canonical_g, gp_dual_closed_form, gp_g, thc_problem
from canondual.canonical import DualTable, _ROUNDING_ULPS
from canondual.dual_solver import _fd_gradient, _fd_hessian, solve_canonical
from canondual.errors import ColumnSpaceViolation, DimensionMismatch, DomainViolation
from canondual.oracle import Lcg
from canondual.polynomial import MultiPoly
from canondual.smallmat import (
    SymMatrix,
    Vector,
    _triu_index,
    eigen_sym,
    full_rows,
    solve_sym,
)
from tests.test_dual_solver import (
    CRAWLS_ALONG_THE_BOUNDARY,
    STALLED_UNDER_FD_HESSIAN,
    reference_newton_direction,
)

SURVEY = Path(__file__).resolve().parent / "data"
SURVEY_FILES = sorted(SURVEY.glob("survey_*.json"))

# The planted pool's generator, perfbench/planted.py, and its reference module.
_PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    import planted
    import reference as planted_reference
finally:
    sys.path.remove(_PERFBENCH)


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


# The reported PSD margin, lambda_min(G) at the ascent's last iterate
# (smallmat.eigen_sym's closed forms for n <= 2, Jacobi sweeps otherwise),
# pinned to its bits on the paper's problems, the pool's first problem of
# each n (m = 1) and both survey draws, one of which ends on the boundary.
REPORTED_MARGINS = [
    (gp_canonical_g, "0x1.55555555551bcp+2"),
    (thc_problem, "0x1.19fa9a6a81360p-4"),
    ("planted_00.json", "0x1.7ffffffff92d2p-1"),
    ("planted_01.json", "0x1.0000000000000p+0"),
    ("planted_02.json", "0x1.1aa547628e069p+0"),
    ("planted_03.json", "0x1.91e324a5c49f0p+0"),
    ("survey_4_3_0.json", "0x1.12e0a023e5560p-30"),
    ("survey_4_4_13.json", "0x1.c40baf0061c26p-1"),
]


@pytest.mark.parametrize("problem, margin", REPORTED_MARGINS)
def test_reported_psd_margin_is_pinned(problem, margin, pool_paths):
    if callable(problem):
        pr = problem()
    else:
        pr = cli.load_problem_file(next(path for path in [*pool_paths, *SURVEY_FILES] if path.name == problem))
    assert solve_canonical(pr).psd_margin.hex() == margin


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



@given(interior_canonical_points(), st.data())
def test_primal_samples_are_primal_value_bit_for_bit(case, data):
    pr, _ = case
    rows = data.draw(st.lists(st.lists(st.floats(-10.0, 10.0), min_size=pr.n, max_size=pr.n),
                              min_size=1, max_size=20))
    columns = tuple(np.array(rows).T)
    assert [v.hex() for v in canonical.primal_samples(pr, columns).tolist()] == [
        canonical.primal_value(pr, row).hex() for row in rows]


def test_primal_samples_of_verify_gp_are_its_scalar_values(gp):
    # verify gp's weak-duality draw: 100 primal samples of g(t) on [-10, 10].
    rng = Lcg(104)
    rng.units(100)
    ts = -10.0 + (10.0 - -10.0) * rng.units(100)
    assert [v.hex() for v in canonical.primal_samples(gp, (ts,)).tolist()] == [
        canonical.primal_value(gp, (t,)).hex() for t in ts.tolist()]

def _primal_polynomial_term_by_term(pr):
    """P(x) accumulated one Fraction term at a time on one {exponents:
    Fraction} map: each Lambda_k's terms, then a_k Lambda_k^2 + beta_k
    Lambda_k over the upper triangle of term pairs, then 1/2 x^T A x - x^T f.
    primal_polynomial's expansion on integers replaced it."""
    n = pr.n
    zero = (0,) * n
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def quadratic(S, b, c):
        terms = {zero: c}
        upper = iter(S)
        for i in range(n):
            terms[units[i]] = b[i]
            for j in range(i, n):
                s = next(upper)
                terms[tuple(map(sum, zip(units[i], units[j])))] = s / 2 if i == j else s
        return [(e, t) for e, t in terms.items() if t]

    total = {}

    def accumulate(exps, value):
        total[exps] = total[exps] + value if exps in total else value

    for (a, beta), op in zip(pr.V.pairs, pr.ops):
        lam = quadratic(op.C, op.b, op.c)
        for p, (e1, t1) in enumerate(lam):
            accumulate(tuple(2 * e for e in e1), a * t1 * t1)
            for e2, t2 in lam[p + 1:]:
                accumulate(tuple(map(sum, zip(e1, e2))), 2 * a * t1 * t2)
            accumulate(e1, beta * t1)
    for exps, value in quadratic(pr.A, [-f for f in pr.f], Fraction(0)):
        accumulate(exps, value)
    return MultiPoly(n, total)


rationals = st.fractions(min_value=-7, max_value=7, max_denominator=30)


@st.composite
def exact_canonical_problems(draw):
    """A canonical problem (n <= 4, m <= 3) of arbitrary rationals, zeros
    among them; V's a_k > 0 and beta_k rational."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    entries = st.one_of(st.just(Fraction(0)), rationals)

    def row(size):
        return tuple(draw(st.lists(entries, min_size=size, max_size=size)))

    ops = tuple(canonical.QuadOperator(C=row(n * (n + 1) // 2), b=row(n), c=draw(entries)) for _ in range(m))
    V = canonical.ConvexQuadV(tuple(
        (draw(st.fractions(min_value=Fraction(1, 30), max_value=5, max_denominator=30)), draw(entries))
        for _ in range(m)
    ))
    return canonical.CanonicalProblem(n=n, A=row(n * (n + 1) // 2), f=row(n), ops=ops, V=V)


@given(exact_canonical_problems())
def test_primal_polynomial_is_the_term_by_term_expansion(pr):
    assert canonical.primal_polynomial(pr) == _primal_polynomial_term_by_term(pr)


def test_primal_polynomial_of_the_planted_pool(pool_paths):
    for path in pool_paths:
        pr = cli.load_problem_file(path)
        assert canonical.primal_polynomial(pr) == _primal_polynomial_term_by_term(pr)


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


def _orders(m):
    """The derivative orders of a table's accumulators, in their order:
    the value, each sigma_k and each (k, l) with k <= l."""
    return [(), *((k,) for k in range(m)), *((k, l) for k in range(m) for l in range(k, m))]


def _accumulate(table, order, sig):
    """The interpreted accumulation that the table's generated accumulators
    replace, kept as their reference: [upper triangle of G, F, c] of the
    derivative of the given order, summed over table.terms, each term's
    nonzero coefficients c times its derivative's exponent product e,
    e * c, times each sigma_k's power from left to right, each power made
    by repeated multiplication."""
    acc = [0.0] * (table.n * (table.n + 3) // 2 + 1)
    for t in table.terms:
        exps, e = list(t.exps), 1
        for k in order:
            e *= exps[k]
            exps[k] -= 1
        if not e:
            continue
        for slot, value in enumerate(map(float, (*t.G, *t.F, t.c))):
            if value:
                w = e * value
                for k, p in enumerate(exps):
                    if p:
                        power = sig[k]
                        for _ in range(p - 1):
                            power *= sig[k]
                        w *= power
                acc[slot] += w
    return acc


def _f(table: DualTable, acc: list[float]) -> list[float]:
    return acc[-table.n - 1:-1]


def _gx(table: DualTable, acc: list[float], x: Sequence[float]) -> list[float]:
    """G x for accumulated coefficients."""
    return [sum(map(mul, row, x)) for row in full_rows(table.n, acc)]


def _xi(table: DualTable, acc: list[float], x: Sequence[float]) -> float:
    """1/2 x^T G x - x^T F + c for accumulated coefficients."""
    return 0.5 * sum(map(mul, _gx(table, acc, x), x)) - sum(map(mul, _f(table, acc), x)) + acc[-1]


def _check_sigma(pr, sigma):
    if len(sigma) != pr.m:
        raise DimensionMismatch(f"sigma has length {len(sigma)}, expected {pr.m}")
    return tuple(map(float, sigma))


def _solver(table, acc):
    n = table.n
    G = SymMatrix(n, tuple(acc[:n * (n + 1) // 2]))
    return lambda v, tol: solve_sym(G, Vector(tuple(v)), tol).entries


def _at(pr, sigma):
    sig = _check_sigma(pr, sigma)
    table = pr.table
    return sig, table, _accumulate(table, (), sig)


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
    return tuple(_xi(table, _accumulate(table, (k,), sig), x) for k in range(table.m))


def reference_hessian(pr, sigma):
    sig, table, solve, x = _interior_primal(pr, sigma)
    first = [_accumulate(table, (k,), sig) for k in range(table.m)]
    u = [tuple(map(sub, _gx(table, acc, x), _f(table, acc))) for acc in first]
    w = [solve(u_l, 1e-6) for u_l in u]
    return SymMatrix(pr.m, tuple(
        _xi(table, _accumulate(table, (k, l), sig), x) - sum(map(mul, u[k], w[l]))
        for k, l in _orders(table.m)[1 + table.m:]
    ))


def reference_newton(pr, sigma):
    """The ascent's (direction, slope) at sigma from the reference gradient
    and Hessian, as the interpreted ascent made them."""
    return reference_newton_direction(partial(reference_hessian, pr, sigma), reference_dual_gradient(pr, sigma))


def packed(values):
    values = [float(v) for v in values]
    return struct.pack(f"{len(values)}d", *values)


def assert_point_matches_reference(pr, sigma):
    """Value, rounding bound, x_bar, Xi(x_bar), gradient, its norm, Hessian
    and the ascent's direction and slope of one DualPoint equal the separate
    formulas bit for bit, whichever quantity the point is asked for first."""
    x = reference_x_bar(pr, sigma).entries
    gradient = reference_dual_gradient(pr, sigma)
    direction, slope = reference_newton(pr, sigma)
    want = packed([
        reference_dual_value(pr, sigma), reference_dual_rounding(pr, sigma), *x,
        _xi(pr.table, _at(pr, sigma)[2], x), *gradient, math.sqrt(sum(g * g for g in gradient)),
        *reference_hessian(pr, sigma).upper, *direction, slope,
    ])
    point = canonical.DualPoint(pr, sigma)
    gradient, norm = point.gradient_with_norm()
    direction, slope = point.newton_direction(gradient)
    assert packed([
        point.value(), point.rounding(), *point.x_bar(), point.complementary(point.x_bar()),
        *point.gradient(), norm, *point.hessian().upper, *direction, slope,
    ]) == want
    point = canonical.DualPoint(pr, sigma)
    hessian, gradient = point.hessian().upper, point.gradient()
    direction, slope = point.newton_direction(gradient)
    assert packed([
        point.value(), point.rounding(), *point.x_bar(), point.complementary(point.x_bar()), *gradient,
        point.gradient_with_norm()[1], *hessian, *direction, slope,
    ]) == want


def _planted(text):
    return cli.parse_problem_dict(json.loads(text))


SHIPPED_AND_PLANTED = {
    "gp_canonical_g": gp_canonical_g,
    "thc_problem": thc_problem,
    **{f"planted_{i}": partial(_planted, entry[0]) for i, entry in enumerate(STALLED_UNDER_FD_HESSIAN)},
    "crawls_along_the_boundary": partial(_planted, CRAWLS_ALONG_THE_BOUNDARY[0]),
    **{path.stem: partial(cli.load_problem_file, path) for path in SURVEY_FILES},
}


def _draws_around(center, count, seed):
    """center and count draws around it, at radii 1e-3, 0.5 and 4.0 in turn."""
    rng = Lcg(seed)
    return [tuple(center), *(tuple(s + rng.uniform(-radius, radius) for s in center)
                             for radius in (1e-3, 0.5, 4.0) * (count // 3))]


def _interior(pr, samples):
    return [sigma for sigma in samples if canonical.DualPoint(pr, sigma).exceeds(1e-9)]


@pytest.mark.parametrize("name", SHIPPED_AND_PLANTED)
def test_dual_point_matches_the_separate_formulas(name):
    # The ascent's end and the interior draws of 60 around it.  The survey
    # files end pressed against the boundary, where fewer draws are inside.
    pr = SHIPPED_AND_PLANTED[name]()
    samples = _interior(pr, _draws_around(solve_canonical(pr).sigma_star, 60, 17))
    assert len(samples) >= (8 if name.startswith("survey") else 20)
    for sigma in samples:
        assert_point_matches_reference(pr, sigma)


@given(st.one_of(interior_canonical_points(), interior_table_points()))
def test_dual_point_matches_the_separate_formulas_on_random_problems(case):
    assert_point_matches_reference(*case)


@st.composite
def planted_problems(draw):
    """(a problem by the planted pool's recipe, perfbench/planted.generate,
    with 1 <= n, m <= 4, its planted sigma* as floats)."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    drawn = planted.generate(random.Random(draw(st.integers(0, 2 ** 32 - 1))), n, m)
    pr = cli.parse_problem_dict(planted_reference.problem_to_json(drawn))
    return pr, tuple(map(float, drawn["sigma_star"]))


@given(planted_problems())
def test_dual_point_matches_the_separate_formulas_on_planted_draws(case):
    # The planted sigma*, interior with margin >= 0.25, and the interior
    # draws of 9 around it.
    pr, center = case
    for sigma in _interior(pr, _draws_around(center, 9, 23)):
        assert_point_matches_reference(pr, sigma)


@given(planted_problems())
def test_column_gradients_are_the_dual_points_on_planted_draws(case):
    # At each solved sample the bits of DualPoint.gradient(), and each
    # unsolved one raises there.  test_sampled_duals_are_the_dual_points_for_n_three_and_four
    # checks the survey files and the pool's n = 3, 4 problems.
    pr, center = case
    samples = _draws_around(center, 30, 31)
    gradient, solved = canonical.dual_gradient_columns(pr, tuple(zip(*samples)))
    assert solved[0]
    for j, sigma in enumerate(samples):
        point = canonical.DualPoint(pr, sigma)
        if solved[j]:
            assert [float(column[j]).hex() for column in gradient] == [g.hex() for g in point.gradient()]
        else:
            assert _raises(point.gradient)


def _table_problem(n, m, terms):
    return canonical.TableProblem(canonical.DualTable(n, m, tuple(canonical.DualTerm(*t) for t in terms)),
                                  MultiPoly.zero(n))


# Duals on which the ascent's step falls back to steepest ascent, each
# (problem, sigma, what makes it fall back), G = 1 unless given.
STEEPEST_ASCENT = [
    # P^d = sigma^2 is convex: -H = -2 is not positive definite.
    (_table_problem(1, 1, [((0,), (1,), (0,), 0), ((2,), (0,), (0,), 1)]), (0.5,), DomainViolation),
    # P^d = 1e300 sigma - 1e-300 sigma^2: -H d = g overflows to inf.
    (_table_problem(1, 1, [((0,), (1,), (0,), 0), ((1,), (0,), (0,), 1e300), ((2,), (0,), (0,), -1e-300)]),
     (0.0,), ColumnSpaceViolation),
    # G = 1e-300 and F = 1e10 sigma: at sigma = 0, x_bar = 0 but the
    # Hessian's solve G w = u = -1e10 overflows.
    (_table_problem(1, 1, [((0,), (1e-300,), (0,), 0), ((1,), (0,), (1e10,), 1)]), (0.0,), ColumnSpaceViolation),
    # P^d = -sigma^2 at its maximum: g = 0, so the Newton step d = 0 does not ascend.
    (_table_problem(1, 1, [((0,), (1,), (0,), 0), ((2,), (0,), (0,), -1)]), (0.0,), None),
    # The same in two components, the second convex: -H is indefinite.
    (_table_problem(2, 2, [((0, 0), (1, 0, 1), (0, 0), 0), ((1, 0), (0, 0, 0), (0, 0), 1),
                           ((2, 0), (0, 0, 0), (0, 0), -1), ((0, 2), (0, 0, 0), (0, 0), 1)]),
     (0.25, 0.5), DomainViolation),
]


@pytest.mark.parametrize("pr, sigma, error", STEEPEST_ASCENT)
def test_newton_direction_falls_back_where_the_reference_does(pr, sigma, error):
    # The reference, solve_sym(H.scale(-1.0), Vector(g), 1e-6), raises the
    # error (or ascends by no Newton step), and both take (g, g^T g).
    point = canonical.DualPoint(pr, sigma)
    grad = point.gradient()
    if error is None:
        assert not any(grad)
    else:
        with pytest.raises(error):
            solve_sym(point.hessian().scale(-1.0), Vector(grad), 1e-6)
    want, want_slope = reference_newton_direction(point.hessian, grad)
    assert want == grad
    direction, slope = point.newton_direction(grad)
    assert packed([*direction, slope]) == packed([*want, want_slope])


def test_newton_direction_is_the_reference_where_the_step_exists(pool_paths):
    # At the interior start of each pool problem that is not already at its
    # maximum the Newton step exists and ascends: the bits of
    # solve_sym(H.scale(-1.0), Vector(g), 1e-6) and of g^T d.
    climbed = 0
    for path in pool_paths:
        pr = cli.load_problem_file(path)
        point = dual_solver.find_interior_start(partial(canonical.DualPoint, pr), pr.m)
        grad = point.gradient()
        if not any(grad):
            continue
        d = solve_sym(point.hessian().scale(-1.0), Vector(grad), 1e-6)
        direction, slope = point.newton_direction(grad)
        assert packed(direction) == packed(d.entries)
        assert packed([slope]) == packed([sum(g * di for g, di in zip(grad, d))]) and slope > 0.0
        climbed += 1
    assert climbed >= 30


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


def _accumulations(table, sig):
    """The value, gradient and Hessian accumulations at sigma, as the
    generated accumulators give them and as the reference loop does."""
    generated = [table.accumulate(sig), *(f(sig) for f in table.accumulate_grad),
                 *(f(sig) for f in table.accumulate_hess)]
    reference = [_accumulate(table, order, sig) for order in _orders(table.m)]
    return generated, reference


def test_generated_accumulation_is_the_reference_loop_bit_for_bit(pool_paths):
    # GP, THC (whose table has the mixed monomial s1 s2), the shipped files
    # and the 36 planted pool problems, at random sigma with zero entries,
    # and at sigma whose squares overflow: the zeros a term of degree 0 or 1
    # carries stay +-0.0 there, and no term of higher degree carries one.
    problems = [gp_canonical_g(), thc_problem(), *map(cli.load_problem_file, [*PROBLEMS, *pool_paths])]
    rng = Lcg(19)
    for pr in problems:
        huge = [tuple(big if k == j else 0.0 for k in range(pr.m)) for big in (1e200, -1e200) for j in range(pr.m)]
        drawn = [tuple(0.0 if rng.uniform(0.0, 1.0) < 0.3 else rng.uniform(-60.0, 60.0) for _ in range(pr.m))
                 for _ in range(40)]
        for sig in huge + drawn:
            generated, reference = _accumulations(pr.table, sig)
            assert len(generated) == 1 + pr.m + pr.m * (pr.m + 1) // 2
            assert [packed(acc) for acc in generated] == [packed(acc) for acc in reference], sig


def test_one_compiled_accumulator_per_canonical_shape(pool_paths):
    # One compile per (n, m) across the pool and GP; THC's table adds its own.
    tables = [pr.table for pr in [gp_canonical_g(), *map(cli.load_problem_file, pool_paths)]]
    polynomial._shape_code.cache_clear()
    canonical._layout.cache_clear()

    def compiles():
        return polynomial._shape_code.cache_info().currsize

    added = {}
    for t in tables:
        compiled = compiles()
        canonical.DualTable(t.n, t.m, t.terms)
        added.setdefault((t.n, t.m), []).append(compiles() - compiled)
    assert len(added) == 12 and all(first and not any(rest) for first, *rest in added.values())
    compiled = compiles()
    canonical.DualTable(2, 2, thc_problem().table.terms)
    assert compiles() > compiled
    # Two problems of GP's (n, m) whose zeros lie in different places share
    # its compiled code, bound to their own coefficients.
    p = make_problem(A=[1.0], f=[0.0], C=[2.0], b=[0.0], c=0.0, a=1.0, beta=0.0)
    q = make_problem(A=[0.0], f=[3.0], C=[0.0], b=[5.0], c=7.0, a=2.0, beta=1.0)
    compiled = compiles()
    assert p.table.accumulate((1.0,)) == (3.0, 0.0, -0.25)
    assert q.table.accumulate((1.0,)) == (0.0, -2.0, -0.125 + 7.25 - 0.125)
    assert compiles() == compiled


def test_negative_zero_coefficients_sum_as_the_reference_loop():
    # The value's slots are led by a constant term, and the first
    # derivative's are one constant term: sums written without their
    # leading 0.0, which read a coefficient -0.0 as +0.0 to stay +0.0.
    zero = (-0.0,), (-0.0,), -0.0
    table = canonical.DualTable(1, 1, (canonical.DualTerm((0,), *zero), canonical.DualTerm((1,), *zero)))
    for sig in [(0.0,), (-1.0,), (2.5,)]:
        generated, reference = _accumulations(table, sig)
        assert [packed(acc) for acc in generated] == [packed(acc) for acc in reference] == [packed((0.0,) * 3)] * 3


@pytest.mark.parametrize("n, m", [(0, 1), (5, 1), (7, 1), (1, 0), (1, 5)])
def test_table_dimensions_are_checked_before_its_terms(n, m):
    # Even a table without terms: its solves need 1 <= n <= smallmat.MAX_DIM,
    # and its accumulators take one variable per sigma component, 1 to
    # polynomial.MAX_ARITY of them.
    with pytest.raises(DimensionMismatch, match=f"got n={n}, m={m}"):
        canonical.DualTable(n, m, ())


def test_table_rejects_a_repeated_monomial():
    term = canonical.DualTerm((0,), (1.0,), (0.0,), 0.0)
    with pytest.raises(DimensionMismatch, match="one term per monomial"):
        canonical.DualTable(1, 1, (term, term))


def _quadratic(arity, n, upper, linear, constant=0):
    """1/2 x^T S x + x^T b + c as a polynomial in the first n of arity
    variables, S given by its upper triangle."""
    xs = [MultiPoly.variable(arity, i) for i in range(n)]
    poly = MultiPoly.constant(arity, constant)
    for i in range(n):
        poly = poly + linear[i] * xs[i]
        for j in range(i, n):
            s = upper[_triu_index(n, i, j)]
            poly = poly + (s / 2 if i == j else s) * xs[i] * xs[j]
    return poly


def test_staged_table_is_the_canonical_table(pool_paths):
    # One Stage of a canonical problem's measure, (a, beta) and
    # U = -1/2 x^T A x + f^T x reads off the table CanonicalProblem.table
    # builds: GP's g and each m = 1 pool problem with n <= 3.
    pool = [cli.load_problem_file(path) for path in pool_paths]
    problems = [gp_canonical_g(), *(pr for pr in pool if pr.m == 1 and pr.n <= 3)]
    assert len(problems) == 10
    rng = Lcg(30)
    for pr in problems:
        n, [op], [(a, beta)] = pr.n, pr.ops, pr.V.pairs
        stage = canonical.Stage(_quadratic(n + 1, n, op.C, op.b, op.c), a, beta,
                                -_quadratic(n + 1, n, pr.A, [-f for f in pr.f]))
        [(lhs, rhs)], table = canonical.staged(pr.objective, n, [stage])
        assert lhs == rhs
        expected = pr.table
        assert [t.exps for t in table.terms] == [t.exps for t in expected.terms]
        for got, want in zip(table.terms, expected.terms):
            assert [float(v) for v in (*got.G, *got.F, got.c)] == [float(v) for v in (*want.G, *want.F, want.c)]
        for sig in [(0.0,), (-1.0,)] + [(rng.uniform(-60.0, 60.0),) for _ in range(5)]:
            assert packed(table.accumulate(sig)) == packed(expected.accumulate(sig)), (pr, sig)


def test_staged_needs_a_convex_level_and_at_most_four_variables():
    t = MultiPoly.variable(2, 0)
    for a in (0, -1):
        with pytest.raises(ValueError, match="a must be > 0"):
            canonical.staged(MultiPoly.variable(1, 0) ** 4, 1, [canonical.Stage(t**2, a, 0, MultiPoly.zero(2))])
    with pytest.raises(DimensionMismatch, match="got 5"):
        canonical.staged(MultiPoly.zero(4), 4, [canonical.Stage(MultiPoly.zero(4), 1, 0, MultiPoly.zero(4))])


@pytest.mark.parametrize("problem, sigma", [
    (gp_canonical_g, (math.inf,)),
    (gp_canonical_g, (-math.inf,)),
    (gp_canonical_g, (math.nan,)),
    (thc_problem, (math.inf, 0.0)),
    (thc_problem, (0.0, math.nan)),
])
def test_non_finite_sigma_is_outside_the_domain(problem, sigma):
    # inf * 0.0 is NaN: no accumulation is made at a non-finite sigma.
    pr = problem()
    for request in (canonical.DualPoint, canonical.dual_value, canonical.dual_gradient,
                    canonical.in_positive_domain):
        with pytest.raises(DomainViolation, match="not finite"):
            request(pr, sigma)


# -- sampled duals against DualPoint, sample by sample -----------------------
# The column solve (_solved_samples) must give each sample the bits of the
# scalar calls and mark the first sample whose x_bar raises at the same
# tolerance; dual_samples, at x_bar's 1e-9, must also raise that sample's
# error; domain_exceeds must give each sample DualPoint's threshold test.


def _scalar_samples(pr, points, residual_tol):
    """(P^d, x_bar) by dual_value and DualPoint.x_bar(residual_tol) at each
    point, and the error of the first point that raises one (None when none
    does).  An x_bar within a tolerance <= 1e-9 is within dual_value's."""
    found = []
    for sigma in points:
        try:
            x = canonical.DualPoint(pr, sigma).x_bar(residual_tol)
            found.append((canonical.dual_value(pr, sigma), *x))
        except (DomainViolation, ColumnSpaceViolation) as exc:
            return found, exc
    return found, None


def _hex_rows(values, x):
    return [tuple(map(float.hex, row)) for row in zip(values.tolist(), *(column.tolist() for column in x))]


def _assert_samples_are_the_dual_points(pr, points, residual_tol=1e-9):
    expected, error = _scalar_samples(pr, points, residual_tol)
    columns = tuple(zip(*points))
    _, slots, x, solved = canonical._solved_samples(pr, columns, residual_tol)
    assert solved.tolist()[:len(expected) + 1] == [True] * len(expected) + [False] * (error is not None)
    expected = [tuple(map(float.hex, row)) for row in expected]
    assert _hex_rows(canonical._value(pr.table, slots, x), x)[:len(expected)] == expected
    if residual_tol != 1e-9:
        return
    if error is not None:
        with pytest.raises(type(error)) as raised:
            canonical.dual_samples(pr, columns)
        assert str(raised.value) == str(error)
        return
    assert _hex_rows(*canonical.dual_samples(pr, columns)) == expected


def _assert_exceeds_are_the_dual_points(pr, points):
    for t in (0.0, -canonical.PSD_TOL):
        inside = canonical.domain_exceeds(pr, tuple(zip(*points)), t).tolist()
        assert inside == [canonical.DualPoint(pr, sigma).exceeds(t) for sigma in points]


# Margins above the boundary from 1e-8 to about 60 (GP) or 12 (THC).
margins = st.floats(-8.0, 1.8).map(lambda e: 10.0 ** e)
gp_points = st.lists(margins.map(lambda t: (-53.0 / 3.0 + t,)), min_size=1, max_size=30)
thc_points = st.lists(
    st.tuples(st.floats(-1.5, 1.5), margins).map(lambda p: (p[0], 25.0 * p[0] * p[0] - 13.0 / 5.0 + p[1])),
    min_size=1, max_size=30,
)
tolerances = st.sampled_from([1e-9, 1e-15, 0.0])


@given(gp_points, tolerances)
def test_gp_dual_samples_are_the_dual_points_bit_for_bit(points, residual_tol):
    pr = gp_canonical_g()
    _assert_samples_are_the_dual_points(pr, points, residual_tol)
    _assert_exceeds_are_the_dual_points(pr, points)


@given(thc_points, tolerances)
def test_thc_dual_samples_are_the_dual_points_bit_for_bit(points, residual_tol):
    pr = thc_problem()
    _assert_samples_are_the_dual_points(pr, points, residual_tol)
    _assert_exceeds_are_the_dual_points(pr, points)


@pytest.mark.parametrize("problem, points, residual_tol, message", [
    (gp_canonical_g, [(1.0,), (math.nan,), (-30.0,)], 1e-9, "not finite"),
    (gp_canonical_g, [(1.0,), (-30.0,), (math.inf,)], 1e-9, "not positive definite"),
    (thc_problem, [(0.0, 0.0), (math.inf, 0.0), (1.0, 0.0)], 1e-9, "not finite"),
    (thc_problem, [(0.0, 0.0), (1.0, 0.0), (0.0, -math.inf)], 1e-9, "not positive definite"),
    (thc_problem, [(0.0, 0.0), (0.3, 1.0), (0.1, 0.3), (0.5, 4.0), (1.0, 0.0)], 0.0,
     "solve residual 6.939e-18 > tol 0.000e+00"),
])
def test_dual_samples_raise_the_first_samples_error(problem, points, residual_tol, message):
    pr = problem()
    _, error = _scalar_samples(pr, points, residual_tol)
    assert message in str(error)
    _assert_samples_are_the_dual_points(pr, points, residual_tol)
    if all(map(math.isfinite, sum(points, ()))):
        _assert_exceeds_are_the_dual_points(pr, points)
    else:
        with pytest.raises(DomainViolation, match="not finite"):
            canonical.domain_exceeds(pr, tuple(zip(*points)), 0.0)


@pytest.mark.parametrize("problem, columns", [
    (thc_problem, ([0.0], [1.0, 2.0])),
    (thc_problem, ([0.0, 1.0], [])),
    (thc_problem, ([[0.0]], [1.0])),
    (gp_canonical_g, ([0.0, 1.0], [1.0])),
    (thc_problem, ([1.0],)),  # one column for two components
])
def test_ragged_sigma_columns_are_a_dimension_mismatch(problem, columns):
    pr = problem()
    for request in (canonical.dual_samples, canonical.dual_columns, canonical.dual_gradient_columns,
                    partial(canonical.domain_exceeds, t=0.0)):
        with pytest.raises(DimensionMismatch):
            request(pr, columns)


def _large_problems(pool_paths):
    """The pool's problems of n = 3 and 4 and both survey files."""
    problems = [cli.load_problem_file(path) for path in [*pool_paths, *SURVEY_FILES]]
    return [pr for pr in problems if pr.n >= 3]


def _around_the_start(pr, count, radius, seed):
    """count points uniform within radius of the problem's interior start,
    as rows: near it they are inside the domain, farther out many are not."""
    anchor = dual_solver.find_interior_start(partial(canonical.DualPoint, pr), pr.m).sigma
    rng = np.random.default_rng(seed)
    return [tuple((np.array(anchor) + rng.uniform(-radius, radius, pr.m)).tolist()) for _ in range(count)]


def _raises(call):
    try:
        call()
    except (DomainViolation, ColumnSpaceViolation):
        return True
    return False


def test_sampled_duals_are_the_dual_points_for_n_three_and_four(pool_paths):
    # Inside the domain and out of it: each solved sample has the bits of
    # dual_value, x_bar and dual_gradient, each unsolved one raises in the
    # scalar call, and exceeds is DualPoint.exceeds.
    for i, pr in enumerate(_large_problems(pool_paths)):
        points = _around_the_start(pr, 60, 3.0, i)
        columns = tuple(zip(*points))
        values, x, solved = canonical.dual_columns(pr, columns)
        gradient, gradient_solved = canonical.dual_gradient_columns(pr, columns)
        for t in (0.0, 1e-8, 1.0):
            assert canonical.domain_exceeds(pr, columns, t).tolist() == [
                canonical.DualPoint(pr, sigma).exceeds(t) for sigma in points]
        assert 0 < solved.sum() < len(points)
        for j, sigma in enumerate(points):
            assert bool(solved[j]) is not _raises(partial(canonical.dual_value, pr, sigma))
            assert bool(gradient_solved[j]) is not _raises(partial(canonical.dual_gradient, pr, sigma))
            if solved[j]:
                expected = (canonical.dual_value(pr, sigma), *canonical.DualPoint(pr, sigma).x_bar())
                assert [float(column[j]).hex() for column in (values, *x)] == [v.hex() for v in expected]
            if gradient_solved[j]:
                found = [float(column[j]).hex() for column in gradient]
                assert found == [g.hex() for g in canonical.dual_gradient(pr, sigma)]
        inside = [sigma for sigma, ok in zip(points, solved) if ok]
        _assert_samples_are_the_dual_points(pr, inside)
        _assert_samples_are_the_dual_points(pr, points)  # the first unsolved sample's error


def test_sampled_duals_raise_the_first_samples_error_for_n_three_and_four(pool_paths):
    # A non-finite sigma, a G that is not positive definite and a residual
    # over a zero tolerance, each after solved samples and before others.
    for i, pr in enumerate(_large_problems(pool_paths)):
        points = _around_the_start(pr, 40, 0.05, i)
        far = next(sigma for sigma in _around_the_start(pr, 200, 50.0, i)
                   if not canonical.DualPoint(pr, sigma).exceeds(0.0))
        for bad, residual_tol, message in (((math.nan,) * pr.m, 1e-9, "not finite"),
                                           (far, 1e-9, "not positive definite")):
            rows = [*points[:3], bad, *points[3:], (math.inf,) * pr.m]
            _, error = _scalar_samples(pr, rows, residual_tol)
            assert message in str(error)
            _assert_samples_are_the_dual_points(pr, rows, residual_tol)
        _, error = _scalar_samples(pr, points, 0.0)
        assert isinstance(error, ColumnSpaceViolation)
        _assert_samples_are_the_dual_points(pr, points, 0.0)
        with pytest.raises(DomainViolation, match="not finite"):
            canonical.domain_exceeds(pr, tuple(zip(*[points[0], (math.inf,) * pr.m])), 0.0)
