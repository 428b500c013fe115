"""The lattice, scattered-point and single-point evaluation kernels."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canondual import kernels
from canondual.benchmarks import GP_BOX, gp_objective, thc_objective
from canondual.oracle import lattice_axes
from canondual.polynomial import MultiPoly


class TestBackendParity:
    def test_matches_scalar_eval(self):
        poly = thc_objective()
        pts = np.array([[0.5, -1.5], [2.0, 0.25], [-3.0, 3.0]])
        batched = kernels.eval_poly_many(poly, pts)
        for row, value in zip(pts, batched):
            assert value == pytest.approx(poly.eval(tuple(row)), rel=1e-12)

    def test_zero_polynomial(self):
        zero = MultiPoly.zero(2)
        out = kernels.eval_poly_many(zero, np.array([[1.0, 2.0]]))
        assert out.tolist() == [0.0]

    def test_poly_evaluator_closure(self):
        poly = gp_objective()
        evaluate = kernels.poly_evaluator(poly)
        for point in ((0.0, -1.0), (1.3, 0.7), (-2.0, 2.0)):
            assert evaluate(point) == pytest.approx(poly.eval(point), rel=1e-12)

    def test_poly_evaluator_is_the_generated_evaluator(self):
        # Single points never go through the batch kernels, on any backend.
        poly = gp_objective()
        assert kernels.poly_evaluator(poly) is poly.float_evaluator()

    def test_shape_validation(self):
        coeffs, exps = thc_objective().as_arrays()
        with pytest.raises(ValueError):
            kernels.eval_many(coeffs, exps, np.zeros((4, 3)))

    def test_active_backend_is_numpy(self):
        assert kernels.active_backend() == "numpy"


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=12)
coordinates = st.lists(coefficients.map(float), min_size=1, max_size=5)


def polys_of(arity):
    exponents = st.tuples(*[st.integers(0, 4)] * arity)
    return st.dictionaries(exponents, coefficients, max_size=6).map(
        lambda terms: MultiPoly.from_terms(arity, terms)
    )


def assert_within_rounding(p, axes):
    """eval_lattice against exact evaluation at every node.  Per term the
    float path rounds the coefficient once, builds each power x_v^e with
    e - 1 products, and on each axis v takes one product and a sum of
    d_v + 1 entries: at most 1 + 2 * sum(d_v) roundings of half a machine
    epsilon each.  That many whole epsilons times sum_t |c_t x^e_t| bounds
    the error with a factor 2 to spare."""
    coeffs, exps = p.as_arrays()
    values = kernels.eval_lattice(coeffs, exps, [np.array(a) for a in axes])
    degree_sum = sum(p.degree_in(v) for v in range(p.arity))
    assert values.shape == (np.prod([len(a) for a in axes]),)
    for node, value in zip(itertools.product(*axes), values):
        exact = p.eval_exact(node)
        magnitude = sum(
            abs(coeff * math.prod(Fraction(x) ** e for x, e in zip(node, term)))
            for term, coeff in p.terms.items()
        )
        bound = (1 + 2 * degree_sum) * Fraction(2.0**-52) * magnitude
        assert abs(Fraction(float(value)) - exact) <= bound


class TestEvalLattice:
    @given(polys_of(1), coordinates)
    def test_univariate_within_rounding_bound(self, p, xs):
        assert_within_rounding(p, [xs])

    @given(polys_of(2), coordinates, coordinates)
    def test_bivariate_within_rounding_bound(self, p, xs, ys):
        assert_within_rounding(p, [xs, ys])

    def test_zero_and_constant_polynomials(self):
        axes = [np.linspace(-1.0, 1.0, 3), np.linspace(-2.0, 2.0, 4)]
        zero = kernels.eval_lattice(*MultiPoly.zero(2).as_arrays(), axes)
        assert zero.tolist() == [0.0] * 12
        seven = kernels.eval_lattice(*MultiPoly.constant(2, Fraction(7, 2)).as_arrays(), axes)
        assert seven.tolist() == [3.5] * 12

    def test_row_major_order_first_axis_slowest(self):
        # The order of the former lattice_points: meshgrid "ij", raveled.
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = x + 10 * y + x * y**2
        axes = [np.array([-1.0, 0.0, 2.0]), np.array([-3.0, 1.0, 4.0, 5.0])]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        values = kernels.eval_lattice(*p.as_arrays(), axes)
        assert values.tolist() == [p.eval(tuple(row)) for row in pts]

    def test_agrees_with_eval_many_on_goldstein_price(self):
        p = gp_objective()
        axes = lattice_axes(GP_BOX, 41)
        pts = np.array(list(itertools.product(*axes)))
        lattice = kernels.eval_lattice(*p.as_arrays(), axes)
        scattered = kernels.eval_poly_many(p, pts)
        assert np.allclose(lattice, scattered, rtol=1e-13, atol=1e-9)

    def test_axis_validation(self):
        coeffs, exps = thc_objective().as_arrays()
        with pytest.raises(ValueError):
            kernels.eval_lattice(coeffs, exps, [np.zeros(3)])
        with pytest.raises(ValueError):
            kernels.eval_lattice(coeffs, exps, [np.zeros((2, 2)), np.zeros(3)])
