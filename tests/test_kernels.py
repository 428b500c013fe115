"""The lattice and scattered-point evaluation kernels."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canondual import kernels
from canondual.benchmarks import GP_BOX, THC_BOX, gp_objective, thc_objective
from canondual.oracle import lattice_axes
from canondual.polynomial import MultiPoly


class TestBackendParity:
    def test_matches_scalar_eval(self):
        # Scattered points against the exact scalar evaluation.
        poly = thc_objective()
        pts = np.array([[0.5, -1.5], [2.0, 0.25], [-3.0, 3.0]])
        batched = kernels.eval_many(*poly.as_arrays(), pts)
        for row, value in zip(pts, batched):
            assert value == pytest.approx(float(poly.eval_exact(tuple(row))), rel=1e-12)

    def test_zero_polynomial(self):
        zero = MultiPoly.zero(2)
        out = kernels.eval_many(*zero.as_arrays(), np.array([[1.0, 2.0]]))
        assert out.tolist() == [0.0]

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


def lattice(coeffs, exps, axes):
    """The blocks of kernels.lattice_blocks laid end to end, each copied
    out of the buffer the next block overwrites."""
    return np.concatenate([block.ravel().copy() for block in kernels.lattice_blocks(coeffs, exps, axes)])


def unblocked(coeffs, exps, axes):
    """The whole lattice in one contraction, the reference the blocks are
    checked against: coefficient axis 0 with its power table, then the
    result with the next table, by tensordot, in row-major lattice order.
    In one variable the weighted sum of the powers taken row by row."""
    degrees = kernels._degrees(exps)
    dense = np.zeros([d + 1 for d in degrees])
    dense[tuple(exps.T)] = coeffs
    if len(axes) == 1:
        power, values = np.ones_like(axes[0]), np.full_like(axes[0], dense[0])
        for coeff in dense[1:]:
            power *= axes[0]
            values += coeff * power
        return values
    for axis, degree in zip(axes, degrees):
        dense = np.tensordot(dense, kernels._power_table(axis, degree), axes=([0], [0]))
    return dense.ravel()


def assert_within_rounding(p, axes):
    """The lattice's blocks against exact evaluation at every node.  Per term the
    float path rounds the coefficient once, builds each power x_v^e with
    e - 1 products, and on each axis v takes one product and a sum of
    d_v + 1 entries: at most 1 + 2 * sum(d_v) roundings of half a machine
    epsilon each.  That many whole epsilons times sum_t |c_t x^e_t| bounds
    the error with a factor 2 to spare."""
    coeffs, exps = p.as_arrays()
    values = lattice(coeffs, exps, [np.array(a) for a in axes])
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
        zero = lattice(*MultiPoly.zero(2).as_arrays(), axes)
        assert zero.tolist() == [0.0] * 12
        seven = lattice(*MultiPoly.constant(2, Fraction(7, 2)).as_arrays(), axes)
        assert seven.tolist() == [3.5] * 12

    def test_row_major_order_first_axis_slowest(self):
        # The order of the former lattice_points: meshgrid "ij", raveled.
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = x + 10 * y + x * y**2
        axes = [np.array([-1.0, 0.0, 2.0]), np.array([-3.0, 1.0, 4.0, 5.0])]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        values = lattice(*p.as_arrays(), axes)
        assert values.tolist() == [p.eval(tuple(row)) for row in pts]

    def test_agrees_with_eval_many_on_goldstein_price(self):
        p = gp_objective()
        axes = lattice_axes(GP_BOX, 41)
        pts = np.array(list(itertools.product(*axes)))
        values = lattice(*p.as_arrays(), axes)
        scattered = kernels.eval_many(*p.as_arrays(), pts)
        assert np.allclose(values, scattered, rtol=1e-13, atol=1e-9)

    def test_axis_validation(self):
        coeffs, exps = thc_objective().as_arrays()
        with pytest.raises(ValueError):
            lattice(coeffs, exps, [np.zeros(3)])
        with pytest.raises(ValueError):
            lattice(coeffs, exps, [np.zeros((2, 2)), np.zeros(3)])
        x, y, z = (MultiPoly.variable(3, v) for v in range(3))
        with pytest.raises(ValueError, match="at most 2"):
            lattice(*(x + y + z).as_arrays(), [np.zeros(3)] * 3)


# (rows of the lattice, nodes per row, BLOCK_VALUES) -> rows of each block
BLOCK_ROWS = {
    "one block": ((5, 7, 64), [5]),
    "exact multiple": ((12, 8, 32), [4, 4, 4]),
    "short last block": ((11, 8, 32), [4, 4, 3]),
    "last row joins the last block": ((9, 8, 32), [4, 5]),
    "rows longer than a block": ((7, 40, 32), [2, 2, 3]),
    "1-D": ((10, None, 4), [4, 4, 2]),
}


class TestLatticeBlocks:
    @pytest.mark.parametrize("shape, rows", BLOCK_ROWS.values(), ids=BLOCK_ROWS.keys())
    def test_blocks_of_whole_rows_in_one_buffer(self, monkeypatch, shape, rows):
        n0, n1, block_values = shape
        monkeypatch.setattr(kernels, "BLOCK_VALUES", block_values)
        axes = [np.linspace(-1.0, 2.0, n0)] + ([np.linspace(-3.0, 0.5, n1)] if n1 else [])
        p = thc_objective() if n1 else MultiPoly.from_terms(1, {(3,): 2, (1,): -1, (0,): Fraction(1, 3)})
        coeffs, exps = p.as_arrays()
        blocks = list(kernels.lattice_blocks(coeffs, exps, axes))
        assert [block.shape for block in blocks] == [(r, n1 or 1) for r in rows]
        assert all(block.flags.c_contiguous and np.shares_memory(block, blocks[0]) for block in blocks)
        assert_within_rounding(p, [a.tolist() for a in axes])

    @pytest.mark.parametrize("block_values", [1 << 16, 4096, 1000, 2])
    def test_blocks_agree_with_the_unblocked_product(self, monkeypatch, block_values):
        """Each node is the same dot product of the same operands in a block
        as in the whole product, but BLAS may round it differently there:
        OpenBLAS's edge code for the last columns of a product sums in an
        order that depends on the product's shape, and numpy hands a
        one-row product to the matrix-vector routine.  So values agree to
        within their rounding bound, which bounds the difference of two
        roundings of one sum (assert_within_rounding): four times
        (1 + 2 sum_v d_v) epsilons of sum_t |c_t x^e_t|."""
        monkeypatch.setattr(kernels, "BLOCK_VALUES", block_values)
        for p, box in ((gp_objective(), GP_BOX), (thc_objective(), THC_BOX)):
            axes = lattice_axes(box, 161)
            coeffs, exps = p.as_arrays()
            magnitude = unblocked(np.abs(coeffs), exps, [np.abs(a) for a in axes])
            degree_sum = sum(p.degree_in(v) for v in range(p.arity))
            bound = 4 * (1 + 2 * degree_sum) * 2.0**-52 * magnitude
            assert np.all(np.abs(lattice(coeffs, exps, axes) - unblocked(coeffs, exps, axes)) <= bound)
