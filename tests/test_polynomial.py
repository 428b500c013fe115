"""Exact polynomial arithmetic: examples, serialization, and ring properties."""

import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canondual import cli, oracle, polynomial
from canondual.errors import DimensionMismatch
from canondual.polynomial import MultiPoly, first_diff_term, joint_evaluator, rat


def two_var(terms):
    return MultiPoly.from_terms(2, terms)


@pytest.fixture
def f2():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    return 2 * x**2 - Fraction(21, 20) * x**4 + Fraction(1, 6) * x**6 + x * y + y**2


@pytest.fixture
def h_poly():
    s = MultiPoly.variable(1, 0)
    return 1 + (s + 1) ** 2 * (3 * s**2 - 14 * s + 19)


@pytest.fixture
def g_poly():
    t = MultiPoly.variable(1, 0)
    return 30 + t**2 * (3 * t**2 - 16 * t + 18)


class TestRat:
    def test_parses_fraction_strings(self):
        assert rat("-21/20") == Fraction(-21, 20)
        assert rat("53/3") == Fraction(53, 3)
        assert rat(7) == 7

    def test_floats_convert_exactly(self):
        assert rat(0.5) == Fraction(1, 2)
        assert float(rat(1.76)) == 1.76

    def test_rejects_junk(self):
        with pytest.raises((TypeError, ValueError)):
            rat("three")
        with pytest.raises(TypeError):
            rat(True)


class TestEval:
    def test_every_monomial_positive_degree_vanishes_at_origin(self, f2):
        assert f2.eval((0.0, 0.0)) == 0.0

    def test_goldstein_price_at_reported_minimizer(self):
        # Oracle: the factored product form evaluated directly in floats.
        def factored(x, y):
            a = 1 + (x + y + 1) ** 2 * (19 - 14 * x + 3 * x * x - 14 * y + 6 * x * y + 3 * y * y)
            b = 30 + (2 * x - 3 * y) ** 2 * (
                18 - 32 * x + 12 * x * x + 48 * y - 36 * x * y + 27 * y * y
            )
            return a * b

        from canondual.benchmarks import gp_objective

        assert factored(0.0, -1.0) == 3.0
        assert gp_objective().eval((0.0, -1.0)) == pytest.approx(3.0, abs=1e-12)

    def test_g_at_one(self, g_poly):
        assert g_poly.eval((1.0,)) == 30 + 1 * (18 - 16 + 3) == 35

    def test_exact_eval_matches_float(self, g_poly):
        assert g_poly.eval_exact([Fraction(1, 3)]) == Fraction(
            30 * 81 + 9 * 18 - 3 * 16 + 3, 81
        )

    def test_arity_mismatch(self, f2):
        with pytest.raises(DimensionMismatch):
            f2.eval((1.0,))


class TestFloatEvaluator:
    def test_matches_eval_on_goldstein_price(self):
        # eval is the generated evaluator: equal bit for bit, not to rounding.
        from canondual.benchmarks import gp_objective

        p = gp_objective()
        evaluate = p.float_evaluator()
        for point in ((0.0, -1.0), (1.3, 0.7), (-2.0, 2.0), (0.123, -0.987)):
            assert p.eval(point) == evaluate(point)
            assert p.eval(list(point)) == evaluate(point)

    def test_cached_on_the_polynomial(self, f2):
        assert f2.float_evaluator() is f2.float_evaluator()

    def test_zero_constant_and_univariate(self, g_poly):
        assert MultiPoly.zero(3).float_evaluator()((1.0, 2.0, 3.0)) == 0.0
        assert MultiPoly.constant(2, Fraction(5, 2)).float_evaluator()((7.0, -7.0)) == 2.5
        assert g_poly.float_evaluator()([1.0]) == 35.0

    def test_arity_mismatch(self, f2):
        with pytest.raises(ValueError):
            f2.float_evaluator()((1.0,))


class TestRingOps:
    def test_additive_inverse(self, f2):
        assert (f2 + f2.scale(-1)).is_zero()

    def test_difference_of_squares(self):
        x = MultiPoly.variable(1, 0)
        assert (x + 1) * (x - 1) == x**2 - 1

    def test_product_of_quartics_has_degree_eight(self, h_poly, g_poly):
        hs = MultiPoly.from_terms(2, {(e[0], 0): c for e, c in h_poly.terms.items()})
        gt = MultiPoly.from_terms(2, {(0, e[0]): c for e, c in g_poly.terms.items()})
        product = hs * gt
        assert product.total_degree() == 8
        assert product.degree_in(0) == 4
        assert product.degree_in(1) == 4

    def test_arity_mismatch_raises(self, f2, g_poly):
        with pytest.raises(DimensionMismatch):
            f2 + g_poly


class TestDerivatives:
    def test_h_prime_expands_to_shifted_cubic(self, h_poly):
        dh = h_poly.partial_derivative(0)
        assert dh == MultiPoly.from_terms(1, {(3,): 12, (2,): -24, (1,): -12, (0,): 24})
        # Same thing in factored form: 12 (s+1)(s-1)(s-2).
        s = MultiPoly.variable(1, 0)
        assert dh == 12 * (s + 1) * (s - 1) * (s - 2)

    def test_g_prime(self, g_poly):
        dg = g_poly.partial_derivative(0)
        assert dg == MultiPoly.from_terms(1, {(3,): 12, (2,): -48, (1,): 36})

    def test_constant_derivative_is_zero(self):
        assert MultiPoly.constant(3, Fraction(5, 7)).partial_derivative(1).is_zero()

    def test_index_bounds(self, f2):
        with pytest.raises(DimensionMismatch):
            f2.partial_derivative(2)

    def test_built_once_per_polynomial(self, f2):
        assert f2.partial_derivative(0) is f2.partial_derivative(0)
        assert all(f2.partial_derivative(k) is f2.gradient()[k] for k in range(f2.arity))
        assert f2.gradient() is f2.gradient()
        assert f2.partial_derivative(0).float_evaluator() is f2.partial_derivative(0).float_evaluator()
        assert f2.newton_evaluators is f2.newton_evaluators
        first, second = f2.as_arrays(), f2.as_arrays()
        assert all(a is b for a, b in zip(first, second))


class TestSubstituteLinear:
    def test_identity_substitution(self, f2):
        eye = [[1, 0], [0, 1]]
        assert f2.substitute_linear(eye) == f2

    def test_partial_freeze(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = (x - y + 1) ** 2
        composed = p.substitute_linear([[1], [1]])  # x = y = u
        assert composed == MultiPoly.constant(1, 1)

    def test_shape_mismatch(self, f2):
        with pytest.raises(DimensionMismatch):
            f2.substitute_linear([[1, 0]])
        with pytest.raises(DimensionMismatch):
            f2.substitute_linear([[1, 0], [1]])


class TestSerialization:
    def test_graded_lex_descending_lines(self):
        p = two_var({(0, 0): 5, (2, 0): 1, (1, 1): Fraction(-1, 2), (0, 2): 3})
        assert p.to_text().splitlines() == [
            "1/1 2 0",
            "-1/2 1 1",
            "3/1 0 2",
            "5/1 0 0",
        ]

    def test_zero_serializes_empty(self):
        assert MultiPoly.zero(2).to_text() == ""

    def test_first_diff_term(self):
        p = two_var({(2, 0): 1, (0, 0): 1})
        q = two_var({(2, 0): 1, (0, 0): 2})
        assert first_diff_term(p, q) == (0, 0)
        assert first_diff_term(p, p) is None


class TestValidation:
    def test_arity_cap(self):
        with pytest.raises(DimensionMismatch):
            MultiPoly.zero(5)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly.from_terms(1, {(-1,): 1})

    def test_zero_terms_pruned(self):
        p = MultiPoly.from_terms(2, {(1, 0): 0, (0, 1): 2})
        assert list(p.terms) == [(0, 1)]

    @pytest.mark.parametrize("arity, terms, error", [
        (0, {(): 1}, DimensionMismatch),
        (5, {(0,) * 5: 1}, DimensionMismatch),
        (2, {(1, -1): 1}, ValueError),
        (2, {(1, 1.0): 1}, ValueError),
        (2, {(1,): 1}, DimensionMismatch),
        (2, {(1, 0, 0): 1}, DimensionMismatch),
        (2, {(1, 0): True}, TypeError),
        (2, {(1, 0): False}, TypeError),
    ])
    def test_outside_terms_are_checked(self, arity, terms, error):
        # The public constructor and from_terms check every term; only the
        # package's own results skip the checks.
        for build in (MultiPoly, MultiPoly.from_terms):
            with pytest.raises(error):
                build(arity, terms)

    def test_own_results_hold_only_nonzero_fractions(self):
        p = two_var({(1, 0): 1, (0, 1): "1/2"})
        results = [p - p, p + (-p), p * 0, p.scale(0), p * p - p * p, p.partial_derivative(0), (p * p).scale("2/3")]
        for q in results:
            assert all(type(c) is Fraction and c != 0 for c in q.terms.values())
            assert all(type(e) is tuple and len(e) == 2 for e in q.terms)
        assert [q.is_zero() for q in results] == [True] * 5 + [False] * 2


# -- property tests ---------------------------------------------------------

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=12)
exponent_pairs = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponent_pairs, coefficients, max_size=4).map(
    lambda terms: MultiPoly.from_terms(2, terms)
)
rational_points = st.tuples(coefficients, coefficients)


@given(polys, polys)
def test_addition_and_multiplication_commute(p, q):
    assert p + q == q + p
    assert p * q == q * p


@given(polys, polys, polys)
def test_associativity_and_distributivity(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_product_rule_is_exact(p, q):
    for var in range(2):
        lhs = (p * q).partial_derivative(var)
        rhs = p.partial_derivative(var) * q + p * q.partial_derivative(var)
        assert lhs == rhs


@given(polys)
def test_decoupling_transform_round_trips(p):
    T = [[1, 1], [2, -3]]
    T_inv = [[Fraction(3, 5), Fraction(1, 5)], [Fraction(2, 5), Fraction(-1, 5)]]
    assert p.substitute_linear(T).substitute_linear(T_inv) == p


@given(polys, rational_points)
def test_substitution_commutes_with_evaluation(p, point):
    M = [[Fraction(1, 2), 1], [-1, Fraction(2, 3)]]
    composed = p.substitute_linear(M)
    u0, u1 = point
    image = (M[0][0] * u0 + M[0][1] * u1, M[1][0] * u0 + M[1][1] * u1)
    assert composed.eval_exact(point) == p.eval_exact(image)


@given(polys, rational_points)
def test_float_evaluator_within_rounding_bound(p, point):
    x = tuple(float(c) for c in point)
    exact = p.eval_exact(x)
    magnitude = sum(
        abs(coeff * Fraction(x[0]) ** e0 * Fraction(x[1]) ** e1)
        for (e0, e1), coeff in p.terms.items()
    )
    # Each term takes at most 6 products from rounded coefficients and at
    # most 4 terms are summed: 12 unit roundoffs bound the error generously.
    value = p.float_evaluator()(x)
    assert abs(Fraction(value) - exact) <= 12 * Fraction(2.0**-53) * magnitude
    assert p.eval(x) == value


# -- the one code generator ---------------------------------------------------


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _single_polynomial_generator(arity, exps_list, coeffs):
    """The one-polynomial generator as it stood before it took several term
    lists, kept verbatim as the reference for MultiPoly.float_evaluator."""

    def power(v: int, e: int) -> str:
        return f"x{v}" if e == 1 else f"x{v}_{e}"

    names = ", ".join(f"x{v}" for v in range(arity))
    lines = ["def evaluate(point):", f"    {names}, = point"]
    for v in range(arity):
        for e in range(2, max((exps[v] for exps in exps_list), default=0) + 1):
            lines.append(f"    {power(v, e)} = {power(v, e - 1)} * x{v}")
    lines.append("    total = 0.0")
    for exps, coeff in zip(exps_list, coeffs):
        factors = "".join(f" * {power(v, e)}" for v, e in enumerate(exps) if e)
        lines.append(f"    total += {coeff!r}{factors}")
    lines.append("    return total")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<MultiPoly.float_evaluator>", "exec"), {}, namespace)
    return namespace["evaluate"]


float_coefficients = st.floats(min_value=-50, max_value=50, allow_nan=False).filter(bool)
float_points = st.floats(min_value=-3, max_value=3, allow_nan=False)


@st.composite
def polynomial_lists(draw):
    """Two to six polynomials of one arity (1 to 4) with unequal degrees,
    a zero and a constant polynomial among them."""
    arity = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 5)] * arity)
    polys = draw(
        st.lists(
            st.dictionaries(exponents, float_coefficients, min_size=1, max_size=6),
            min_size=0,
            max_size=4,
        )
    )
    polys = [MultiPoly.from_terms(arity, terms) for terms in polys]
    polys.insert(draw(st.integers(0, len(polys))), MultiPoly.zero(arity))
    polys.insert(draw(st.integers(0, len(polys))), MultiPoly.constant(arity, draw(float_coefficients)))
    point = draw(st.lists(float_points, min_size=arity, max_size=arity))
    return polys, point


@given(polynomial_lists())
def test_joint_evaluator_outputs_are_each_float_evaluator(case):
    polys, point = case
    outputs = joint_evaluator(polys)(point)
    assert len(outputs) == len(polys)
    for poly, output in zip(polys, outputs):
        assert _bits(output) == _bits(poly.float_evaluator()(point))


@given(polynomial_lists())
def test_float_evaluator_is_the_single_polynomial_generator(case):
    polys, point = case
    for poly in polys:
        reference = _single_polynomial_generator(poly.arity, *poly._float_terms)
        evaluate = poly.float_evaluator()
        # The same locals and float operations in the same order: the sum is
        # one expression where the reference adds term by term (and the
        # compiler folds 0.0 + a constant term into the constant).
        assert evaluate.__code__.co_varnames == reference.__code__.co_varnames
        assert _bits(evaluate(point)) == _bits(reference(point))


def test_float_evaluator_splits_sums_the_compiler_cannot_take_whole():
    # 3600 terms: one 3600-term expression overflows the compiler's
    # recursion limit; the sum is written a thousand terms per statement.
    # The second polynomial of the shape binds its own coefficients into
    # the first one's code.
    rng = random.Random(5)
    exponents = [(a, b) for a in range(60) for b in range(60)]
    polys = [MultiPoly(2, {e: rng.randint(-9, 9) or 1 for e in exponents}) for _ in range(2)]
    assert polys[0].float_evaluator().__code__.co_code == polys[1].float_evaluator().__code__.co_code
    for poly in polys:
        reference = _single_polynomial_generator(2, *poly._float_terms)
        for _ in range(50):
            point = (rng.uniform(-1.1, 1.1), rng.uniform(-1.1, 1.1))
            assert _bits(poly.eval(point)) == _bits(reference(point))


# -- one compile per shape ----------------------------------------------------

repeated_coefficients = st.sampled_from([-2.5, -1.0, 0.1, 1.0, 3.0, 1e300])


@st.composite
def polynomials_of_one_shape(draw):
    """Two to four polynomials with one exponent list and coefficients
    drawn from a few values, so that values repeat within and across them;
    a constant and the zero polynomial are shapes of their own."""
    arity = draw(st.integers(1, 4))
    exponents = draw(st.sets(st.tuples(*[st.integers(0, 4)] * arity), min_size=0, max_size=6))
    count = draw(st.integers(2, 4))
    polys = [MultiPoly.from_terms(arity, {e: draw(repeated_coefficients) for e in exponents}) for _ in range(count)]
    point = draw(st.lists(float_points, min_size=arity, max_size=arity))
    return polys, point


@given(polynomials_of_one_shape())
def test_one_shape_binds_each_polynomials_own_coefficients(case):
    polys, point = case
    for poly in polys:
        reference = _single_polynomial_generator(poly.arity, *poly._float_terms)
        assert _bits(poly.float_evaluator()(point)) == _bits(reference(point))
    codes = {poly.float_evaluator().__code__.co_code for poly in polys}
    assert len(codes) == 1


def test_evaluators_are_compiled_once_per_shape():
    # P and its rounding-bound polynomial |P| share one shape, and so do the
    # objectives of two problems that differ only in their coefficients.
    polynomial._shape_code.cache_clear()
    p = MultiPoly.from_terms(2, {(4, 0): 1, (2, 1): -3, (0, 2): Fraction(1, 3), (1, 0): -1, (0, 0): 2})
    value, bound, _ = p.newton_evaluators
    assert polynomial._shape_code.cache_info().currsize == 2  # P and |P|; the gradient and Hessian
    assert value.__code__.co_code == bound.__code__.co_code
    q = MultiPoly.from_terms(2, {e: 2 * c + 1 for e, c in p.terms.items()})
    q.newton_evaluators  # builds q's value, bound and Newton-step evaluators
    assert polynomial._shape_code.cache_info().currsize == 2
    point = (0.75, -1.25)
    assert _bits(q.eval(point)) == _bits(_single_polynomial_generator(2, *q._float_terms)(point))
    magnitude = MultiPoly(2, {e: abs(c) for e, c in p.terms.items()})
    assert _bits(bound(point)) == _bits(_single_polynomial_generator(2, *magnitude._float_terms)(point))


def test_pool_problems_of_one_shape_compile_once(pool_paths):
    # Pool problems 1, 21, 25, 29 and 33 (n = 2) expand to objectives of one
    # exponent list: their values, rounding bounds and Newton-step data
    # take two compiles in all.
    polynomial._shape_code.cache_clear()
    point = (0.375, -1.5)
    for name in ("planted_01.json", "planted_21.json", "planted_25.json", "planted_29.json", "planted_33.json"):
        objective = cli.load_problem_file(next(p for p in pool_paths if p.name == name)).objective
        value, _, _ = objective.newton_evaluators
        assert _bits(value(point)) == _bits(_single_polynomial_generator(2, *objective._float_terms)(point))
        assert polynomial._shape_code.cache_info().currsize == 2
