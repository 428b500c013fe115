"""Small symmetric linear algebra, cross-checked against numpy.linalg."""

import math
import sys
from fractions import Fraction
from functools import partial
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from canondual.errors import ColumnSpaceViolation, DimensionMismatch, DomainViolation
from canondual import canonical, smallmat
from canondual.polynomial import MultiPoly
from canondual.smallmat import (
    SymMatrix,
    _triu_index,
    Vector,
    column_kernels,
    eigen_sym,
    kernels,
    solve_sym,
)


def diagonal_matrix(diagonal):
    n = len(diagonal)
    return SymMatrix(n, tuple(diagonal[i] if i == j else 0.0 for i in range(n) for j in range(i, n)))


def identity(n):
    return diagonal_matrix((1.0,) * n)


def residual_vector(S, x, v):
    """v - S x, S x summed row by row."""
    return tuple(vi - sum(sij * xj for sij, xj in zip(row, x)) for row, vi in zip(S.rows, v))


def norm(r):
    """The square root of the sum of squares in index order."""
    return math.sqrt(sum(ri * ri for ri in r))


def _refined_reference(S, v, residual_tol, solve_once):
    """The refinement step and residual check on tuples, written out step
    by step: the form solve_sym had before its solves ran on plain lists."""
    x = solve_once(v)
    r = residual_vector(S, x, v)
    residual, v_norm = norm(r), norm(v)
    if residual > 1e-14 * (1.0 + v_norm):
        corrected = tuple(xi + di for xi, di in zip(x, solve_once(r)))
        corrected_residual = norm(residual_vector(S, corrected, v))
        if corrected_residual < residual:
            x, residual = corrected, corrected_residual
    limit = residual_tol * (1.0 + v_norm)
    if residual > limit:
        raise ColumnSpaceViolation(residual, limit)
    return tuple(x)


def _cholesky_reference(n, upper, shift):
    """The Cholesky factor row by row, each dot product a sum() of the
    products: the loop the generated factor replaced."""
    factor = []
    for i in range(n):
        row = []
        for j in range(i):
            lower = factor[j]
            row.append((upper[_triu_index(n, j, i)] - sum(map(mul, row, lower))) / lower[j])
        pivot = upper[_triu_index(n, i, i)] - shift - sum(map(mul, row, row))
        if not pivot > 0.0:
            return None
        row.append(math.sqrt(pivot))
        factor.append(row)
    return factor


def _substitute_reference(factor, v):
    """Forward then back substitution."""
    n = len(factor)
    y = []
    for row, vi in zip(factor, v):
        y.append((vi - sum(map(mul, row, y))) / row[-1])
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - sum(factor[k][i] * x[k] for k in range(i + 1, n))) / factor[i][i]
    return tuple(x)


def _closed_form_factor(n, upper, shift):
    """The factor of S - shift I for n <= 2 by the pivot tests the kernels
    were written from: the pivot (n = 1), the determinant after the leading
    pivot (n = 2), or None."""
    pivot = upper[0] - shift
    if not pivot > 0.0:
        return None
    if n == 1:
        return pivot
    det = pivot * (upper[2] - shift) - upper[1] * upper[1]
    return det if det > 0.0 else None


def _factor_reference(n, upper, shift):
    return _closed_form_factor(n, upper, shift) if n <= 2 else _cholesky_reference(n, upper, shift)


def _inverse_reference(n, upper, factor):
    """v -> S^-1 v for n >= 2: the inverse by the determinant, or forward
    then back substitution through the Cholesky factor."""
    if n >= 3:
        return partial(_substitute_reference, factor)
    a, b, d = upper[:3]
    return lambda r: ((d * r[0] - b * r[1]) / factor, (a * r[1] - b * r[0]) / factor)


def _solve_reference(n, upper, factor, v, residual_tol):
    """The solve written out: the quotient for n = 1, which overflows to an
    infinite residual, and the refined, checked inverse for n >= 2."""
    if n == 1:
        x = v[0] / upper[0]
        if math.isinf(x):
            raise ColumnSpaceViolation(math.inf, sys.float_info.max)
        return (x,)
    S = SymMatrix(n, tuple(upper[:n * (n + 1) // 2]))
    return _refined_reference(S, v, residual_tol, _inverse_reference(n, upper, factor))


def _solve(n, upper, v, residual_tol):
    """kernels(n).solve through the factor of the S with that upper triangle."""
    factor, solve = kernels(n)
    return solve(factor(upper, 0.0), upper, v, residual_tol)


def _solve_1x1(s, v):
    return _solve(1, (s,), (v,), 1e-9)[0]


def _solve_2x2(a, b, d, v0, v1, residual_tol):
    return _solve(2, (a, b, d), (v0, v1), residual_tol)


THC_FEAS_AT_ORIGIN = SymMatrix(2, (22.0 / 75.0, 0.5, 1.0))


class TestMinEigenvalue:
    def test_identity(self):
        assert eigen_sym(identity(2))[0] == 1.0

    def test_scalar_from_g_problem(self):
        # G at the certified dual point of the decoupled quartic: 106/3 - 30.
        value = 2 * (-15 + 53 / 3)
        assert eigen_sym(SymMatrix(1, (value,)))[0] == pytest.approx(16 / 3, abs=1e-12)

    def test_feasibility_matrix_at_origin(self):
        # Closed form from the characteristic polynomial: (97 - sqrt(8434)) / 150.
        expected = (97.0 - math.sqrt(8434.0)) / 150.0
        got = eigen_sym(THC_FEAS_AT_ORIGIN)[0]
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(np.linalg.eigvalsh(np.array(THC_FEAS_AT_ORIGIN.to_rows()))[0])
        # Positivity is forced by det = 13/300 > 0 and positive trace.
        assert got > 0


class TestSolveSym:
    def test_identity_solve(self):
        x = solve_sym(identity(2), Vector((3.0, -2.0)))
        assert x.entries == (3.0, -2.0)

    def test_primal_recovery_scalar(self):
        # F(-15) = 56 + 8*(-15)/3 = 16 against G = 16/3 recovers t = 3.
        x = solve_sym(SymMatrix(1, (16.0 / 3.0,)), Vector((16.0,)))
        assert x[0] == pytest.approx(3.0, abs=1e-12)

    def test_column_space_violation(self):
        # Positive definite with condition number about 4e9: the refined
        # residual is 1e-8 (1 + ||v||), inside 1e-6 but outside 1e-9.
        S, v = SymMatrix(2, (1.0, 1.0, 1.0 + 1e-9)), Vector((0.1, 0.3))
        with pytest.raises(ColumnSpaceViolation):
            solve_sym(S, v)
        x = solve_sym(S, v, 1e-6)
        assert np.allclose(x.entries, np.linalg.solve(np.array(S.to_rows()), np.array(v.entries)), rtol=1e-6)

    def test_singular_but_consistent(self):
        # No solve outside the positive definite matrices, even where a
        # least-squares solution would fit exactly.
        S = diagonal_matrix((0.0, 1.0))
        with pytest.raises(DomainViolation):
            solve_sym(S, Vector((0.0, 5.0)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("last", [0.0, -1.0], ids=["singular", "indefinite"])
    def test_not_positive_definite_raises(self, n, last):
        diagonal = (1.0,) * (n - 1) + (last,)
        S = diagonal_matrix(diagonal)
        with pytest.raises(DomainViolation):
            solve_sym(S, Vector((1.0,) * n))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_sym(identity(2), Vector((1.0,)))


class TestConstruction:
    def test_upper_storage_round_trip(self):
        S = SymMatrix(3, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        rows = S.to_rows()
        assert rows == [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]
        for i in range(3):
            for j in range(3):
                assert rows[i][j] == rows[j][i] == S.rows[i][j]

    def test_size_cap(self):
        with pytest.raises(DimensionMismatch):
            identity(5)


# -- property tests ---------------------------------------------------------

entry = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def sym_matrices(draw, min_n=1, max_n=4):
    n = draw(st.integers(min_n, max_n))
    upper = draw(
        st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)
    )
    return SymMatrix(n, tuple(upper))


@given(sym_matrices())
def test_eigenvalues_reproduce_trace_and_det(S):
    evals = eigen_sym(S)
    dense = np.array(S.to_rows())
    scale = max(1.0, float(np.abs(dense).max())) ** S.n
    assert sum(evals) == pytest.approx(float(np.trace(dense)), abs=1e-9 * scale)
    assert math.prod(evals) == pytest.approx(float(np.linalg.det(dense)), abs=1e-9 * scale)


@given(sym_matrices())
def test_eigenvalues_match_numpy(S):
    evals = eigen_sym(S)
    expected = np.linalg.eigvalsh(np.array(S.to_rows()))
    assert np.allclose(evals, expected, atol=1e-9, rtol=1e-9)


@given(sym_matrices(), st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5))
def test_min_eigenvalue_reads_only_the_leading_triangle(S, tail):
    # G's triangle leads a dual point's accumulated [G, F, c], here of a
    # table of one constant term, F and c taken from tail; its margin is
    # eigen_sym's lowest on the triangle alone, bit for bit.  A table reads
    # -0.0 as +0.0, and so does S here.
    S = SymMatrix(S.n, tuple(x + 0.0 for x in S.upper))
    F, c = (tail * S.n)[:S.n], tail[-1]
    table = canonical.DualTable(S.n, 1, (canonical.DualTerm((0,), S.upper, tuple(F), c),))
    point = canonical.DualPoint(canonical.TableProblem(table, MultiPoly.zero(S.n)), (0.0,))
    assert point.min_eigenvalue() == eigen_sym(S)[0]


@given(sym_matrices())
def test_solve_sym_raises_exactly_outside_positive_definite(S):
    # A solve for lambda_min(S) > 0, DomainViolation below, away from ties
    # where rounding may decide either way.  An infinite residual_tol keeps
    # the residual check of ill-conditioned systems out of the way.
    lam = float(np.linalg.eigvalsh(np.array(S.to_rows()))[0])
    scale = max(1.0, max(abs(x) for x in S.upper))
    if abs(lam) <= 1e-9 * scale:
        return
    v = Vector((1.0,) * S.n)
    if lam > 0.0:
        assert solve_sym(S, v, math.inf).n == S.n
    else:
        with pytest.raises(DomainViolation):
            solve_sym(S, v, math.inf)


@given(sym_matrices(), st.lists(entry, min_size=4, max_size=4))
def test_row_reads_equal_the_upper_triangle(S, v):
    # Reference: every read through the upper-triangle index, the products
    # summed in column order.  The stored rows must give identical bits.
    n = S.n
    ref = [[S.upper[_triu_index(n, i, j)] for j in range(n)] for i in range(n)]
    assert S.to_rows() == ref
    assert all(S.rows[i][j] == ref[i][j] for i in range(n) for j in range(n))
    x = v[:n]
    expected = tuple(sum(ref[i][j] * x[j] for j in range(n)) for i in range(n))
    assert tuple(sum(map(mul, row, x)) for row in S.rows) == expected
    assert tuple(np.array(ref) @ np.array(x)) == pytest.approx(expected, abs=1e-12)
    rows = S.to_rows()
    rows[0][0] += 1.0  # callers get copies
    assert S.to_rows() == ref


@given(sym_matrices(), entry)
def test_cholesky_threshold_agrees_with_numpy(S, t):
    # lambda_min(S) > t exactly when S - tI has a Cholesky factorisation,
    # away from ties where rounding may decide either way.
    lam = float(np.linalg.eigvalsh(np.array(S.to_rows()))[0])
    scale = max(1.0, abs(t), max(abs(x) for x in S.upper))
    if abs(lam - t) <= 1e-9 * scale:
        return
    assert (kernels(S.n).factor(S.upper, t) is not None) is (lam > t)


@given(sym_matrices(min_n=3))
def test_cholesky_factor_reproduces_the_matrix(S):
    factor = kernels(S.n).factor(S.upper, 0.0)
    if factor is None:
        return
    L = np.zeros((S.n, S.n))
    for i, row in enumerate(factor):
        L[i, : len(row)] = row
    dense = np.array(S.to_rows())
    assert np.allclose(L @ L.T, dense, rtol=0.0, atol=1e-13 * max(1.0, float(np.abs(dense).max())))


@st.composite
def positive_definite_systems(draw, min_n=1):
    S = draw(sym_matrices(min_n=min_n))
    lam = float(np.linalg.eigvalsh(np.array(S.to_rows()))[0])
    shift = draw(st.floats(1e-2, 5.0)) - lam
    diagonal = {_triu_index(S.n, i, i) for i in range(S.n)}
    S = SymMatrix(S.n, tuple(x + shift if k in diagonal else x for k, x in enumerate(S.upper)))
    return S, Vector(tuple(draw(st.lists(entry, min_size=S.n, max_size=S.n))))


@given(positive_definite_systems())
def test_solve_residual_tiny_away_from_singularity(system):
    S, v = system
    x = solve_sym(S, v)
    dense, rhs = np.array(S.to_rows()), np.array(v.entries)
    assert np.linalg.norm(dense @ np.array(x.entries) - rhs) <= 1e-12 * (1.0 + np.linalg.norm(rhs))


@given(positive_definite_systems())
def test_factored_solve_matches_numpy(system):
    S, v = system
    x = solve_sym(S, v)
    dense = np.array(S.to_rows())
    expected = np.linalg.solve(dense, np.array(v.entries))
    cond = float(np.linalg.cond(dense))
    assert np.allclose(x.entries, expected, rtol=0.0, atol=1e-13 * cond * (1.0 + float(np.abs(expected).max())))
    rhs = np.array(v.entries)
    assert np.linalg.norm(dense @ np.array(x.entries) - rhs) <= 1e-12 * (1.0 + np.linalg.norm(rhs))


@given(positive_definite_systems(min_n=3), st.sampled_from([1e-9, 1e-14, 1e-16, 0.0]))
def test_factored_list_solve_is_the_vector_refinement(system, residual_tol):
    # The list solve must give the bits of substitution inside the
    # step-by-step refinement, and raise the same ColumnSpaceViolation when the residual
    # exceeds the (here possibly zero) tolerance.
    S, v = system
    factor = kernels(S.n).factor(S.upper, 0.0)
    try:
        expected = _refined_reference(S, v.entries, residual_tol, partial(_substitute_reference, factor))
    except ColumnSpaceViolation as reference:
        with pytest.raises(ColumnSpaceViolation) as raised:
            kernels(S.n).solve(factor, S.upper, v.entries, residual_tol)
        assert (raised.value.residual, raised.value.tol) == (reference.residual, reference.tol)
        with pytest.raises(ColumnSpaceViolation):
            solve_sym(S, v, residual_tol)
        return
    assert tuple(kernels(S.n).solve(factor, S.upper, v.entries, residual_tol)) == expected
    assert solve_sym(S, v, residual_tol).entries == expected


@given(entry, entry)
@example(2.2250738585e-313, 1.0)  # the quotient overflows
@example(2.2250738585e-313, -1.0)
def test_1x1_solve_is_one_correctly_rounded_division(s, v):
    if not s > 0.0:
        with pytest.raises(DomainViolation):
            _solve_1x1(s, v)
        return
    try:
        expected = float(Fraction(v) / Fraction(s))
    except OverflowError:  # the correctly rounded quotient overflows
        for solve in (partial(_solve_1x1, s, v), partial(solve_sym, SymMatrix(1, (s,)), Vector((v,)))):
            with pytest.raises(ColumnSpaceViolation) as raised:
                solve()
            assert raised.value.residual == math.inf
        return
    assert _solve_1x1(s, v) == expected
    assert solve_sym(SymMatrix(1, (s,)), Vector((v,))).entries == (expected,)


def test_1x1_solve_of_a_zero_matrix():
    # No solve at a zero matrix, whether the right-hand side fits it or not.
    for v in (0.0, 1.0):
        with pytest.raises(DomainViolation):
            _solve_1x1(0.0, v)
        with pytest.raises(DomainViolation):
            solve_sym(SymMatrix(1, (0.0,)), Vector((v,)))


@given(sym_matrices(min_n=2, max_n=2), entry, entry)
def test_2x2_solve_is_the_refined_closed_form(S, v0, v1):
    # Reference: the inverse by its determinant inside the generic
    # refinement and residual check; the float version must give its bits.
    a, b, d = S.upper
    det = a * d - b * b
    if not (a > 0.0 and det > 0.0):
        with pytest.raises(DomainViolation):
            _solve_2x2(a, b, d, v0, v1, 1e-9)
        return

    def cramer(r):
        return ((d * r[0] - b * r[1]) / det, (a * r[1] - b * r[0]) / det)

    try:
        expected = _refined_reference(S, (v0, v1), 1e-9, cramer)
    except ColumnSpaceViolation:
        with pytest.raises(ColumnSpaceViolation):
            _solve_2x2(a, b, d, v0, v1, 1e-9)
        return
    assert _solve_2x2(a, b, d, v0, v1, 1e-9) == expected


def test_2x2_solve_refines_an_ill_conditioned_system():
    # Condition number about 1e6: the refinement step changes the closed
    # form's answer in the sixth significant digit and shrinks the residual.
    a, b, d, v0, v1 = 1.1742365971831072, 1.3171198061730727, 1.4773894590841445, -0.8122808264515302, -0.9433050469559874
    det = a * d - b * b
    closed = ((d * v0 - b * v1) / det, (a * v1 - b * v0) / det)
    x = _solve_2x2(a, b, d, v0, v1, 1e-9)
    assert x != closed
    expected = np.linalg.solve(np.array([[a, b], [b, d]]), np.array([v0, v1]))
    assert np.abs(np.array(x) - expected).max() < np.abs(np.array(closed) - expected).max()
    S = SymMatrix(2, (a, b, d))
    assert norm(residual_vector(S, x, (v0, v1))) < norm(residual_vector(S, closed, (v0, v1)))


def bits(values):
    """The exact bits of floats, signed zeros told apart."""
    return None if values is None else tuple(map(float.hex, values))


def factor_bits(factor):
    """bits of a kernels' factor: a float for n <= 2, the rows of L otherwise."""
    if factor is None or isinstance(factor, float):
        return None if factor is None else factor.hex()
    return [bits(row) for row in factor]


@given(sym_matrices(), st.sampled_from([0.0, 1.0, -1.0, 5.0, 20.0]), st.lists(entry, min_size=4, max_size=4),
       st.sampled_from([1e-9, 1e-16, 0.0]))
def test_generated_kernels_are_the_loops_bit_for_bit(S, shift, v, residual_tol):
    # The factor of S - shift I, pivot test included (the larger shifts
    # make a pivot <= 0), and the refined, checked solve, against the loops
    # and closed forms they were written from; at a tolerance the residual
    # exceeds both raise the same ColumnSpaceViolation.
    n, v = S.n, tuple(v[:S.n])
    factor, expected = kernels(n).factor(S.upper, shift), _factor_reference(n, S.upper, shift)
    assert factor_bits(factor) == factor_bits(expected)
    if expected is None:
        return
    diagonal = {_triu_index(n, i, i) for i in range(n)}
    shifted = tuple(x - shift if k in diagonal else x for k, x in enumerate(S.upper))
    try:
        reference = _solve_reference(n, shifted, expected, v, residual_tol)
    except ColumnSpaceViolation as raised:
        with pytest.raises(ColumnSpaceViolation) as caught:
            kernels(n).solve(factor, shifted, v, residual_tol)
        assert bits((caught.value.residual, caught.value.tol)) == bits((raised.residual, raised.tol))
        return
    assert bits(kernels(n).solve(factor, shifted, v, residual_tol)) == bits(reference)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_signed_zeros_follow_the_loops(n):
    # sum() starts from 0, so -0.0 minus a dot product of signed zeros is
    # -0.0; the generated sums must start from 0.0 to agree.
    upper = tuple(4.0 if i == j else 0.0 if (i, j) == (0, 1) else -0.0 for i in range(n) for j in range(i, n))
    v = (0.0,) + (-0.0,) * (n - 1)
    factor = kernels(n).factor(upper, 0.0)
    assert factor_bits(factor) == factor_bits(_factor_reference(n, upper, 0.0))
    assert bits(kernels(n).solve(factor, upper, v, 1e-9)) == bits(_solve_reference(n, upper, factor, v, 1e-9))


def test_kernels_are_compiled_once_per_size(monkeypatch):
    # A fresh cache fills with one set of kernels per size, however many
    # matrices of that size are factored and solved.
    generated = []
    source = smallmat._kernel_source
    kernels.cache_clear()
    monkeypatch.setattr(smallmat, "_kernel_source", lambda n, columns: generated.append(n) or source(n, columns))
    for scale in (1.0, 2.0, 3.0):
        for n in range(1, 5):
            S = SymMatrix(n, tuple(scale * (n + 1.0) if i == j else 1.0 for i in range(n) for j in range(i, n)))
            _solve(n, S.upper, (1.0,) * n, 1e-9)
            assert kernels(n).factor(S.upper, 0.0) is not None
    assert sorted(generated) == [1, 2, 3, 4]
    assert (kernels.cache_info().misses, kernels.cache_info().currsize) == (4, 4)
    assert all(isinstance(kernels(n), smallmat.Kernels) for n in range(1, 5))


def test_kernel_names_are_unique_beyond_ten():
    # Without a separator between the indices, l1_11 and l11_1 share one
    # name from n = 12 on; the kernels then factor and solve the wrong system.
    n = 12
    factor, solve = smallmat._compile_kernels(n, False)
    lower = {name for name in factor.__code__.co_varnames if name.startswith("l")}
    entries = {name for name in solve.__code__.co_varnames if name.startswith("a")}
    assert len(lower) == len(entries) == n * (n + 1) // 2
    rng = np.random.default_rng(12)
    M = rng.uniform(-1.0, 1.0, (n, n))
    S = M.T @ M + n * np.eye(n)  # SymMatrix stops at n = 4
    upper = tuple(float(x) for i, row in enumerate(S) for x in row[i:])
    v = tuple(map(float, rng.uniform(-1.0, 1.0, n)))
    x = solve(factor(upper, 0.0), upper, v, 1e-12)
    assert np.linalg.norm(S @ x - v) < 1e-12
    assert np.allclose(x, np.linalg.solve(S, v), rtol=1e-12, atol=1e-12)


# -- the array forms against the scalar solves, entry by entry --------------


def _first_error(calls):
    """The exception the first raising call raises, or None."""
    for call in calls:
        try:
            call()
        except (DomainViolation, ColumnSpaceViolation) as exc:
            return exc
    return None


def _assert_same_error(expected, batch):
    with pytest.raises(type(expected)) as raised:
        batch()
    assert str(raised.value) == str(expected)
    if isinstance(expected, ColumnSpaceViolation):
        assert bits((raised.value.residual, raised.value.tol)) == bits((expected.residual, expected.tol))


def _columns(rows):
    return [np.array(column, dtype=np.float64) for column in zip(*rows)]


def _column_exceeds(n, columns, t):
    """The threshold test lambda_min(S) > t at each entry of the columns of
    an upper triangle: the column factor's mask."""
    with np.errstate(all="ignore"):
        return column_kernels(n).factor(columns, t)[1]


def _solve_many(n, uppers, vs, residual_tol):
    """The column solve of the systems (column_kernels(n)) and, at the first
    entry its mask rejects, the scalar solve of that system, which must
    raise: the error contract of canonical.dual_samples."""
    slots = _columns(uppers)
    factor, solve = column_kernels(n)
    with np.errstate(all="ignore"):
        x, solved = solve(factor(slots, 0.0), slots, _columns(vs), residual_tol)
    if not solved.all():
        i = int(np.argmin(solved))
        _solve(n, uppers[i], vs[i], residual_tol)
        raise AssertionError(f"the scalar solve of system {i} raises nothing")
    return x


def _solve_2x2_many(rows, residual_tol):
    return _solve_many(2, [row[:3] for row in rows], [row[3:] for row in rows], residual_tol)


@st.composite
def conditioned_spd(draw):
    """(a, b, d) of a 2x2 positive definite matrix: eigenvalues top and
    top / cond, cond up to 1e12, eigenvectors at angle theta."""
    top = draw(st.floats(1e-2, 10.0))
    cond = 10.0 ** draw(st.floats(0.0, 12.0))
    theta = draw(st.floats(0.0, math.pi))
    c, s = math.cos(theta), math.sin(theta)
    low = top / cond
    return c * c * top + s * s * low, c * s * (top - low), s * s * top + c * c * low


systems = st.lists(st.tuples(conditioned_spd(), entry, entry), min_size=1, max_size=30)


@given(systems, st.sampled_from([1e-9, 1e-12, 0.0]))
def test_2x2_array_solve_is_the_scalar_solve_bit_for_bit(drawn, residual_tol):
    rows = [(a, b, d, v0, v1) for (a, b, d), v0, v1 in drawn]
    expected = _first_error([partial(_solve_2x2, *row, residual_tol) for row in rows])
    batch = partial(_solve_2x2_many, rows, residual_tol)
    if expected is not None:
        _assert_same_error(expected, batch)
        return
    x0, x1 = batch()
    assert [bits(x) for x in zip(x0.tolist(), x1.tolist())] == [bits(_solve_2x2(*row, residual_tol)) for row in rows]


def test_2x2_array_solve_takes_the_refinement_entry_by_entry():
    # 1000 seeded systems with condition numbers 1 to 1e12: the refinement
    # step changes some answers, not all, and each entry has the scalar bits.
    rng = np.random.default_rng(22)
    top = rng.uniform(1e-2, 10.0, 1000)
    low = top / 10.0 ** rng.uniform(0.0, 12.0, 1000)
    c, s = np.cos(theta := rng.uniform(0.0, np.pi, 1000)), np.sin(theta)
    a, b, d = c * c * top + s * s * low, c * s * (top - low), s * s * top + c * c * low
    v0, v1 = rng.uniform(-10.0, 10.0, (2, 1000))
    rows = list(zip(*(column.tolist() for column in (a, b, d, v0, v1))))
    x0, x1 = _solve_2x2_many(rows, 1.0)
    assert [bits(x) for x in zip(x0.tolist(), x1.tolist())] == [bits(_solve_2x2(*row, 1.0)) for row in rows]
    det = a * d - b * b
    refined = (x0 != (d * v0 - b * v1) / det) | (x1 != (a * v1 - b * v0) / det)
    assert 0 < refined.sum() < 1000


@given(st.lists(st.tuples(entry, entry), min_size=1, max_size=30))
@example([(1.0, 1.0), (2.2250738585e-313, 1.0), (0.0, 1.0)])  # overflow, then not positive definite
@example([(2.0, 1.0), (-1.0, 1.0), (2.2250738585e-313, 1.0)])  # not positive definite, then overflow
def test_1x1_array_solve_is_the_scalar_solve_bit_for_bit(rows):
    expected = _first_error([partial(_solve_1x1, *row) for row in rows])
    batch = partial(_solve_many, 1, [row[:1] for row in rows], [row[1:] for row in rows], 1e-9)
    if expected is not None:
        _assert_same_error(expected, batch)
        return
    assert bits(batch()[0].tolist()) == bits([_solve_1x1(*row) for row in rows])


@pytest.mark.parametrize("rows, residual_tol, error", [
    # not positive definite at the third system
    ([(2.0, 0.0, 2.0, 1.0, 1.0)] * 2 + [(1.0, 2.0, 1.0, 1.0, 1.0), (-1.0, 0.0, 1.0, 1.0, 1.0)], 1e-9,
     DomainViolation),
    # a NaN entry is not positive definite
    ([(2.0, 0.0, 2.0, 1.0, 1.0), (math.nan, 0.0, 2.0, 1.0, 1.0)], 1e-9, DomainViolation),
    # the residual of the second system exceeds a zero tolerance, the fourth is not positive definite
    ([(4.0, 0.0, 4.0, 1.0, 2.0), (1.1742365971831072, 1.3171198061730727, 1.4773894590841445,
                                  -0.8122808264515302, -0.9433050469559874),
      (4.0, 0.0, 4.0, 1.0, 2.0), (1.0, 2.0, 1.0, 1.0, 1.0)], 0.0, ColumnSpaceViolation),
])
def test_2x2_array_solve_raises_the_first_systems_error(rows, residual_tol, error):
    expected = _first_error([partial(_solve_2x2, *row, residual_tol) for row in rows])
    assert type(expected) is error
    _assert_same_error(expected, partial(_solve_2x2_many, rows, residual_tol))


# -- the column Cholesky kernels against the scalar ones, entry by entry ----


def _spd_upper(rng, n, top, cond):
    """The upper triangle of Q diag(top ... top / cond) Q^T, Q a random
    orthogonal matrix of rng: a positive definite matrix of condition
    number about cond."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = (q * np.geomspace(top, top / cond, n)) @ q.T
    return tuple(float(S[i, j]) for i in range(n) for j in range(i, n))


@st.composite
def conditioned_spd_systems(draw, n):
    """(upper, v) of positive definite systems of size n, condition numbers
    up to 1e12, each drawn from its own seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upper = _spd_upper(rng, n, draw(st.floats(1e-2, 10.0)), 10.0 ** draw(st.floats(0.0, 12.0)))
    return upper, tuple(draw(st.lists(entry, min_size=n, max_size=n)))


def _systems(n):
    return st.lists(conditioned_spd_systems(n), min_size=1, max_size=20)


def _factor_at(factor, i):
    if isinstance(factor, np.ndarray):
        return float(factor[i])
    return tuple(tuple(float(entry[i]) for entry in row) for row in factor)


def _scalar_solves(n, uppers, vs, residual_tol):
    return [partial(_solve, n, upper, v, residual_tol) for upper, v in zip(uppers, vs)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@given(data=st.data(), shift=st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 5.0]),
       residual_tol=st.sampled_from([1e-9, 1e-12, 0.0]))
def test_column_kernels_are_the_scalar_kernels_bit_for_bit(n, data, shift, residual_tol):
    # The factor of S - shift I with its pivot mask (the larger shifts make
    # a pivot <= 0), exceeds, and the refined, checked solve: each entry has
    # the scalar kernel's bits on its system, and the batched solve raises
    # the first raising system's error.
    drawn = data.draw(_systems(n))
    uppers, vs = [upper for upper, _ in drawn], [v for _, v in drawn]
    with np.errstate(all="ignore"):
        factor, positive = column_kernels(n).factor(_columns(uppers), shift)
    for i, upper in enumerate(uppers):
        expected = kernels(n).factor(upper, shift)
        assert bool(positive[i]) is (expected is not None)
        if expected is not None:
            assert factor_bits(_factor_at(factor, i)) == factor_bits(expected)
    assert _column_exceeds(n, _columns(uppers), shift).tolist() == [
        kernels(n).factor(upper, shift) is not None for upper in uppers]
    expected = _first_error(_scalar_solves(n, uppers, vs, residual_tol))
    batch = partial(_solve_many, n, uppers, vs, residual_tol)
    if expected is not None:
        _assert_same_error(expected, batch)
        return
    found = list(zip(*(column.tolist() for column in batch())))
    assert [bits(x) for x in found] == [bits(solve()) for solve in _scalar_solves(n, uppers, vs, residual_tol)]


@pytest.mark.parametrize("n", [1, 2])
@given(rows=st.lists(st.lists(entry, min_size=3, max_size=3), min_size=1, max_size=30),
       t=st.sampled_from([0.0, 1e-8, 1.0, -1.0]))
def test_exceeds_many_is_the_closed_form_test(n, rows, t):
    assert _column_exceeds(n, _columns(rows), t).tolist() == [kernels(n).factor(row, t) is not None for row in rows]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_column_solve_takes_the_refinement_entry_by_entry(n):
    # 1000 seeded systems with condition numbers 1 to 1e12: for n >= 2 the
    # refinement step changes some answers, not all, and each entry has the
    # scalar bits; the correctly rounded 1x1 quotient is never refined.
    rng = np.random.default_rng(24 + n)
    uppers = [_spd_upper(rng, n, rng.uniform(1e-2, 10.0), 10.0 ** rng.uniform(0.0, 12.0)) for _ in range(1000)]
    vs = [tuple(rng.uniform(-10.0, 10.0, n).tolist()) for _ in range(1000)]
    found = list(zip(*(column.tolist() for column in _solve_many(n, uppers, vs, 1.0))))
    assert [bits(x) for x in found] == [bits(solve()) for solve in _scalar_solves(n, uppers, vs, 1.0)]
    unrefined = [(v[0] / upper[0],) if n == 1 else _inverse_reference(n, upper, kernels(n).factor(upper, 0.0))(v)
                 for upper, v in zip(uppers, vs)]
    refined = sum(bits(x) != bits(y) for x, y in zip(found, unrefined))
    assert refined == 0 if n == 1 else 0 < refined < 1000


def _with_pivot(n, p, value):
    """The upper triangle of the identity of size n with diagonal entry p
    set to value: pivots 1, ..., 1, value, 1, ..."""
    return tuple(value if i == j == p else float(i == j) for i in range(n) for j in range(i, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_column_solve_raises_the_first_systems_error(n):
    good, v = _with_pivot(n, 0, 4.0), (1.0,) * n
    rng = np.random.default_rng(7)
    # A system whose refined residual is over a zero tolerance; for n = 1,
    # whose quotient is not refined, one whose quotient overflows.
    over = (2.2250738585e-313,) if n == 1 else next(
        upper for upper in (_spd_upper(rng, n, 1.0, 1e10) for _ in range(100))
        if _first_error(_scalar_solves(n, [upper], [v], 0.0)) is not None)
    for p in range(n):  # a pivot that is not > 0 at each position, NaN included
        for value in (0.0, -1.0, math.nan):
            for uppers in ([good, _with_pivot(n, p, value), over], [good, good, _with_pivot(n, p, value)]):
                expected = _first_error(_scalar_solves(n, uppers, [v] * 3, 0.0))
                assert type(expected) is DomainViolation
                _assert_same_error(expected, partial(_solve_many, n, uppers, [v] * 3, 0.0))
            assert _column_exceeds(n, _columns([good, _with_pivot(n, p, value)]), 0.0).tolist() == [True, False]
    uppers = [good, over, _with_pivot(n, min(1, n - 1), -1.0)]
    expected = _first_error(_scalar_solves(n, uppers, [v] * 3, 0.0))
    assert type(expected) is ColumnSpaceViolation
    _assert_same_error(expected, partial(_solve_many, n, uppers, [v] * 3, 0.0))


def test_column_kernels_are_compiled_once_per_size():
    column_kernels.cache_clear()
    for _ in range(3):
        for n in range(1, 5):
            assert column_kernels(n) is column_kernels(n)
            assert _column_exceeds(n, _columns([_with_pivot(n, 0, 2.0)]), 0.0).tolist() == [True]
    assert (column_kernels.cache_info().misses, column_kernels.cache_info().currsize) == (4, 4)
