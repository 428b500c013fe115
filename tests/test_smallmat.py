"""Small symmetric linear algebra, cross-checked against numpy.linalg."""

import math
from fractions import Fraction
from functools import partial
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from canondual.errors import ColumnSpaceViolation, DimensionMismatch, DomainViolation
from canondual.smallmat import (
    SymMatrix,
    _triu_index,
    Vector,
    cholesky,
    eigen_sym,
    exceeds,
    min_eigenvalue,
    solve_1x1,
    solve_2x2,
    solve_factored,
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


THC_FEAS_AT_ORIGIN = SymMatrix(2, (22.0 / 75.0, 0.5, 1.0))


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(2, identity(2).upper) == 1.0

    def test_scalar_from_g_problem(self):
        # G at the certified dual point of the decoupled quartic: 106/3 - 30.
        value = 2 * (-15 + 53 / 3)
        assert min_eigenvalue(1, (value,)) == pytest.approx(16 / 3, abs=1e-12)

    def test_feasibility_matrix_at_origin(self):
        # Closed form from the characteristic polynomial: (97 - sqrt(8434)) / 150.
        expected = (97.0 - math.sqrt(8434.0)) / 150.0
        got = min_eigenvalue(2, THC_FEAS_AT_ORIGIN.upper)
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
    # The triangle may lead a longer buffer, such as a dual point's
    # accumulated [G, F, c]; the result is eigen_sym's lowest, bit for bit.
    assert min_eigenvalue(S.n, [*S.upper, *tail]) == eigen_sym(S)[0]


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
    assert exceeds(S.n, S.upper, t) is (lam > t)
    assert (cholesky(S.n, S.upper, t) is not None) is (lam > t)


@given(sym_matrices())
def test_cholesky_factor_reproduces_the_matrix(S):
    factor = cholesky(S.n, S.upper, 0.0)
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
    factor = cholesky(S.n, S.upper, 0.0)
    try:
        expected = _refined_reference(S, v.entries, residual_tol, partial(_substitute_reference, factor))
    except ColumnSpaceViolation as reference:
        with pytest.raises(ColumnSpaceViolation) as raised:
            solve_factored(factor, S.rows, v.entries, residual_tol)
        assert (raised.value.residual, raised.value.tol) == (reference.residual, reference.tol)
        with pytest.raises(ColumnSpaceViolation):
            solve_sym(S, v, residual_tol)
        return
    assert tuple(solve_factored(factor, S.rows, v.entries, residual_tol)) == expected
    assert solve_sym(S, v, residual_tol).entries == expected


@given(entry, entry)
@example(2.2250738585e-313, 1.0)  # the quotient overflows
@example(2.2250738585e-313, -1.0)
def test_1x1_solve_is_one_correctly_rounded_division(s, v):
    if not s > 0.0:
        with pytest.raises(DomainViolation):
            solve_1x1(s, v)
        return
    try:
        expected = float(Fraction(v) / Fraction(s))
    except OverflowError:  # the correctly rounded quotient overflows
        for solve in (partial(solve_1x1, s, v), partial(solve_sym, SymMatrix(1, (s,)), Vector((v,)))):
            with pytest.raises(ColumnSpaceViolation) as raised:
                solve()
            assert raised.value.residual == math.inf
        return
    assert solve_1x1(s, v) == expected
    assert solve_sym(SymMatrix(1, (s,)), Vector((v,))).entries == (expected,)


def test_1x1_solve_of_a_zero_matrix():
    # No solve at a zero matrix, whether the right-hand side fits it or not.
    for v in (0.0, 1.0):
        with pytest.raises(DomainViolation):
            solve_1x1(0.0, v)
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
            solve_2x2(a, b, d, v0, v1, 1e-9)
        return

    def cramer(r):
        return ((d * r[0] - b * r[1]) / det, (a * r[1] - b * r[0]) / det)

    try:
        expected = _refined_reference(S, (v0, v1), 1e-9, cramer)
    except ColumnSpaceViolation:
        with pytest.raises(ColumnSpaceViolation):
            solve_2x2(a, b, d, v0, v1, 1e-9)
        return
    assert solve_2x2(a, b, d, v0, v1, 1e-9) == expected


def test_2x2_solve_refines_an_ill_conditioned_system():
    # Condition number about 1e6: the refinement step changes the closed
    # form's answer in the sixth significant digit and shrinks the residual.
    a, b, d, v0, v1 = 1.1742365971831072, 1.3171198061730727, 1.4773894590841445, -0.8122808264515302, -0.9433050469559874
    det = a * d - b * b
    closed = ((d * v0 - b * v1) / det, (a * v1 - b * v0) / det)
    x = solve_2x2(a, b, d, v0, v1, 1e-9)
    assert x != closed
    expected = np.linalg.solve(np.array([[a, b], [b, d]]), np.array([v0, v1]))
    assert np.abs(np.array(x) - expected).max() < np.abs(np.array(closed) - expected).max()
    S = SymMatrix(2, (a, b, d))
    assert norm(residual_vector(S, x, (v0, v1))) < norm(residual_vector(S, closed, (v0, v1)))
