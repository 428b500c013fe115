"""Small symmetric linear algebra, cross-checked against numpy.linalg."""

import math
from fractions import Fraction
from functools import partial
from operator import mul

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canondual.errors import ColumnSpaceViolation, DimensionMismatch
from canondual.smallmat import (
    SymMatrix,
    _triu_index,
    Vector,
    add_scaled,
    cholesky,
    eigen_sym,
    exceeds,
    is_nonsingular,
    is_psd,
    min_eigenvalue,
    solve_1x1,
    solve_2x2,
    solve_factored,
    solve_sym,
)


def _refined_reference(S, v, residual_tol, solve_once):
    """The refinement step and residual check on SymMatrix and Vector
    objects: the form solve_sym had before its solves ran on plain lists."""
    x = solve_once(v)
    residual_vec = v - S.matvec(x)
    residual = residual_vec.norm()
    v_norm = v.norm()
    if residual > 1e-14 * (1.0 + v_norm):
        corrected = x + solve_once(residual_vec)
        corrected_residual = (v - S.matvec(corrected)).norm()
        if corrected_residual < residual:
            x, residual = corrected, corrected_residual
    limit = residual_tol * (1.0 + v_norm)
    if residual > limit:
        raise ColumnSpaceViolation(residual, limit)
    return x


def _substitute_reference(factor, v):
    """Forward then back substitution returning a Vector."""
    n = len(factor)
    y = []
    for row, vi in zip(factor, v):
        y.append((vi - sum(map(mul, row, y))) / row[-1])
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - sum(factor[k][i] * x[k] for k in range(i + 1, n))) / factor[i][i]
    return Vector(tuple(x))


THC_FEAS_AT_ORIGIN = SymMatrix.from_rows([[22.0 / 75.0, 0.5], [0.5, 1.0]])


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(SymMatrix.identity(2)) == 1.0

    def test_scalar_from_g_problem(self):
        # G at the certified dual point of the decoupled quartic: 106/3 - 30.
        value = 2 * (-15 + 53 / 3)
        assert min_eigenvalue(SymMatrix(1, (value,))) == pytest.approx(16 / 3, abs=1e-12)

    def test_feasibility_matrix_at_origin(self):
        # Closed form from the characteristic polynomial: (97 - sqrt(8434)) / 150.
        expected = (97.0 - math.sqrt(8434.0)) / 150.0
        got = min_eigenvalue(THC_FEAS_AT_ORIGIN)
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(np.linalg.eigvalsh(np.array(THC_FEAS_AT_ORIGIN.to_rows()))[0])
        # Positivity is forced by det = 13/300 > 0 and positive trace.
        assert got > 0


class TestIsPsd:
    def test_identity_is_psd(self):
        assert is_psd(SymMatrix.identity(2), 0.0) == (True, 1.0)

    def test_explicit_negative_eigenvalue(self):
        ok, margin = is_psd(SymMatrix.from_rows([[0.0, 0.0], [0.0, -1.0]]), 0.0)
        assert not ok
        assert margin == -1.0

    def test_feasibility_matrix_is_psd_at_zero_tol(self):
        ok, _ = is_psd(THC_FEAS_AT_ORIGIN, 0.0)
        assert ok

    def test_double_sided_psd_means_zero(self):
        Z = SymMatrix.zero(3)
        assert is_psd(Z, 0.0)[0] and is_psd(Z.scale(-1.0), 0.0)[0]

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_psd(SymMatrix.identity(2), -1.0)


class TestSolveSym:
    def test_identity_solve(self):
        x = solve_sym(SymMatrix.identity(2), Vector((3.0, -2.0)))
        assert x.entries == (3.0, -2.0)

    def test_primal_recovery_scalar(self):
        # F(-15) = 56 + 8*(-15)/3 = 16 against G = 16/3 recovers t = 3.
        x = solve_sym(SymMatrix(1, (16.0 / 3.0,)), Vector((16.0,)))
        assert x[0] == pytest.approx(3.0, abs=1e-12)

    def test_column_space_violation(self):
        with pytest.raises(ColumnSpaceViolation):
            solve_sym(SymMatrix.from_rows([[0.0, 0.0], [0.0, 1.0]]), Vector((1.0, 0.0)))

    def test_singular_but_consistent(self):
        S = SymMatrix.from_rows([[0.0, 0.0], [0.0, 1.0]])
        x = solve_sym(S, Vector((0.0, 5.0)))
        assert x.entries == (0.0, 5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_sym(SymMatrix.identity(2), Vector((1.0,)))


class TestConstruction:
    def test_from_rows_rejects_asymmetry(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix.from_rows([[1.0, 2.0], [2.1, 1.0]])

    def test_upper_storage_round_trip(self):
        S = SymMatrix(3, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        rows = S.to_rows()
        for i in range(3):
            for j in range(3):
                assert rows[i][j] == rows[j][i] == S.entry(i, j)

    def test_add_scaled_matches_dense(self):
        A = SymMatrix.from_rows([[1.0, 0.5], [0.5, -2.0]])
        C = SymMatrix.from_rows([[2.0, 0.0], [0.0, 2.0]])
        G = add_scaled(A, [(-1.5, C)])
        assert G.to_rows() == [[-2.0, 0.5], [0.5, -5.0]]

    def test_size_cap(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix.identity(5)


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
    evals, _ = eigen_sym(S)
    dense = np.array(S.to_rows())
    scale = max(1.0, float(np.abs(dense).max())) ** S.n
    assert sum(evals) == pytest.approx(float(np.trace(dense)), abs=1e-9 * scale)
    assert math.prod(evals) == pytest.approx(float(np.linalg.det(dense)), abs=1e-9 * scale)


@given(sym_matrices())
def test_eigenvalues_match_numpy(S):
    evals, _ = eigen_sym(S)
    expected = np.linalg.eigvalsh(np.array(S.to_rows()))
    assert np.allclose(evals, expected, atol=1e-9, rtol=1e-9)


@given(sym_matrices())
def test_eigenvectors_diagonalize(S):
    evals, vecs = eigen_sym(S)
    Q = np.array(vecs).T  # columns are eigenvectors
    dense = np.array(S.to_rows())
    scale = max(1.0, float(np.abs(dense).max()))
    assert np.allclose(Q.T @ Q, np.eye(S.n), atol=1e-10)
    assert np.allclose(dense @ Q, Q @ np.diag(evals), atol=1e-8 * scale)


@st.composite
def well_conditioned_systems(draw):
    S = draw(sym_matrices())
    dense = np.array(S.to_rows())
    evals = np.linalg.eigvalsh(dense)
    if float(np.abs(evals).min()) <= 1e-2:
        # Shift the spectrum away from zero; keeps symmetry structurally.
        shift = 1.0 + float(np.abs(evals).min())
        S = add_scaled(S, [(shift, SymMatrix.identity(S.n))])
    v = draw(st.lists(entry, min_size=S.n, max_size=S.n))
    return S, Vector(tuple(v))


@given(well_conditioned_systems())
def test_solve_residual_tiny_away_from_singularity(system):
    S, v = system
    x = solve_sym(S, v)
    residual = (S.matvec(x) - v).norm()
    assert residual <= 1e-12 * (1.0 + v.norm())


@given(sym_matrices(min_n=2))
def test_is_nonsingular_agrees_with_numpy_rank(S):
    dense = np.array(S.to_rows())
    evals = np.abs(np.linalg.eigvalsh(dense))
    # Stay away from the threshold where the two classifications may differ.
    if evals.min() > 1e-6 * max(1.0, evals.max()):
        assert is_nonsingular(S)


@given(sym_matrices(), st.lists(entry, min_size=4, max_size=4))
def test_row_reads_equal_the_upper_triangle(S, v):
    # Reference: every read through the upper-triangle index, the products
    # summed in column order.  The stored rows must give identical bits.
    n = S.n
    ref = [[S.upper[_triu_index(n, i, j)] for j in range(n)] for i in range(n)]
    assert S.to_rows() == ref
    assert all(S.entry(i, j) == ref[i][j] for i in range(n) for j in range(n))
    x = v[:n]
    expected = tuple(sum(ref[i][j] * x[j] for j in range(n)) for i in range(n))
    assert S.matvec(x).entries == expected
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
    assert (cholesky(S, t) is not None) is (lam > t)


@given(sym_matrices())
def test_cholesky_factor_reproduces_the_matrix(S):
    factor = cholesky(S)
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
    S = add_scaled(S, [(draw(st.floats(1e-2, 5.0)) - lam, SymMatrix.identity(S.n))])
    return S, Vector(tuple(draw(st.lists(entry, min_size=S.n, max_size=S.n))))


@given(positive_definite_systems())
def test_factored_solve_matches_numpy(system):
    S, v = system
    factor = cholesky(S)
    assert factor is not None
    x = solve_sym(S, v, factor=factor)
    dense = np.array(S.to_rows())
    expected = np.linalg.solve(dense, np.array(v.entries))
    cond = float(np.linalg.cond(dense))
    assert np.allclose(x.entries, expected, rtol=0.0, atol=1e-13 * cond * (1.0 + float(np.abs(expected).max())))
    residual = (S.matvec(x) - v).norm()
    assert residual <= 1e-12 * (1.0 + v.norm())


@given(positive_definite_systems(min_n=3), st.sampled_from([1e-9, 1e-14, 1e-16, 0.0]))
def test_factored_list_solve_is_the_vector_refinement(system, residual_tol):
    # The list solve must give the bits of substitution inside the Vector
    # refinement, and raise the same ColumnSpaceViolation when the residual
    # exceeds the (here possibly zero) tolerance.
    S, v = system
    factor = cholesky(S)
    try:
        expected = _refined_reference(S, v, residual_tol, partial(_substitute_reference, factor)).entries
    except ColumnSpaceViolation as reference:
        with pytest.raises(ColumnSpaceViolation) as raised:
            solve_factored(factor, S.rows, v.entries, residual_tol)
        assert (raised.value.residual, raised.value.tol) == (reference.residual, reference.tol)
        with pytest.raises(ColumnSpaceViolation):
            solve_sym(S, v, residual_tol, factor)
        return
    assert tuple(solve_factored(factor, S.rows, v.entries, residual_tol)) == expected
    assert solve_sym(S, v, residual_tol, factor).entries == expected


@given(entry, entry)
def test_1x1_solve_is_one_correctly_rounded_division(s, v):
    if abs(s) <= 1e-13 * max(1.0, abs(s)):
        return
    expected = float(Fraction(v) / Fraction(s))
    assert solve_1x1(s, v) == expected
    assert solve_sym(SymMatrix(1, (s,)), Vector((v,))).entries == (expected,)


def test_1x1_solve_of_a_zero_matrix():
    assert solve_1x1(0.0, 0.0) == 0.0
    with pytest.raises(ColumnSpaceViolation):
        solve_1x1(0.0, 1.0)


@given(sym_matrices(min_n=2, max_n=2), entry, entry)
def test_2x2_solve_is_the_refined_closed_form(S, v0, v1):
    # Reference: the inverse by its determinant inside the generic
    # refinement and residual check; the float version must give its bits.
    a, b, d = S.upper
    det = a * d - b * b
    if not abs(det) > (1e-13 * max(1.0, abs(a), abs(b), abs(d))) ** 2:
        return

    def cramer(r):
        return Vector(((d * r[0] - b * r[1]) / det, (a * r[1] - b * r[0]) / det))

    try:
        expected = _refined_reference(S, Vector((v0, v1)), 1e-9, cramer).entries
    except ColumnSpaceViolation:
        with pytest.raises(ColumnSpaceViolation):
            solve_2x2(a, b, d, v0, v1)
        return
    assert solve_2x2(a, b, d, v0, v1) == expected


def test_2x2_solve_refines_an_ill_conditioned_system():
    # Condition number about 1e6: the refinement step changes the closed
    # form's answer in the sixth significant digit and shrinks the residual.
    a, b, d, v0, v1 = 1.1742365971831072, 1.3171198061730727, 1.4773894590841445, -0.8122808264515302, -0.9433050469559874
    det = a * d - b * b
    closed = ((d * v0 - b * v1) / det, (a * v1 - b * v0) / det)
    x = solve_2x2(a, b, d, v0, v1)
    assert x != closed
    expected = np.linalg.solve(np.array([[a, b], [b, d]]), np.array([v0, v1]))
    assert np.abs(np.array(x) - expected).max() < np.abs(np.array(closed) - expected).max()
    S = SymMatrix(2, (a, b, d))
    assert (S.matvec(x) - Vector((v0, v1))).norm() < (S.matvec(closed) - Vector((v0, v1))).norm()
