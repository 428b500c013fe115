"""Dense symmetric linear algebra for matrices of size n <= 4.

Symmetry is structural: a SymMatrix is given by its upper triangle, so
there is exactly one stored value per (i, j) pair; the full rows are
expanded from it once, at construction, for reads.

Threshold tests lambda_min(S) > t ask whether S - tI has a Cholesky
factorisation with all pivots > 0 (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 10), by closed forms for n <= 2 and by the
factorisation for n in {3, 4}; no eigenvalue is computed.  Eigenvalues,
which only reports read, come from closed forms for n in {1, 2} and cyclic
Jacobi sweeps for n in {3, 4}; min_eigenvalue, like the threshold tests,
reads an upper triangle and builds no SymMatrix for n <= 2.

Solves are for positive definite matrices only, the matrices G(sigma) of
the region where the dual is concave and every certificate is issued; any
other matrix raises DomainViolation and gets no solve.  They are closed
forms for n <= 2 (a division; the 2x2 inverse by its determinant) and for
n >= 3 substitution through the Cholesky factor (solve_factored, which
needs only the factor and the matrix's rows).  For n >= 2 one step of
iterative refinement and a residual check follow, computed on plain lists.

Everything here is pure-Python float arithmetic: the sizes are tiny, the
kernels deterministic, and the test suite cross-checks them against
numpy.linalg independently.
"""

from __future__ import annotations

import math
import sys
from operator import add, itemgetter, mul
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import ColumnSpaceViolation, DimensionMismatch, DomainViolation

MAX_DIM = 4

# Off-diagonal target for Jacobi sweeps (relative to scale for large input).
_JACOBI_OFF_TOL = 1e-12


def _norm(v: Sequence[float]) -> float:
    return math.sqrt(sum(map(mul, v, v)))


@dataclass(frozen=True)
class Vector:
    entries: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(map(float, self.entries)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[float]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> float:
        return self.entries[i]


def _triu_len(n: int) -> int:
    return n * (n + 1) // 2


def _triu_index(n: int, i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    # Row-major upper triangle: row i starts after i rows of lengths n, n-1, ...
    return i * n - i * (i - 1) // 2 + (j - i)


# Getters of the full rows from the upper triangle, by matrix size n >= 2
# (the one row of a 1x1 matrix is its upper triangle).
_ROW_GETTERS = {
    n: tuple(itemgetter(*(_triu_index(n, i, j) for j in range(n))) for i in range(n))
    for n in range(2, MAX_DIM + 1)
}


def full_rows(n: int, upper: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    """The rows of the symmetric matrix whose upper triangle is the first
    n(n+1)/2 entries of upper."""
    return (tuple(upper[:1]),) if n == 1 else tuple([row(upper) for row in _ROW_GETTERS[n]])


# Upper-triangle index of (i, j), j <= i, by matrix size: the lower
# triangle a Cholesky factorisation reads.
_LOWER_INDEX = {n: [[_triu_index(n, i, j) for j in range(i + 1)] for i in range(n)] for n in range(1, MAX_DIM + 1)}


@dataclass(frozen=True)
class SymMatrix:
    n: int
    upper: tuple[float, ...]
    rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_DIM:
            raise DimensionMismatch(f"matrix size must be in 1..{MAX_DIM}, got {self.n}")
        if len(self.upper) != _triu_len(self.n):
            raise DimensionMismatch(
                f"upper triangle of a {self.n}x{self.n} matrix has {_triu_len(self.n)} "
                f"entries, got {len(self.upper)}"
            )
        upper = tuple(map(float, self.upper))
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "rows", full_rows(self.n, upper))

    def to_rows(self) -> list[list[float]]:
        return [list(row) for row in self.rows]

    def scale(self, factor: float) -> "SymMatrix":
        return SymMatrix(self.n, tuple(factor * x for x in self.upper))


def _jacobi(rows: list[list[float]]) -> list[float]:
    """Cyclic Jacobi diagonalization; returns the eigenvalues, ascending."""
    n = len(rows)
    a = [row[:] for row in rows]
    scale = max(1.0, max(abs(x) for row in a for x in row))
    tol = _JACOBI_OFF_TOL * scale
    for _ in range(60):
        off = math.sqrt(2.0 * sum(a[p][q] ** 2 for p in range(n) for q in range(p + 1, n)))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p][p], a[q][q]
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = a[q][p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        akp, akq = a[k][p], a[k][q]
                        a[k][p] = a[p][k] = c * akp - s * akq
                        a[k][q] = a[q][k] = s * akp + c * akq
    return sorted(a[i][i] for i in range(n))


def _closed_form_eigenvalues(n: int, upper: Sequence[float]) -> tuple[float, ...]:
    """Eigenvalues, ascending, of the symmetric S of size n <= 2 whose upper
    triangle is the first n(n+1)/2 entries of upper."""
    if n == 1:
        return (upper[0],)
    a, b, d = upper[0], upper[1], upper[2]
    mean, radius = 0.5 * (a + d), math.hypot(0.5 * (a - d), b)
    return (mean - radius, mean + radius)


def eigen_sym(S: SymMatrix) -> tuple[float, ...]:
    """Eigenvalues, ascending: closed forms for n <= 2, Jacobi sweeps otherwise."""
    if S.n <= 2:
        return _closed_form_eigenvalues(S.n, S.upper)
    return tuple(_jacobi(S.to_rows()))


def min_eigenvalue(n: int, upper: Sequence[float]) -> float:
    """Smallest eigenvalue of the symmetric S whose upper triangle is the
    first n(n+1)/2 entries of upper: the closed form for n <= 2, read off
    the entries as exceeds reads them, and eigen_sym's Jacobi sweeps
    otherwise."""
    if n <= 2:
        return _closed_form_eigenvalues(n, upper)[0]
    return eigen_sym(SymMatrix(n, upper[:_triu_len(n)]))[0]


def cholesky(n: int, upper: Sequence[float], shift: float) -> list[list[float]] | None:
    """Rows of the lower factor L, L L^T = S - shift I for the S whose upper
    triangle is the first n(n+1)/2 entries of upper; None when a pivot is
    not > 0, that is when lambda_min(S) <= shift up to rounding."""
    factor: list[list[float]] = []
    for i, index in enumerate(_LOWER_INDEX[n]):
        row: list[float] = []
        for j in range(i):
            lower = factor[j]
            row.append((upper[index[j]] - sum(map(mul, row, lower))) / lower[j])
        pivot = upper[index[i]] - shift - sum(map(mul, row, row))
        if not pivot > 0.0:
            return None
        row.append(math.sqrt(pivot))
        factor.append(row)
    return factor


def exceeds(n: int, upper: Sequence[float], t: float) -> bool:
    """lambda_min(S) > t for the symmetric S whose upper triangle is the
    first n(n+1)/2 entries of upper: S - tI has a Cholesky factorisation
    with all pivots > 0.  For n <= 2 the pivots are closed forms."""
    if n == 1:
        return upper[0] - t > 0.0
    if n == 2:
        a = upper[0] - t
        return a > 0.0 and a * (upper[2] - t) - upper[1] * upper[1] > 0.0
    return cholesky(n, upper, t) is not None


def _substitute(factor: list[list[float]], v: Sequence[float]) -> list[float]:
    """x with L L^T x = v, by forward then back substitution."""
    n = len(factor)
    y: list[float] = []
    for row, vi in zip(factor, v):
        y.append((vi - sum(map(mul, row, y))) / row[-1])
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - sum(factor[k][i] * x[k] for k in range(i + 1, n))) / factor[i][i]
    return x


def solve_factored(
    factor: list[list[float]] | None, rows: Sequence[Sequence[float]], v: Sequence[float], residual_tol: float
) -> list[float]:
    """Solve S x = v through factor, cholesky(n, upper, 0.0) of the S with
    the given full rows: substitution, one step of iterative refinement, and
    ColumnSpaceViolation when the residual exceeds residual_tol * (1 + ||v||).
    A factor of None (S not positive definite) raises DomainViolation."""
    if factor is None:
        raise DomainViolation("matrix is not positive definite")
    x = _substitute(factor, v)
    residual_vec = [vi - sum(map(mul, row, x)) for row, vi in zip(rows, v)]
    residual = _norm(residual_vec)
    v_norm = _norm(v)
    if residual > 1e-14 * (1.0 + v_norm):
        corrected = list(map(add, x, _substitute(factor, residual_vec)))
        corrected_residual = _norm([vi - sum(map(mul, row, corrected)) for row, vi in zip(rows, v)])
        if corrected_residual < residual:
            x, residual = corrected, corrected_residual
    limit = residual_tol * (1.0 + v_norm)
    if residual > limit:
        raise ColumnSpaceViolation(residual, limit)
    return x


def solve_1x1(s: float, v: float) -> float:
    """solve_sym for a 1x1 system, on floats: v / s for s > 0, and
    DomainViolation otherwise.  The quotient is correctly rounded, so
    refinement would never change it; when it overflows, no float solves
    the system and ColumnSpaceViolation reports an infinite residual,
    above every finite tolerance."""
    if not s > 0.0:
        raise DomainViolation("matrix is not positive definite")
    x = v / s
    if math.isinf(x):
        raise ColumnSpaceViolation(math.inf, sys.float_info.max)
    return x


def solve_2x2(a: float, b: float, d: float, v0: float, v1: float, residual_tol: float) -> tuple[float, float]:
    """solve_sym for the system [[a, b], [b, d]] x = (v0, v1), on floats:
    DomainViolation unless the matrix is positive definite (the pivot test
    of exceeds), then the inverse by its determinant, one refinement step
    and the residual check."""
    det = a * d - b * b
    if not (a > 0.0 and det > 0.0):
        raise DomainViolation("matrix is not positive definite")
    x0 = (d * v0 - b * v1) / det
    x1 = (a * v1 - b * v0) / det
    r0 = v0 - (a * x0 + b * x1)
    r1 = v1 - (b * x0 + d * x1)
    residual = math.sqrt(r0 * r0 + r1 * r1)
    v_norm = math.sqrt(v0 * v0 + v1 * v1)
    if residual > 1e-14 * (1.0 + v_norm):
        y0 = x0 + (d * r0 - b * r1) / det
        y1 = x1 + (a * r1 - b * r0) / det
        r0 = v0 - (a * y0 + b * y1)
        r1 = v1 - (b * y0 + d * y1)
        corrected = math.sqrt(r0 * r0 + r1 * r1)
        if corrected < residual:
            x0, x1, residual = y0, y1, corrected
    limit = residual_tol * (1.0 + v_norm)
    if residual > limit:
        raise ColumnSpaceViolation(residual, limit)
    return x0, x1


def solve_sym(S: SymMatrix, v: Vector, residual_tol: float = 1e-9) -> Vector:
    """Solve S x = v for a positive definite S; DomainViolation otherwise.

    n <= 2 goes through solve_1x1 and solve_2x2, n >= 3 through
    solve_factored with the Cholesky factor of S.  Raises
    ColumnSpaceViolation when the refined residual exceeds
    residual_tol * (1 + ||v||): S is too ill-conditioned for that accuracy.
    """
    if not isinstance(v, Vector):
        v = Vector(tuple(v))
    if v.n != S.n:
        raise DimensionMismatch(f"matrix size {S.n}, vector length {v.n}")
    if S.n == 1:
        return Vector((solve_1x1(S.upper[0], v[0]),))
    if S.n == 2:
        return Vector(solve_2x2(*S.upper, *v.entries, residual_tol))
    return Vector(tuple(solve_factored(cholesky(S.n, S.upper, 0.0), S.rows, v.entries, residual_tol)))
