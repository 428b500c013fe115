"""Dense symmetric linear algebra for matrices of size n <= 4.

Symmetry is structural: a SymMatrix is given by its upper triangle, so
there is exactly one stored value per (i, j) pair; the full rows are
expanded from it once, at construction, for reads.

Threshold tests lambda_min(S) > t ask whether S - tI has a Cholesky
factorisation with all pivots > 0 (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 10), by closed forms for n <= 2 and by the
factorisation for n in {3, 4}; no eigenvalue is computed.  Eigenvalues
themselves come from closed forms for n in {1, 2} and cyclic Jacobi sweeps
for n in {3, 4}.  Solves are closed forms for n <= 2 (a division; the 2x2
inverse by its determinant), for n >= 3 substitution through a Cholesky
factor when the caller has one (solve_factored, which needs only the factor
and the matrix's rows), and otherwise pivoted elimination with an
eigendecomposition fallback for singular matrices; each is followed by one
step of iterative refinement and a column-space residual check, computed
on plain lists.

Everything here is pure-Python float arithmetic: the sizes are tiny, the
kernels deterministic, and the test suite cross-checks them against
numpy.linalg independently.
"""

from __future__ import annotations

import math
from operator import add, itemgetter, mul, sub
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Sequence

from .errors import ColumnSpaceViolation, DimensionMismatch

MAX_DIM = 4

# PSD membership accepts margin >= -PSD_TOL.
PSD_TOL = 1e-9

# Off-diagonal target for Jacobi sweeps (relative to scale for large input).
_JACOBI_OFF_TOL = 1e-12
_SINGULAR_PIVOT = 1e-13
# is_nonsingular: every |eigenvalue| above this times max(1, largest |eigenvalue|).
_NONSINGULAR_REL_TOL = 1e-12


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

    def dot(self, other: "Vector | Sequence[float]") -> float:
        other_entries = other.entries if isinstance(other, Vector) else tuple(other)
        if len(other_entries) != self.n:
            raise DimensionMismatch(f"vector lengths {self.n} and {len(other_entries)} differ")
        return sum(map(mul, self.entries, other_entries))

    def norm(self) -> float:
        return _norm(self.entries)

    def __add__(self, other: "Vector") -> "Vector":
        if other.n != self.n:
            raise DimensionMismatch(f"vector lengths {self.n} and {other.n} differ")
        return Vector(tuple(map(add, self.entries, other.entries)))

    def __sub__(self, other: "Vector") -> "Vector":
        if other.n != self.n:
            raise DimensionMismatch(f"vector lengths {self.n} and {other.n} differ")
        return Vector(tuple(map(sub, self.entries, other.entries)))

    def scale(self, factor: float) -> "Vector":
        return Vector(tuple(factor * x for x in self.entries))


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

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "SymMatrix":
        """Build from full rows; the strict lower triangle must match the
        upper one exactly."""
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix rows must form a square")
        for i in range(n):
            for j in range(i + 1, n):
                if float(rows[i][j]) != float(rows[j][i]):
                    raise DimensionMismatch(f"asymmetric entries at ({i},{j})")
        upper = tuple(float(rows[i][j]) for i in range(n) for j in range(i, n))
        return cls(n, upper)

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.from_rows([[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "SymMatrix":
        return cls(n, (0.0,) * _triu_len(n))

    def entry(self, i: int, j: int) -> float:
        return self.rows[i][j]

    def to_rows(self) -> list[list[float]]:
        return [list(row) for row in self.rows]

    def scale(self, factor: float) -> "SymMatrix":
        return SymMatrix(self.n, tuple(factor * x for x in self.upper))

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        if other.n != self.n:
            raise DimensionMismatch(f"matrix sizes {self.n} and {other.n} differ")
        return SymMatrix(self.n, tuple(a + b for a, b in zip(self.upper, other.upper)))

    def matvec(self, v: Vector | Sequence[float]) -> Vector:
        entries = v.entries if isinstance(v, Vector) else tuple(v)
        if len(entries) != self.n:
            raise DimensionMismatch(f"matrix size {self.n}, vector length {len(entries)}")
        return Vector(tuple(sum(map(mul, row, entries)) for row in self.rows))

    def quadratic_form(self, v: Vector | Sequence[float]) -> float:
        """v^T S v."""
        return self.matvec(v).dot(v)


def add_scaled(base: SymMatrix, parts: Sequence[tuple[float, SymMatrix]]) -> SymMatrix:
    """base + sum_k coeff_k * part_k, exact on the shared triangle storage."""
    upper = list(base.upper)
    for coeff, part in parts:
        if part.n != base.n:
            raise DimensionMismatch(f"matrix sizes {base.n} and {part.n} differ")
        for idx, value in enumerate(part.upper):
            upper[idx] += coeff * value
    return SymMatrix(base.n, tuple(upper))


def _eigen_2x2(a: float, b: float, d: float) -> tuple[tuple[float, float], tuple[tuple[float, float], tuple[float, float]]]:
    mean = 0.5 * (a + d)
    radius = math.hypot(0.5 * (a - d), b)
    lo, hi = mean - radius, mean + radius
    if b == 0.0:
        if a <= d:
            return (a, d), ((1.0, 0.0), (0.0, 1.0))
        return (d, a), ((0.0, 1.0), (1.0, 0.0))
    theta = 0.5 * math.atan2(2.0 * b, a - d)
    c, s = math.cos(theta), math.sin(theta)
    # Column (c, s) pairs with c^2 a + 2 c s b + s^2 d.
    val_cs = c * c * a + 2.0 * c * s * b + s * s * d
    if abs(val_cs - lo) <= abs(val_cs - hi):
        return (lo, hi), ((c, s), (-s, c))
    return (lo, hi), ((-s, c), (c, s))


def _jacobi(rows: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Cyclic Jacobi diagonalization; returns (eigenvalues, eigenvector columns)."""
    n = len(rows)
    a = [row[:] for row in rows]
    vecs = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
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
                for k in range(n):
                    vkp, vkq = vecs[k][p], vecs[k][q]
                    vecs[k][p] = c * vkp - s * vkq
                    vecs[k][q] = s * vkp + c * vkq
    order = sorted(range(n), key=lambda i: a[i][i])
    evals = [a[i][i] for i in order]
    columns = [[vecs[r][i] for r in range(n)] for i in order]
    return evals, columns


def eigen_sym(S: SymMatrix) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""
    if S.n == 1:
        return (S.entry(0, 0),), ((1.0,),)
    if S.n == 2:
        evals, vecs = _eigen_2x2(S.entry(0, 0), S.entry(0, 1), S.entry(1, 1))
        return evals, vecs
    evals, vecs = _jacobi(S.to_rows())
    return tuple(evals), tuple(tuple(v) for v in vecs)


def min_eigenvalue(S: SymMatrix) -> float:
    """Smallest eigenvalue: closed form for n <= 2, Jacobi otherwise."""
    if S.n == 1:
        return S.upper[0]
    if S.n == 2:
        a, b, d = S.upper
        return 0.5 * (a + d) - math.hypot(0.5 * (a - d), b)
    return eigen_sym(S)[0][0]


def is_psd(S: SymMatrix, tol: float = PSD_TOL) -> tuple[bool, float]:
    """(min_eigenvalue >= -tol, min_eigenvalue)."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    margin = min_eigenvalue(S)
    return margin >= -tol, margin


def _cholesky(n: int, upper: Sequence[float], shift: float) -> list[list[float]] | None:
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


def cholesky(S: SymMatrix, shift: float = 0.0) -> list[list[float]] | None:
    """Rows of the lower Cholesky factor of S - shift I, or None when that
    matrix is not positive definite: the threshold test lambda_min(S) > shift."""
    return _cholesky(S.n, S.upper, shift)


def exceeds(n: int, upper: Sequence[float], t: float) -> bool:
    """lambda_min(S) > t for the symmetric S whose upper triangle is the
    first n(n+1)/2 entries of upper: S - tI has a Cholesky factorisation
    with all pivots > 0.  For n <= 2 the pivots are closed forms."""
    if n == 1:
        return upper[0] - t > 0.0
    if n == 2:
        a = upper[0] - t
        return a > 0.0 and a * (upper[2] - t) - upper[1] * upper[1] > 0.0
    return _cholesky(n, upper, t) is not None


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


def _solve_pivoted(S: SymMatrix, v: Sequence[float]) -> list[float] | None:
    """Gaussian elimination with partial pivoting; None when singular."""
    n = S.n
    scale = max(1.0, max(abs(x) for x in S.upper))
    aug = [list(row) + [v[i]] for i, row in enumerate(S.rows)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot_row][col]) <= _SINGULAR_PIVOT * scale:
            return None
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        for r in range(col + 1, n):
            factor = aug[r][col] / aug[col][col]
            for c in range(col, n + 1):
                aug[r][c] -= factor * aug[col][c]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        x[i] = (aug[i][n] - sum(aug[i][j] * x[j] for j in range(i + 1, n))) / aug[i][i]
    return x


def _solve_pseudo(S: SymMatrix, v: Sequence[float]) -> list[float]:
    """Least-squares solve through the eigendecomposition, dropping tiny modes."""
    evals, vecs = eigen_sym(S)
    cutoff = _SINGULAR_PIVOT * max(1.0, max(abs(e) for e in evals))
    x = [0.0] * S.n
    for lam, col in zip(evals, vecs):
        if abs(lam) <= cutoff:
            continue
        proj = sum(col[i] * v[i] for i in range(S.n)) / lam
        for i in range(S.n):
            x[i] += proj * col[i]
    return x


def _solve_eliminated(S: SymMatrix, v: Sequence[float]) -> list[float]:
    """Elimination, or the least-squares solve when S is singular."""
    solved = _solve_pivoted(S, v)
    return solved if solved is not None else _solve_pseudo(S, v)


def _refined(rows: Sequence[Sequence[float]], v: Sequence[float], residual_tol: float, solve_once) -> list[float]:
    """solve_once(v) for the matrix with the given full rows, one step of
    iterative refinement with solve_once and the column-space residual
    check of solve_sym, on plain lists."""
    x = solve_once(v)
    residual_vec = [vi - sum(map(mul, row, x)) for row, vi in zip(rows, v)]
    residual = _norm(residual_vec)
    v_norm = _norm(v)
    if residual > 1e-14 * (1.0 + v_norm):
        corrected = list(map(add, x, solve_once(residual_vec)))
        corrected_residual = _norm([vi - sum(map(mul, row, corrected)) for row, vi in zip(rows, v)])
        if corrected_residual < residual:
            x, residual = corrected, corrected_residual
    limit = residual_tol * (1.0 + v_norm)
    if residual > limit:
        raise ColumnSpaceViolation(residual, limit)
    return x


def solve_factored(
    factor: list[list[float]], rows: Sequence[Sequence[float]], v: Sequence[float], residual_tol: float = 1e-9
) -> list[float]:
    """Solve S x = v through factor, the Cholesky factor of the positive
    definite S with the given full rows: substitution, one refinement step
    and the residual check (ColumnSpaceViolation) of solve_sym."""
    return _refined(rows, v, residual_tol, partial(_substitute, factor))


def solve_1x1(s: float, v: float, residual_tol: float = 1e-9) -> float:
    """solve_sym for a 1x1 system, on floats: v / s, or 0 when s is zero to
    working precision and v is too (ColumnSpaceViolation otherwise).  The
    quotient is correctly rounded, so refinement would never change it."""
    if abs(s) > _SINGULAR_PIVOT * max(1.0, abs(s)):
        return v / s
    limit = residual_tol * (1.0 + abs(v))
    if abs(v) > limit:
        raise ColumnSpaceViolation(abs(v), limit)
    return 0.0


def solve_2x2(a: float, b: float, d: float, v0: float, v1: float, residual_tol: float = 1e-9) -> tuple[float, float]:
    """solve_sym for the system [[a, b], [b, d]] x = (v0, v1), on floats:
    the inverse by its determinant, one refinement step, the residual check."""
    det = a * d - b * b
    if not abs(det) > (_SINGULAR_PIVOT * max(1.0, abs(a), abs(b), abs(d))) ** 2:
        S = SymMatrix(2, (a, b, d))
        x0, x1 = _refined(S.rows, (v0, v1), residual_tol, partial(_solve_pseudo, S))
        return x0, x1
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


def solve_sym(
    S: SymMatrix, v: Vector, residual_tol: float = 1e-9, factor: list[list[float]] | None = None
) -> Vector:
    """Solve S x = v, least-squares when S is singular.

    n <= 2 goes through solve_1x1 and solve_2x2.  For n >= 3, factor, the
    Cholesky factor of a positive definite S (cholesky(S)), replaces
    elimination.  One step of iterative refinement keeps residuals near
    rounding level for moderately conditioned systems.  Raises
    ColumnSpaceViolation when the residual exceeds residual_tol * (1 + ||v||),
    i.e. v is not in the column space of S.
    """
    if not isinstance(v, Vector):
        v = Vector(tuple(v))
    if v.n != S.n:
        raise DimensionMismatch(f"matrix size {S.n}, vector length {v.n}")
    if S.n == 1:
        return Vector((solve_1x1(S.upper[0], v[0], residual_tol),))
    if S.n == 2:
        return Vector(solve_2x2(*S.upper, *v.entries, residual_tol))
    if factor is not None:
        return Vector(tuple(solve_factored(factor, S.rows, v.entries, residual_tol)))
    return Vector(tuple(_refined(S.rows, v.entries, residual_tol, partial(_solve_eliminated, S))))


def is_nonsingular(S: SymMatrix) -> bool:
    evals, _ = eigen_sym(S)
    biggest = max(abs(e) for e in evals)
    return min(abs(e) for e in evals) > _NONSINGULAR_REL_TOL * max(1.0, biggest)
