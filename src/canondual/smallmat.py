"""Dense symmetric linear algebra for matrices of size n <= 4.

Symmetry is structural: a SymMatrix is given by its upper triangle, so
there is exactly one stored value per (i, j) pair; the full rows are
expanded from it once, at construction, for reads.  Eigenvalues come from
closed forms for n in {1, 2} and cyclic Jacobi sweeps for n in {3, 4};
solves use pivoted elimination with an eigendecomposition fallback for
singular matrices, followed by a column-space residual check.

Everything here is pure-Python float arithmetic: the sizes are tiny, the
kernels deterministic, and the test suite cross-checks them against
numpy.linalg independently.
"""

from __future__ import annotations

import math
from operator import add, itemgetter, mul, sub
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import ColumnSpaceViolation, DimensionMismatch

MAX_DIM = 4

# PSD membership accepts margin >= -PSD_TOL; certified-interior tests
# require margin >= +INTERIOR_MARGIN, separating the two regimes.
PSD_TOL = 1e-9
INTERIOR_MARGIN = 1e-9

# Off-diagonal target for Jacobi sweeps (relative to scale for large input).
_JACOBI_OFF_TOL = 1e-12
_SINGULAR_PIVOT = 1e-13


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
        return math.sqrt(sum(map(mul, self.entries, self.entries)))

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
        rows = (upper,) if self.n == 1 else tuple([row(upper) for row in _ROW_GETTERS[self.n]])
        object.__setattr__(self, "rows", rows)

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

    def frobenius(self) -> float:
        total = 0.0
        for i in range(self.n):
            for j in range(self.n):
                total += self.entry(i, j) ** 2
        return math.sqrt(total)


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


def _solve_pivoted(S: SymMatrix, v: Vector) -> Vector | None:
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
    return Vector(tuple(x))


def _solve_pseudo(S: SymMatrix, v: Vector) -> Vector:
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
    return Vector(tuple(x))


def _solve_once(S: SymMatrix, v: Vector) -> Vector:
    scale = max(1.0, max(map(abs, S.upper)))
    if S.n == 1:
        (s,), (v0,) = S.upper, v.entries
        return Vector((v0 / s,)) if abs(s) > _SINGULAR_PIVOT * scale else Vector((0.0,))
    if S.n == 2:
        (a, b, d), (v0, v1) = S.upper, v.entries
        det = a * d - b * b
        if abs(det) > (_SINGULAR_PIVOT * scale) ** 2:
            return Vector(((d * v0 - b * v1) / det, (a * v1 - b * v0) / det))
        return _solve_pseudo(S, v)
    solved = _solve_pivoted(S, v)
    return solved if solved is not None else _solve_pseudo(S, v)


def solve_sym(S: SymMatrix, v: Vector, residual_tol: float = 1e-9) -> Vector:
    """Solve S x = v, least-squares when S is singular.

    One step of iterative refinement keeps residuals near rounding level
    for moderately conditioned systems.  Raises ColumnSpaceViolation when
    the residual exceeds residual_tol * (1 + ||v||), i.e. v is not in the
    column space of S.
    """
    if not isinstance(v, Vector):
        v = Vector(tuple(v))
    if v.n != S.n:
        raise DimensionMismatch(f"matrix size {S.n}, vector length {v.n}")
    x = _solve_once(S, v)
    residual_vec = v - S.matvec(x)
    residual = residual_vec.norm()
    v_norm = v.norm()
    if residual > 1e-14 * (1.0 + v_norm):
        corrected = x + _solve_once(S, residual_vec)
        corrected_residual = (v - S.matvec(corrected)).norm()
        if corrected_residual < residual:
            x, residual = corrected, corrected_residual
    limit = residual_tol * (1.0 + v_norm)
    if residual > limit:
        raise ColumnSpaceViolation(residual, limit)
    return x


def is_nonsingular(S: SymMatrix, rel_tol: float = 1e-12) -> bool:
    evals, _ = eigen_sym(S)
    biggest = max(abs(e) for e in evals)
    return min(abs(e) for e in evals) > rel_tol * max(1.0, biggest)
