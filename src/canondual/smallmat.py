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
iterative refinement and a residual check follow.

The Cholesky factor, the forward and back substitution and the residual
are straight-line functions on float locals, generated once per matrix
size n and cached by n (kernels); no loop runs over the entries.  Their
dot products are written out as plain left-to-right sums,
0.0 + p0 + p1 + ..., the float operations sum() makes on Python 3.11.
Everything else here is pure-Python float arithmetic: the sizes are tiny,
the kernels deterministic, and the test suite cross-checks them against
numpy.linalg independently and against the loops they replace, bit for
bit.

The solves and the threshold test also have array forms, for many
matrices of one size n <= 4 at once: numpy float64 columns, one entry per
matrix, through the same operations in the same order, so each entry has
the bits of the scalar call on its matrix.  For n <= 2 they are the closed
forms (solve_1x1_columns, solve_2x2_columns); for n >= 3, column_kernels
compiles the kernels' own source with one change, a pivot that is not > 0
marked in a per-entry mask instead of ending the factor, and
solve_factored_columns substitutes, refines and checks through that
factor.  Each *_columns form returns, beside its answers, the mask of the
entries where the scalar call raises nothing; each *_many form raises, at
the first entry in order where the scalar call raises, that call's own
error.  exceeds_many is exceeds on columns; min_eigenvalue_many is for
n <= 2 only.
"""

from __future__ import annotations

import math
import sys
from operator import add, itemgetter, mul
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ColumnSpaceViolation, DimensionMismatch, DomainViolation

MAX_DIM = 4

Factor = tuple[tuple[float, ...], ...]  # the rows of a lower Cholesky factor

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


def min_eigenvalue_many(n: int, upper: Sequence[np.ndarray]) -> np.ndarray:
    """min_eigenvalue at each entry of the float64 columns of an upper
    triangle of size n <= 2: the entry itself for n = 1, mean - radius for
    n = 2 with the radius from math.hypot, one entry at a time (np.hypot
    may round differently)."""
    if n == 1:
        return upper[0]
    if n != 2:
        raise DimensionMismatch(f"array eigenvalues are for n <= 2, got n={n}")
    a, b, d = upper[:3]
    radius = list(map(math.hypot, (0.5 * (a - d)).tolist(), b.tolist()))
    return 0.5 * (a + d) - np.array(radius)


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


def _sum_of(terms: Sequence[str]) -> str:
    """Source of sum() over the float terms, as Python 3.11 adds them:
    "(0.0 + t0 + t1 ...)" from left to right, or "" for none."""
    return f"(0.0 + {' + '.join(terms)})" if terms else ""


def _minus_sum(head: str, terms: Sequence[str]) -> str:
    """Source of head - sum(terms).  An empty sum() is the int 0, and
    head - 0 has the bits of head, so nothing is subtracted then."""
    return f"{head} - {_sum_of(terms)}" if terms else head


def _kernel_source(n: int, columns: bool = False) -> str:
    """The straight-line factor, substitute and residual of size n.  The
    entries of L and of the rows are named l{i}_{j} and a{i}_{j}: without the
    separator, l1_11 and l11_1 would both be l111 from n = 12 on.  The
    column form differs in one line per pivot: where the scalar factor
    returns None at a pivot that is not > 0, it goes on and keeps a mask of
    the samples whose pivots all are, which it returns beside the factor."""
    lower = [[f"l{i}_{j}" for j in range(i + 1)] for i in range(n)]
    xs, vs = [f"x{i}" for i in range(n)], [f"v{i}" for i in range(n)]
    rows = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]

    def tuple_of(names: Sequence[str]) -> str:
        return "(" + "".join(f"{name}, " for name in names) + ")"

    lines = ["def factor(upper, shift):"]
    for i in range(n):
        for j in range(i):
            dot = [f"l{i}_{k} * l{j}_{k}" for k in range(j)]
            lines.append(f"    l{i}_{j} = ({_minus_sum(f'upper[{_triu_index(n, j, i)}]', dot)}) / l{j}_{j}")
        squares = [f"l{i}_{k} * l{i}_{k}" for k in range(i)]
        lines.append(f"    pivot = {_minus_sum(f'upper[{_triu_index(n, i, i)}] - shift', squares)}")
        if columns:
            lines.append("    positive = pivot > 0.0" if i == 0 else "    positive = positive & (pivot > 0.0)")
        else:
            lines += ["    if not pivot > 0.0:", "        return None"]
        lines.append(f"    l{i}_{i} = sqrt(pivot)")
    lines.append(f"    return {tuple_of(map(tuple_of, lower))}{', positive' if columns else ''}")

    lines += ["def substitute(factor, v):", f"    {tuple_of(map(tuple_of, lower))} = factor",
              f"    {tuple_of(vs)} = v"]
    for i in range(n):  # forward: L y = v
        dot = [f"l{i}_{k} * y{k}" for k in range(i)]
        lines.append(f"    y{i} = ({_minus_sum(f'v{i}', dot)}) / l{i}_{i}")
    for i in reversed(range(n)):  # back: L^T x = y
        dot = [f"l{k}_{i} * x{k}" for k in range(i + 1, n)]
        lines.append(f"    x{i} = ({_minus_sum(f'y{i}', dot)}) / l{i}_{i}")
    lines.append(f"    return {tuple_of(xs)}")

    lines += ["def residual(rows, v, x):", f"    {tuple_of(map(tuple_of, rows))} = rows",
              f"    {tuple_of(vs)} = v", f"    {tuple_of(xs)} = x"]
    for i in range(n):
        lines.append(f"    r{i} = {_minus_sum(f'v{i}', [f'a{i}_{j} * x{j}' for j in range(n)])}")
    squares = [f"r{i} * r{i}" for i in range(n)]
    lines.append(f"    return {tuple_of(f'r{i}' for i in range(n))}, sqrt{_sum_of(squares)}")
    return "\n".join(lines)


class Kernels(NamedTuple):
    """The straight-line Cholesky kernels of one matrix size n."""

    factor: Callable[[Sequence[float], float], Factor | None]
    substitute: Callable[[Factor, Sequence[float]], tuple[float, ...]]
    residual: Callable[[Sequence[Sequence[float]], Sequence[float], Sequence[float]],
                       tuple[tuple[float, ...], float]]


# Compiled kernels by matrix size n, generated at first use: the scalar
# kernels and their column forms.
_KERNELS: dict[int, Kernels] = {}
_COLUMN_KERNELS: dict[int, Kernels] = {}


def _compile_kernels(n: int, columns: bool) -> Kernels:
    namespace: dict = {}
    name = f"<smallmat {'column ' if columns else ''}kernels n={n}>"
    exec(compile(_kernel_source(n, columns), name, "exec"), {"sqrt": np.sqrt if columns else math.sqrt}, namespace)
    return Kernels(namespace["factor"], namespace["substitute"], namespace["residual"])


def kernels(n: int) -> Kernels:
    """The kernels of size n, compiled once per process:

      * factor(upper, shift): cholesky's factor, or None at the first pivot
        that is not > 0;
      * substitute(factor, v): x with L L^T x = v, forward then back
        substitution;
      * residual(rows, v, x): (v - S x, ||v - S x||) for the S with the
        given full rows, S x summed row by row.

    Every dot product is written out as sum() over floats adds on Python
    3.11, 0.0 + p0 + p1 + ... from left to right, and an empty one is left
    out.  These plain left-to-right sums are the kernels' definition; the
    compensated sum() of Python 3.12 may round differently.
    """
    found = _KERNELS.get(n)
    if found is None:
        found = _KERNELS[n] = _compile_kernels(n, False)
    return found


def column_kernels(n: int) -> Kernels:
    """The kernels of size n on float64 columns, one entry per matrix,
    compiled once per process from the same source (_kernel_source): each
    entry has the bits of the scalar kernel on its matrix.  substitute and
    residual are the scalar code, residual with np.sqrt; factor(upper,
    shift) returns (the factor, a mask of the entries whose pivots are all
    > 0), and where the mask is False the factor's entries are meaningless
    (NaN from the square root of a pivot <= 0).  Call them under
    np.errstate(all="ignore")."""
    found = _COLUMN_KERNELS.get(n)
    if found is None:
        found = _COLUMN_KERNELS[n] = _compile_kernels(n, True)
    return found


def cholesky(n: int, upper: Sequence[float], shift: float) -> Factor | None:
    """Rows of the lower factor L, L L^T = S - shift I for the S whose upper
    triangle is the first n(n+1)/2 entries of upper; None when a pivot is
    not > 0, that is when lambda_min(S) <= shift up to rounding."""
    return kernels(n).factor(upper, shift)


def exceeds(n: int, upper: Sequence[float], t: float) -> bool:
    """lambda_min(S) > t for the symmetric S whose upper triangle is the
    first n(n+1)/2 entries of upper: S - tI has a Cholesky factorisation
    with all pivots > 0.  For n <= 2 the pivots are closed forms."""
    if n == 1:
        return upper[0] - t > 0.0
    if n == 2:
        a = upper[0] - t
        return a > 0.0 and a * (upper[2] - t) - upper[1] * upper[1] > 0.0
    return kernels(n).factor(upper, t) is not None


def solve_factored(
    factor: Factor | None, rows: Sequence[Sequence[float]], v: Sequence[float], residual_tol: float
) -> tuple[float, ...]:
    """Solve S x = v through factor, cholesky(n, upper, 0.0) of the S with
    the given full rows: substitution, one step of iterative refinement, and
    ColumnSpaceViolation when the residual exceeds residual_tol * (1 + ||v||).
    A factor of None (S not positive definite) raises DomainViolation."""
    if factor is None:
        raise DomainViolation("matrix is not positive definite")
    _, substitute, residual_of = kernels(len(factor))
    x = substitute(factor, v)
    residual_vec, residual = residual_of(rows, v, x)
    v_norm = _norm(v)
    if residual > 1e-14 * (1.0 + v_norm):
        corrected = tuple(map(add, x, substitute(factor, residual_vec)))
        corrected_residual = residual_of(rows, v, corrected)[1]
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


def _first(offending: np.ndarray) -> int | None:
    """The index of the first True entry, or None."""
    return int(np.argmax(offending)) if offending.any() else None


def exceeds_many(n: int, upper: Sequence[np.ndarray], t: float) -> np.ndarray:
    """exceeds at each entry of the float64 columns of an upper triangle of
    size n: the closed forms for n <= 2 and the shifted column factor's
    mask for n >= 3, each entry the scalar test's answer on its matrix."""
    with np.errstate(all="ignore"):
        if n == 1:
            return upper[0] - t > 0.0
        if n == 2:
            a = upper[0] - t
            return (a > 0.0) & (a * (upper[2] - t) - upper[1] * upper[1] > 0.0)
        return column_kernels(n).factor(upper, t)[1]


def solve_1x1_columns(s: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(solve_1x1 at each entry of the float64 columns s and v, a mask of
    the entries where it raises nothing)."""
    with np.errstate(all="ignore"):
        x = v / s
    return x, (s > 0.0) & ~np.isinf(x)


def solve_1x1_many(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """solve_1x1 at each entry of the float64 columns s and v: v / s.  At
    the first entry, in order, where solve_1x1 raises, it is called on that
    entry and raises its own error."""
    x, solved = solve_1x1_columns(s, v)
    i = _first(~solved)
    if i is not None:
        solve_1x1(float(s[i]), float(v[i]))
    return x


def solve_2x2_columns(a: np.ndarray, b: np.ndarray, d: np.ndarray, v0: np.ndarray, v1: np.ndarray,
                      residual_tol: float) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """(solve_2x2 at each entry of the float64 columns, a mask of the
    entries where it raises nothing), by its operations in its order: the
    refinement step is made everywhere and taken where solve_2x2 takes it."""
    with np.errstate(all="ignore"):
        det = a * d - b * b
        x0 = (d * v0 - b * v1) / det
        x1 = (a * v1 - b * v0) / det
        r0 = v0 - (a * x0 + b * x1)
        r1 = v1 - (b * x0 + d * x1)
        residual = np.sqrt(r0 * r0 + r1 * r1)
        v_norm = np.sqrt(v0 * v0 + v1 * v1)
        y0 = x0 + (d * r0 - b * r1) / det
        y1 = x1 + (a * r1 - b * r0) / det
        r0 = v0 - (a * y0 + b * y1)
        r1 = v1 - (b * y0 + d * y1)
        corrected = np.sqrt(r0 * r0 + r1 * r1)
        refined = (residual > 1e-14 * (1.0 + v_norm)) & (corrected < residual)
        residual = np.where(refined, corrected, residual)
        limit = residual_tol * (1.0 + v_norm)
    solved = (a > 0.0) & (det > 0.0) & ~(residual > limit)
    return (np.where(refined, y0, x0), np.where(refined, y1, x1)), solved


def solve_2x2_many(a: np.ndarray, b: np.ndarray, d: np.ndarray, v0: np.ndarray, v1: np.ndarray,
                   residual_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """solve_2x2 at each entry of the float64 columns (solve_2x2_columns).
    At the first entry, in order, where solve_2x2 raises, it is called on
    that entry and raises its own error."""
    x, solved = solve_2x2_columns(a, b, d, v0, v1, residual_tol)
    i = _first(~solved)
    if i is not None:
        solve_2x2(*(float(column[i]) for column in (a, b, d, v0, v1)), residual_tol)
    return x


ColumnFactor = tuple[tuple[tuple[np.ndarray, ...], ...], np.ndarray]  # column_kernels(n).factor's (factor, mask)


def solve_factored_columns(factored: ColumnFactor, rows: Sequence[Sequence[np.ndarray]], v: Sequence[np.ndarray],
                           residual_tol: float) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """(solve_factored at each entry of the float64 columns, a mask of the
    entries where it raises nothing), given the column factor of the
    matrices with those rows: the substitution, the refinement step made
    everywhere and taken where solve_factored takes it, and the residual
    check, by its operations in its order."""
    factor, positive = factored
    _, substitute, residual_of = column_kernels(len(factor))
    with np.errstate(all="ignore"):
        x = substitute(factor, v)
        residual_vec, residual = residual_of(rows, v, x)
        v_norm = np.sqrt(sum(map(mul, v, v)))
        corrected = tuple(map(add, x, substitute(factor, residual_vec)))
        corrected_residual = residual_of(rows, v, corrected)[1]
        refined = (residual > 1e-14 * (1.0 + v_norm)) & (corrected_residual < residual)
        residual = np.where(refined, corrected_residual, residual)
        limit = residual_tol * (1.0 + v_norm)
    return tuple([np.where(refined, y, x_k) for y, x_k in zip(corrected, x)]), positive & ~(residual > limit)


def solve_factored_many(factored: ColumnFactor, rows: Sequence[Sequence[np.ndarray]], v: Sequence[np.ndarray],
                        residual_tol: float) -> tuple[np.ndarray, ...]:
    """solve_factored at each entry of the float64 columns
    (solve_factored_columns).  At the first entry, in order, where
    solve_factored raises, it is called on that entry's factor (None where
    a pivot is not > 0), rows and v, and raises its own error."""
    x, solved = solve_factored_columns(factored, rows, v, residual_tol)
    i = _first(~solved)
    if i is not None:
        factor, positive = factored

        def at(entries: Sequence[np.ndarray]) -> tuple[float, ...]:
            return tuple([float(entry[i]) for entry in entries])

        solve_factored(tuple(map(at, factor)) if positive[i] else None, tuple(map(at, rows)), at(v), residual_tol)
    return x


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
    return Vector(solve_factored(cholesky(S.n, S.upper, 0.0), S.rows, v.entries, residual_tol))
