"""Dense symmetric linear algebra for matrices of size n <= 4.

Symmetry is structural: a SymMatrix is given by its upper triangle, so
there is exactly one stored value per (i, j) pair; the full rows are
expanded from it once, at construction, for reads.

Threshold tests lambda_min(S) > t ask whether all pivots of S - tI are > 0
(Higham, Accuracy and Stability of Numerical Algorithms, ch. 10): the entry
for n = 1, the leading entry and the determinant for n = 2, the Cholesky
pivots for n in {3, 4}; no eigenvalue is computed.  Eigenvalues
(eigen_sym), which only reports read, come from closed forms for n in
{1, 2} and cyclic Jacobi sweeps for n in {3, 4}.

Solves are for positive definite matrices only, the matrices G(sigma) of
the region where the dual is concave and every certificate is issued; any
other matrix raises DomainViolation and gets no solve.  A solve is a
division for n = 1, the inverse by the determinant for n = 2 and
substitution through the Cholesky factor for n >= 3; for n >= 2 one step
of iterative refinement (ch. 12) and a residual check follow.

Each matrix size n has two straight-line functions on float locals, the
factor, which is the threshold test, and the solve, generated from one
source (_kernel_source) once per n and cached by n (kernels); no loop runs
over the entries.  Their dot products are written out as plain
left-to-right sums, 0.0 + p0 + p1 + ..., the float operations sum() makes
on Python 3.11, and the Jacobi sweeps fold their off-diagonal norm the
same way, so no result depends on the compensated sum() of Python 3.12.
Everything else here is pure-Python float arithmetic: the sizes are tiny,
the kernels deterministic, and the test suite cross-checks them against
numpy.linalg and against reference loops and closed forms, bit for bit.

The same source compiles to array forms (column_kernels), for many
matrices of one size n at once: numpy float64 columns, one entry per
matrix, through the same operations in the same order, so each entry has
the bits of the scalar call on its matrix.  Where the scalar kernels
return None or raise, the column kernels mark the entry in a mask, which
they return beside their answers: column_kernels(n).factor(upper, t)[1]
is the threshold test on columns.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cache, reduce
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ColumnSpaceViolation, DimensionMismatch, DomainViolation
from .polynomial import MAX_ARITY as MAX_DIM

# A factor of kernels(n): the pivot (n = 1), the determinant (n = 2) or the
# rows of a lower Cholesky factor (n >= 3).
Factor = float | tuple[tuple[float, ...], ...]

# Off-diagonal target for Jacobi sweeps (relative to scale for large input).
_JACOBI_OFF_TOL = 1e-12


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


def _plain_sum(terms: Iterable[float]) -> float:
    """0.0 + t0 + t1 + ..., from left to right: the float operations of
    sum() on Python 3.11, which Python 3.12 compensates (_sum_of writes the
    same sum into generated source)."""
    return reduce(add, terms, 0.0)


def _jacobi(rows: list[list[float]]) -> list[float]:
    """Cyclic Jacobi diagonalization; returns the eigenvalues, ascending."""
    n = len(rows)
    a = [row[:] for row in rows]
    scale = max(1.0, max(abs(x) for row in a for x in row))
    tol = _JACOBI_OFF_TOL * scale
    for _ in range(60):
        off = math.sqrt(2.0 * _plain_sum(a[p][q] ** 2 for p in range(n) for q in range(p + 1, n)))
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


def eigen_sym(S: SymMatrix) -> tuple[float, ...]:
    """Eigenvalues, ascending: closed forms for n <= 2, Jacobi sweeps otherwise."""
    if S.n == 1:
        return S.upper
    if S.n == 2:
        a, b, d = S.upper
        mean, radius = 0.5 * (a + d), math.hypot(0.5 * (a - d), b)
        return (mean - radius, mean + radius)
    return tuple(_jacobi(S.to_rows()))


def _sum_of(terms: Sequence[str]) -> str:
    """Source of sum() over the float terms, as Python 3.11 adds them:
    "(0.0 + t0 + t1 ...)" from left to right, or "" for none."""
    return f"(0.0 + {' + '.join(terms)})" if terms else ""


def _minus_sum(head: str, terms: Sequence[str]) -> str:
    """Source of head - sum(terms).  An empty sum() is the int 0, and
    head - 0 has the bits of head, so nothing is subtracted then."""
    return f"{head} - {_sum_of(terms)}" if terms else head


def _kernel_source(n: int, columns: bool = False) -> str:
    """The straight-line factor and solve of size n, on float locals or, with
    columns, on float64 columns.  The entries of L and of S are named
    l{i}_{j} and a{i}_{j} (S read once from its upper triangle, i <= j):
    without the separator, l1_11 and l11_1 would both be l111 from n = 12
    on.

    factor(upper, shift) tests the pivots of S - shift I: its entry for
    n = 1, its leading entry and determinant for n = 2, the Cholesky pivots
    for n >= 3.  It returns the pivot, the determinant or the rows of L,
    or None at the first pivot that is not > 0.  solve(factor, upper, v,
    residual_tol), given factor(upper, 0.0), raises DomainViolation for
    None and solves S x = v: for n = 1 the quotient, correctly rounded, so
    refinement would never change it (an overflow to +-inf raises
    ColumnSpaceViolation with an infinite residual); for n = 2 the inverse
    by the determinant and for n >= 3 forward and back substitution
    through L, each followed by one step of iterative refinement, taken
    where it lowers the residual, and ColumnSpaceViolation when the
    residual exceeds residual_tol * (1 + ||v||).

    The column form differs where the scalar form stops: its factor goes on
    past a pivot that is not > 0 and returns (factor, the mask of the
    samples whose pivots all are), and its solve takes that pair, makes the
    refinement step only when some sample needs it, takes it sample by
    sample, and returns (x, the mask of the samples where the scalar solve
    raises nothing)."""

    def a(i: int, j: int) -> str:
        return f"a{min(i, j)}_{max(i, j)}"

    def tuple_of(names: Sequence[str]) -> str:
        return "(" + "".join(f"{name}, " for name in names) + ")"

    def test(pivot: str, first: bool) -> list[str]:
        if columns:
            return [f"    positive = {pivot} > 0.0" if first else f"    positive = positive & ({pivot} > 0.0)"]
        return [f"    if not {pivot} > 0.0:", "        return None"]

    def inverse(into: str, of: str, indent: str) -> list[str]:
        """{into}0, {into}1, ... = S^-1 ({of}0, {of}1, ...)."""
        if n == 2:
            return [f"{indent}{into}0 = ({a(1, 1)} * {of}0 - {a(0, 1)} * {of}1) / det",
                    f"{indent}{into}1 = ({a(0, 0)} * {of}1 - {a(0, 1)} * {of}0) / det"]
        lines = []
        for i in range(n):  # forward: L y = v
            dot = [f"l{i}_{k} * y{k}" for k in range(i)]
            lines.append(f"{indent}y{i} = ({_minus_sum(f'{of}{i}', dot)}) / l{i}_{i}")
        for i in reversed(range(n)):  # back: L^T x = y
            dot = [f"l{k}_{i} * {into}{k}" for k in range(i + 1, n)]
            lines.append(f"{indent}{into}{i} = ({_minus_sum(f'y{i}', dot)}) / l{i}_{i}")
        return lines

    def residual(of: str, norm: str, indent: str) -> list[str]:
        """r = v - S x for x = ({of}0, {of}1, ...), S x summed row by row,
        and {norm} = ||r||."""
        lines = [f"{indent}r{i} = {_minus_sum(f'v{i}', [f'{a(i, j)} * {of}{j}' for j in range(n)])}"
                 for i in range(n)]
        return lines + [f"{indent}{norm} = sqrt{_sum_of([f'r{i} * r{i}' for i in range(n)])}"]

    lower = [[f"l{i}_{j}" for j in range(i + 1)] for i in range(n)]
    lines = ["def factor(upper, shift):", "    pivot = upper[0] - shift", *test("pivot", True)]
    if n == 1:
        factor = "pivot"
    elif n == 2:
        lines += ["    det = pivot * (upper[2] - shift) - upper[1] * upper[1]", *test("det", False)]
        factor = "det"
    else:
        lines.append("    l0_0 = sqrt(pivot)")
        for i in range(1, n):
            for j in range(i):
                dot = [f"l{i}_{k} * l{j}_{k}" for k in range(j)]
                lines.append(f"    l{i}_{j} = ({_minus_sum(f'upper[{_triu_index(n, j, i)}]', dot)}) / l{j}_{j}")
            squares = [f"l{i}_{k} * l{i}_{k}" for k in range(i)]
            lines += [f"    pivot = {_minus_sum(f'upper[{_triu_index(n, i, i)}] - shift', squares)}",
                      *test("pivot", False), f"    l{i}_{i} = sqrt(pivot)"]
        factor = tuple_of(map(tuple_of, lower))
    lines.append(f"    return {factor}{', positive' if columns else ''}")

    xs = [f"x{i}" for i in range(n)]
    lines.append("def solve(factor, upper, v, residual_tol):")
    if columns:
        lines.append("    factor, positive = factor")
    else:
        lines += ["    if factor is None:", '        raise DomainViolation("matrix is not positive definite")']
    lines.append(f"    {tuple_of(f'v{i}' for i in range(n))} = v")
    if n == 1:
        lines.append("    x0 = v0 / upper[0]")
        if columns:
            return "\n".join([*lines, "    return (x0,), positive & ~isinf(x0)"])
        return "\n".join([*lines, "    if isinf(x0):", f"        raise ColumnSpaceViolation(inf, {sys.float_info.max!r})",
                          "    return (x0,)"])
    lines.append(f"    {factor} = factor")
    lines += [f"    {a(i, j)} = upper[{_triu_index(n, i, j)}]" for i in range(n) for j in range(i, n)]
    lines += [*inverse("x", "v", "    "), *residual("x", "residual", "    "),
              f"    v_norm = sqrt{_sum_of([f'v{i} * v{i}' for i in range(n)])}"]
    refinement = [*inverse("d", "r", "        "), *(f"        c{i} = x{i} + d{i}" for i in range(n)),
                  *residual("c", "corrected", "        ")]
    if columns:
        lines += ["    refine = residual > 1e-14 * (1.0 + v_norm)", "    if refine.any():", *refinement,
                  "        refine = refine & (corrected < residual)",
                  *(f"        x{i} = where(refine, c{i}, x{i})" for i in range(n)),
                  "        residual = where(refine, corrected, residual)",
                  "    limit = residual_tol * (1.0 + v_norm)",
                  f"    return {tuple_of(xs)}, positive & ~(residual > limit)"]
    else:
        lines += ["    if residual > 1e-14 * (1.0 + v_norm):", *refinement, "        if corrected < residual:",
                  f"            {', '.join(xs)}, residual = {', '.join(f'c{i}' for i in range(n))}, corrected",
                  "    limit = residual_tol * (1.0 + v_norm)",
                  "    if residual > limit:", "        raise ColumnSpaceViolation(residual, limit)",
                  f"    return {tuple_of(xs)}"]
    return "\n".join(lines)


class Kernels(NamedTuple):
    """The straight-line factor and solve of one matrix size n."""

    factor: Callable[[Sequence[float], float], Factor | None]
    solve: Callable[[Factor | None, Sequence[float], Sequence[float], float], tuple[float, ...]]


_SCALAR_NAMES = {"sqrt": math.sqrt, "isinf": math.isinf, "inf": math.inf,
                 "ColumnSpaceViolation": ColumnSpaceViolation, "DomainViolation": DomainViolation}
_COLUMN_NAMES = {"sqrt": np.sqrt, "isinf": np.isinf, "where": np.where}


def _compile_kernels(n: int, columns: bool) -> Kernels:
    namespace: dict = {}
    name = f"<smallmat {'column ' if columns else ''}kernels n={n}>"
    exec(compile(_kernel_source(n, columns), name, "exec"), dict(_COLUMN_NAMES if columns else _SCALAR_NAMES),
         namespace)
    return Kernels(namespace["factor"], namespace["solve"])


@cache
def kernels(n: int) -> Kernels:
    """The kernels of size n (_kernel_source), compiled once per process:

      * factor(upper, shift): the factor of S - shift I for the S whose
        upper triangle is the first n(n+1)/2 entries of upper, or None at
        the first pivot that is not > 0;
      * solve(factor, upper, v, residual_tol): x with S x = v, given
        factor(upper, 0.0), refined and checked.

    Every dot product is written out as sum() over floats adds on Python
    3.11, 0.0 + p0 + p1 + ... from left to right, and an empty one is left
    out.  These plain left-to-right sums are the kernels' definition; the
    compensated sum() of Python 3.12 may round differently.
    """
    return _compile_kernels(n, False)


@cache
def column_kernels(n: int) -> Kernels:
    """The kernels of size n on float64 columns, one entry per matrix,
    compiled once per process from the same source: each entry has the
    bits of the scalar kernel on its matrix.  factor(upper, shift) returns
    (the factor, a mask of the entries whose pivots are all > 0), and where
    the mask is False the factor's entries are meaningless (NaN from the
    square root of a pivot <= 0); solve(that pair, upper, v, residual_tol)
    returns (x, a mask of the entries where the scalar solve raises
    nothing).  Call them under np.errstate(all="ignore")."""
    return _compile_kernels(n, True)


def solve_sym(S: SymMatrix, v: Vector, residual_tol: float = 1e-9) -> Vector:
    """Solve S x = v for a positive definite S; DomainViolation otherwise.

    kernels(n).solve through kernels(n).factor(upper, 0.0).  Raises
    ColumnSpaceViolation when the refined residual exceeds
    residual_tol * (1 + ||v||): S is too ill-conditioned for that accuracy.
    """
    if not isinstance(v, Vector):
        v = Vector(tuple(v))
    if v.n != S.n:
        raise DimensionMismatch(f"matrix size {S.n}, vector length {v.n}")
    factor, solve = kernels(S.n)
    return Vector(solve(factor(S.upper, 0.0), S.upper, v.entries, residual_tol))
