"""Float polynomial evaluation at many points.

Two entry points, both built from the float coefficients and integer
exponents of ``MultiPoly.as_arrays``:

  * ``eval_lattice`` evaluates on a tensor-product lattice (grid scans and
    CSV surface export).  Each axis gets one power table
    ``[1, x, x^2, ..., x^d]`` built by repeated multiplication; the terms
    are scattered into a dense coefficient array indexed by exponents,
    which is contracted with the tables one axis at a time.  In two
    variables that is ``(X @ C) @ Y^T``, one small matrix product, so a
    1001 x 1001 Goldstein-Price lattice costs milliseconds; in one
    variable it is a weighted sum of the powers, taken row by row.
  * ``eval_many`` evaluates at scattered points, on the same per-axis power
    tables.  No program path calls it; it is a reference for the tests and
    the benchmark's tracing.

Single points do not come here: ``MultiPoly.eval`` is the generated
straight-line function of ``MultiPoly.float_evaluator``, a few microseconds
per call, where a batch kernel would pay numpy's per-call overhead.

No path raises a float to a power with ``**``: numpy's float power is slow,
and slower still for negative bases.  Exact-rational arithmetic (module
``polynomial``) never goes through this module; only float evaluation does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def active_backend() -> str:
    """Name of the evaluation backend; numpy is the only one."""
    return "numpy"


def _power_table(x: np.ndarray, degree: int) -> np.ndarray:
    """Rows ``x^0, x^1, ..., x^degree`` of the 1-D array x, shape (degree + 1, len(x))."""
    table = np.empty((degree + 1, x.shape[0]), dtype=np.float64)
    table[0] = 1.0
    for e in range(1, degree + 1):
        np.multiply(table[e - 1], x, out=table[e])
    return table


def _degrees(exps: np.ndarray) -> list[int]:
    return [int(d) for d in exps.max(axis=0)] if exps.shape[0] else [0] * exps.shape[1]


def eval_lattice(coeffs: np.ndarray, exps: np.ndarray, axes: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate the polynomial given by (coeffs, exps) at every node of the
    lattice ``axes[0] x axes[1] x ...``.

    Returns a flat array in row-major lattice order, first axis slowest:
    entry ``i * len(axes[1]) + j`` is the value at ``(axes[0][i], axes[1][j])``.
    """
    axes = [np.ascontiguousarray(a, dtype=np.float64) for a in axes]
    if len(axes) != exps.shape[1] or any(a.ndim != 1 for a in axes):
        raise ValueError(f"expected {exps.shape[1]} one-dimensional axes for exponents {exps.shape}")
    degrees = _degrees(exps)
    dense = np.zeros([d + 1 for d in degrees], dtype=np.float64)
    dense[tuple(exps.T)] = coeffs
    if len(axes) == 1:
        # The same contraction row by row, without BLAS or the whole table:
        # a 1-D lattice gains nothing from BLAS, whose first use in a process
        # adds about 0.4 MB to its resident set.
        x = axes[0]
        power = np.ones_like(x)
        values = np.full_like(x, dense[0])
        for coeff in dense[1:]:
            power *= x
            values += coeff * power
        return values
    # Contract coefficient axis 0 with its power table; the lattice axis lands
    # last, so after every variable the remaining axes are the lattice's, in order.
    values = dense
    for axis, degree in zip(axes, degrees):
        values = np.tensordot(values, _power_table(axis, degree), axes=([0], [0]))
    return values.ravel()


def eval_many(coeffs: np.ndarray, exps: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate the polynomial given by (coeffs, exps) at all rows of pts."""
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != exps.shape[1]:
        raise ValueError(f"points shape {pts.shape} does not match exponent width {exps.shape}")
    tables = [_power_table(pts[:, v], d) for v, d in enumerate(_degrees(exps))]
    out = np.zeros(pts.shape[0], dtype=np.float64)
    for coeff, row in zip(coeffs, exps):
        term = np.full(pts.shape[0], coeff)
        for table, e in zip(tables, row):
            if e:
                term *= table[e]
        out += term
    return out
