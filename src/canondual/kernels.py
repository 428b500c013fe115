"""Float polynomial evaluation at many points.

Two entry points, both built from the float coefficients and integer
exponents of ``MultiPoly.as_arrays``:

  * ``lattice_blocks`` evaluates on a tensor-product lattice (grid scans
    and CSV surface export), a block of whole rows at a time.  Each axis
    gets one power table ``[1, x, x^2, ..., x^d]`` built by repeated
    multiplication; the terms are scattered into a dense coefficient array
    indexed by exponents, whose first axis is contracted with the first
    table (``X C``).  Each block is then one matrix product
    ``(X C)[rows] @ Y``, written into one buffer that every block reuses,
    of about ``BLOCK_VALUES`` values.  The caller reads a block while it is
    still in cache, and memory grows with one block and the power tables,
    not with the lattice: on 2 shared cores (Python 3.11, numpy 2.4 with
    OpenBLAS 0.3.31), a 1001 x 1001 Goldstein-Price grid scan takes
    1.5 ms and a 4001 x 4001 one 20 ms, against 2.0 and 54 ms for the whole
    lattice in one product and a second pass for its minimum.  A node is
    the same dot product of the same operands as in that one product, but
    BLAS may round it differently in its last bits (README, "Float
    evaluation").  In one variable the contraction is a weighted sum of the
    powers, taken row by row, and each node is a row.
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

from typing import Iterator, Sequence

import numpy as np


def active_backend() -> str:
    """Name of the evaluation backend; numpy is the only one."""
    return "numpy"


# Values per lattice block: 512 KiB of float64, so a block and the second
# axis's power table stay in a 2 MiB L2 cache between the product that
# writes the block and the pass that reads it.
BLOCK_VALUES = 1 << 16


def _power_table(x: np.ndarray, degree: int) -> np.ndarray:
    """Rows ``x^0, x^1, ..., x^degree`` of the 1-D array x, shape (degree + 1, len(x))."""
    table = np.empty((degree + 1, x.shape[0]), dtype=np.float64)
    table[0] = 1.0
    for e in range(1, degree + 1):
        np.multiply(table[e - 1], x, out=table[e])
    return table


def _degrees(exps: np.ndarray) -> list[int]:
    return [int(d) for d in exps.max(axis=0)] if exps.shape[0] else [0] * exps.shape[1]


def lattice_blocks(coeffs: np.ndarray, exps: np.ndarray, axes: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """The values of the polynomial given by (coeffs, exps) at every node of
    the lattice ``axes[0] x axes[1]``, a block of whole rows at a time.

    Each block is a C-contiguous array of whole lattice rows, shape
    (rows, len(axes[1])), and (rows, 1) for a 1-D lattice, whose rows are
    single nodes.  The blocks follow one another in row-major lattice
    order, first axis slowest: node ``(axes[0][i], axes[1][j])`` is entry
    ``i * len(axes[1]) + j`` of the blocks laid end to end.  A block holds
    ``max(2, BLOCK_VALUES // row length)`` rows, the last block up to one
    more; every block is a view of one buffer, reused, so its values hold
    only until the next block is drawn.  The checks on the axes run when
    the first block is drawn.
    """
    axes = [np.ascontiguousarray(a, dtype=np.float64) for a in axes]
    if len(axes) != exps.shape[1] or len(axes) > 2 or any(a.ndim != 1 for a in axes):
        raise ValueError(f"expected {exps.shape[1]} one-dimensional axes, at most 2, for exponents {exps.shape}")
    degrees = _degrees(exps)
    dense = np.zeros([d + 1 for d in degrees], dtype=np.float64)
    dense[tuple(exps.T)] = coeffs
    # Contract coefficient axis 0 with its power table; rows[i] is then the
    # coefficient row of the second variable at node i of the first axis.
    if len(axes) == 1:
        # Row by row, without BLAS or the whole table: a 1-D lattice gains
        # nothing from BLAS, whose first use in a process adds about 0.4 MB
        # to its resident set.  Its rows are its values; a block copies them
        # as products with 1.0, which keep every bit, the sign of zero too.
        x = axes[0]
        power = np.ones_like(x)
        values = np.full_like(x, dense[0])
        for coeff in dense[1:]:
            power *= x
            values += coeff * power
        rows, right, product = values[:, None], np.ones((1, 1)), np.multiply
    else:
        rows = np.tensordot(dense, _power_table(axes[0], degrees[0]), axes=([0], [0])).T
        right, product = _power_table(axes[1], degrees[1]), np.dot
    n_rows, width = rows.shape[0], right.shape[1]
    step = max(2, BLOCK_VALUES // width)
    buffer = np.empty((min(step + 1, n_rows), width), dtype=np.float64)
    start = 0
    while start < n_rows:
        # No block of one row after a longer one: numpy hands a one-row
        # product to BLAS's matrix-vector routine, which sums in another
        # order than the matrix product that computes every other block.
        stop = n_rows if n_rows - start <= step + 1 else start + step
        block = buffer[: stop - start]
        product(rows[start:stop], right, out=block)
        yield block
        start = stop


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
