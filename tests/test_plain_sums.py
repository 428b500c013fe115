"""The scalar float paths add without the builtin sum().

Python 3.12 made sum() over floats compensated, so a sum() call rounds
differently there than the plain left-to-right sum 0.0 + t0 + t1 + ...
that Python 3.11's sum() makes and that the generated code writes out.
The dual point's methods, the ascent, the generated sources and the
scalar measures, conjugates and Xi call no sum(), so their bits do not
depend on the Python version.
"""

import ast
import inspect
import textwrap
from pathlib import Path

import pytest

from canondual import canonical, smallmat, verify

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "canondual"


def sum_calls(source: str) -> list[int]:
    """The lines of source that call the builtin sum()."""
    tree = ast.parse(textwrap.dedent(source))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum")


def test_dual_point_methods_call_no_sum():
    assert sum_calls(inspect.getsource(canonical.DualPoint)) == []


def test_dual_solver_calls_no_sum():
    # The ascent (maximize_concave), its interior start and the
    # finite-difference references: the whole module.
    assert sum_calls((PACKAGE / "dual_solver.py").read_text()) == []


@pytest.mark.parametrize("n", range(1, smallmat.MAX_DIM + 1))
def test_generated_sources_call_no_sum(n):
    # Every dual point source of the shapes (n, m), whose gradient norm and
    # Newton slope the ascent reads, and the kernels it solves with.
    for m in range(1, canonical.MAX_ARITY + 1):
        assert sum_calls(canonical._point_source(n, m)) == []
    for columns in (False, True):
        assert sum_calls(smallmat._kernel_source(n, columns)) == []


@pytest.mark.parametrize("function", [
    canonical.QuadOperator.value,
    canonical.ConvexQuadV.value,
    canonical.CanonicalProblem.table.func,  # the constant term c of a canonical table
    canonical._u,
    canonical.conjugate_value,
    verify._complementary,
    smallmat._jacobi,  # the off-diagonal norm of the sweeps
], ids=lambda function: function.__qualname__)
def test_scalar_paths_call_no_sum(function):
    assert sum_calls(inspect.getsource(function)) == []


def test_detector_sees_a_sum_call():
    source = "def f(x):\n    total = 0.0 + x[0]\n    return sum(x) + math.fsum(x)\n"
    assert sum_calls(source) == [3]
    assert sum_calls("    y = sum\n") == []
