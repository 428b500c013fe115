"""The program names the benchmark in perfbench/ relies on.

``perfbench/tracing.py`` wraps program functions by name and the benchmark
worker records the active kernel, so deleting or renaming one of them
breaks the benchmark, not the program.  The tracing module is loaded from
its file and only read.
"""

import importlib
import importlib.util
from collections import defaultdict
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from canondual import canonical, cli, dual_solver, kernels, smallmat
from canondual.benchmarks import gp_canonical_g

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_tracing().TARGETS
    dotted = [attr for _, attr, _, _ in targets if "." in attr]
    assert "MultiPoly.eval" in dotted and "MultiPoly.float_evaluator" in dotted
    for module_name, attr, _, _ in targets:
        owner = importlib.import_module(f"canondual.{module_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = vars(owner)[cls_name]
        assert callable(vars(owner).get(attr)), f"{module_name}.{attr}"


def test_active_backend_exists():
    assert kernels.active_backend() == "numpy"


def test_solve_sym_is_one_function_in_three_namespaces():
    # The tracer replaces every binding of the same function object.
    assert canonical.solve_sym is smallmat.solve_sym is dual_solver.solve_sym


@pytest.mark.parametrize("problem, max_iter, ending", [
    (gp_canonical_g, 200, "converged"),
    (gp_canonical_g, 1, "capped"),
    (partial(cli.load_problem_file, ROOT / "problems" / "boundary_1d.json"), 200, "stalled"),
])
def test_ascent_hook_counts_iterations_at_every_ending(problem, max_iter, ending):
    # The hook reads result.iterations with a default of 0, so a renamed
    # field would zero the traced dual_solver.iterations without an error.
    pr = problem()
    at = partial(canonical.DualPoint, pr)
    result = dual_solver.maximize_concave(
        at, dual_solver.find_interior_start(at, pr.m), dual_solver.SolverConfig(max_iter=max_iter)
    )
    assert ("converged" if result.converged else "stalled" if result.stalled else "capped") == ending
    assert type(result.iterations) is int and result.iterations > 0
    tracer = SimpleNamespace(counters=defaultdict(float))
    load_tracing()._count_ascent(tracer, (at, None), {}, result, None)
    assert tracer.counters["dual_solver.iterations"] == result.iterations
