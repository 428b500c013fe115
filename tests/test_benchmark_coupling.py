"""The program names the benchmark in perfbench/ relies on.

``perfbench/tracing.py`` wraps program functions by name and the benchmark
worker records the active kernel, so deleting or renaming one of them
breaks the benchmark, not the program.  The tracing module is loaded from
its file and only read.
"""

import contextlib
import importlib
import importlib.util
import io
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


def test_smallmat_calls_of_the_benchmark_tests_work():
    # perfbench/tests/test_tracing.py solves SymMatrix(2, upper) x = Vector(...)
    # through the traced solve_sym, whose span _by_size names from the
    # matrix's .n, as it names eigen_sym's.  Tier-1 does not collect
    # perfbench/tests, so the same calls are made here.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_operation(1)
        x = smallmat.solve_sym(smallmat.SymMatrix(2, (2.0, 0.0, 3.0)), smallmat.Vector((2.0, 3.0)))
        tracer.end_operation()
    finally:
        tracer.uninstall()
    assert x.entries == (1.0, 1.0)
    assert tracer.calls["smallmat.solve_sym.n2"] == 1
    S = smallmat.SymMatrix(3, (1.0, 0.0, 0.0, 1.0, 0.0, 1.0))
    assert tracing._by_size("smallmat.eigen_sym")((S,), {}) == "smallmat.eigen_sym.n3"
    assert smallmat.eigen_sym(S) == (1.0, 1.0, 1.0)


def test_outputs_are_the_same_with_the_tracer_installed(pool_paths):
    # The benchmark checks each output of a traced round as it checks the
    # untraced ones, so the wrappers must leave every output as it was.
    pool = str(pool_paths[5])  # n = 2, m = 2: solve file runs the oracle
    argvs = [["solve", "gp", "--format", "json", "--seed", "3"], ["solve", "thc", "--format", "json", "--seed", "4"],
             ["verify", "gp"], ["verify", "thc"],
             ["solve", "file", pool, "--format", "json", "--seed", "5"], ["verify", "file", pool]]

    def outputs():
        found = []
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(argv)
            found.append((code, out.getvalue()))
        return found

    untraced = outputs()
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        tracer.begin_operation(1)
        traced = outputs()
        tracer.end_operation()
    finally:
        tracer.uninstall()
    # The three suites evaluate their dual samples and gradient checks in
    # passes over columns (canonical.dual_samples, dual_columns,
    # dual_gradient_columns), which are not wrapped, and the ascents work
    # on dual points: no command calls the wrapped scalar dual_value,
    # dual_gradient or _fd_gradient.
    assert tracer.calls["cli.run"] == len(argvs)
    for scalar in ("canonical.dual_value", "canonical.dual_gradient", "dual_solver.fd_gradient"):
        assert tracer.calls[scalar] == 0, scalar
    assert tracer.calls["verify.verify_gp"] == tracer.calls["verify.verify_thc"] == 1
    assert tracer.calls["verify.verify_problem"] == 1
    assert traced == untraced
    assert outputs() == untraced
