"""The program names the benchmark in perfbench/ relies on.

``perfbench/tracing.py`` wraps program functions by name and the benchmark
worker records the active kernel, so deleting or renaming one of them
breaks the benchmark, not the program.  The tracing module is loaded from
its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

from canondual import canonical, dual_solver, kernels, smallmat

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
