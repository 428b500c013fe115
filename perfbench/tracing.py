"""In-memory spans around the program's layers, and the statistics on them.

``Tracer.install`` replaces each traced function by a wrapper in every
namespace of the loaded canondual modules that holds it (``solve_sym`` is
bound in ``smallmat``, ``canonical`` and ``dual_solver``), and each traced
MultiPoly method under every class attribute that names it (``__add__``
is also ``__radd__``).  A span is the list [name, start_ns, end_ns,
parent index, operation id]; spans of one operation are turned into
per-name calls and self times by ``Tracer.end_operation`` and dropped, so
memory stays bounded however long the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, OP = range(5)


def _by_size(base: str):
    return lambda args, kwargs: f"{base}.n{args[0].n}"


def _count_multistart(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.counters["oracle.multistart.evaluations"] += result.n_evaluations
        tracer.counters["oracle.multistart.failed_starts"] += result.failed_starts
    starts = kwargs["k_starts"] if "k_starts" in kwargs else args[2]
    tracer.counters["oracle.multistart.starts"] += starts


def _count_ascent(tracer, args, kwargs, result, error):
    source = result if result is not None else error
    tracer.counters["dual_solver.iterations"] += getattr(source, "iterations", 0)


def _count_kernel(tracer, args, kwargs, result, error):
    coeffs, _, pts = args
    if result is None:
        return
    tracer.counters["kernels.eval_many.points"] += pts.shape[0]
    tracer.counters["kernels.eval_many.term_points"] += coeffs.shape[0] * pts.shape[0]
    tracer.counters["kernels.eval_many.bytes_computed"] += pts.nbytes + result.nbytes


_EXACT_METHODS = ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__pow__", "scale",
                  "__eq__", "partial_derivative", "gradient", "substitute_linear")

# (module, attribute, span name or namer, result hook).  A dotted attribute
# names a method of a class in the module.
TARGETS = [
    *[("polynomial", f"MultiPoly.{m}", "polynomial.exact", None) for m in _EXACT_METHODS],
    ("polynomial", "MultiPoly.float_evaluator", "polynomial.float_evaluator", None),
    ("polynomial", "MultiPoly.eval", "polynomial.eval", None),
    ("smallmat", "solve_sym", _by_size("smallmat.solve_sym"), None),
    ("smallmat", "eigen_sym", _by_size("smallmat.eigen_sym"), None),
    ("canonical", "dual_value", "canonical.dual_value", None),
    ("canonical", "dual_gradient", "canonical.dual_gradient", None),
    ("canonical", "in_positive_domain", "canonical.in_positive_domain", None),
    ("canonical", "primal_polynomial", "canonical.primal_polynomial", None),
    ("dual_solver", "solve_canonical", "dual_solver.solve_canonical", None),
    ("dual_solver", "find_interior_start", "dual_solver.find_interior_start", None),
    ("dual_solver", "maximize_concave", "dual_solver.maximize_concave", _count_ascent),
    ("dual_solver", "_fd_gradient", "dual_solver.fd_gradient", None),
    ("dual_solver", "_fd_hessian", "dual_solver.fd_hessian", None),
    ("benchmarks", "gp_solve", "benchmarks.gp_solve", None),
    ("benchmarks", "thc_solve", "benchmarks.thc_solve", None),
    ("benchmarks", "gp_solve_h", "benchmarks.gp_solve_h", None),
    ("benchmarks", "gp_decompose", "benchmarks.gp_decompose", None),
    ("benchmarks", "thc_level1_identity", "benchmarks.thc_identities", None),
    ("benchmarks", "thc_level2_identity", "benchmarks.thc_identities", None),
    ("benchmarks", "thc_dual", "benchmarks.thc_dual", None),
    ("oracle", "multistart", "oracle.multistart", _count_multistart),
    ("oracle", "derivative_roots", "oracle.derivative_roots", None),
    ("oracle", "univariate_global", "oracle.univariate_global", None),
    ("oracle", "grid_scan", "oracle.grid_scan", None),
    ("kernels", "eval_many", "kernels.eval_many", _count_kernel),
    ("verify", "verify_gp", "verify.verify_gp", None),
    ("verify", "verify_thc", "verify.verify_thc", None),
    ("verify", "verify_problem", "verify.verify_problem", None),
    ("cli", "run", "cli.run", None),
    ("cli", "load_problem_file", "cli.load_problem_file", None),
]


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval and this is the time spent in the span itself.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) with linear interpolation between
    order statistics, as numpy's default method."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


class Tracer:
    """Records spans for one operation at a time and keeps per-name totals."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def call(self, name, fn, args, kwargs, hook):
        if not isinstance(name, str):
            name = name(args, kwargs)
        span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        result = error = None
        span[START] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            span[END] = time.perf_counter_ns()
            self.stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, error)

    def begin_operation(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans = [["op", 0, 0, -1, op_id]]
        self.stack = [0]
        self.spans[0][START] = time.perf_counter_ns()

    def end_operation(self) -> int:
        """Close the operation's root span, fold its spans into the totals
        and return its duration in ns."""
        spans = self.spans
        spans[0][END] = time.perf_counter_ns()
        self.stack = []
        for span, own in zip(spans, self_times(spans)):
            self.calls[span[NAME]] += 1
            self.self_ns[span[NAME]] += own
        for i, span in enumerate(spans):
            name = span[NAME]
            parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
            if name == "canonical.dual_gradient" and _has_ancestor(spans, i, "dual_solver.maximize_concave"):
                self.counters["dual_solver.gradient_evals"] += 1
            elif name == "benchmarks.thc_dual" and parent == "dual_solver.fd_gradient" \
                    and _has_ancestor(spans, i, "dual_solver.maximize_concave"):
                self.counters["dual_solver.gradient_evals"] += 1
            elif name in ("canonical.dual_value", "benchmarks.thc_dual") \
                    and parent == "dual_solver.maximize_concave":
                self.counters["dual_solver.value_evals"] += 1
            elif name == "dual_solver.maximize_concave":
                self.counters["dual_solver.ascents"] += 1
        self.spans = []
        return spans[0][END] - spans[0][START]

    # -- installation -----------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, hook)

        return traced

    def install(self) -> None:
        owners = {name: importlib.import_module(f"canondual.{name}") for name, *_ in TARGETS}
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "canondual" or key.startswith("canondual.")]
        for module_name, attr, name, hook in TARGETS:
            owner, namespaces = owners[module_name], modules
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                namespaces = [owner]
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, hook)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._saved.append((namespace, key, original))
                        setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []
