"""Span statistics on synthetic spans, and the wrappers' installation."""

import numpy as np
import pytest

import tracing


def _span(name, start, end, parent, op=1):
    return [name, start, end, parent, op]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("op", 0, 100, -1),
        _span("a", 10, 60, 0),
        _span("b", 15, 25, 1),
        _span("c", 30, 50, 1),
        _span("d", 35, 45, 3),
        _span("e", 70, 90, 0),
    ]
    assert tracing.self_times(spans) == [30, 20, 10, 10, 10, 20]
    assert sum(tracing.self_times(spans)) == 100


def test_tracer_folds_nested_spans_into_per_name_totals():
    tracer = tracing.Tracer()
    tracer.begin_operation(1)

    def leaf():
        return 1

    def middle():
        return tracer.call("leaf", leaf, (), {}, None) + tracer.call("leaf", leaf, (), {}, None)

    assert tracer.call("middle", middle, (), {}, None) == 2
    total = tracer.end_operation()
    assert tracer.calls == {"op": 1, "middle": 1, "leaf": 2}
    assert sum(tracer.self_ns.values()) == total
    assert all(v >= 0 for v in tracer.self_ns.values())


def test_a_span_closes_when_its_function_raises():
    tracer = tracing.Tracer()
    tracer.begin_operation(1)

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("boom", boom, (), {}, None)
    assert tracer.stack == [0]
    tracer.end_operation()
    assert tracer.calls["boom"] == 1


@pytest.mark.parametrize("values", [[5.0], [3.0, 1.0], list(range(7)), [2.5, 9.0, 1.0, 4.0, 4.0, 7.5]])
@pytest.mark.parametrize("q", [0, 25, 50, 95, 100])
def test_percentile_matches_numpy(values, q):
    assert tracing.percentile(values, q) == pytest.approx(float(np.percentile(values, q)))


def test_median_of_even_count_interpolates():
    assert tracing.median([1.0, 2.0, 10.0, 20.0]) == 6.0


def test_install_wraps_every_namespace_and_uninstall_restores():
    from canondual import canonical, dual_solver, polynomial, smallmat

    originals = (smallmat.solve_sym, canonical.solve_sym, dual_solver.solve_sym,
                 polynomial.MultiPoly.__add__, polynomial.MultiPoly.__radd__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert smallmat.solve_sym is not originals[0]
        assert canonical.solve_sym is smallmat.solve_sym is dual_solver.solve_sym
        assert polynomial.MultiPoly.__add__ is polynomial.MultiPoly.__radd__ is not originals[3]
        tracer.begin_operation(1)
        smallmat.solve_sym(smallmat.SymMatrix(2, (2.0, 0.0, 3.0)), smallmat.Vector((2.0, 3.0)))
        x = polynomial.MultiPoly.variable(2, 0)
        assert 1 + x == x + 1
        tracer.end_operation()
    finally:
        tracer.uninstall()
    assert (smallmat.solve_sym, canonical.solve_sym, dual_solver.solve_sym,
            polynomial.MultiPoly.__add__, polynomial.MultiPoly.__radd__) == originals
    assert tracer.calls["smallmat.solve_sym.n2"] == 1
    assert tracer.calls["polynomial.exact"] >= 3


def test_ascent_counters_follow_span_ancestry():
    tracer = tracing.Tracer()
    tracer.begin_operation(1)
    tracer.spans += [
        _span("dual_solver.maximize_concave", 1, 90, 0),       # 1
        _span("canonical.dual_value", 2, 3, 1),                # 2: initial value
        _span("canonical.dual_gradient", 3, 4, 1),             # 3: gradient
        _span("dual_solver.fd_hessian", 4, 20, 1),             # 4
        _span("canonical.dual_gradient", 5, 6, 4),             # 5: Hessian column
        _span("canonical.dual_value", 21, 22, 1),              # 6: line-search trial
        _span("canonical.dual_value", 23, 24, 1),              # 7: line-search trial
        _span("dual_solver.fd_gradient", 25, 30, 1),           # 8
        _span("benchmarks.thc_dual", 26, 27, 8),               # 9: finite-difference gradient
        _span("canonical.dual_value", 95, 96, 0),              # 10: outside any ascent
        _span("canonical.dual_gradient", 96, 97, 0),           # 11: outside any ascent
    ]
    tracer.end_operation()
    assert tracer.counters["dual_solver.ascents"] == 1
    assert tracer.counters["dual_solver.gradient_evals"] == 3
    assert tracer.counters["dual_solver.value_evals"] == 3
