"""One workload in one process: a single client in a closed loop.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --pool DIR [--setup-only]

Run from the root of a canondual checkout with ``src`` on PYTHONPATH.  The
worker prints "ready" when its first operation has returned (the end of
set-up), then the times of the Python reference loop (speed.py) that it
ran before importing the program and after the first operation, and with
--setup-only exits there.  Otherwise it finishes the
warm-up, then runs whole rounds until T seconds have passed, and prints
one JSON line with every operation's latency, outcome and speed scale
(see speed.py), its peak RSS
and, with --trace 1, the per-layer totals.  With tracing on, each round
runs twice, untraced and then traced, so the two can be compared on the
same operations.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_op(cli, op) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(op.argv)
    elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    before = speed.python_loop()
    from canondual import cli, kernels

    make = lambda r: workloads.make_round(args.workload, args.seed, r, args.pool)  # noqa: E731
    first_round = make(0)
    code, stdout, _ = run_op(cli, first_round[0])
    print("ready", flush=True)
    print(f"gauge {before!r} {speed.python_loop()!r}", flush=True)
    if args.setup_only:
        return 0

    checker = workloads.Checker(args.pool)
    records = []  # (round, kind, seconds, outcome, speed scale) of every timed, untraced operation
    outcomes: dict[str, int] = {}  # outcome of every operation run, warm-up included

    def check(op, code, stdout) -> str:
        try:
            outcome = checker.check(op, code, stdout) or "ok"
        except (workloads.CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
            outcome = f"wrong: {' '.join(op.argv)}: {exc}"
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        return outcome

    warmup = workloads.WARMUP_OPS[args.workload] or len(first_round)
    check(first_round[0], code, stdout)
    for op in first_round[1:warmup]:
        check(op, *run_op(cli, op)[:2])

    gauge = speed.Gauge(workloads.GAUGE[args.workload])
    tracer = tracing.Tracer() if args.trace else None
    traced_s = untraced_s = root_ns = 0.0
    r = 1 if warmup == len(first_round) else 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        ops = first_round[warmup:] if r == 0 else make(r)
        r += 1
        gauge.restart()
        for op in ops:
            code, stdout, elapsed = run_op(cli, op)
            scale = gauge.scale()
            records.append((r, op.kind, elapsed, check(op, code, stdout), scale))
            untraced_s += elapsed * scale
        if tracer is None:
            continue
        tracer.install()
        gauge.restart()
        try:
            for op in ops:
                tracer.begin_operation(tracer.op_id + 1)
                code, stdout, elapsed = run_op(cli, op)
                root_ns += tracer.end_operation()
                traced_s += elapsed * gauge.scale()
                check(op, code, stdout)
        finally:
            tracer.uninstall()

    result = {
        "records": records,
        "outcomes": outcomes,
        "rounds": r,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": kernels.active_backend(),
    }
    if tracer is not None:
        result["trace"] = {
            "ops": tracer.op_id,
            "traced_ms": traced_s * 1e3,  # scaled to the reference speed
            "untraced_ms": untraced_s * 1e3,  # scaled, the same operations
            "spanned_ms": root_ns / 1e6,  # as measured, like the self times
            "calls": dict(tracer.calls),
            "self_ms": {k: v / 1e6 for k, v in tracer.self_ns.items()},
            "counters": dict(tracer.counters),
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
