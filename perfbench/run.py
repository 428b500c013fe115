#!/usr/bin/env python3
"""canondual benchmark: the paper's problems, planted canonical problems and
surface scans, measured end to end and per layer.

    python3 perfbench/run.py --workload paper|planted|scan --seed N \
        --seconds T --trace 0|1

Run from the root of a canondual source checkout; the program is imported
from ``src``.  Each workload runs in a worker process of its own (see
worker.py).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of BENCHMARK.json.
Lines before it give the machine, the operation counts and a breakdown by
operation kind.  Results are also written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 5  # set-up is timed on this many fresh processes, median reported
TIMEOUT_S = 170.0
OUT_DIR = Path(".perfbench")

# Span names whose calls and self times are reported per traced operation
# (see tracing.TARGETS); per_layer() adds the counters and ratios.
SELF_MS = [
    "polynomial.exact", "polynomial.float_evaluator", "polynomial.eval",
    *[f"smallmat.{f}.n{n}" for f in ("solve_sym", "eigen_sym") for n in range(1, 5)],
    "canonical.dual_value", "canonical.dual_gradient", "canonical.in_positive_domain",
    "canonical.primal_polynomial",
    "dual_solver.solve_canonical", "dual_solver.find_interior_start", "dual_solver.maximize_concave",
    "benchmarks.gp_solve", "benchmarks.thc_solve", "benchmarks.gp_solve_h",
    "benchmarks.thc_identities", "benchmarks.gp_decompose", "benchmarks.thc_dual",
    "oracle.multistart", "oracle.derivative_roots", "oracle.univariate_global", "oracle.grid_scan",
    "kernels.eval_many",
    "verify.verify_gp", "verify.verify_thc", "verify.verify_problem",
    "cli.run", "cli.load_problem_file",
]
CALLS = [
    "polynomial.float_evaluator", "polynomial.eval",
    *[f"smallmat.{f}.n{n}" for f in ("solve_sym", "eigen_sym") for n in range(1, 5)],
    "canonical.dual_value", "canonical.dual_gradient", "canonical.in_positive_domain",
    "benchmarks.thc_dual", "oracle.multistart", "oracle.derivative_roots", "kernels.eval_many",
]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [(f"{n}.calls", "count", "lower") for n in CALLS]
    spec += [(f"{n}.self_ms", "ms", "lower") for n in SELF_MS]
    spec += [
        ("dual_solver.iterations", "count", "lower"),
        ("dual_solver.gradient_evals_per_iteration", "ratio", "lower"),
        ("dual_solver.value_evals_per_iteration", "ratio", "lower"),
        ("oracle.multistart.evaluations", "count", "lower"),
        ("oracle.multistart.useful_start_ratio", "ratio", "higher"),
        ("kernels.eval_many.points", "count", "lower"),
        ("kernels.eval_many.term_points", "count", "lower"),
        ("kernels.eval_many.ns_per_term_point", "ns", "lower"),
        ("kernels.eval_many.bytes_computed", "B", "lower"),
        ("trace.untraced_op_ms", "ms", "lower"),
        ("trace.traced_op_ms", "ms", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
        ("trace.reported_self_share", "ratio", "higher"),
        ("trace.remainder_ms", "ms", "lower"),
    ]
    return sorted(spec)


END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_ms", "ms")]


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------

def _cache_size(level: int) -> int | None:
    """Cache size in bytes as the C library reports it, or None."""
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=5, check=True).stdout.strip()
        return int(out) if out else None
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def machine_facts(backend: str | None) -> dict:
    import numpy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": has_numba,
        "kernel_backend": backend,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "L2_bytes": _cache_size(2),
        "L3_bytes": _cache_size(3),
    }


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

def _worker_cmd(args, pool: Path, setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pool", str(pool)]
    return cmd + (["--setup-only"] if setup_only else [])


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one client, one thread
    return env


def launch(args, pool: Path, setup_only: bool, deadline: float) -> tuple[float, float, str]:
    """Start a worker; return its set-up time (from launch to its "ready"
    line, less the reference loop it ran first), the speed scale over that
    time, and the rest of its standard output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_worker_cmd(args, pool, setup_only), stdout=subprocess.PIPE,
                            env=_worker_env(), text=True)
    try:
        waiting, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if waiting else ""
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not get ready: {line!r}")
        _, before, after = proc.stdout.readline().split()
        before, after = float(before), float(after)
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return ready - before, speed.LOOPS["python"][1] / (0.5 * (before + after)), rest


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """End-to-end metrics from the worker's records and the set-up launches,
    (seconds, speed scale) each, and one summary line per operation kind.

    op_ms is the geometric mean over the workload's operation kinds of the
    median over rounds of the geometric mean of the kind's scaled
    latencies in the round.  Every round holds the same kinds (and, in
    planted, the same problems), so each round gives an estimate of the
    same quantity; the geometric mean weighs a fast and a slow problem
    alike, where a median over a round would jump between neighbours."""
    raw: dict[str, list[float]] = {}
    per_round: dict[str, dict[int, list[float]]] = {}
    for r, kind, seconds, outcome, scale in result["records"]:
        if outcome == "ok":
            raw.setdefault(kind, []).append(seconds * 1e3)
            per_round.setdefault(kind, {}).setdefault(r, []).append(seconds * scale * 1e3)
    lines, kind_ms = [], []
    for kind in sorted(raw):
        rounds = [geomean(v) for v in per_round[kind].values()]
        kind_ms.append(tracing.median(rounds))
        line = (f"  {kind:<16} n={len(raw[kind]):<5} median {tracing.median(raw[kind]):10.3f} ms"
                f"  scaled, median of {len(rounds)} round geomeans {kind_ms[-1]:10.3f} ms")
        if len(raw[kind]) >= 200:
            line += f"  p95 {tracing.percentile(raw[kind], 95):.3f} ms"
        lines.append(line)
    op_ms = geomean(kind_ms)
    metrics = {"setup_s": tracing.median([s * f for s, f in setups]),
               "peak_rss_mb": result["peak_rss_mb"], "op_ms": op_ms}
    return metrics, lines


def per_layer(trace: dict) -> dict:
    ops = trace["ops"]
    calls, self_ms, counters = trace["calls"], trace["self_ms"], trace["counters"]
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = calls.get(name, 0) / ops
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = self_ms.get(name, 0.0) / ops
    iterations = counters.get("dual_solver.iterations", 0)
    value_trials = counters.get("dual_solver.value_evals", 0) - counters.get("dual_solver.ascents", 0)
    starts = counters.get("oracle.multistart.starts", 0)
    term_points = counters.get("kernels.eval_many.term_points", 0)
    metrics.update({
        "dual_solver.iterations": iterations / ops,
        "dual_solver.gradient_evals_per_iteration":
            counters.get("dual_solver.gradient_evals", 0) / iterations if iterations else 0.0,
        "dual_solver.value_evals_per_iteration": value_trials / iterations if iterations else 0.0,
        "oracle.multistart.evaluations": counters.get("oracle.multistart.evaluations", 0) / ops,
        "oracle.multistart.useful_start_ratio":
            (starts - counters.get("oracle.multistart.failed_starts", 0)) / starts if starts else 0.0,
        "kernels.eval_many.points": counters.get("kernels.eval_many.points", 0) / ops,
        "kernels.eval_many.term_points": term_points / ops,
        "kernels.eval_many.ns_per_term_point":
            self_ms.get("kernels.eval_many", 0.0) * 1e6 / term_points if term_points else 0.0,
        "kernels.eval_many.bytes_computed": counters.get("kernels.eval_many.bytes_computed", 0) / ops,
    })
    reported = sum(self_ms.get(name, 0.0) for name in SELF_MS)
    metrics.update({
        "trace.untraced_op_ms": trace["untraced_ms"] / ops,
        "trace.traced_op_ms": trace["traced_ms"] / ops,
        "trace.overhead_ms": (trace["traced_ms"] - trace["untraced_ms"]) / ops,
        "trace.reported_self_share": reported / trace["spanned_ms"],
        "trace.remainder_ms": (trace["spanned_ms"] - reported) / ops,
    })
    return metrics


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/canondual/cli.py").is_file():
        print("error: run from the root of a canondual checkout (src/canondual not found)", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIMEOUT_S
    work = OUT_DIR / f"run-{os.getpid()}"
    try:
        workloads.write_pool(work / "pool")
        setups = []
        for i in range(SETUP_LAUNCHES):  # the last launch measures the workload
            ready, scale, out = launch(args, work / "pool", i < SETUP_LAUNCHES - 1, deadline)
            setups.append((ready, scale))
        result = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = result["outcomes"]
    attempted = sum(outcomes.values())
    faults = {k: v for k, v in sorted(outcomes.items()) if k in ("F1", "F2")}
    wrong = sorted(k for k in outcomes if k.startswith("wrong"))
    failed = sum(faults.values()) + sum(outcomes[k] for k in wrong)
    metrics, kind_lines = end_to_end(result, setups)
    facts = machine_facts(result["backend"])

    print(f"machine: {json.dumps(facts)}")
    print(f"workload {args.workload}, seed {args.seed}, {result['rounds']} rounds, "
          f"{attempted} operations attempted, {failed} failed {json.dumps(faults)}")
    for line in wrong[:20]:
        print(f"  WRONG {line}")
    if len(wrong) > 20:
        print(f"  ... and {len(wrong) - 20} more wrong outputs")
    print("latency of successful, untraced operations by kind, as measured and scaled to the reference speed:")
    for line in kind_lines:
        print(line)
    print("set-up launches, s (scaled): " + " ".join(f"{s:.4f} ({s * f:.4f})" for s, f in setups))

    if args.trace:
        layer = per_layer(result["trace"])
        units = {name: unit for name, unit, _ in per_layer_spec()}
        reported = {name: {"value": layer[name], "unit": units[name]} for name in sorted(layer)}
    else:
        units = dict(END_TO_END)
        reported = {name: {"value": metrics[name], "unit": units[name]} for name, _ in END_TO_END}
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")

    summary = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": reported}
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / "results" / f"{stem}.json").write_text(json.dumps(
        {"machine": facts, "args": vars(args), "summary": summary, "setups_s": setups,
         "faults": faults, "wrong": wrong, "kinds": kind_lines, "trace": result.get("trace")}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
