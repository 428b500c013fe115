#!/usr/bin/env python3
"""Write a benchmark record from the results of a parent and a change checkout.

    python3 tools/bench_record.py PARENT CHANGE --change TEXT [--note TEXT ...] \
        [--out BENCH_<n>.json]

PARENT and CHANGE are the two checkouts that ``perfbench/run.py`` ran in.
Each run leaves ``.perfbench/results/<workload>-seed<S>-trace<T>.json``
there; the untraced runs (trace0) of one workload and seed, one on each
side, are one pair.  The record has the format that ``tools/bench_diff.py``
describes: per workload the pairs and seeds, and per end-to-end metric the
parent's and the change's median and quartiles (linear interpolation, as
``perfbench/tracing.percentile``) and the pairs the change won, with the
better direction read from ``BENCHMARK.json``.  Besides those it gives
``correct``, ``failed`` as failed/attempted operations summed over each
side's runs, and ``kinds_scaled_ms``, each operation kind's scaled latency,
the median over each side's runs.  Traced runs (trace1) of the seeds
traced on both sides go under ``traced_per_operation``: per workload and
side the median over those seeds of every per-layer metric that is
nonzero on either side.

The record is written to --out, or printed.  Exits 1, writing nothing,
when the runs' machine facts differ (each differing fact is named), when a
workload's seeds are not the same on both sides, when runs differ in
length, or when there is no pair.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL = "parent and change alternating, parent first in odd pairs; each run in its own checkout"
_RESULT = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")
_KIND = re.compile(r"^\s*(?P<kind>\S.*?)\s+n=\d+\s.*round geomeans\s+(?P<ms>\S+) ms")

_spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)
percentile = _tracing.percentile


class RecordError(Exception):
    """The two sides' results cannot make one record."""


def load_results(checkout: Path) -> dict[tuple[str, int, int], dict]:
    """Every result file of a checkout by (workload, seed, trace)."""
    found = {}
    directory = checkout / ".perfbench" / "results"
    for path in sorted(directory.glob("*.json")) if directory.is_dir() else []:
        match = _RESULT.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]), int(match["trace"]))
            found[key] = json.loads(path.read_text())
    return found


def machine_of(parent: dict, change: dict) -> dict:
    """The machine facts every run shares; RecordError naming each fact
    that differs between any two runs."""
    runs = [*parent.values(), *change.values()]
    facts = runs[0]["machine"]
    differing = sorted(
        {key for run in runs for key in facts.keys() | run["machine"].keys()
         if run["machine"].get(key) != facts.get(key)}
    )
    if differing:
        values = {key: sorted({repr(run["machine"].get(key)) for run in runs}) for key in differing}
        raise RecordError("machine facts differ: " + "; ".join(
            f"{key} {' vs '.join(values[key])}" for key in differing))
    return facts


def quartiles(values: list[float]) -> dict:
    return {"median": percentile(values, 50.0), "q1": percentile(values, 25.0),
            "q3": percentile(values, 75.0)}


def kinds_scaled_ms(runs: list[dict]) -> dict[str, float]:
    """Median over runs of each operation kind's scaled latency."""
    by_kind: dict[str, list[float]] = {}
    for run in runs:
        for line in run["kinds"]:
            match = _KIND.match(line)
            if match:
                by_kind.setdefault(match["kind"], []).append(float(match["ms"]))
    return {kind: round(percentile(ms, 50.0), 3) for kind, ms in sorted(by_kind.items())}


def workload_entry(parent_runs: list[dict], change_runs: list[dict], seeds: list[int],
                   better: dict[str, str]) -> dict:
    metrics = {}
    for name, spec in parent_runs[0]["summary"]["metrics"].items():
        before = [run["summary"]["metrics"][name]["value"] for run in parent_runs]
        after = [run["summary"]["metrics"][name]["value"] for run in change_runs]
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        metrics[name] = {
            "unit": spec["unit"], "better": better.get(name, "lower"),
            "parent": quartiles(before), "change": quartiles(after),
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(after, before)),
        }
    kinds_before, kinds_after = kinds_scaled_ms(parent_runs), kinds_scaled_ms(change_runs)

    def failed(runs):
        return (f"{sum(run['summary']['failed'] for run in runs)}"
                f"/{sum(run['summary']['attempted'] for run in runs)}")

    return {
        "pairs": len(seeds), "seeds": seeds, "metrics": metrics,
        "correct": all(run["summary"]["correct"] for run in (*parent_runs, *change_runs)),
        "failed": {"parent": failed(parent_runs), "change": failed(change_runs)},
        "kinds_scaled_ms": {kind: {"parent": kinds_before.get(kind), "change": kinds_after.get(kind)}
                            for kind in sorted(kinds_before.keys() | kinds_after.keys())},
    }


def traced(parent: dict, change: dict) -> dict:
    """Per-layer metrics of the traced runs of each workload, the median
    over the seeds traced on both sides."""
    keys = sorted(k for k in parent.keys() & change.keys() if k[2] == 1)
    if not keys:
        return {}
    seconds = parent[keys[0]]["args"]["seconds"]
    out: dict = {"command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}"
                            " --trace 1, median over the seeds"}
    for workload in sorted({k[0] for k in keys}):
        runs = {side: [results[k]["summary"]["metrics"] for k in keys if k[0] == workload]
                for side, results in (("parent", parent), ("change", change))}
        medians = {side: {name: percentile([m[name]["value"] for m in metrics], 50.0) for name in metrics[0]}
                   for side, metrics in runs.items()}
        names = [n for n in sorted(medians["parent"]) if medians["parent"][n] or medians["change"].get(n)]
        out[workload] = {"seeds": [k[1] for k in keys if k[0] == workload],
                         **{side: {n: round(values.get(n, 0.0), 4) for n in names}
                            for side, values in medians.items()}}
    return out


def build_record(parent: dict, change: dict, change_text: str, notes: list[str],
                 better: dict[str, str]) -> dict:
    """The record of two checkouts' results (see the module docstring)."""
    untraced = {side: {k: v for k, v in runs.items() if k[2] == 0}
                for side, runs in (("parent", parent), ("change", change))}
    if not untraced["parent"] or not untraced["change"]:
        raise RecordError("no untraced results on one side")
    facts = machine_of(parent, change)
    seconds = {run["args"]["seconds"] for side in untraced.values() for run in side.values()}
    if len(seconds) != 1:
        raise RecordError(f"runs differ in length: {sorted(seconds)} s")
    workloads = {}
    for workload in sorted({k[0] for side in untraced.values() for k in side}):
        seeds = {side: sorted(k[1] for k in runs if k[0] == workload) for side, runs in untraced.items()}
        if seeds["parent"] != seeds["change"]:
            raise RecordError(f"{workload}: seeds differ, parent {seeds['parent']}, change {seeds['change']}")
        keys = [(workload, s, 0) for s in seeds["parent"]]
        workloads[workload] = workload_entry([untraced["parent"][k] for k in keys],
                                             [untraced["change"][k] for k in keys],
                                             seeds["parent"], better)
    record = {
        "change": change_text,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds.pop():g} --trace 0",
        "protocol": PROTOCOL,
        "machine": facts,
        "workloads": workloads,
    }
    traced_runs = traced(parent, change)
    if traced_runs:
        record["traced_per_operation"] = traced_runs
    record["notes"] = notes
    return record


def declared_better(path: Path = ROOT / "BENCHMARK.json") -> dict[str, str]:
    return {m["name"]: m["better"] for m in json.loads(path.read_text())["end_to_end"]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout the parent's runs were made in")
    parser.add_argument("change", type=Path, help="checkout the change's runs were made in")
    parser.add_argument("--change", dest="change_text", required=True, help="what the change does")
    parser.add_argument("--note", action="append", default=[], help="a note for the record")
    parser.add_argument("--out", type=Path, help="record to write (default: print it)")
    args = parser.parse_args(argv)
    try:
        record = build_record(load_results(args.parent), load_results(args.change),
                              args.change_text, args.note, declared_better())
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
