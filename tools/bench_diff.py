#!/usr/bin/env python3
"""Print a committed benchmark record against the previous one.

    python3 tools/bench_diff.py [BENCH_<n>.json]

A record, BENCH_<n>.json at the repository root, holds the alternating
parent/change runs of ``perfbench/run.py`` that one change was measured
with:

    {"machine": {...}, "command": "...",
     "workloads": {"<workload>": {
         "pairs": 10, "seeds": [...],
         "metrics": {"<metric>": {
             "unit": "ms", "better": "lower",
             "parent": {"median": m, "q1": a, "q3": b},
             "change": {"median": m, "q1": a, "q3": b},
             "change_wins": 10}}}}}

Without an argument the record with the highest n is printed.  Each line is
one workload and end-to-end metric: the parent and change medians with the
change's relative move, the pairs the change won and the parent's quartile
distance (the spread a gain must exceed).  When a record with a lower n
exists, the line also gives the previous record's change median and the
move from it to this record's change median, which is the trajectory of
the metric over the committed records.  Exits 1 when there is no record.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NAME = re.compile(r"BENCH_(\d+)\.json$")


def records(directory: Path) -> list[tuple[int, Path]]:
    """(n, path) of every BENCH_<n>.json in directory, by increasing n."""
    found = []
    for path in directory.iterdir():
        match = _NAME.fullmatch(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def previous_record(path: Path) -> Path | None:
    """The record with the highest n below path's, in path's directory."""
    n = int(_NAME.fullmatch(path.name).group(1))
    lower = [p for k, p in records(path.parent) if k < n]
    return lower[-1] if lower else None


def _move(old: float, new: float) -> str:
    return f"{100.0 * (new - old) / old:+.1f} %" if old else "n/a"


def diff_lines(current: dict, previous: dict | None = None) -> list[str]:
    """One line per workload and metric of current, against previous."""
    lines = []
    for workload, entry in sorted(current["workloads"].items()):
        lines.append(f"{workload}: {entry['pairs']} pairs, seeds {entry['seeds']}")
        before = (previous or {}).get("workloads", {}).get(workload, {}).get("metrics", {})
        for metric, m in sorted(entry["metrics"].items()):
            parent, change = m["parent"], m["change"]
            line = (
                f"  {metric:12s} parent {parent['median']:.4g} -> change {change['median']:.4g} {m['unit']}"
                f" ({_move(parent['median'], change['median'])}, better: {m['better']},"
                f" change won {m['change_wins']}/{entry['pairs']},"
                f" parent quartile distance {parent['q3'] - parent['q1']:.3g})"
            )
            if previous is not None:
                if metric in before:
                    last = before[metric]["change"]["median"]
                    line += f"; previous record {last:.4g} ({_move(last, change['median'])})"
                else:
                    line += "; not in the previous record"
            lines.append(line)
    return lines


def main(argv: list[str]) -> int:
    if argv:
        path = Path(argv[0])
    else:
        found = records(ROOT)
        if not found:
            print(f"no BENCH_<n>.json in {ROOT}", file=sys.stderr)
            return 1
        path = found[-1][1]
    current = json.loads(path.read_text())
    before = previous_record(path)
    previous = json.loads(before.read_text()) if before else None
    print(f"{path.name}" + (f" against {before.name}" if before else " (no previous record)"))
    for line in diff_lines(current, previous):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
