#!/usr/bin/env python3
"""Compare the command-line outputs of two canondual checkouts.

    python3 tools/compare_outputs.py PARENT CHANGE

Runs the same invocations in each checkout, each as
``python -m canondual ARGS`` in a fresh process with the checkout as the
working directory and its ``src`` on PYTHONPATH, two invocations at a
time, and prints every invocation whose exit code or stdout differs, with
a diff of the stdout.  Exits 1 when any differs, 0 when all are
byte-identical.

The invocations are ``solve --format json``, ``solve --format text``,
``solve --no-oracle --format json`` and ``verify`` on gp, thc, each
``problems/*.json`` of this checkout, the two n = 4 survey problems in
``tests/data`` (one ends ``BoundaryCritical`` after 30 iterations, the
other takes 47, so both are sensitive to rounding), each problem of the
planted pool and four more fresh planted draws on which the ascent fails
(``SURVEY_DRAWS``: two end ``BoundaryCritical`` after 61 and 92
iterations, two ``NotConverged`` at the 200-iteration cap, all pressed
against the boundary of the PSD region, so the most sensitive to the
Newton step's bits);
``solve --max-iter 2 --format json`` on gp, thc and each ``problems/*.json``,
which ends the ascent at its iteration cap; ``oracle --grid 201 --starts 16
--format json`` on gp, thc, each ``problems/*.json`` and the two survey
problems, whose n = 4 the oracle rejects; the same at ``--grid 1001`` on gp
and thc over the asymmetric box ``ASYMMETRIC_BOX``, and ``grid gp --n 301
--out /dev/stdout``, which reach more than one block of the lattice
(``kernels.lattice_blocks``: 65 rows of 1001 nodes a block, and 217 rows
of 301; a 201-node lattice is one block); and
``solve gp|thc --seed 0..19``: 243 invocations with the 3 shipped problems,
the 36 of the pool and the 4 draws.  The pool is written once, by
``perfbench/workloads.write_pool``, to a temporary directory that both
sides read by absolute path, and the draws beside it by
``perfbench/planted.generate``; ``problems/`` and ``tests/data`` are read
from each checkout.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Sequence, TextIO

ROOT = Path(__file__).resolve().parent.parent
SURVEY = ("tests/data/survey_4_3_0.json", "tests/data/survey_4_4_13.json")
# (n, m, i) of planted.generate(random.Random(f"survey:0.25:{n}:{m}:{i}"), n, m),
# the draws of ROADMAP item 2 that tests/data does not ship.
SURVEY_DRAWS = ((2, 4, 14), (3, 4, 4), (4, 4, 3), (4, 4, 15))
JOBS = 2  # invocations run at once; each is mostly waiting on its process
ASYMMETRIC_BOX = ("-2", "1", "-1.5", "2.5")  # LO HI of x, then of y

# (checkout, argv) -> (exit code, stdout)
Runner = Callable[[Path, Sequence[str]], tuple[int, str]]


def run_cli(checkout: Path, argv: Sequence[str]) -> tuple[int, str]:
    """One invocation in a fresh process of the checkout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-m", "canondual", *argv], cwd=checkout, env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout


def write_pool(directory: Path) -> list[Path]:
    """The planted pool's problem files and the survey draws', written by
    the benchmark's own generator."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import planted
    import reference
    import workloads

    workloads.write_pool(directory)
    draws = []
    for n, m, i in SURVEY_DRAWS:
        problem = planted.generate(random.Random(f"survey:0.25:{n}:{m}:{i}"), n, m)
        draws.append(directory / f"survey_{n}_{m}_{i}.json")
        draws[-1].write_text(json.dumps(reference.problem_to_json(problem)))
    return sorted(directory.glob("planted_*.json")) + draws


def invocations(pool: Sequence[Path], shipped: Sequence[str]) -> list[list[str]]:
    own = [["gp"], ["thc"]] + [["file", f"problems/{name}"] for name in shipped]
    found = []
    for problem in own + [["file", path] for path in SURVEY] + [["file", str(path)] for path in pool]:
        found += [
            ["solve", *problem, "--format", "json"],
            ["solve", *problem, "--format", "text"],
            ["solve", *problem, "--no-oracle", "--format", "json"],
            ["verify", *problem],
        ]
    found += [["solve", *problem, "--max-iter", "2", "--format", "json"] for problem in own]
    found += [["oracle", *problem, "--grid", "201", "--starts", "16", "--format", "json"]
              for problem in own + [["file", path] for path in SURVEY]]
    found += [["oracle", name, "--grid", "1001", "--starts", "16", "--box", *ASYMMETRIC_BOX, "--format", "json"]
              for name in ("gp", "thc")]
    found += [["grid", "gp", "--n", "301", "--out", "/dev/stdout"]]
    found += [["solve", name, "--seed", str(seed)] for name in ("gp", "thc") for seed in range(20)]
    return found


def compare(parent: Path, change: Path, argvs: Sequence[Sequence[str]], run: Runner = run_cli,
            out: TextIO | None = None) -> int:
    """Run every argv on both sides and print each that differs to out
    (stdout by default); returns the number that differ."""
    out = out or sys.stdout
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(lambda argv: (run(parent, argv), run(change, argv)), argvs))
    differing = 0
    for argv, ((code_a, stdout_a), (code_b, stdout_b)) in zip(argvs, results):
        if (code_a, stdout_a) == (code_b, stdout_b):
            continue
        differing += 1
        print(f"DIFFERS: canondual {' '.join(argv)}", file=out)
        if code_a != code_b:
            print(f"  exit code {code_a} -> {code_b}", file=out)
        diff = difflib.unified_diff(stdout_a.splitlines(), stdout_b.splitlines(), "parent", "change", lineterm="")
        for line in diff:
            print(f"  {line}", file=out)
    print(f"{differing} of {len(argvs)} invocations differ", file=out)
    return differing


def main(argv: Sequence[str] | None = None, run: Runner = run_cli) -> int:
    parser = argparse.ArgumentParser(description="Compare the outputs of two canondual checkouts.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    shipped = sorted(path.name for path in (ROOT / "problems").glob("*.json"))
    with tempfile.TemporaryDirectory() as directory:
        argvs = invocations(write_pool(Path(directory)), shipped)
        differing = compare(args.parent.resolve(), args.change.resolve(), argvs, run)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
