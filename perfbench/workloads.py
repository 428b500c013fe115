"""The three workloads: their operations, made from the seed, and the checks
on each operation's output.

An operation is one ``canondual`` command line, run in-process through
``canondual.cli.run``.  A workload is an endless sequence of rounds; round
r is a pure function of (seed, r), and every round of a workload holds the
same operation kinds, so a run of whole rounds has the same mix whatever
its length.  ``check`` returns None for a correct output, a fault tag
("F1", "F2") for a known fault of the program, and raises ``CheckFailed``
for anything else.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import planted
import reference as ref

WORKLOADS = ("paper", "planted", "scan")

ORACLE_STARTS_SCAN = 16
SCAN_LEVELS = (201, 401, 601, 1001)  # lattice nodes per axis
POOL_SIZE = 36  # planted instances, 3 for each (n, m) in 1..4 x 1..3
POOL_SEED = "planted-pool"
SHIPPED = (
    # (file, expected certificate, x*, P(x*)).  gp_g is GP's factor
    # g(t) = 30 + t^2 (3t^2 - 16t + 18), minimum 3 at t = 3; convex_1d is
    # x^2 - 2x, minimum -1 at x = 1; boundary_1d is the double well
    # x^4 - 2x^2, whose two global minima put the dual optimum on the
    # boundary of its domain.
    ("problems/gp_g.json", "GlobalMinimumCertified", (Fraction(3),), Fraction(3)),
    ("problems/convex_1d.json", "GlobalMinimumCertified", (Fraction(1),), Fraction(-1)),
    ("problems/boundary_1d.json", "BoundaryCritical", None, None),
)
# The reference loop (speed.py) whose kind of work each workload does most.
GAUGE = {"paper": "python", "planted": "python", "scan": "numpy"}
# How many operations of round 0 run untimed before measuring (None: all).
# The paper and planted rounds fill the program's caches; scan operations
# share none, so only the first, which ends set-up, is left out.
WARMUP_OPS = {"paper": None, "planted": None, "scan": 1}


class CheckFailed(Exception):
    """An output that is wrong and not explained by a known fault."""


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: str
    data: dict = field(default_factory=dict)


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def paper_round(seed: int, r: int) -> list[Op]:
    rng = random.Random(f"paper:{seed}:{r}")
    return [
        Op("solve gp", ["solve", "gp", "--format", "json", "--seed", _seed(rng)], "paper_solve",
           {"problem": "gp"}),
        Op("solve thc", ["solve", "thc", "--format", "json", "--seed", _seed(rng)], "paper_solve",
           {"problem": "thc"}),
        Op("verify gp", ["verify", "gp"], "paper_verify", {"problem": "gp"}),
        Op("verify thc", ["verify", "thc"], "paper_verify", {"problem": "thc"}),
    ]


def pool_problems() -> list[dict]:
    """The planted instances, the same for every seed."""
    return [planted.generate(random.Random(f"{POOL_SEED}:{i}"), 1 + i % 4, 1 + (i // 4) % 3)
            for i in range(POOL_SIZE)]


def write_pool(directory: Path) -> None:
    """Problem files for the planted workload, plus the planted answers."""
    directory.mkdir(parents=True, exist_ok=True)
    answers = []
    for i, problem in enumerate(pool_problems()):
        (directory / f"planted_{i:02d}.json").write_text(json.dumps(ref.problem_to_json(problem)))
        answers.append({"x_star": [str(x) for x in problem["x_star"]], "value": str(problem["value"])})
    (directory / "answers.json").write_text(json.dumps(answers))


def planted_round(seed: int, r: int, pool_dir: Path) -> list[Op]:
    rng = random.Random(f"planted:{seed}:{r}")
    files = [(path, {"shipped": path}) for path, *_ in SHIPPED]
    order = list(range(POOL_SIZE))
    rng.shuffle(order)
    files += [(str(pool_dir / f"planted_{i:02d}.json"), {"pool": i}) for i in order]
    ops = []
    for path, data in files:
        ops.append(Op("solve file", ["solve", "file", path, "--format", "json", "--seed", _seed(rng)],
                      "planted_solve", data))
        ops.append(Op("verify file", ["verify", "file", path], "planted_verify", data))
    return ops


def scan_round(seed: int, r: int) -> list[Op]:
    """GP and THC scans at every lattice size, each on its own random box.

    The boxes are centred on the origin, as the default boxes are, so half
    of every lattice's coordinates are negative: the numpy kernel's cost per
    point depends on that share (``x ** e`` takes a slow path for x < 0).
    """
    rng = random.Random(f"scan:{seed}:{r}")
    ops = []
    for n in SCAN_LEVELS:
        for name, box in (("gp", ref.GP_BOX), ("thc", ref.THC_BOX)):
            bounds = []
            for lo, hi in box:  # a random sub-box with the same centre (0)
                half = 0.5 * (hi - lo) * rng.randint(16, 64) / 64
                bounds += [-half, half]
            argv = ["oracle", name, "--box", *map(repr, bounds), "--grid", str(n),
                    "--starts", str(ORACLE_STARTS_SCAN), "--seed", _seed(rng), "--format", "json"]
            ops.append(Op(f"oracle {name} {n}", argv, "scan",
                          {"problem": name, "box": ((bounds[0], bounds[1]), (bounds[2], bounds[3])), "n": n}))
    return ops


def make_round(workload: str, seed: int, r: int, pool_dir: Path) -> list[Op]:
    if workload == "paper":
        return paper_round(seed, r)
    if workload == "planted":
        return planted_round(seed, r, pool_dir)
    return scan_round(seed, r)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def _check_triple(report: dict) -> None:
    triple = report["zero_gap_triple"]
    p = triple["primal"]
    tol = 1e-8 * (1.0 + abs(p))
    _require(abs(p - triple["complementary"]) <= tol and abs(triple["complementary"] - triple["dual"]) <= tol,
             f"zero-gap triple does not close: {triple}")


def _check_oracle(report: dict, value: float) -> None:
    oracle = report["oracle"]
    _require(oracle["agreement"] is True, f"oracle disagrees: {oracle}")
    _require(oracle["value"] >= value - ref.ORACLE_AGREEMENT_TOL * (1.0 + abs(value)),
             f"oracle value {oracle['value']} below the certified {value}")


def _verify_lines(stdout: str) -> tuple[list[str], dict[str, str]]:
    """FAIL check names and the printed exact term lists by name."""
    failed, terms = [], {}
    for line in stdout.splitlines():
        if line.startswith("FAIL"):
            failed.append(line.split()[1])
        elif line.startswith("  ") and ":" in line:
            name, text = line.strip().split(":", 1)
            terms[name] = text
    return failed, terms


class Checker:
    """Checks outputs against the benchmark's own computations."""

    def __init__(self, pool_dir: Path):
        self.pool_dir = pool_dir
        self._answers = None
        self._exact: dict = {}

    def answers(self) -> list[dict]:
        if self._answers is None:
            self._answers = json.loads((self.pool_dir / "answers.json").read_text())
        return self._answers

    def exact(self, key, build):
        if key not in self._exact:
            self._exact[key] = build()
        return self._exact[key]

    def check(self, op: Op, code: int, stdout: str) -> str | None:
        return getattr(self, op.check)(op, code, stdout)

    # -- paper --------------------------------------------------------------

    def paper_solve(self, op: Op, code: int, stdout: str) -> None:
        report = json.loads(stdout)
        gp = op.data["problem"] == "gp"
        argmin, minimum = (ref.GP_ARGMIN, ref.GP_MIN) if gp else (ref.THC_ARGMIN, ref.THC_MIN)
        closed_form = ref.gp_textbook if gp else ref.thc_textbook
        _require(code == 0 and report["certificate"] == "GlobalMinimumCertified",
                 f"exit {code}, certificate {report['certificate']}")
        x = report["x_star"]
        _require(max(abs(a - b) for a, b in zip(x, argmin)) <= 1e-6, f"x* = {x}, expected {argmin}")
        value = report["primal_value"]
        _require(_close(closed_form(*x), value, 1e-8), f"reported {value}, formula {closed_form(*x)}")
        _require(_close(value, minimum, 1e-8), f"value {value}, expected {minimum}")
        _check_triple(report)
        _check_oracle(report, value)

    def paper_verify(self, op: Op, code: int, stdout: str) -> None:
        failed, terms = _verify_lines(stdout)
        _require(code == 0 and not failed and "all checks passed" in stdout, f"exit {code}, failed {failed}")
        if op.data["problem"] == "gp":
            expected = {"f1": (2, ref.gp_exact), "h": (1, ref.gp_h_exact), "g": (1, ref.gp_g_exact)}
        else:
            expected = {"f2": (2, ref.thc_exact)}
        _require(set(terms) == set(expected), f"term lists {sorted(terms)}")
        for name, (arity, build) in expected.items():
            _require(ref.parse_terms(terms[name], arity) == self.exact(name, build),
                     f"exact terms of {name} differ from the textbook expansion")

    # -- planted ------------------------------------------------------------

    def _planted(self, op: Op):
        """(exact problem as the file states it, x*, P(x*)); x* is None
        for a problem without a certified minimum."""
        if "pool" in op.data:
            i = op.data["pool"]
            path = self.pool_dir / f"planted_{i:02d}.json"
            answer = self.answers()[i]
            x_star = tuple(Fraction(x) for x in answer["x_star"])
            value = Fraction(answer["value"])
            certificate = "GlobalMinimumCertified"
        else:
            path = op.data["shipped"]
            _, certificate, x_star, value = next(s for s in SHIPPED if s[0] == path)
        problem = self.exact(("problem", str(path)),
                             lambda: ref.problem_from_json(json.loads(Path(path).read_text())))
        return problem, certificate, x_star, value

    def planted_solve(self, op: Op, code: int, stdout: str) -> str | None:
        report = json.loads(stdout)
        problem, certificate, x_star, value = self._planted(op)
        if "pool" in op.data and code == 2 and report["certificate"] == "NotConverged":
            return "F1"
        _require(report["certificate"] == certificate, f"certificate {report['certificate']}, expected {certificate}")
        if x_star is None:
            _require(code == 2, f"exit {code} for {certificate}")
            return None
        _require(code == 0, f"exit {code}")
        x = report["x_star"]
        scale = 1.0 + max(abs(float(c)) for c in x_star)
        _require(max(abs(a - float(b)) for a, b in zip(x, x_star)) <= 1e-6 * scale, f"x* = {x}, planted {x_star}")
        _require(_close(report["primal_value"], float(value), 1e-8),
                 f"value {report['primal_value']}, planted {value}")
        _check_triple(report)
        if problem["n"] <= 2:
            _check_oracle(report, report["primal_value"])
        else:
            _require(report["oracle"]["value"] is None, "oracle ran for n > 2")
        return None

    def planted_verify(self, op: Op, code: int, stdout: str) -> str | None:
        failed, terms = _verify_lines(stdout)
        if "pool" in op.data and code == 3 and failed == ["dual-gradient-vs-fd"]:
            return "F2"
        _require(code == 0 and not failed and "all checks passed" in stdout, f"exit {code}, failed {failed}")
        problem, *_ = self._planted(op)
        key = ("P", op.data.get("pool", op.data.get("shipped")))
        expected = self.exact(key, lambda: ref.primal_exact(ref.through_float(problem)))
        _require(set(terms) == {"P"} and ref.parse_terms(terms["P"], problem["n"]) == expected,
                 "exact terms of P differ from the benchmark's expansion")
        return None

    # -- scan ---------------------------------------------------------------

    def scan(self, op: Op, code: int, stdout: str) -> None:
        _require(code == 0, f"exit {code}")
        report = json.loads(stdout)
        gp = op.data["problem"] == "gp"
        closed_form = ref.gp_textbook if gp else ref.thc_textbook
        poly = self.exact(op.data["problem"], ref.gp_exact if gp else ref.thc_exact)
        minimum = ref.GP_MIN if gp else ref.THC_MIN

        def rounding(x) -> float:
            return 256 * ref.EPS * ref.abs_bound(poly, x)

        box, n = op.data["box"], op.data["n"]
        grid = report["grid"]
        own_min, own_x = ref.lattice_min(closed_form, box, n)
        _require(grid["n_per_axis"] == n and grid["evaluations"] == n * n, f"grid {grid}")
        _require(abs(grid["value"] - own_min) <= rounding(own_x) + rounding(grid["x"]),
                 f"grid minimum {grid['value']}, lattice minimum {own_min}")
        for (lo, hi), xi in zip(box, grid["x"]):
            _require(np.any(np.linspace(lo, hi, n) == xi), f"grid point {grid['x']} is not a lattice node")
        _require(abs(closed_form(*grid["x"]) - grid["value"]) <= rounding(grid["x"]), "grid value is not f(x)")

        best = report["multistart"]
        x = best["x"]
        _require(abs(closed_form(*x) - best["value"]) <= rounding(x), "multistart value is not f(x)")
        _require(best["value"] >= minimum - rounding(x), f"multistart value {best['value']} below {minimum}")
        partials = [self.exact((op.data["problem"], i), lambda: ref.derivative(poly, i)) for i in range(2)]
        grad = [ref.eval_float(d, x) for d in partials]
        scale = max(ref.abs_bound(d, x) for d in partials)
        _require(math.hypot(*grad) <= 1e-6 * (1.0 + scale), f"multistart point {x} is not critical: {grad}")
