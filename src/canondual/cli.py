"""Command-line front end.

Subcommands:

  solve gp | solve thc | solve file <path>   full pipeline, report to stdout
  verify gp | verify thc | verify file <path>  identity and duality checks
  oracle gp | oracle thc | oracle file <path>  brute-force search only
  grid gp | grid thc                          CSV surface export

Exit codes: 0 success/certified, 1 usage or parse errors, 2 not converged
or boundary-critical, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import benchmarks, canonical, dual_solver, kernels, oracle, verify
from .benchmarks import SolveReport
from .dual_solver import Certificate, SolverConfig
from .errors import CanondualError, DimensionMismatch, ProblemFileError
from .polynomial import MAX_ARITY, MultiPoly, rat

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_UNCERTIFIED = 2
_EXIT_VERIFY_FAILED = 3


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def _parse_rational(value, where: str, *index: int) -> tuple[Fraction, float]:
    """The exact rational of the file entry where[index...] and its float
    view, numerator / denominator as float() computes it, which must exist:
    JSON's Infinity, 1e400 and a 401-digit integer are out of range."""
    try:
        x = rat(value)
        return x, x.numerator / x.denominator
    except OverflowError:
        problem = f"{value!r} is outside the float range"
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        problem = f"cannot parse rational from {value!r} ({exc})"
    raise ProblemFileError(where + "".join(f"[{i}]" for i in index) + f": {problem}")


def _as_float(entry: tuple[Fraction, float]) -> Fraction:
    """An entry's rational rounded to the nearest float (its float view),
    the value a file's coefficient takes in the problem: the solver's float
    view, verify's printed expansion and the oracle's objective all read
    files through this rounding.  A rational that is a float is kept."""
    x, view = entry
    ratio = view.as_integer_ratio()
    return x if ratio == (x.numerator, x.denominator) else Fraction(*ratio)


def _parse_matrix(data, n: int, where: str) -> tuple[Fraction, ...]:
    """The upper triangle, row-major, of a symmetric n x n matrix given by
    its rows; symmetry is checked on the exact entries."""
    if not isinstance(data, list) or len(data) != n or any(
        not isinstance(row, list) or len(row) != n for row in data
    ):
        raise ProblemFileError(f"{where}: expected an {n}x{n} row-major matrix")
    rows = [[_parse_rational(x, where, i, j) for j, x in enumerate(row)] for i, row in enumerate(data)]
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j][0] != rows[j][i][0]:
                raise ProblemFileError(f"{where} must be symmetric: entries ({i},{j}) and ({j},{i}) differ")
    return tuple(_as_float(rows[i][j]) for i in range(n) for j in range(i, n))


def _parse_vector(data, n: int, where: str) -> tuple[Fraction, ...]:
    if not isinstance(data, list) or len(data) != n:
        raise ProblemFileError(f"{where}: expected a vector of length {n}")
    return tuple(_as_float(_parse_rational(x, where, i)) for i, x in enumerate(data))


def parse_problem_dict(data: dict, where: str = "problem") -> canonical.CanonicalProblem:
    """The canonical problem of a parsed JSON problem file.  Rationals are
    "p/q" strings or plain numbers; each is stored rounded to a float
    (_as_float)."""
    for key in ("n", "m", "A", "f", "operators", "V"):
        if key not in data:
            raise ProblemFileError(f"{where}: missing required key {key!r}")
    n, m = data["n"], data["m"]
    for name, value in (("n", n), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= MAX_ARITY:
            raise ProblemFileError(f"{where}: {name} must be an integer in 1..{MAX_ARITY}")
    A = _parse_matrix(data["A"], n, f"{where}.A")
    f = _parse_vector(data["f"], n, f"{where}.f")
    if not isinstance(data["operators"], list) or len(data["operators"]) != m:
        raise ProblemFileError(f"{where}.operators must list exactly m={m} entries")
    operators = []
    for k, op in enumerate(data["operators"]):
        if not isinstance(op, dict):
            raise ProblemFileError(f"{where}.operators[{k}] must be an object")
        C = _parse_matrix(op.get("C"), n, f"{where}.operators[{k}].C")
        b = _parse_vector(op.get("b"), n, f"{where}.operators[{k}].b")
        c = _as_float(_parse_rational(op.get("c", 0), f"{where}.operators[{k}].c"))
        operators.append(canonical.QuadOperator(C, b, c))
    if not isinstance(data["V"], list) or len(data["V"]) != m:
        raise ProblemFileError(f"{where}.V must list exactly m={m} entries")
    V = []
    for k, component in enumerate(data["V"]):
        if not isinstance(component, dict):
            raise ProblemFileError(f"{where}.V[{k}] must be an object")
        a = _parse_rational(component.get("a"), f"{where}.V[{k}].a")
        beta = _parse_rational(component.get("beta", 0), f"{where}.V[{k}].beta")
        if a[0] <= 0:
            raise ProblemFileError(f"{where}.V[{k}].a must be > 0, got {a[0]}")
        V.append((_as_float(a), _as_float(beta)))
    return canonical.CanonicalProblem(n=n, A=A, f=f, ops=tuple(operators), V=canonical.ConvexQuadV(tuple(V)))


def load_problem_file(path: str | Path) -> canonical.CanonicalProblem:
    """Parse and validate a JSON problem file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemFileError(f"{path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: top level must be an object")
    return parse_problem_dict(data, where=str(path))


# ---------------------------------------------------------------------------
# Grid CSV export
# ---------------------------------------------------------------------------

def write_grid_csv(p: MultiPoly, box: oracle.Box, n: int, path: str | Path) -> None:
    """CSV surface export: header x,y,f then the row-major lattice, floats
    printed with 17 significant digits."""
    if p.arity > 2 or p.arity != box.dim:
        raise ValueError("grid export supports polynomials in at most 2 variables matching the box")
    if n < 2:
        raise ValueError("need at least 2 nodes per axis")
    axes = oracle.lattice_axes(box, n)
    values = kernels.eval_lattice(*p.as_arrays(), axes)
    with open(path, "w") as handle:
        handle.write("x,y,f\n")
        for node, value in zip(itertools.product(*axes), values):
            x = node[0]
            y = node[1] if p.arity == 2 else 0.0
            handle.write(f"{x:.17g},{y:.17g},{value:.17g}\n")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _config_dict(cfg: SolverConfig, oracle_starts: int, oracle_seed: int, with_oracle: bool) -> dict:
    return {
        "grad_tol": cfg.grad_tol,
        "max_iter": cfg.max_iter,
        "interior_margin": dual_solver.INTERIOR_MARGIN,
        "armijo_c": dual_solver.ARMIJO_C,
        "backtrack_ratio": dual_solver.BACKTRACK_RATIO,
        "oracle": {"enabled": with_oracle, "starts": oracle_starts, "seed": oracle_seed},
    }


def report_dict(
    report: SolveReport,
    cfg: SolverConfig,
    oracle_starts: int,
    oracle_seed: int,
    with_oracle: bool,
) -> dict:
    dual = report.dual_report
    return {
        "problem": report.problem_name,
        "certificate": dual.certificate.value,
        "sigma_star": list(dual.sigma_star),
        "transformed_solution": list(report.transformed_solution),
        "x_star": list(report.x_star),
        "primal_value": report.value,
        "dual_value": dual.dual,
        "zero_gap_triple": {
            "primal": dual.primal,
            "complementary": dual.complementary,
            "dual": dual.dual,
        },
        "gap": dual.gap,
        "psd_min_eig": dual.psd_margin,
        "gradient_norm": dual.grad_norm,
        "iterations": dual.iterations,
        "oracle": {
            "value": report.oracle_value,
            "x": list(report.oracle_x) if report.oracle_x is not None else None,
            "agreement": report.oracle_agreement,
        },
        "config": _config_dict(cfg, oracle_starts, oracle_seed, with_oracle),
    }


def _format_text_report(data: dict) -> str:
    lines = [
        f"problem:        {data['problem']}",
        f"certificate:    {data['certificate']}",
        f"sigma*:         {data['sigma_star']}",
        f"transformed:    {data['transformed_solution']}",
        f"x*:             {data['x_star']}",
        f"objective:      {data['primal_value']:.15g}",
        "zero-gap triple:",
        f"  P(x_bar)      = {data['zero_gap_triple']['primal']:.15g}",
        f"  Xi(x_bar,s*)  = {data['zero_gap_triple']['complementary']:.15g}",
        f"  Pd(s*)        = {data['zero_gap_triple']['dual']:.15g}",
        f"  gap           = {data['gap']:.3e}",
        f"psd min eig:    {data['psd_min_eig']:.9g}",
        f"gradient norm:  {data['gradient_norm']:.3e}",
        f"iterations:     {data['iterations']}",
    ]
    oracle_info = data["oracle"]
    if oracle_info["value"] is None:
        lines.append("oracle:         disabled")
    else:
        verdict = "agrees" if oracle_info["agreement"] else "DISAGREES"
        lines.append(
            f"oracle:         value {oracle_info['value']:.12g} at {oracle_info['x']} ({verdict})"
        )
    cfg = data["config"]
    lines.append(
        "config:         "
        f"grad_tol={cfg['grad_tol']:g} max_iter={cfg['max_iter']} "
        f"interior_margin={cfg['interior_margin']:g} "
        f"oracle_starts={cfg['oracle']['starts']} oracle_seed={cfg['oracle']['seed']}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _solver_config(args) -> SolverConfig:
    kwargs = {}
    if args.grad_tol is not None:
        kwargs["grad_tol"] = args.grad_tol
    if args.max_iter is not None:
        kwargs["max_iter"] = args.max_iter
    return SolverConfig(**kwargs)


def _cmd_solve(args) -> int:
    cfg = _solver_config(args)
    if args.problem in ("gp", "thc"):
        pipeline = benchmarks.gp_solve if args.problem == "gp" else benchmarks.thc_solve
        report = pipeline(cfg, with_oracle=args.oracle, oracle_starts=args.starts, oracle_seed=args.seed)
    else:
        pr = load_problem_file(args.path)
        poly = pr.objective if args.oracle and pr.n <= 2 else None
        box = oracle.Box((-10.0,) * pr.n, (10.0,) * pr.n)
        report = benchmarks.solve_problem("file", pr, cfg, poly, box, args.starts, args.seed)

    data = report_dict(report, cfg, args.starts, args.seed, args.oracle)
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        print(_format_text_report(data))
    certified = report.dual_report.certificate == Certificate.GLOBAL_MINIMUM_CERTIFIED
    return _EXIT_OK if certified else _EXIT_UNCERTIFIED


def _serialized_poly_lines(problem: str, pr: canonical.CanonicalProblem | None) -> list[tuple[str, MultiPoly]]:
    """The exact polynomials whose identities the suite certifies; pr is
    the loaded file problem."""
    if problem == "gp":
        dec = benchmarks.gp_decompose()
        return [("f1", benchmarks.gp_objective()), ("h", dec.h), ("g", dec.g)]
    if problem == "thc":
        return [("f2", benchmarks.thc_objective())]
    return [("P", pr.objective)]


def _cmd_verify(args) -> int:
    cfg = _solver_config(args)
    pr = None
    if args.problem == "gp":
        checks = verify.verify_gp(cfg)
    elif args.problem == "thc":
        checks = verify.verify_thc(cfg)
    else:
        pr = load_problem_file(args.path)
        checks = verify.verify_problem(pr, cfg)
    all_ok = True
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        suffix = f"  ({check.detail})" if check.detail else ""
        print(f"{status}  {check.name}{suffix}")
        all_ok &= check.passed
    print('exact terms ("num/den e1 ... ek", graded-lex):')
    for name, poly in _serialized_poly_lines(args.problem, pr):
        print(f"  {name}: " + " | ".join(poly.to_text().splitlines()))
    print(f"{'all checks passed' if all_ok else 'some checks FAILED'} ({len(checks)} checks)")
    return _EXIT_OK if all_ok else _EXIT_VERIFY_FAILED


def _objective_and_box(args) -> tuple[MultiPoly, oracle.Box]:
    if args.problem == "gp":
        poly, default_box = benchmarks.gp_objective(), benchmarks.GP_BOX
    elif args.problem == "thc":
        poly, default_box = benchmarks.thc_objective(), benchmarks.THC_BOX
    else:
        pr = load_problem_file(args.path)
        if pr.n > 2:
            raise DimensionMismatch("oracle search supports problems with n <= 2")
        poly = pr.objective
        default_box = oracle.Box((-10.0,) * pr.n, (10.0,) * pr.n)
    if args.box is None:
        return poly, default_box
    if len(args.box) != 2 * poly.arity:
        raise ValueError(f"--box takes {2 * poly.arity} values (LO HI per variable), got {len(args.box)}")
    return poly, oracle.Box(tuple(args.box[::2]), tuple(args.box[1::2]))


def _cmd_oracle(args) -> int:
    poly, box = _objective_and_box(args)
    grid = oracle.grid_scan(poly, box, args.grid)
    best = oracle.multistart(poly, box, args.starts, args.seed)
    data = {
        "problem": args.problem,
        "box": {"lower": list(box.lower), "upper": list(box.upper)},
        "grid": {
            "n_per_axis": args.grid,
            "value": grid.value,
            "x": list(grid.x_best),
            "evaluations": grid.n_evaluations,
        },
        "multistart": {
            "starts": args.starts,
            "seed": args.seed,
            "value": best.value,
            "x": list(best.x_best),
            "evaluations": best.n_evaluations,
            "failed_starts": best.failed_starts,
        },
    }
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        print(f"problem:    {args.problem} on box {box.lower} .. {box.upper}")
        print(f"grid scan:  value {grid.value:.12g} at {list(grid.x_best)} ({args.grid} nodes/axis)")
        print(f"multistart: value {best.value:.12g} at {list(best.x_best)} "
              f"({args.starts} starts, seed {args.seed}, {best.failed_starts} failed)")
    return _EXIT_OK


def _cmd_grid(args) -> int:
    poly, box = _objective_and_box(args)
    write_grid_csv(poly, box, args.n, args.out)
    print(f"wrote {args.n * args.n} rows to {args.out}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

# argparse reads a token that starts with "-" as a value, not an option,
# when this pattern calls it a negative number.  Python 3.11's own pattern
# knows -1 and -1.5 only; this one also takes an exponent, -inf and -nan,
# so that --box -1e0 1 -inf 1 reaches oracle.Box, which rejects non-finite
# bounds.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _add_problem_argument(parser, with_file=True):
    choices = ["gp", "thc"] + (["file"] if with_file else [])
    parser.add_argument("problem", choices=choices)
    if with_file:
        parser.add_argument("path", nargs="?", help="problem file (required for 'file')")


def _add_solver_flags(parser):
    parser.add_argument("--grad-tol", type=float, default=None, dest="grad_tol")
    parser.add_argument("--max-iter", type=int, default=None, dest="max_iter")


def _add_oracle_flags(parser):
    parser.add_argument("--starts", type=int, default=benchmarks.ORACLE_STARTS)
    parser.add_argument("--seed", type=int, default=benchmarks.ORACLE_SEED)


def build_parser() -> _Parser:
    parser = _Parser(prog="canondual", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    solve = sub.add_parser("solve", help="run a full pipeline and print a certified report")
    _add_problem_argument(solve)
    solve.add_argument("--format", choices=["text", "json"], default="text")
    solve.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=True)
    _add_solver_flags(solve)
    _add_oracle_flags(solve)

    ver = sub.add_parser("verify", help="run identity and duality check suites")
    _add_problem_argument(ver)
    _add_solver_flags(ver)

    orc = sub.add_parser("oracle", help="brute-force search only")
    _add_problem_argument(orc)
    orc.add_argument("--box", type=float, nargs="+", metavar="LO HI", default=None)
    orc.add_argument("--grid", type=int, default=401)
    orc.add_argument("--format", choices=["text", "json"], default="text")
    _add_oracle_flags(orc)

    grid = sub.add_parser("grid", help="export a CSV surface for plotting")
    _add_problem_argument(grid, with_file=False)
    grid.add_argument("--box", type=float, nargs="+", metavar="LO HI", default=None)
    grid.add_argument("--n", type=int, required=True)
    grid.add_argument("--out", required=True)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """build_parser(), once per process: parsing fills a fresh namespace on
    every call and leaves the parser unchanged, so one parser serves all."""
    return build_parser()


def run(argv: Sequence[str]) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return _EXIT_USAGE
    except SystemExit as exc:  # --help
        return _EXIT_OK if exc.code in (0, None) else _EXIT_USAGE

    if args.command is None:
        parser.print_help(sys.stderr)
        return _EXIT_USAGE
    if getattr(args, "problem", None) == "file" and not getattr(args, "path", None):
        print("error: subcommand 'file' requires a path argument", file=sys.stderr)
        return _EXIT_USAGE

    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "grid":
            return _cmd_grid(args)
    except (ValueError, OSError) as exc:  # ProblemFileError included
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except CanondualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_UNCERTIFIED
    return _EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
