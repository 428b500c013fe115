"""CLI surface: subcommands, problem files, CSV export, exit codes."""

import io
import json
import os
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canondual import cli
from canondual.benchmarks import thc_objective
from canondual.errors import ProblemFileError
from canondual.oracle import Box
from canondual.polynomial import rat
from canondual.smallmat import _triu_index

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
DATA = ROOT / "tests" / "data"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestSolveCommand:
    def test_solve_gp_json(self):
        code, out, _ = run_cli("solve", "gp", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["certificate"] == "GlobalMinimumCertified"
        assert data["x_star"][0] == pytest.approx(0.0, abs=1e-8)
        assert data["x_star"][1] == pytest.approx(-1.0, abs=1e-8)
        assert data["primal_value"] == pytest.approx(3.0, abs=1e-8)
        assert data["sigma_star"][0] == pytest.approx(-15.0, abs=1e-6)
        assert data["oracle"]["agreement"] is True

    def test_solve_thc_text(self):
        code, out, _ = run_cli("solve", "thc")
        assert code == 0
        assert "GlobalMinimumCertified" in out
        assert "zero-gap triple" in out

    def test_json_schema_is_stable_across_problems(self):
        _, out_gp, _ = run_cli("solve", "gp", "--format", "json", "--no-oracle")
        _, out_file, _ = run_cli(
            "solve", "file", str(PROBLEMS / "convex_1d.json"), "--format", "json", "--no-oracle"
        )
        gp_data, file_data = json.loads(out_gp), json.loads(out_file)
        assert set(gp_data) == set(file_data)

        def finite(node):
            if isinstance(node, dict):
                return all(finite(v) for v in node.values())
            if isinstance(node, list):
                return all(finite(v) for v in node)
            if isinstance(node, float):
                return node == node and abs(node) != float("inf")
            return True

        assert finite(gp_data) and finite(file_data)

    def test_no_oracle_flag(self):
        code, out, _ = run_cli("solve", "thc", "--format", "json", "--no-oracle")
        assert code == 0
        data = json.loads(out)
        assert data["oracle"] == {"value": None, "x": None, "agreement": None}

    def test_solver_overrides_are_echoed(self):
        code, out, _ = run_cli(
            "solve", "gp", "--format", "json", "--no-oracle",
            "--grad-tol", "1e-9", "--max-iter", "50",
        )
        assert code == 0
        data = json.loads(out)
        assert data["config"]["grad_tol"] == 1e-9
        assert data["config"]["max_iter"] == 50

    def test_boundary_problem_exits_2(self):
        code, out, _ = run_cli(
            "solve", "file", str(PROBLEMS / "boundary_1d.json"), "--no-oracle"
        )
        assert code == 2
        assert "BoundaryCritical" in out

    def test_shipped_gp_subproblem_file(self):
        code, out, _ = run_cli(
            "solve", "file", str(PROBLEMS / "gp_g.json"), "--format", "json", "--no-oracle"
        )
        assert code == 0
        data = json.loads(out)
        assert data["sigma_star"][0] == pytest.approx(-15.0, abs=1e-6)
        assert data["x_star"][0] == pytest.approx(3.0, abs=1e-8)


    def test_a_failed_hessian_solve_is_not_an_error(self):
        # The Hessian's solve at an iterate fails its residual check; the
        # ascent takes a steepest-ascent step instead of stopping at
        # "error: solve residual ... > tol ...".
        code, out, err = run_cli("solve", "file", str(DATA / "survey_4_4_13.json"), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["certificate"] == "GlobalMinimumCertified"
        code, out, err = run_cli("solve", "file", str(DATA / "survey_4_3_0.json"), "--format", "json")
        assert (code, err) == (2, "")
        assert json.loads(out)["certificate"] == "BoundaryCritical"


class TestVerifyCommand:
    def test_verify_gp(self):
        code, out, _ = run_cli("verify", "gp")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

    def test_verify_thc(self):
        code, out, _ = run_cli("verify", "thc")
        assert code == 0
        assert "FAIL" not in out

    def test_verify_prints_exact_term_serialization(self):
        _, out, _ = run_cli("verify", "thc")
        assert "f2: 1/6 6 0 | -21/20 4 0 | 2/1 2 0 | 1/1 1 1 | 1/1 0 2" in out
        _, out, _ = run_cli("verify", "gp")
        assert "h: 3/1 4 | -8/1 3 | -6/1 2 | 24/1 1 | 20/1 0" in out
        assert "g: 3/1 4 | -16/1 3 | 18/1 2 | 30/1 0" in out

    def test_verify_file(self):
        code, out, _ = run_cli("verify", "file", str(PROBLEMS / "gp_g.json"))
        assert code == 0
        assert "FAIL" not in out

    def test_verify_file_prints_the_float_parsed_expansion(self):
        # The file's 106/3 and -8/3 are read rounded to floats, so its
        # expansion is not verify gp's g: the cubic misses -16 by 2^-50 and
        # a linear term of -7/2^51 appears.  The benchmark's correctness
        # check compares this line with its own float-parsed reference.
        _, out, _ = run_cli("verify", "file", str(PROBLEMS / "gp_g.json"))
        (line,) = [line for line in out.splitlines() if line.startswith("  P: ")]
        assert line == (
            "  P: 3/1 4 | -18014398509481983/1125899906842624 3 | "
            "91270843216432510902963127626411/5070602400912917605986812821504 2 | "
            "-7/2251799813685248 1 | 30/1 0"
        )

    def test_failing_check_exits_3(self, monkeypatch):
        from canondual import verify as verify_module
        from canondual.verify import CheckResult

        monkeypatch.setattr(
            verify_module, "verify_gp",
            lambda cfg=None: [CheckResult("rigged", False, "forced failure")],
        )
        code, out, _ = run_cli("verify", "gp")
        assert code == 3
        assert "FAIL  rigged" in out


class TestOracleCommand:
    def test_oracle_gp_json(self):
        code, out, _ = run_cli(
            "oracle", "gp", "--grid", "101", "--starts", "16", "--seed", "7",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["grid"]["value"] == pytest.approx(3.0, abs=1e-2)
        assert data["multistart"]["value"] == pytest.approx(3.0, abs=1e-6)

    def test_oracle_reports_failed_starts(self):
        code, out, _ = run_cli("oracle", "gp", "--grid", "11", "--starts", "8", "--format", "json")
        assert code == 0
        assert json.loads(out)["multistart"]["failed_starts"] == 0
        code, out, _ = run_cli("oracle", "gp", "--grid", "11", "--starts", "8")
        assert "0 failed" in out

    @pytest.mark.parametrize("command", ["oracle", "grid"])
    @pytest.mark.parametrize("box", [["nan", "1", "-1", "1"], ["-1", "inf", "-1", "1"], ["-1", "1", "-1", "nan"],
                                     ["-inf", "1", "-1", "1"], ["-1", "1", "-INF", "1"], ["-1e0", "1", "-nan", "1"]])
    def test_non_finite_box_is_a_usage_error(self, tmp_path, command, box):
        extra = ["--n", "11", "--out", str(tmp_path / "grid.csv")] if command == "grid" else []
        code, out, err = run_cli(command, "gp", "--box", *box, *extra)
        assert code == 1 and out == ""
        assert err.startswith("error: box bounds must be finite") and err.count("\n") == 1
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("box", [["-1e0", "1", "-1", "1"], ["-1", "1E0", "-1.0E+0", "1"],
                                     ["-.1e1", "1", "-10e-1", "1e0"]])
    def test_box_bounds_may_have_an_exponent(self, box):
        argv = ["oracle", "thc", "--grid", "11", "--starts", "4", "--format", "json"]
        code, out, err = run_cli(*argv, "--box", *box)
        assert (code, err) == (0, "")
        assert out == run_cli(*argv, "--box", "-1", "1", "-1", "1")[1]

    def test_one_variable_problem_takes_a_two_value_box(self):
        code, out, err = run_cli("oracle", "file", str(PROBLEMS / "gp_g.json"), "--box", "0", "6", "--grid", "11",
                                 "--starts", "4", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["box"] == {"lower": [0.0], "upper": [6.0]}

    @pytest.mark.parametrize("argv, box, expected", [
        (["oracle", "file", str(PROBLEMS / "gp_g.json")], ["0", "6", "2", "3"], 2),
        (["oracle", "file", str(PROBLEMS / "gp_g.json")], ["0"], 2),
        (["oracle", "gp"], ["-1", "1"], 4),
        (["oracle", "thc"], ["-1", "1", "-1", "1", "0", "1"], 4),
        (["grid", "gp", "--n", "11"], ["-1", "1", "-1"], 4),
    ])
    def test_box_of_any_other_count_is_a_usage_error(self, tmp_path, argv, box, expected):
        extra = ["--out", str(tmp_path / "grid.csv")] if argv[0] == "grid" else []
        code, out, err = run_cli(*argv, "--box", *box, *extra)
        assert code == 1 and out == ""
        assert not (tmp_path / "grid.csv").exists()
        assert err == f"error: --box takes {expected} values (LO HI per variable), got {len(box)}\n"

    def test_oracle_box_override(self):
        code, out, _ = run_cli(
            "oracle", "thc", "--box", "-1", "1", "-1", "1", "--grid", "41",
            "--starts", "8", "--seed", "3", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["box"] == {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
        assert abs(data["multistart"]["value"]) <= 1e-8

    def test_problem_of_more_than_two_variables_is_a_usage_error(self):
        # Exit 2 would read "solved but not certified"; an n = 4 problem is
        # an input the search does not take.
        code, out, err = run_cli("oracle", "file", str(DATA / "survey_4_3_0.json"), "--grid", "11")
        assert (code, out) == (1, "")
        assert err == "error: oracle search supports problems with n <= 2\n"


class TestGridCommand:
    def test_export_small_grid(self, tmp_path):
        out_path = tmp_path / "surface.csv"
        code, out, _ = run_cli("grid", "thc", "--n", "3", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,y,f"
        assert len(lines) == 1 + 9
        center = [line for line in lines[1:] if line.startswith("0,0,")]
        assert center == ["0,0,0"]

    def test_grid_minimum_close_to_three(self, tmp_path):
        out_path = tmp_path / "gp.csv"
        code, _, _ = run_cli(
            "grid", "gp", "--box", "-2", "2", "-2", "2", "--n", "401", "--out", str(out_path)
        )
        assert code == 0
        values = [
            float(line.rsplit(",", 1)[1]) for line in out_path.read_text().splitlines()[1:]
        ]
        assert len(values) == 401 * 401
        assert abs(min(values) - 3.0) <= 1e-2

    def test_single_node_grid_is_usage_error(self, tmp_path):
        code, _, err = run_cli("grid", "gp", "--n", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "2 nodes" in err


class TestWriteGridCsv:
    def test_values_have_17_significant_digits(self, tmp_path):
        out_path = tmp_path / "pi.csv"
        cli.write_grid_csv(thc_objective(), Box((-1.0, -1.0), (1.0, 1.0)), 2, out_path)
        rows = out_path.read_text().splitlines()[1:]
        assert rows[0].split(",")[2] == f"{thc_objective().eval((-1.0, -1.0)):.17g}"


class TestProblemFiles:
    def test_float_fields_survive_to_problem(self):
        # The reader stores each rational rounded to a float: "106/3" is
        # read as the float nearest 106/3, and the float view is that float.
        pr = cli.load_problem_file(PROBLEMS / "gp_g.json")
        assert pr.A == (Fraction(106 / 3),) and pr.A != (Fraction(106, 3),)
        assert pr.ops[0].b == (Fraction(-8 / 3),)
        assert pr.A_rows == ((106 / 3,),)
        assert pr.ops[0].b_float == (-8 / 3,)
        assert pr == cli.parse_problem_dict(json.loads((PROBLEMS / "gp_g.json").read_text()))

    def test_nonconvex_v_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 1, "m": 1, "A": [[1]], "f": [0],
            "operators": [{"C": [[0]], "b": [0], "c": 0}],
            "V": [{"a": 0, "beta": 0}],
        }))
        with pytest.raises(ProblemFileError, match=r"a must be > 0"):
            cli.load_problem_file(bad)

    def test_asymmetric_matrix_rejected(self, tmp_path):
        bad = tmp_path / "assym.json"
        bad.write_text(json.dumps({
            "n": 2, "m": 1, "A": [[1, 2], [3, 1]], "f": [0, 0],
            "operators": [{"C": [[0, 0], [0, 0]], "b": [0, 0], "c": 0}],
            "V": [{"a": 1, "beta": 0}],
        }))
        with pytest.raises(ProblemFileError, match="symmetric"):
            cli.load_problem_file(bad)

    @pytest.mark.parametrize("key", ["n", "m"])
    def test_bool_dimension_rejected(self, tmp_path, key):
        # bool is an int in Python: true must not read as 1.
        data = {
            "n": 1, "m": 1, "A": [[1]], "f": [0],
            "operators": [{"C": [[0]], "b": [0], "c": 0}],
            "V": [{"a": 1, "beta": 0}],
        }
        data[key] = True
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(ProblemFileError, match=f"{key} must be an integer"):
            cli.load_problem_file(bad)
        for command in ("solve", "verify"):
            code, out, err = run_cli(command, "file", str(bad))
            assert (code, out) == (1, "")
            assert f"{key} must be an integer" in err

    def test_parse_error_reports_location(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"n": 1,\n  "m": }')
        with pytest.raises(ProblemFileError, match=r"broken\.json:2"):
            cli.load_problem_file(bad)

    @pytest.mark.parametrize("a, f, entry", [
        ("1e400", "0", "A[0][0]"),
        ("Infinity", "0", "A[0][0]"),
        ("1", '"1' + "0" * 400 + '"', "f[0]"),
    ], ids=["json-1e400", "json-Infinity", "401-digit-string"])
    def test_coefficient_outside_the_float_range_is_located(self, tmp_path, a, f, entry):
        # Each of these once ended in an OverflowError traceback.
        bad = tmp_path / "huge.json"
        bad.write_text(f'{{"n": 1, "m": 1, "A": [[{a}]], "f": [{f}], '
                       '"operators": [{"C": [[0]], "b": [0], "c": 0}], "V": [{"a": 1}]}')
        with pytest.raises(ProblemFileError, match="outside the float range"):
            cli.load_problem_file(bad)
        code, out, err = run_cli("solve", "file", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {bad}.{entry}: ")

    def test_missing_file_is_usage_error(self):
        code, _, err = run_cli("solve", "file", "/nonexistent/problem.json")
        assert code == 1
        assert "problem.json" in err


# -- the reader: one exact value and one float view per entry ---------------

json_entries = st.one_of(
    st.integers(-10**20, 10**20),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.fractions(max_denominator=10**6).map(lambda x: f"{x.numerator}/{x.denominator}"),
    st.integers(-99, 99).map(str),
)


@st.composite
def problem_dicts(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def matrix():
        upper = {(i, j): draw(json_entries) for i in range(n) for j in range(i, n)}
        return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]

    def vector():
        return draw(st.lists(json_entries, min_size=n, max_size=n))

    return {"n": n, "m": m, "A": matrix(), "f": vector(),
            "operators": [{"C": matrix(), "b": vector(), "c": draw(json_entries)} for _ in range(m)],
            "V": [{"a": draw(st.integers(1, 9).map(lambda k: f"{k}/7")), "beta": draw(json_entries)}
                  for _ in range(m)]}


def _bits(values):
    return [struct.pack("<d", v) for v in values]


@given(problem_dicts())
def test_reader_stores_each_entry_rounded_to_a_float(data):
    # The reference reads each entry as rat(x) and stores Fraction(float(x));
    # the float views are float() of what is stored.
    def stored(value):
        return Fraction(float(rat(value)))

    def upper(rows):
        return tuple(stored(rows[i][j]) for i in range(len(rows)) for j in range(i, len(rows)))

    pr = cli.parse_problem_dict(data)
    assert pr.A == upper(data["A"]) and pr.f == tuple(map(stored, data["f"]))
    assert _bits(pr.f_float) == _bits(map(float, pr.f))
    assert _bits(x for row in pr.A_rows for x in row) == _bits(float(pr.A[_triu_index(pr.n, i, j)])
                                                               for i in range(pr.n) for j in range(pr.n))
    for op, given_op in zip(pr.ops, data["operators"]):
        assert (op.C, op.b, op.c) == (upper(given_op["C"]), tuple(map(stored, given_op["b"])), stored(given_op["c"]))
        assert _bits((*op.b_float, op.c_float)) == _bits(map(float, (*op.b, op.c)))
        assert _bits(x for row in op.C_rows for x in row) == _bits(float(op.C[_triu_index(pr.n, i, j)])
                                                                   for i in range(pr.n) for j in range(pr.n))
    assert pr.V.pairs == tuple((stored(v["a"]), stored(v["beta"])) for v in data["V"])
    assert _bits(x for pair in pr.V.pairs_float for x in pair) == _bits(float(x) for pair in pr.V.pairs for x in pair)


_READER_BASE = {"n": 2, "m": 1, "A": [[2, "1/3"], ["1/3", 2]], "f": [0, 1.5],
                "operators": [{"C": [[1, 0], [0, 1]], "b": [0, 0], "c": 0}], "V": [{"a": 1, "beta": 0}]}


@pytest.mark.parametrize("path, value, message", [
    (("A", 1, 0), "1/0", "problem.A[1][0]: cannot parse rational from '1/0' (Fraction(1, 0))"),
    (("A", 0, 1), "x", "problem.A[0][1]: cannot parse rational from 'x' (invalid literal for int() with base 10: 'x')"),
    (("f", 1), True, "problem.f[1]: cannot parse rational from True (bool is not a rational coefficient)"),
    (("f", 0), float("nan"), "problem.f[0]: cannot parse rational from nan (cannot convert NaN to integer ratio)"),
    (("operators", 0, "c"), "1e400",
     "problem.operators[0].c: cannot parse rational from '1e400' (invalid literal for int() with base 10: '1e400')"),
    (("operators", 0, "b", 1), float("inf"), "problem.operators[0].b[1]: inf is outside the float range"),
    (("operators", 0, "C", 1, 1), "1" + "0" * 400,
     "problem.operators[0].C[1][1]: '1" + "0" * 400 + "' is outside the float range"),
    (("V", 0, "a"), "0", "problem.V[0].a must be > 0, got 0"),
    (("V", 0, "a"), "-1/3", "problem.V[0].a must be > 0, got -1/3"),
    (("V", 0, "a"), None, "problem.V[0].a: cannot parse rational from None (cannot interpret None as a rational)"),
    (("V", 0, "beta"), [1], "problem.V[0].beta: cannot parse rational from [1] (cannot interpret [1] as a rational)"),
    # 1/3 and the float nearest it differ exactly: symmetry is checked before rounding.
    (("A", 0, 1), 0.3333333333333333, "problem.A must be symmetric: entries (0,1) and (1,0) differ"),
    (("A", 0, 1), " 3 / x", "problem.A[0][1]: cannot parse rational from ' 3 / x' (invalid literal for int() with base 10: 'x')"),
    (("f", 0), "1/2/3", "problem.f[0]: cannot parse rational from '1/2/3' (invalid literal for int() with base 10: '2/3')"),
])
def test_reader_error_text(path, value, message):
    data = json.loads(json.dumps(_READER_BASE))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ProblemFileError) as raised:
        cli.parse_problem_dict(data)
    assert str(raised.value) == message


class TestUsageErrors:
    def test_unknown_subcommand(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 1

    def test_no_arguments_prints_help(self):
        code, _, err = run_cli()
        assert code == 1
        assert "solve" in err

    def test_file_without_path(self):
        code, _, err = run_cli("solve", "file")
        assert code == 1
        assert "path" in err

    def test_help_exits_zero(self):
        code, _, _ = run_cli("--help")
        assert code == 0

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_threads_flag_is_a_usage_error(self, command):
        code, _, err = run_cli(command, "gp", "--threads", "2")
        assert code == 1
        assert "--threads" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_grad_tol_must_be_finite_and_positive(self, value):
        # NaN passed a "<= 0" test and ran to the iteration cap (exit 2).
        code, out, err = run_cli("solve", "gp", "--no-oracle", "--grad-tol", value)
        assert (code, out) == (1, "")
        assert "grad_tol must be finite and positive" in err

    @pytest.mark.parametrize(
        "argv", [("solve", "gp", "--starts", "0"), ("oracle", "gp", "--starts", "-3")]
    )
    def test_fewer_than_one_start_is_a_usage_error(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert "at least 1 start" in err
        assert "failed to refine" not in err

    def test_parser_is_built_once_per_process(self, monkeypatch):
        cli._shared_parser.cache_clear()
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        run_cli("frobnicate")
        run_cli("oracle", "thc", "--grid", "21", "--starts", "2", "--format", "json")
        run_cli("--help")
        assert built == [1]

    def test_calls_after_usage_errors_behave_as_first_calls(self):
        argv = ("oracle", "thc", "--grid", "21", "--starts", "2", "--format", "json")
        cli._shared_parser.cache_clear()
        first_error = run_cli("solve", "gp", "--format", "xml")
        first_ok = run_cli(*argv)
        first_help = run_cli("solve", "--help")
        # The same sequence again, and each call right after a usage error.
        assert run_cli("solve", "gp", "--format", "xml") == first_error
        assert run_cli(*argv) == first_ok
        assert run_cli("solve", "--help") == first_help
        assert run_cli("frobnicate")[0] == 1
        assert run_cli(*argv) == first_ok
        assert run_cli("solve", "file")[0] == 1
        assert run_cli("solve", "--help") == first_help
        assert first_error[0] == 1 and "invalid choice" in first_error[2]
        assert first_ok[0] == 0 and first_help[0] == 0


class TestDeterminism:
    @pytest.mark.parametrize("problem", ["gp", "thc"])
    def test_consecutive_json_runs_are_byte_identical(self, problem):
        first = run_cli("solve", problem, "--format", "json")
        second = run_cli("solve", problem, "--format", "json")
        assert first[1].encode() == second[1].encode()
        assert first[0] == second[0] == 0


def test_python_dash_m_runs_the_cli():
    argv = ["solve", "gp", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "canondual", *argv], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    code, out, _ = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (code, out)
