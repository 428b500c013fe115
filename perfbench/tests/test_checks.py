"""The checks accept the program's real outputs and reject altered ones."""

import contextlib
import io
import json

import pytest

import workloads
from workloads import CheckFailed, Op


def _run(argv):
    from canondual import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def checker(tmp_path_factory):
    pool = tmp_path_factory.mktemp("pool")
    workloads.write_pool(pool)
    return workloads.Checker(pool)


def test_paper_solve_and_verify(checker):
    solve = Op("solve thc", ["solve", "thc", "--format", "json", "--seed", "3"], "paper_solve", {"problem": "thc"})
    code, out = _run(solve.argv)
    assert checker.check(solve, code, out) is None
    report = json.loads(out)
    report["x_star"][0] += 1e-3
    with pytest.raises(CheckFailed):
        checker.check(solve, code, json.dumps(report))

    verify = Op("verify thc", ["verify", "thc"], "paper_verify", {"problem": "thc"})
    code, out = _run(verify.argv)
    assert checker.check(verify, code, out) is None
    with pytest.raises(CheckFailed):
        checker.check(verify, code, out.replace("1/6 6 0", "1/5 6 0"))


def test_planted_solve_verify_and_fault_attribution(checker):
    path = str(checker.pool_dir / "planted_00.json")
    solve = Op("solve file", ["solve", "file", path, "--format", "json"], "planted_solve", {"pool": 0})
    code, out = _run(solve.argv)
    assert checker.check(solve, code, out) is None
    verify = Op("verify file", ["verify", "file", path], "planted_verify", {"pool": 0})
    code, verify_out = _run(verify.argv)
    assert checker.check(verify, code, verify_out) is None

    report = json.loads(out)
    report["certificate"] = "NotConverged"
    assert checker.check(solve, 2, json.dumps(report)) == "F1"
    shipped = Op("solve file", [], "planted_solve", {"shipped": "problems/gp_g.json"})
    with pytest.raises(CheckFailed):
        checker.check(shipped, 2, json.dumps(report))

    f2 = verify_out.replace("PASS  dual-gradient-vs-fd", "FAIL  dual-gradient-vs-fd")
    assert checker.check(verify, 3, f2) == "F2"
    with pytest.raises(CheckFailed):
        checker.check(verify, 3, f2.replace("PASS  legendre-involution", "FAIL  legendre-involution"))


def test_boundary_problem_must_stay_boundary_critical(checker):
    op = Op("solve file", ["solve", "file", "problems/boundary_1d.json", "--format", "json"], "planted_solve",
            {"shipped": "problems/boundary_1d.json"})
    code, out = _run(op.argv)
    assert code == 2 and checker.check(op, code, out) is None
    report = json.loads(out)
    report["certificate"] = "GlobalMinimumCertified"
    with pytest.raises(CheckFailed):
        checker.check(op, 0, json.dumps(report))


def test_scan(checker):
    op = workloads.scan_round(5, 0)[1]  # oracle thc at 201 nodes per axis
    assert op.kind == "oracle thc 201"
    code, out = _run(op.argv)
    assert checker.check(op, code, out) is None
    report = json.loads(out)
    report["grid"]["value"] += 1e-6
    with pytest.raises(CheckFailed):
        checker.check(op, code, json.dumps(report))
    report = json.loads(out)
    report["multistart"]["x"][0] += 1e-2
    with pytest.raises(CheckFailed):
        checker.check(op, code, json.dumps(report))
