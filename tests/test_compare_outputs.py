"""tools/compare_outputs.py, driven through an injected runner."""

import importlib.util
import io
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

_spec = importlib.util.spec_from_file_location("compare_outputs", TOOLS / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

PARENT, CHANGE = Path("/parent"), Path("/change")


def runner(differences=None):
    """A runner that prints the argv and exits 0 on both sides, except where
    differences[(side, argv)] gives the side's (exit code, stdout); it
    records every call."""
    differences = differences or {}
    calls = []

    def run(checkout, argv):
        argv = tuple(argv)
        calls.append((checkout, argv))
        return differences.get((checkout, argv), (0, " ".join(argv) + "\n"))

    return run, calls


def test_identical_outputs_report_nothing():
    run, calls = runner()
    out = io.StringIO()
    argvs = [["solve", "gp"], ["verify", "thc"]]
    assert compare_outputs.compare(PARENT, CHANGE, argvs, run, out=out) == 0
    assert out.getvalue() == "0 of 2 invocations differ\n"
    assert sorted(calls) == sorted((side, tuple(a)) for a in argvs for side in (PARENT, CHANGE))


def test_each_differing_stdout_and_exit_code_is_printed():
    run, _ = runner({
        (CHANGE, ("solve", "gp")): (0, "solve gp\nmoved\n"),
        (PARENT, ("verify", "gp")): (3, "verify gp\n"),
    })
    out = io.StringIO()
    argvs = [["solve", "gp"], ["verify", "gp"], ["verify", "thc"]]
    assert compare_outputs.compare(PARENT, CHANGE, argvs, run, out=out) == 2
    lines = out.getvalue().splitlines()
    assert lines[0] == "DIFFERS: canondual solve gp"
    assert "  +moved" in lines
    assert "DIFFERS: canondual verify thc" not in lines
    index = lines.index("DIFFERS: canondual verify gp")
    assert lines[index + 1] == "  exit code 3 -> 0"
    assert lines[-1] == "2 of 3 invocations differ"


def test_main_runs_every_invocation_on_both_sides(capsys):
    # gp, thc, the three shipped problems, the two survey problems, the 36
    # pool problems and the 4 survey draws, four invocations each; a capped
    # solve each of gp, thc and the shipped problems; an oracle run each of
    # those and the two survey problems; a 1001-node oracle run each of gp
    # and thc and a 301-node grid export of gp, all of several blocks; and
    # 20 seeds each of solve gp|thc.
    seen_pool, drawn = [], set()

    def run(checkout, argv):
        if argv[1] == "file" and argv[2].startswith("/"):
            seen_pool.append(Path(argv[2]).is_file())
            if Path(argv[2]).name.startswith("survey_"):
                drawn.add(argv[2])
        return 0, checkout.name if argv == ["solve", "thc", "--seed", "7"] else "same"

    assert compare_outputs.main(["/parent", "/change"], run) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "DIFFERS: canondual solve thc --seed 7"
    assert out[-1] == "1 of 243 invocations differ"
    assert len(seen_pool) == 2 * 4 * (36 + 4) and all(seen_pool)
    assert {Path(argv).name for argv in drawn} == {"survey_2_4_14.json", "survey_3_4_4.json",
                                                   "survey_4_4_3.json", "survey_4_4_15.json"}

    run, calls = runner()
    assert compare_outputs.main(["/parent", "/change"], run) == 0
    argvs = {argv for _, argv in calls}
    assert len(calls) == 2 * len(argvs) == 2 * 243
    assert ("verify", "file", "problems/gp_g.json") in argvs
    assert ("solve", "file", "tests/data/survey_4_4_13.json", "--no-oracle", "--format", "json") in argvs
    assert ("oracle", "thc", "--grid", "201", "--starts", "16", "--format", "json") in argvs
    assert ("oracle", "file", "problems/convex_1d.json", "--grid", "201", "--starts", "16", "--format", "json") in argvs
    assert ("oracle", "file", "tests/data/survey_4_3_0.json", "--grid", "201", "--starts", "16", "--format", "json") in argvs
    assert ("solve", "file", "problems/boundary_1d.json", "--max-iter", "2", "--format", "json") in argvs
    assert ("oracle", "gp", "--grid", "1001", "--starts", "16", "--box", "-2", "1", "-1.5", "2.5",
            "--format", "json") in argvs
    assert ("grid", "gp", "--n", "301", "--out", "/dev/stdout") in argvs
