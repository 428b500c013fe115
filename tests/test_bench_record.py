"""tools/bench_record.py on synthetic perfbench results directories."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load("bench_record")
bench_diff = _load("bench_diff")

MACHINE = {"python": "3.11.7", "numpy": "2.4.6", "cores": 2, "L3_bytes": 110100480}


def kind_line(kind, scaled):
    # The format perfbench/run.py prints for one operation kind.
    return (f"  {kind:<16} n={120:<5} median {scaled * 1.5:10.3f} ms"
            f"  scaled, median of {60} round geomeans {scaled:10.3f} ms  p95 9.000 ms")


def write_result(checkout, workload, seed, op_ms, *, trace=0, failed=0, attempted=100,
                 machine=MACHINE, kinds=None, seconds=30.0, layer=None):
    directory = checkout / ".perfbench" / "results"
    directory.mkdir(parents=True, exist_ok=True)
    if trace:
        metrics = {name: {"value": value, "unit": "ms"} for name, value in layer.items()}
    else:
        metrics = {"setup_s": {"value": 0.2, "unit": "s"},
                   "peak_rss_mb": {"value": 32.0 + op_ms / 100, "unit": "MB"},
                   "op_ms": {"value": op_ms, "unit": "ms"}}
    data = {
        "machine": machine,
        "args": {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace},
        "summary": {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics},
        "kinds": [kind_line(k, ms) for k, ms in (kinds or {"solve gp": op_ms}).items()],
    }
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(data))


def pairs(tmp_path, parent_ms, change_ms, workload="paper", first_seed=1):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, (a, b) in enumerate(zip(parent_ms, change_ms)):
        write_result(parent, workload, first_seed + i, a, failed=i, kinds={"solve gp": a, "verify gp": 2 * a})
        write_result(change, workload, first_seed + i, b, kinds={"solve gp": b, "verify gp": 2 * b})
    return parent, change


def test_record_fields(tmp_path):
    parent, change = pairs(tmp_path, [6.0, 6.4, 6.2, 6.6], [5.5, 6.5, 5.4, 5.6])
    out = tmp_path / "BENCH_11.json"
    assert bench_record.main([str(parent), str(change), "--change", "one evaluator",
                              "--note", "first", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["change"] == "one evaluator" and record["notes"] == ["first"]
    assert record["machine"] == MACHINE
    assert record["command"] == "python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0"
    entry = record["workloads"]["paper"]
    assert entry["pairs"] == 4 and entry["seeds"] == [1, 2, 3, 4]
    op = entry["metrics"]["op_ms"]
    assert op["unit"] == "ms" and op["better"] == "lower"
    # Linear interpolation between order statistics, as perfbench's.
    assert op["parent"] == pytest.approx({"median": 6.3, "q1": 6.15, "q3": 6.45}, abs=1e-12)
    assert op["change"]["median"] == pytest.approx(5.55, abs=1e-12)
    assert op["change_wins"] == 3  # seed 2 is lost
    assert set(entry["metrics"]) == {"op_ms", "setup_s", "peak_rss_mb"}
    assert entry["metrics"]["setup_s"]["change_wins"] == 0  # ties are not wins
    assert entry["correct"] is True
    assert entry["failed"] == {"parent": "6/400", "change": "0/400"}
    assert entry["kinds_scaled_ms"] == {
        "solve gp": {"parent": 6.3, "change": 5.55},
        "verify gp": {"parent": 12.6, "change": 11.1},
    }
    assert "traced_per_operation" not in record


def test_bench_diff_reads_the_record(tmp_path, capsys):
    parent, change = pairs(tmp_path, [8.0, 8.0], [6.0, 6.0])
    out = tmp_path / "BENCH_3.json"
    assert bench_record.main([str(parent), str(change), "--change", "c", "--out", str(out)]) == 0
    assert bench_diff.main([str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "paper: 2 pairs, seeds [1, 2]"
    assert any("op_ms" in line and "parent 8 -> change 6 ms (-25.0 %" in line for line in lines)


def test_traced_runs_are_recorded(tmp_path):
    parent, change = pairs(tmp_path, [8.0], [6.0])
    for seed, before, after in ((9, 4.31234, 3.2), (10, 4.5, 3.0), (11, 4.0, 3.1)):
        write_result(parent, "paper", seed, 0, trace=1, seconds=20.0,
                     layer={"oracle.multistart.self_ms": before, "kernels.eval_many.calls": 0.0})
        write_result(change, "paper", seed, 0, trace=1, seconds=20.0,
                     layer={"oracle.multistart.self_ms": after, "kernels.eval_many.calls": 0.0})
    write_result(parent, "paper", 12, 0, trace=1, seconds=20.0,  # not traced on the change side
                 layer={"oracle.multistart.self_ms": 9.0, "kernels.eval_many.calls": 0.0})
    record = bench_record.build_record(bench_record.load_results(parent),
                                       bench_record.load_results(change), "c", [], {"op_ms": "lower"})
    assert record["traced_per_operation"] == {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 1, median over the seeds",
        "paper": {"seeds": [9, 10, 11], "parent": {"oracle.multistart.self_ms": 4.3123},
                  "change": {"oracle.multistart.self_ms": 3.1}},
    }
    assert record["workloads"]["paper"]["seeds"] == [1]  # traced runs are not pairs


def test_refuses_when_the_machine_differs(tmp_path, capsys):
    parent, change = pairs(tmp_path, [8.0, 8.0], [6.0, 6.0])
    write_result(change, "paper", 2, 6.0, machine={**MACHINE, "L3_bytes": 314572800})
    out = tmp_path / "BENCH_3.json"
    assert bench_record.main([str(parent), str(change), "--change", "c", "--out", str(out)]) == 1
    assert "L3_bytes 110100480 vs 314572800" in capsys.readouterr().err
    assert not out.exists()


def test_refuses_unpaired_seeds_and_unequal_lengths(tmp_path, capsys):
    parent, change = pairs(tmp_path, [8.0, 8.0], [6.0, 6.0])
    write_result(parent, "paper", 7, 8.0)
    assert bench_record.main([str(parent), str(change), "--change", "c"]) == 1
    assert "paper: seeds differ, parent [1, 2, 7], change [1, 2]" in capsys.readouterr().err
    write_result(change, "paper", 7, 6.0, seconds=15.0)
    assert bench_record.main([str(parent), str(change), "--change", "c"]) == 1
    assert "runs differ in length" in capsys.readouterr().err
    assert bench_record.main([str(parent), str(tmp_path / "empty"), "--change", "c"]) == 1
    assert "no untraced results" in capsys.readouterr().err
