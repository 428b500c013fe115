"""tools/bench_diff.py on synthetic benchmark records."""

import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_diff", Path(__file__).resolve().parent.parent / "tools" / "bench_diff.py"
)
bench_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_diff)


def record(op_parent, op_change, workloads=("planted",), machine=None):
    def metric(parent, change, unit):
        return {
            "unit": unit,
            "better": "lower",
            "parent": {"median": parent, "q1": parent - 0.1, "q3": parent + 0.1},
            "change": {"median": change, "q1": change - 0.1, "q3": change + 0.1},
            "change_wins": 9,
        }

    return {
        "machine": machine or {"python": "3.11.7", "L3_bytes": 314572800},
        "command": "python3 perfbench/run.py --workload W --seed S --seconds 30",
        "workloads": {
            w: {"pairs": 10, "seeds": list(range(1, 11)),
                "metrics": {"op_ms": metric(op_parent, op_change, "ms")}}
            for w in workloads
        },
    }


def write(directory, n, data):
    path = directory / f"BENCH_{n}.json"
    path.write_text(json.dumps(data))
    return path


def test_alone_prints_parent_against_change(tmp_path, capsys):
    path = write(tmp_path, 3, record(8.0, 6.0))
    assert bench_diff.main([str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "BENCH_3.json (no previous record)"
    assert out[1] == "planted: 10 pairs, seeds [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"
    assert "parent 8 -> change 6 ms (-25.0 %" in out[2]
    assert "change won 9/10" in out[2]
    assert "parent quartile distance 0.2" in out[2]
    assert "previous record" not in out[2]


def test_against_the_previous_record(tmp_path, capsys):
    write(tmp_path, 1, record(10.0, 9.0))  # older, skipped
    write(tmp_path, 3, record(9.0, 8.0))
    write(tmp_path, 9, record(1.0, 1.0))  # newer, ignored
    path = write(tmp_path, 5, record(8.0, 6.0, workloads=("planted", "scan")))
    assert bench_diff.main([str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "BENCH_5.json against BENCH_3.json"
    assert out[1].startswith("planted: ")  # same machine: no machine lines
    planted = out[2]
    assert planted.endswith("; previous record 8 (-25.0 %)")
    assert out[4].endswith("; not in the previous record")  # scan is new
    assert not any("machine" in line for line in out)


def test_against_a_record_from_another_machine(tmp_path, capsys):
    write(tmp_path, 3, record(9.0, 8.0))
    other = {"python": "3.11.7", "L3_bytes": 110100480, "cores": 4}
    path = write(tmp_path, 4, record(8.0, 6.0, machine=other))
    assert bench_diff.main([str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == [
        "BENCH_4.json against BENCH_3.json",
        "machine differs from the previous record:",
        "  L3_bytes 314572800 -> 110100480",
        "  cores absent -> 4",
    ]
    assert out[4].startswith("planted: ")
    assert out[5].endswith("; previous record (cross-machine) 8 (-25.0 %)")


def test_records_sort_numerically(tmp_path):
    for n in (10, 2, 7):
        write(tmp_path, n, record(1.0, 1.0))
    (tmp_path / "BENCH_x.json").write_text("{}")
    assert [n for n, _ in bench_diff.records(tmp_path)] == [2, 7, 10]
    assert bench_diff.previous_record(tmp_path / "BENCH_10.json").name == "BENCH_7.json"
    assert bench_diff.previous_record(tmp_path / "BENCH_2.json") is None


# The record format of the bench_diff docstring.
RECORD_KEYS = ("machine", "command", "workloads")
WORKLOAD_KEYS = ("pairs", "seeds", "metrics")
METRIC_KEYS = ("unit", "better", "parent", "change", "change_wins")
SUMMARY_KEYS = ("median", "q1", "q3")
ROOT = Path(__file__).resolve().parent.parent


def test_record_keys_are_the_documented_ones():
    for key in RECORD_KEYS + WORKLOAD_KEYS + METRIC_KEYS + SUMMARY_KEYS:
        assert f'"{key}"' in bench_diff.__doc__, key


def test_committed_records_have_every_documented_key():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    found = bench_diff.records(ROOT)
    assert found, "no BENCH_<n>.json at the repository root"
    for _, path in found:
        record = json.loads(path.read_text())
        assert set(RECORD_KEYS) <= record.keys(), path.name
        for workload in workloads:
            entry = record["workloads"][workload]
            assert set(WORKLOAD_KEYS) <= entry.keys(), (path.name, workload)
            assert len(entry["seeds"]) == entry["pairs"], (path.name, workload)
            for metric in metrics:
                m = entry["metrics"][metric]
                assert set(METRIC_KEYS) <= m.keys(), (path.name, workload, metric)
                for side in ("parent", "change"):
                    assert set(SUMMARY_KEYS) <= m[side].keys(), (path.name, workload, metric, side)
                    assert all(isinstance(m[side][k], (int, float)) for k in SUMMARY_KEYS)
