"""Workload inputs depend on the seed alone, and every round has the same mix."""

from collections import Counter
from pathlib import Path

import workloads


def test_rounds_are_a_function_of_seed_and_index(tmp_path: Path):
    for name in workloads.WORKLOADS:
        a = workloads.make_round(name, 7, 3, tmp_path)
        b = workloads.make_round(name, 7, 3, tmp_path)
        c = workloads.make_round(name, 8, 3, tmp_path)
        assert [op.argv for op in a] == [op.argv for op in b]
        assert [op.argv for op in a] != [op.argv for op in c]


def test_every_round_holds_the_same_operation_kinds(tmp_path: Path):
    for name in workloads.WORKLOADS:
        kinds = {frozenset(Counter(op.kind for op in workloads.make_round(name, s, r, tmp_path)).items())
                 for s in (1, 2) for r in (0, 1, 5)}
        assert len(kinds) == 1


def test_planted_pool_is_the_same_for_every_seed(tmp_path: Path):
    workloads.write_pool(tmp_path / "a")
    workloads.write_pool(tmp_path / "b")
    for f in (tmp_path / "a").iterdir():
        assert f.read_text() == (tmp_path / "b" / f.name).read_text()
    files = {op.argv[2] for op in workloads.make_round("planted", 1, 0, tmp_path)}
    assert len(files) == workloads.POOL_SIZE + len(workloads.SHIPPED)
