import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def pool_paths(tmp_path_factory):
    """The benchmark's 36 planted problem files, three for each (n, m) in
    1..4 x 1..3, written by its own generator (perfbench/workloads.py)."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    directory = tmp_path_factory.mktemp("pool")
    workloads.write_pool(directory)
    return sorted(directory.glob("planted_*.json"))
