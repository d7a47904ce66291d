"""The program attributes that traced benchmark runs wrap must exist.

perfbench/worker.py swaps module attributes of the package for timed
wrappers; a renamed or deleted function would otherwise surface only
when a traced benchmark run breaks.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import worker  # noqa: E402


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_workload_targets_exist_and_are_callable(name):
    targets = worker.WORKLOADS[name]().targets()
    assert targets
    for module, attr, _span, _count in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
