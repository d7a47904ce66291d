"""The program attributes that traced benchmark runs wrap must exist, and
importing the package stays cheap.

perfbench/worker.py swaps module attributes of the package for timed
wrappers; a renamed or deleted function would otherwise surface only
when a traced benchmark run breaks.  Every workload's setup time starts
with ``import ldptrack``, so heavy imports are guarded here too.
"""

import os
import subprocess
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


def test_import_does_not_pull_in_scipy():
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    subprocess.run([sys.executable, "-c",
                    "import ldptrack, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True)


def test_import_does_not_pull_in_the_thread_pool():
    # concurrent.futures loads logging: _map_shards imports it only for a pool
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    subprocess.run([sys.executable, "-c",
                    "import ldptrack, sys; "
                    "assert not {'concurrent.futures', 'logging'} & set(sys.modules)"],
                   env=env, check=True)


def test_import_builds_no_config():
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    subprocess.run([sys.executable, "-c",
                    "import ldptrack; from ldptrack.baselines import _algorithm_config; "
                    "assert _algorithm_config.cache_info().currsize == 0"],
                   env=env, check=True)
