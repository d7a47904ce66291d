"""Self-test of the benchmark: broken program parts must show up as failures.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from ldptrack import engine, protocol  # noqa: E402
from spans import Tracer  # noqa: E402


def _run_once(name: str, trace: bool = False):
    wl = worker.WORKLOADS[name]()
    wl.setup(0)
    tracer = Tracer()
    return wl, tracer, worker.run(wl, seconds=0, trace=trace, tracer=tracer)


def test_sampler_without_flips_fails_sim_uniform(monkeypatch):
    def no_flips(cfg, n, rng, chunk=1 << 16):
        return np.ones((n, cfg.k), dtype=np.int8)

    monkeypatch.setattr(engine, "sample_composed_batch", no_flips)
    _, _, out = _run_once("sim-uniform")
    assert out["attempted"] >= 1
    assert out["failed"] / out["attempted"] > 0


def test_tampered_record_fails_replay(monkeypatch):
    write = protocol.write_reports

    def tamper(records, fp):
        buf = io.StringIO()
        write(records, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        rec = json.loads(lines[7])
        rec["bit"] = -rec["bit"]
        lines[7] = json.dumps(rec) + "\n"
        fp.write("".join(lines))

    monkeypatch.setattr(protocol, "write_reports", tamper)
    _, _, out = _run_once("replay")
    assert out["failed"] == out["attempted"] == 1


def test_traced_run_reports_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl, tracer, out = _run_once("sim-uniform", trace=True)
    walls = out["walls"]
    layers = worker.layer_metrics(tracer, wl, walls[True], walls[False], 0.0)
    assert out["failed"] == 0 and out["checks_ok"]
    assert set(layers) == set(run.LAYER_UNITS) == {m["name"] for m in spec["per_layer"]}
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}
    assert layers["randomizer.btilde_rows"] == 100_000
    assert layers["engine.sample_changes_s"] > 0
    assert all(layers[f"protocol.{m}"] == 0 for m in ("server_step_s", "records"))


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
                    ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 6.0, 0, 0]]
    assert tracer.self_times()[0] == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracer.calls_under("b", "a") == [2]


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-uniform", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
