"""The ldptrack benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload sim-uniform --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

Run from the repository root.  Each workload runs in its own single-process,
single-threaded subprocess (perfbench/worker.py) with BLAS/OpenMP threads
pinned to 1 and ``src/`` on PYTHONPATH; the program needs no build.  With
``--trace 0`` the end-to-end metrics are reported, and set-up time is the
median over three processes.  With ``--trace 1`` the per-layer
metrics are reported instead, from a run whose odd-numbered ops are
traced; spans go to perfbench/out/.  Lines before the last describe the
run; the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-uniform", "audit", "replay")
TIME_LIMIT_S = 175.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
LAYER_UNITS = {
    "harness.run_experiment_s": "s",
    "harness.simulate_rep_calls": "count",
    "harness.err_bound_ratio_p50": "ratio",
    "engine.sample_changes_s": "s",
    "engine.truth_from_changes_s": "s",
    "engine.simulate_rep_self_s": "s",
    "randomizer.sample_composed_batch_s": "s",
    "randomizer.btilde_rows": "count",
    "randomizer.exact_output_distribution_s": "s",
    "randomizer.exact_output_distribution_calls": "count",
    "baselines.algorithm_config_s": "s",
    "setup.import_s": "s",
    "audit.audit_randomizer_s": "s",
    "audit.audit_client_sweep_s": "s",
    "audit.tables_per_randomizer_audit": "count",
    "protocol.server_step_s": "s",
    "protocol.server_register_s": "s",
    "protocol.write_reports_s": "s",
    "protocol.read_reports_s": "s",
    "protocol.records": "count",
    "protocol.ndjson_bytes": "B",
    "protocol.ulp_mismatch_steps": "count",
    "dyadic.decompose_calls": "count",
    "dyadic.decompose_s": "s",
    "trace.overhead_s": "s",
}
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # compiling src/ on every start keeps set-up time alike across runs
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def start_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
        stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT,
        timeout=max(1.0, deadline - t0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]

    def setup_probe() -> float:
        return start_worker([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"]

    # set-up samples are taken before, by and after the measuring process, so
    # that they do not all fall into one slow or fast spell of a shared machine
    before = [] if trace else [setup_probe()]
    res = start_worker([*common, "--seconds", repr(seconds), "--trace", str(int(trace))],
                       deadline)
    after = [] if trace else [setup_probe()]
    res["setups"] = [*before, res["setup_s"], *after]
    setups = res["setups"]
    if trace:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in res["layers"].items()}
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": res["wall_s"],
                  "peak_rss_mib": res["peak_rss_mib"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    res["metrics"] = metrics
    res["correct"] = res["checks_ok"] and res["failed"] == 0
    return res


def describe(name: str, seed: int, res: dict) -> list[str]:
    walls = res["walls"]
    lines = [f"# {name}  seed={seed}  closed loop, 1 caller, {res['ops']} ops, "
             f"correct={res['correct']}"]
    for key, m in res["metrics"].items():
        note = ""
        if key == "setup_s" and len(res["setups"]) > 1:
            note = f"median of {len(res['setups'])} set-ups"
        elif key == "wall_s":
            note = (f"median of {len(walls)} untraced ops, "
                    f"min {min(walls):.4f}, max {max(walls):.4f}")
        lines.append(f"{key:<44} {m['value']:>14.6g} {m['unit']:<6} {note}".rstrip())
    for key, (value, unit) in res["extras"].items():
        lines.append(f"{key:<44} {value:>14.6g} {unit}")
    lines.append(f"{'fail_ratio':<44} {res['failed'] / res['attempted']:>14.6g} ratio  "
                 f"{res['failed']} of {res['attempted']} operations failed")
    if "spans_file" in res:
        lines.append(f"spans written to {res['spans_file']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ldptrack" / "__init__.py").is_file():
        print(f"no ldptrack sources under {ROOT / 'src'}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.perf_counter() + TIME_LIMIT_S
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(name, args.seed, res)), flush=True)
        results[name] = res

    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        metrics = {f"{name}.{key}": m for name, res in results.items()
                   for key, m in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
