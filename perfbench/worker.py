"""Run one benchmark workload in this process, check its outputs, report.

Started by run.py, one process per workload, with BLAS/OpenMP threads
pinned to 1 and ``src/`` on PYTHONPATH:

    python3 perfbench/worker.py --workload sim-uniform --seed 0 --seconds 36 \
        --trace 0 --t0 <launcher perf_counter>

The loop is closed with one caller: the next op starts when the previous
one returns, until ``--seconds`` have passed.  An op is one repetition
(sim-*), one pass over the audit set (audit) or one replay round (replay).
The last stdout line is a JSON object that run.py turns into the result.
With ``--setup-only`` the process exits as soon as the first timed call
is ready, so run.py can sample set-up time in several processes.
"""

from __future__ import annotations

import time

_IMPORT_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from mpmath import mpf  # noqa: E402

from ldptrack import audit, baselines, engine, harness, protocol  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_STARTED

from spans import Tracer, instrumented, median_over_ops, span_or_null  # noqa: E402

EPS = 1.0
BETA = 0.1
Z_LIMIT = 4.0
AUDIT_REL_TOL = mpf("1e-12")
SPANS_DIR = Path(__file__).resolve().parent / "out"


# program functions that simulate_rep looks up in its module at call time
ENGINE_TARGETS = [
    (engine, "sample_changes", "engine.sample_changes", None),
    (engine, "truth_from_changes", "engine.truth_from_changes", None),
    (engine, "sample_composed_batch", "randomizer.sample_composed_batch",
     lambda out: ("randomizer.btilde_rows", out.shape[0])),
]


def op_seed(seed: int, i: int) -> int:
    """Program seed of op i: distinct per op, fixed by the workload seed."""
    return (seed << 20) + i


class Sim:
    """run_experiment with one repetition per op; the workload seed picks spec.seed."""

    def __init__(self, n: int, d: int, k: int, change_model: str) -> None:
        self.spec = harness.ExperimentSpec(n=n, d=d, k=k, eps=EPS, beta=BETA,
                                           algo="futurerand", reps=1,
                                           change_model=change_model)
        self.signed_means: list[float] = []
        self.info: dict[int, dict[str, float]] = {}

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.spec.algorithm()

    def targets(self):
        return [(harness, "simulate_rep", "engine.simulate_rep", None), *ENGINE_TARGETS]

    def op(self, i: int, tracer: Tracer | None) -> tuple[float, int, int]:
        spec = replace(self.spec, seed=op_seed(self.seed, i))
        inner = harness.simulate_rep

        def capture(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.signed_means.append(float(np.mean(out.estimates - out.truth)))
            return out

        harness.simulate_rep = capture
        try:
            started = time.perf_counter()
            with span_or_null(tracer, "harness.run_experiment"):
                metrics = harness.run_experiment(spec)
            wall = time.perf_counter() - started
        finally:
            harness.simulate_rep = inner
        ratio = metrics.max_errs[0] / metrics.bound
        self.info[i] = {"err_bound_ratio": ratio}
        if ratio > 1:
            print(f"rep {i}: max error {metrics.max_errs[0]:.1f} exceeds bound "
                  f"{metrics.bound:.1f}", file=sys.stderr)
            return wall, 1, 1
        return wall, 1, 0

    def finish(self, walls: dict[int, float]) -> tuple[bool, dict]:
        s = self.spec
        ops = [i for i in self.info if i in walls]
        extras = {"user_steps_per_s":
                  (statistics.median(s.n * s.d / walls[i] for i in ops), "1/s")} if ops else {}
        ok = True
        if len(self.signed_means) >= 2:
            sd = statistics.stdev(self.signed_means)
            z = (statistics.fmean(self.signed_means)
                 / (sd / math.sqrt(len(self.signed_means)))) if sd > 0 else math.inf
            extras["signed_error_z"] = (z, "sigma")
            if abs(z) > Z_LIMIT:
                print(f"mean signed error z={z:.2f} over {len(self.signed_means)} "
                      f"repetitions exceeds {Z_LIMIT}", file=sys.stderr)
                ok = False
        return ok, extras


# max_ratio of each audit at the parent commit of the benchmark, to 30 digits.
# The sampled d=8, k=3 sweeps are held to the exhaustive maximum over all
# 4278 stream pairs: 2366 of those pairs attain it, so 100 uniform pairs
# miss it with probability (1 - 2366/4278)^100 < 1e-34.
AUDIT_REFERENCE = {
    "randomizer futurerand k=10 eps=1": mpf("1.45740359598218107912681170847"),
    "client futurerand d=4 k=2 eps=1": mpf("1.20487482366063273454969627175"),
    "client naive d=4 k=2 eps=1": mpf("2.71828182845904523536028747135"),
    "client sample_one d=4 k=2 eps=1": mpf("1.64872127070012814684865078781"),
    "client bns19 d=4 k=2 eps=1": mpf("1.13259486024348927104308694039"),
    "client futurerand d=8 k=3 eps=0.5 pairs=100": mpf("1.13836648603723254396466430183"),
    "client futurerand d=8 k=3 eps=1 pairs=100": mpf("1.29509212448965799091089030646"),
}


class Audit:
    """The randomizer audit at k=10 plus exhaustive and sampled client sweeps."""

    def __init__(self) -> None:
        self.info: dict[int, dict[str, float]] = {}

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.cfg = baselines.algorithm_config("futurerand", 10, EPS).randomizer

    def targets(self):
        return [(audit, "exact_output_distribution",
                 "randomizer.exact_output_distribution", None)]

    def jobs(self, i: int):
        yield ("randomizer futurerand k=10 eps=1", "audit.audit_randomizer",
               lambda: audit.audit_randomizer(self.cfg))
        for algo in baselines.ALGORITHMS:
            yield (f"client {algo} d=4 k=2 eps=1", "audit.audit_client_sweep",
                   lambda algo=algo: audit.audit_client_sweep(4, 2, EPS, algorithm=algo))
        for j, eps in enumerate((0.5, 1.0)):
            rng = np.random.default_rng([self.seed, i, j])
            yield (f"client futurerand d=8 k=3 eps={eps:g} pairs=100",
                   "audit.audit_client_sweep",
                   lambda eps=eps, rng=rng: audit.audit_client_sweep(
                       8, 3, eps, pairs=100, rng=rng))

    def op(self, i: int, tracer: Tracer | None) -> tuple[float, int, int]:
        attempted = failed = 0
        started = time.perf_counter()
        for label, span_name, call in self.jobs(i):
            attempted += 1
            try:
                with span_or_null(tracer, span_name):
                    report = call()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            ref = AUDIT_REFERENCE[label]
            if not report.passed or abs(report.max_ratio - ref) > AUDIT_REL_TOL * ref:
                print(f"audit {label}: passed={report.passed} max_ratio="
                      f"{report.max_ratio} against reference {ref}", file=sys.stderr)
                failed += 1
        return time.perf_counter() - started, attempted, failed

    def finish(self, walls: dict[int, float]) -> tuple[bool, dict]:
        return True, {}


class Replay:
    """Engine reports collected, written to NDJSON, read back and replayed through the server."""

    N, D, K = 5000, 512, 16

    def __init__(self) -> None:
        self.info: dict[int, dict[str, float]] = {}

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.alg = baselines.algorithm_config("futurerand", self.K, EPS, L=self.D)

    def targets(self):
        return [*ENGINE_TARGETS, (protocol, "decompose", "dyadic.decompose", None)]

    def op(self, i: int, tracer: Tracer | None) -> tuple[float, int, int]:
        alg, d = self.alg, self.D
        started = time.perf_counter()
        with span_or_null(tracer, "engine.simulate_rep"):
            outcome = engine.simulate_rep(alg, self.N, d, op_seed(self.seed, i), 0,
                                          collect_reports=True)
        buf = io.StringIO()
        with span_or_null(tracer, "protocol.write_reports"):
            protocol.write_reports(outcome.reports, buf)
        text = buf.getvalue()
        with span_or_null(tracer, "protocol.read_reports"):
            records = protocol.read_reports(io.StringIO(text))
        server = protocol.server_init(d, alg.k, alg.eps, alg.gap, alg.server_factor)
        order_of: dict[int, int] = {}
        due: list[list[tuple[int, int]]] = [[] for _ in range(d + 1)]
        for rec in records:
            order_of.setdefault(rec.user, rec.h)
            due[rec.t].append((rec.user, rec.bit))
        for user, h in order_of.items():
            with span_or_null(tracer, "protocol.server_register"):
                protocol.server_register(server, user, h)
        estimates = np.empty(d, dtype=np.float64)
        for t in range(1, d + 1):
            with span_or_null(tracer, "protocol.server_step"):
                estimates[t - 1] = protocol.server_step(server, t, due[t])
        wall = time.perf_counter() - started

        self.info[i] = {
            "records": len(records),
            "ndjson_bytes": len(text.encode()),
            # known defect: the engine rounds float(scale) * total, the server
            # mpf(scale) * total, so some steps differ in the last bits
            "ulp_mismatch_steps": int(np.count_nonzero(estimates != outcome.estimates)),
        }
        failed = 0
        if records != outcome.reports:
            print(f"round {i}: NDJSON round trip is lossy", file=sys.stderr)
            failed = 1
        mismatch = [t + 1 for t in range(d)
                    if not math.isclose(estimates[t], outcome.estimates[t], rel_tol=1e-12)]
        if mismatch:
            print(f"round {i}: server estimates differ from the engine beyond float "
                  f"rounding at {len(mismatch)} steps, first t={mismatch[0]}",
                  file=sys.stderr)
            failed = 1
        return wall, 1, failed

    def finish(self, walls: dict[int, float]) -> tuple[bool, dict]:
        ops = [i for i in self.info if i in walls]
        if not ops:
            return True, {}
        return True, {
            "records_per_s": (statistics.median(
                self.info[i]["records"] / walls[i] for i in ops), "1/s"),
            "user_steps_per_s": (statistics.median(
                self.N * self.D / walls[i] for i in ops), "1/s"),
            "ulp_mismatch_steps": (statistics.median(
                v["ulp_mismatch_steps"] for v in self.info.values()), "count"),
        }


WORKLOADS = {
    "sim-uniform": lambda: Sim(n=100_000, d=1024, k=64, change_model="uniform"),
    "audit": Audit,
    "replay": Replay,
}


# per-layer self times: metric name -> span name
LAYER_TIMES = {
    "harness.run_experiment_s": "harness.run_experiment",
    "engine.sample_changes_s": "engine.sample_changes",
    "engine.truth_from_changes_s": "engine.truth_from_changes",
    "engine.simulate_rep_self_s": "engine.simulate_rep",
    "randomizer.sample_composed_batch_s": "randomizer.sample_composed_batch",
    "randomizer.exact_output_distribution_s": "randomizer.exact_output_distribution",
    "audit.audit_randomizer_s": "audit.audit_randomizer",
    "audit.audit_client_sweep_s": "audit.audit_client_sweep",
    "protocol.server_step_s": "protocol.server_step",
    "protocol.server_register_s": "protocol.server_register",
    "protocol.write_reports_s": "protocol.write_reports",
    "protocol.read_reports_s": "protocol.read_reports",
    "dyadic.decompose_s": "dyadic.decompose",
}
# per-layer call counts per op: metric name -> span name
LAYER_CALLS = {
    "randomizer.exact_output_distribution_calls": "randomizer.exact_output_distribution",
    "dyadic.decompose_calls": "dyadic.decompose",
}
# figures the workloads record per op: metric name -> info key
LAYER_INFO = {
    "harness.err_bound_ratio_p50": "err_bound_ratio",
    "protocol.records": "records",
    "protocol.ndjson_bytes": "ndjson_bytes",
    "protocol.ulp_mismatch_steps": "ulp_mismatch_steps",
}


def layer_metrics(tracer: Tracer, wl, traced: dict[int, float],
                  untraced: dict[int, float], config_s: float) -> dict[str, float]:
    """Every per-layer figure, as medians over the traced ops (0 where a layer is not used)."""
    ops = sorted(traced)
    self_times = tracer.self_times()
    calls = tracer.calls()
    out = {name: median_over_ops(self_times, ops, span) for name, span in LAYER_TIMES.items()}
    out.update({name: median_over_ops(calls, ops, span) for name, span in LAYER_CALLS.items()})
    out.update({name: median_over_ops(wl.info, sorted(wl.info), key)
                for name, key in LAYER_INFO.items()})
    out["harness.simulate_rep_calls"] = float(sum(calls.get(op, {}).get("engine.simulate_rep", 0)
                                                  for op in ops))
    out["randomizer.btilde_rows"] = median_over_ops(tracer.counts, ops, "randomizer.btilde_rows")
    tables = tracer.calls_under("randomizer.exact_output_distribution", "audit.audit_randomizer")
    out["audit.tables_per_randomizer_audit"] = float(statistics.median(tables)) if tables else 0.0
    out["baselines.algorithm_config_s"] = config_s
    out["setup.import_s"] = IMPORT_S
    out["trace.overhead_s"] = (statistics.median(traced.values())
                               - statistics.median(untraced.values()))
    return out


def run(wl, seconds: float, trace: bool, tracer: Tracer) -> dict:
    """Closed loop of ops for about ``seconds``; with ``trace`` every second op is traced.

    At least one untraced op runs, and with ``trace`` at least one traced op.
    A new op starts only if half of the last op's time still fits before the
    deadline, so that runs overshoot ``seconds`` by half an op on average.
    """
    walls: dict[bool, dict[int, float]] = {False: {}, True: {}}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    wall = 0.0
    while i < (2 if trace else 1) or time.perf_counter() + wall / 2 < deadline:
        traced = trace and i % 2 == 1
        tracer.op = i
        # every op starts from the same collector state, outside the timed part
        gc.collect()
        started = time.perf_counter()
        try:
            with instrumented(tracer, wl.targets() if traced else []):
                wall, a, f = wl.op(i, tracer if traced else None)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            wall, a, f = time.perf_counter() - started, 1, 1
        walls[traced][i] = wall
        attempted += a
        failed += f
        i += 1
    ok, extras = wl.finish(walls[False])
    return {"walls": walls, "attempted": attempted, "failed": failed,
            "checks_ok": ok, "extras": extras}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="launcher perf_counter() just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    started = time.perf_counter()
    wl.setup(args.seed)
    ready = time.perf_counter()
    result = {"setup_s": ready - args.t0, "import_s": IMPORT_S, "config_s": ready - started}
    if not args.setup_only:
        tracer = Tracer()
        out = run(wl, args.seconds, bool(args.trace), tracer)
        walls = out.pop("walls")
        result.update(out)
        result["ops"] = len(walls[False]) + len(walls[True])
        result["walls"] = list(walls[False].values())
        result["wall_s"] = statistics.median(walls[False].values())
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            result["layers"] = layer_metrics(tracer, wl, walls[True], walls[False],
                                             result["config_s"])
            path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(path, workload=args.workload, seed=args.seed)
            result["spans_file"] = str(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
