"""Experiment configuration, population generation, runners and metrics.

run_experiment drives the vectorized engine; run_reference executes the
same protocol through the per-user online state machines, and replays
their reports through the server, as the slow, obviously-correct path
for cross-checks and report dumps.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from mpmath import mp, mpf

from .audit import AuditReport, audit_client_certificate
from .baselines import AlgorithmConfig, algorithm_config
from .dyadic import DerivativeStream, is_power_of_two
from .engine import (CHANGE_MODELS, simulate_rep, sample_changes, substream,
                     truth_from_changes)
from .protocol import (ReportBatch, client_init, client_step, replay, server_scale,
                       write_reports)

__all__ = [
    "ExperimentSpec",
    "RunMetrics",
    "ScalingCell",
    "ScalingStudy",
    "gen_population",
    "streams_from_changes",
    "run_experiment",
    "run_reference",
    "scaling_study",
    "theoretical_bound",
    "regime_ok",
]


@dataclass(frozen=True)
class ExperimentSpec:
    n: int
    d: int
    k: int
    eps: float
    beta: float
    algo: str = "futurerand"
    reps: int = 1
    seed: int = 0
    out: str | None = None
    change_model: str = "uniform"

    def __post_init__(self) -> None:
        if min(self.n, self.d, self.k, self.reps) < 1:
            raise ValueError("n, d, k and reps must all be >= 1")
        if not is_power_of_two(self.d):
            raise ValueError(f"horizon d={self.d} must be a power of two")
        if self.k > self.d:
            raise ValueError(f"k={self.k} exceeds horizon d={self.d}")
        if not 0 < self.beta < 1:
            raise ValueError(f"beta={self.beta} outside (0, 1)")
        if self.change_model not in CHANGE_MODELS:
            raise ValueError(f"unknown change model {self.change_model!r}")

    def algorithm(self) -> AlgorithmConfig:
        return algorithm_config(self.algo, self.k, self.eps, L=self.d)


def theoretical_bound(n: int, d: int, beta: float, alg: AlgorithmConfig) -> float:
    """server_scale * sqrt(2 n ln(2d / beta)), the per-run error bound that
    holds with probability at least 1 - beta; the scale is
    (1 + log2 d) * server_factor / gap."""
    val = (server_scale(d, alg.gap, alg.server_factor)
           * mp.sqrt(2 * n * mp.log(2 * d / mpf(beta))))
    return float(val)


def regime_ok(n: int, d: int, k: int, eps: float, beta: float) -> bool:
    """Whether (1/eps) * log2(d) * sqrt(k ln(d/beta)) <= sqrt(n)."""
    lhs = (1.0 / eps) * math.log2(d) * math.sqrt(k * math.log(d / beta))
    return lhs <= math.sqrt(n)


# ---------------------------------------------------------------------------
# population generation


def streams_from_changes(counts: np.ndarray, times: np.ndarray,
                         d: int, k: int) -> list[DerivativeStream]:
    streams = []
    for u in range(len(counts)):
        entries = [0] * d
        sign = 1
        for c in range(int(counts[u])):
            entries[int(times[u, c]) - 1] = sign
            sign = -sign
        streams.append(DerivativeStream(entries=tuple(entries), k=k))
    return streams


def gen_population(n: int, d: int, k: int, change_model: str,
                   rng: np.random.Generator) -> tuple[list[DerivativeStream], np.ndarray]:
    """Random population of derivative streams plus its exact int64 truth series."""
    counts, times = sample_changes(n, d, k, change_model, rng)
    return streams_from_changes(counts, times, d, k), truth_from_changes(counts, times, d)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class RunMetrics:
    spec: ExperimentSpec
    gap: float
    bound: float
    regime_ok: bool
    max_errs: tuple[float, ...]

    def summary(self) -> dict:
        arr = np.asarray(self.max_errs)
        qs = np.quantile(arr, [0.0, 0.25, 0.5, 0.75, 0.9, 1.0])
        return {
            "mean": float(arr.mean()),
            "stddev": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
            "quantiles": {
                "min": float(qs[0]), "q25": float(qs[1]), "median": float(qs[2]),
                "q75": float(qs[3]), "q90": float(qs[4]), "max": float(qs[5]),
            },
        }

    @functools.cached_property
    def certificate(self) -> AuditReport:
        """The client-level privacy certificate of this run's spec."""
        spec = self.spec
        return audit_client_certificate(spec.d, spec.k, spec.eps, spec.algo)

    def to_json(self) -> dict:
        spec = self.spec
        return {
            "spec": {
                "n": spec.n, "d": spec.d, "k": spec.k, "eps": spec.eps,
                "beta": spec.beta, "algo": spec.algo, "reps": spec.reps,
                "seed": spec.seed, "change_model": spec.change_model,
            },
            "gap": self.gap,
            "bound": self.bound,
            "regime_ok": self.regime_ok,
            "reps": [{"max_err": e} for e in self.max_errs],
            "exceedances": sum(e > self.bound for e in self.max_errs),
            "summary": self.summary(),
            "certified_ratio": float(self.certificate.max_ratio),
            "certified": self.certificate.passed,
        }


def _write_outputs(metrics: RunMetrics, out: Path,
                   first_rep: tuple[np.ndarray, np.ndarray]) -> None:
    out.write_text(json.dumps(metrics.to_json(), indent=2) + "\n")
    truth, estimates = first_rep
    csv_path = out.with_suffix(".csv")
    with csv_path.open("w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["t", "f", "fhat", "abs_err", "bound"])
        for t in range(len(truth)):
            writer.writerow([t + 1, int(truth[t]), repr(float(estimates[t])),
                             repr(abs(float(estimates[t]) - int(truth[t]))),
                             repr(metrics.bound)])


def run_experiment(spec: ExperimentSpec,
                   dump_reports_to: Path | None = None) -> RunMetrics:
    """Run spec.reps independent repetitions and aggregate error metrics.

    Deterministic for a fixed spec: every repetition derives its own
    substreams from (seed, rep).  The first repetition's trajectory feeds
    the per-t CSV next to ``spec.out``, and its raw report records go to
    ``dump_reports_to`` when given.
    """
    alg = spec.algorithm()
    # an output path that cannot be made fails before any repetition runs
    for path in (spec.out, dump_reports_to):
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    max_errs = []
    first_rep = None
    for rep in range(spec.reps):
        collect = rep == 0 and dump_reports_to is not None
        outcome = simulate_rep(alg, spec.n, spec.d, spec.seed, rep,
                               change_model=spec.change_model,
                               collect_reports=collect)
        max_errs.append(outcome.max_error)
        if rep == 0:
            first_rep = (outcome.truth, outcome.estimates)
            if collect:
                with dump_reports_to.open("w") as fp:
                    write_reports(outcome.reports, fp)
    metrics = RunMetrics(
        spec=spec,
        gap=float(alg.gap),
        bound=theoretical_bound(spec.n, spec.d, spec.beta, alg),
        regime_ok=regime_ok(spec.n, spec.d, spec.k, spec.eps, spec.beta),
        max_errs=tuple(max_errs),
    )
    if spec.out is not None:
        _write_outputs(metrics, Path(spec.out), first_rep)
    return metrics


def run_reference(streams: list[DerivativeStream], alg: AlgorithmConfig,
                  d: int, seed: int = 0,
                  rep: int = 0) -> tuple[tuple[float, ...], ReportBatch]:
    """Reference path: per-user online clients, their reports replayed by the server."""
    clients = [client_init(alg, d, substream(seed, rep, 1000, uid), stream.change_times())
               for uid, stream in enumerate(streams)]
    rows = [(uid, state.h, t, bit)
            for t in range(1, d + 1)
            for uid, (state, stream) in enumerate(zip(clients, streams))
            if (bit := client_step(state, t, stream.entries[t - 1])) is not None]
    reports = ReportBatch(np.array(rows, dtype=np.int64).reshape(-1, 4))
    return tuple(replay(reports, alg, d).tolist()), reports


# ---------------------------------------------------------------------------
# scaling study


@dataclass(frozen=True)
class ScalingCell:
    k: int
    algorithm: str
    rms_max_error: float
    gap: float


@dataclass
class ScalingStudy:
    cells: tuple[ScalingCell, ...]
    slopes: dict[str, float]

    def to_json(self) -> dict:
        return {
            "cells": [{"k": c.k, "algorithm": c.algorithm,
                       "rms_max_error": c.rms_max_error, "gap": c.gap}
                      for c in self.cells],
            "slopes": self.slopes,
        }

    def table(self) -> str:
        lines = [f"{'algorithm':>12} {'k':>6} {'rms_max_error':>16} {'gap':>12}"]
        for c in self.cells:
            lines.append(f"{c.algorithm:>12} {c.k:>6} {c.rms_max_error:>16.4f} "
                         f"{c.gap:>12.6g}")
        for algo, slope in self.slopes.items():
            lines.append(f"log-log slope[{algo}] = {slope:.4f}")
        return "\n".join(lines)


def scaling_study(base: ExperimentSpec, k_grid: list[int],
                  algorithms: list[str]) -> ScalingStudy:
    """RMS max-error per (k, algorithm) cell, with log-log slope fits over k.

    Each cell runs ``base`` at its own k and algorithm (``base.k`` is not
    used); every cell's spec is checked before the first cell runs.
    """
    if not algorithms:
        raise ValueError("scaling study needs at least one algorithm")
    if len(set(k_grid)) < 2:
        raise ValueError(f"k grid {k_grid} needs two distinct k to fit a slope")
    specs = {(algo, k): replace(base, k=k, algo=algo, out=None)
             for algo in algorithms for k in k_grid}
    for spec in specs.values():
        spec.algorithm()  # a cached config: the cell's run builds nothing again
    cells = []
    slopes = {}
    for algo in algorithms:
        rms_values = []
        for k in k_grid:
            metrics = run_experiment(specs[algo, k])
            rms = float(np.sqrt(np.mean(np.square(metrics.max_errs))))
            rms_values.append(rms)
            cells.append(ScalingCell(k=k, algorithm=algo, rms_max_error=rms,
                                     gap=metrics.gap))
        slopes[algo] = float(np.polyfit(np.log(k_grid), np.log(rms_values), 1)[0])
    return ScalingStudy(cells=tuple(cells), slopes=slopes)
