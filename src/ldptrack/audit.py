"""Exact privacy and gap verification by enumeration, plus statistical testers.

The randomizer's output law depends on the input only through the Hamming
distance, so worst-case probability ratios over all input pairs and
outputs reduce to scans over distance classes; the scans below keep exact
extended-precision values end to end and report concrete witnesses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from mpmath import mp, mpf
from scipy import stats

from .baselines import AlgorithmConfig, algorithm_config
from .dyadic import DerivativeStream, DyadicInterval, derive, order_support, partial_sum
from .errors import CapacityError
from .randomizer import (DistributionTable, RandomizerConfig, distance_law,
                         exact_output_distribution, gap, gap_lower_bound_expr,
                         sample_composed_batch, _pack_signs, _unpack_signs)

AUDIT_K = 12          # full input-pair enumeration bound
CLIENT_AUDIT_D = 8    # client-level audit bounds
CLIENT_AUDIT_K = 4

RATIO_SLACK = mpf("1e-9")  # absorbs extended-precision rounding on the e^eps test

__all__ = [
    "AuditReport",
    "ChiSquareResult",
    "GapDiagnostics",
    "audit_randomizer",
    "audit_client",
    "audit_client_sweep",
    "enumerate_streams",
    "verify_gap",
    "chi_square",
]


@dataclass
class AuditReport:
    """Worst-case output-probability ratio against the claimed budget."""

    epsilon: float
    max_ratio: mpf
    worst_case: dict
    passed: bool

    @classmethod
    def from_ratio(cls, epsilon: float, max_ratio: mpf, worst_case: dict) -> "AuditReport":
        passed = bool(max_ratio <= mp.exp(mpf(epsilon)) * (1 + RATIO_SLACK))
        return cls(epsilon=epsilon, max_ratio=max_ratio,
                   worst_case=worst_case, passed=passed)

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "max_ratio": float(self.max_ratio),
            "pass": self.passed,
            "worst_case": self.worst_case,
        }


def audit_randomizer(cfg: RandomizerConfig,
                     inputs: Sequence | None = None) -> AuditReport:
    """Max probability ratio of the composed randomizer over input pairs.

    Every input's output table is a permutation of the same distance law,
    so the law is checked once for unit mass, sum_i C(k, i) law[i] = 1;
    then all (input, input', output) triples are scanned through the
    distance classes.  Defaults to all 2^k inputs.
    """
    k = cfg.k
    if k > AUDIT_K:
        raise CapacityError(f"k={k} above enumeration bound {AUDIT_K}")
    if inputs is None:
        masks = np.arange(1 << k, dtype=np.uint32)
    else:
        masks = np.array([_pack_signs(b, k) for b in inputs], dtype=np.uint32)
    if len(masks) == 0:
        raise ValueError("need at least one input")
    law = distance_law(cfg)
    mass = sum((math.comb(k, i) * law[i] for i in range(k + 1)), mpf(0))
    if abs(mass - 1) > mpf("1e-12"):
        raise ArithmeticError(f"distance law mass {mass} deviates from 1")
    order = sorted(range(k + 1), key=lambda i: law[i])  # distances by ascending prob
    rank_of = np.empty(k + 1, dtype=np.int64)
    for r, i in enumerate(order):
        rank_of[i] = r

    outs = np.arange(1 << k, dtype=np.uint32)
    dist = np.bitwise_count(masks[:, None] ^ outs[None, :])
    ranks = rank_of[dist]
    hi = ranks.max(axis=0)
    lo = ranks.min(axis=0)
    best_ratio = mpf(1)
    best = None
    for a, b in set(zip(hi.tolist(), lo.tolist())):
        ratio = law[order[a]] / law[order[b]]
        if ratio > best_ratio or best is None:
            best_ratio = ratio
            best = (a, b)
    cols = np.nonzero((hi == best[0]) & (lo == best[1]))[0]
    s = int(cols[0])
    row_hi = int(np.nonzero(ranks[:, s] == best[0])[0][0])
    row_lo = int(np.nonzero(ranks[:, s] == best[1])[0][0])
    worst = {
        "input": list(_unpack_signs(int(masks[row_hi]), k)),
        "input_alt": list(_unpack_signs(int(masks[row_lo]), k)),
        "output": list(_unpack_signs(s, k)),
    }
    return AuditReport.from_ratio(cfg.eps, best_ratio, worst)


# ---------------------------------------------------------------------------
# client-level audit


def _marginal_masses(table: DistributionTable, m: int) -> dict[tuple[int, ...], mpf]:
    """Mass of the table collapsed onto its first m coordinates."""
    out: dict[tuple[int, ...], mpf] = {}
    for s, pr in table.probs.items():
        key = s[:m]
        out[key] = out.get(key, mpf(0)) + pr
    return out


def _client_distribution(alg: AlgorithmConfig, d: int,
                         stream: DerivativeStream) -> dict[tuple[int, tuple[int, ...]], mpf]:
    """Exact law of the full client output (h, reported bit sequence)."""
    num_orders = d.bit_length()
    order_prob = mpf(1) / num_orders
    probs: dict[tuple[int, tuple[int, ...]], mpf] = {}
    if alg.keep_one:
        change_times = stream.change_times()
        keep_p = 1 - alg.randomizer.p  # RR preservation probability
        for h in range(num_orders):
            L = d >> h
            uniform_all = mpf(2) ** (-L)
            for omega in itertools.product((-1, 1), repeat=L):
                acc = mpf(0)
                for slot in range(alg.k):
                    if slot < len(change_times):
                        c = change_times[slot]
                        v = stream.entries[c - 1]
                        j = ((c - 1) >> h) + 1
                        rr = keep_p if omega[j - 1] == v else alg.randomizer.p
                        acc += mpf(2) ** (-(L - 1)) * rr
                    else:
                        acc += uniform_all
                probs[(h, omega)] = order_prob * acc / alg.k
    else:
        table = exact_output_distribution(np.ones(alg.k, dtype=np.int8),
                                          alg.randomizer)
        margs = {m: _marginal_masses(table, m) for m in range(alg.k + 1)}
        for h in range(num_orders):
            L = d >> h
            support = order_support(stream, h)
            signs = [partial_sum(stream, DyadicInterval(order=h, index=j, horizon=d))
                     for j in support]
            m = len(support)
            base = order_prob * mpf(2) ** (-(L - m))
            for omega in itertools.product((-1, 1), repeat=L):
                pattern = tuple(omega[j - 1] * signs[i] for i, j in enumerate(support))
                probs[(h, omega)] = base * margs[m][pattern]
    total = sum(probs.values(), mpf(0))
    if abs(total - 1) > mpf("1e-12"):
        raise ArithmeticError(f"client distribution mass {total} deviates from 1")
    return probs


def _client_algorithm(d: int, k: int, eps: float, algorithm: str) -> AlgorithmConfig:
    if d > CLIENT_AUDIT_D:
        raise CapacityError(f"d={d} above client audit bound {CLIENT_AUDIT_D}")
    if k > CLIENT_AUDIT_K:
        raise CapacityError(f"k={k} above client audit bound {CLIENT_AUDIT_K}")
    return algorithm_config(algorithm, k, eps, L=d)


def audit_client(d: int, k: int, eps: float,
                 stream_a: DerivativeStream, stream_b: DerivativeStream,
                 algorithm: str = "futurerand") -> AuditReport:
    """Exact output-probability ratio of the full client on two streams."""
    alg = _client_algorithm(d, k, eps, algorithm)
    pa = _client_distribution(alg, d, stream_a)
    pb = _client_distribution(alg, d, stream_b)
    return _ratio_report(eps, pa, pb, stream_a, stream_b)


def _ratio_report(eps: float, pa: dict, pb: dict,
                  stream_a: DerivativeStream, stream_b: DerivativeStream) -> AuditReport:
    best_ratio = mpf(0)
    best_key = None
    for key, va in pa.items():
        vb = pb[key]
        ratio = va / vb if va > vb else vb / va
        if ratio > best_ratio:
            best_ratio = ratio
            best_key = key
    h, omega = best_key
    worst = {
        "stream": list(stream_a.entries),
        "stream_alt": list(stream_b.entries),
        "order": h,
        "output": list(omega),
    }
    return AuditReport.from_ratio(eps, best_ratio, worst)


def enumerate_streams(d: int, k: int) -> list[DerivativeStream]:
    """All derivative streams of Boolean series on [1, d] with at most k changes."""
    out = []
    for bits in itertools.product((0, 1), repeat=d):
        changes = sum(b != prev for b, prev in zip(bits, (0,) + bits[:-1]))
        if changes <= k:
            out.append(derive(bits, k=k))
    return out


def audit_client_sweep(d: int, k: int, eps: float, algorithm: str = "futurerand",
                       pairs: int | None = None,
                       rng: np.random.Generator | None = None) -> AuditReport:
    """Worst client-level ratio over stream pairs: exhaustive, or a random sample.

    With ``pairs`` set, that many unordered pairs are drawn uniformly from
    the valid streams; otherwise every pair is checked.
    """
    alg = _client_algorithm(d, k, eps, algorithm)
    streams = enumerate_streams(d, k)
    dists = [_client_distribution(alg, d, s) for s in streams]
    if pairs is None:
        index_pairs = list(itertools.combinations(range(len(streams)), 2))
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        index_pairs = [tuple(rng.choice(len(streams), size=2, replace=False))
                       for _ in range(pairs)]
    worst_report = None
    for i, j in index_pairs:
        rep = _ratio_report(eps, dists[i], dists[j], streams[i], streams[j])
        if worst_report is None or rep.max_ratio > worst_report.max_ratio:
            worst_report = rep
    return worst_report


# ---------------------------------------------------------------------------
# gap verification


@dataclass
class GapDiagnostics:
    """Cross-checks of the exact gap: enumeration, Monte-Carlo, lower bound."""

    gap: float
    enum_gap: float | None
    enum_ok: bool | None
    mc_estimate: float
    mc_sigma: float
    mc_ok: bool
    lower_bound: float | None
    bound_ok: bool | None

    @property
    def passed(self) -> bool:
        legs = [self.enum_ok, self.mc_ok, self.bound_ok]
        return all(ok for ok in legs if ok is not None)


def verify_gap(cfg: RandomizerConfig, draws: int = 1_000_000,
               rng: np.random.Generator | None = None) -> GapDiagnostics:
    """Check gap(cfg) against (a) enumeration for k <= 12, (b) a Monte-Carlo
    marginal within 4 sigma, (c) the certified lower bound when applicable."""
    g = gap(cfg)
    enum_gap = enum_ok = None
    if cfg.k <= AUDIT_K:
        table = exact_output_distribution(np.ones(cfg.k, dtype=np.int8), cfg)
        enum_val = table.marginal_gap(0)
        enum_gap = float(enum_val)
        enum_ok = bool(abs(enum_val - g) <= mpf("1e-10"))
    if rng is None:
        rng = np.random.default_rng(0)
    batch = sample_composed_batch(cfg, draws, rng)
    est = float(batch[:, 0].astype(np.float64).mean())
    sigma = math.sqrt(max(1e-300, (1 - float(g) ** 2) / draws))
    mc_ok = abs(est - float(g)) <= 4 * sigma
    lb = gap_lower_bound_expr(cfg)
    bound_ok = None if lb is None else bool(0 < lb <= g)
    return GapDiagnostics(gap=float(g), enum_gap=enum_gap, enum_ok=enum_ok,
                          mc_estimate=est, mc_sigma=sigma, mc_ok=mc_ok,
                          lower_bound=None if lb is None else float(lb),
                          bound_ok=bound_ok)


# ---------------------------------------------------------------------------
# chi-square tester


@dataclass
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    passed: bool


def chi_square(observed, expected, significance: float) -> ChiSquareResult:
    """Pearson chi-square of observed counts against expected weights.

    Bins with expected count below 5 are merged with their neighbours
    before the test.
    """
    obs = np.asarray(observed, dtype=np.float64)
    weights = np.asarray(expected, dtype=np.float64)
    if obs.ndim != 1 or obs.shape != weights.shape:
        raise ValueError("observed and expected must be 1-d arrays of equal length")
    if np.any(weights <= 0):
        raise ValueError("expected weights must be positive")
    if np.any(obs < 0):
        raise ValueError("observed counts must be non-negative")
    total = obs.sum()
    if total <= 0 or len(obs) < 2:
        raise ValueError("degenerate histogram")
    exp_counts = total * weights / weights.sum()
    merged_o: list[float] = []
    merged_e: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp_counts):
        acc_o += o
        acc_e += e
        if acc_e >= 5:
            merged_o.append(acc_o)
            merged_e.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if not merged_e:
            raise ValueError("degenerate histogram: too few expected counts")
        merged_o[-1] += acc_o
        merged_e[-1] += acc_e
    if len(merged_e) < 2:
        raise ValueError("degenerate histogram: fewer than two bins after merging")
    o_arr = np.array(merged_o)
    e_arr = np.array(merged_e)
    statistic = float(((o_arr - e_arr) ** 2 / e_arr).sum())
    dof = len(e_arr) - 1
    p_value = float(stats.chi2.sf(statistic, dof))
    return ChiSquareResult(statistic=statistic, dof=dof, p_value=p_value,
                           passed=p_value >= significance)
