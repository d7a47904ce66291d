"""Exact privacy audits and gap verification, plus statistical testers.

The randomizer's output law depends on the input only through the Hamming
distance, so its worst-case ratio over all input pairs and the client
audit's prefix marginals are both read off that distance law in closed
form; values stay in extended precision end to end and reports carry
concrete witnesses.  The client's worst ratio over all stream pairs is that
same randomizer ratio (audit_client_certificate), checked against the
enumeration of streams and outputs (audit_client_sweep, d <= 8, k <= 4).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .baselines import AlgorithmConfig, algorithm_config, client_randomizer
from .dyadic import DerivativeStream, _check_horizon, derive
from .errors import CapacityError
from .randomizer import (RandomizerConfig, exact_output_distribution,
                         gap_lower_bound_expr, sample_composed_batch)

AUDIT_K = 12          # enumeration bound of verify_gap's table leg
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
    "audit_client_certificate",
    "enumerate_streams",
    "verify_gap",
    "chi_square",
]


@dataclass
class AuditReport:
    """Worst-case output-probability ratio against the claimed budget."""

    epsilon: float
    max_ratio: mpf
    worst_case: dict | None
    passed: bool

    @classmethod
    def from_ratio(cls, epsilon: float, max_ratio: mpf, worst_case: dict | None) -> "AuditReport":
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


def audit_randomizer(cfg: RandomizerConfig) -> AuditReport:
    """Max probability ratio of the composed randomizer over all input pairs.

    The output law depends on the input only through the Hamming distance,
    P[s | x] = law[dist(s, x)], and every pair of distances (i, j) occurs:
    s = 1^k with x holding i leading -1s and x' holding j.  So the ratios
    P[s | x] / P[s | x'] are exactly law[i] / law[j] over all (i, j), and
    the worst one is max(law) / min(law).  O(k) at any k.
    """
    k = cfg.k
    law = cfg.distance_law
    hi = max(range(k + 1), key=law.__getitem__)
    lo = min(range(k + 1), key=law.__getitem__)
    worst = {
        "input": [-1] * hi + [1] * (k - hi),
        "input_alt": [-1] * lo + [1] * (k - lo),
        "output": [1] * k,
    }
    return AuditReport.from_ratio(cfg.eps, law[hi] / law[lo], worst)


# ---------------------------------------------------------------------------
# client-level audit


def _window_sums(changes: list[tuple[int, int]], h: int) -> list[tuple[int, int]]:
    """(window, sum) of the order-h windows with a non-zero sum, by window.

    ``changes`` holds (time, delta) pairs in time order; window w (from 0)
    covers the times (w 2^h, (w + 1) 2^h].
    """
    sums: dict[int, int] = {}
    for c, v in changes:
        w = (c - 1) >> h
        sums[w] = sums.get(w, 0) + v
    return [(w, s) for w, s in sums.items() if s]


@functools.cache
def _outputs(L: int) -> np.ndarray:
    """Every +-1 output of length L, one row each, in itertools.product order."""
    return np.array(list(itertools.product((-1, 1), repeat=L)), dtype=np.int8)


def _client_distribution(alg: AlgorithmConfig, d: int,
                         stream: DerivativeStream) -> tuple[np.ndarray, list[mpf]]:
    """Exact law of the full client output (h, reported bit sequence), by class.

    At order h with m non-zero window sums, an output has probability
    (1 + log2 d)^-1 2^-(L - m) masses[m][j], j its mismatches with those
    sums: they read the noise vector's m-prefix, the other L - m windows
    report fair coins.  A keep-one client is this client run on the change
    kept in a uniform slot out of k, or on no change for an empty slot.
    Returns the class of each (h, omega) key, h ascending then _outputs
    order, and each class's probability; a class is one j per variant.
    """
    if stream.horizon != d:
        raise ValueError(f"stream horizon {stream.horizon} != d={d}")
    changes = [(c, stream.entries[c - 1]) for c in stream.change_times()]
    if len(changes) > alg.k:
        raise ValueError(f"stream has {len(changes)} changes, above k={alg.k}")
    if alg.keep_one:
        variants = [(mpf(1) / alg.k, [ch]) for ch in changes]
        variants.append((mpf(alg.k - len(changes)) / alg.k, []))
    else:
        variants = [(mpf(1), changes)]
    masses = alg.randomizer.prefix_masses
    num_orders = d.bit_length()
    classes, values = [], []
    for h in range(num_orders):
        L = d >> h
        outputs = _outputs(L)
        terms, code = [], 0
        for weight, kept in variants:
            sums = _window_sums(kept, h)
            m = len(sums)
            j = (outputs[:, [w for w, _ in sums]] != [s for _, s in sums]).sum(axis=1)
            code = code * (m + 1) + j
            terms.append((weight / num_orders * mpf(2) ** (-(L - m)), masses[m], j))
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        values += [sum(base * prefix[j[r]] for base, prefix, j in terms) for r in first]
        classes.append(inverse + (len(values) - len(first)))
    classes = np.concatenate(classes)
    mass = sum((int(c) * v for c, v in zip(np.bincount(classes), values)), mpf(0))
    if abs(mass - 1) > mpf("1e-12"):
        raise ArithmeticError(f"client distribution mass {mass} deviates from 1")
    return classes, values


def _client_algorithm(d: int, k: int, eps: float, algorithm: str) -> AlgorithmConfig:
    _check_horizon(d)
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
    return _ratio_report(eps, _client_distribution(alg, d, stream_a),
                         _client_distribution(alg, d, stream_b), stream_a, stream_b)


def _ratio_report(eps: float, law_a: tuple, law_b: tuple,
                  stream_a: DerivativeStream, stream_b: DerivativeStream) -> AuditReport:
    """Worst ratio over the (h, omega) keys, one exact ratio per class pair;
    the witness is the first key whose class pair attains it."""
    (ca, va), (cb, vb) = law_a, law_b
    present, first = np.unique(ca * len(vb) + cb, return_index=True)
    ratios = [a / b if a > b else b / a
              for a, b in ((va[p // len(vb)], vb[p % len(vb)]) for p in present)]
    best_ratio = max(ratios)
    index = int(min(i for i, r in zip(first, ratios) if r == best_ratio))
    d = stream_a.horizon
    starts = np.cumsum([0] + [1 << (d >> h) for h in range(d.bit_length())])
    h = int(np.searchsorted(starts, index, side="right")) - 1
    worst = {
        "stream": list(stream_a.entries),
        "stream_alt": list(stream_b.entries),
        "order": h,
        "output": _outputs(d >> h)[index - starts[h]].tolist(),
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
    if pairs is not None and pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    alg = _client_algorithm(d, k, eps, algorithm)
    streams = enumerate_streams(d, k)
    if pairs is None:
        index_pairs = list(itertools.combinations(range(len(streams)), 2))
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        index_pairs = [tuple(rng.choice(len(streams), size=2, replace=False))
                       for _ in range(pairs)]
    laws = {i: _client_distribution(alg, d, streams[i])
            for i in set(itertools.chain.from_iterable(index_pairs))}
    worst_report = None
    for i, j in index_pairs:
        rep = _ratio_report(eps, laws[i], laws[j], streams[i], streams[j])
        if worst_report is None or rep.max_ratio > worst_report.max_ratio:
            worst_report = rep
    return worst_report


def audit_client_certificate(d: int, k: int, eps: float,
                             algorithm: str = "futurerand") -> AuditReport:
    """Worst client-level ratio over all stream pairs, in O(k) at any d and k.

    At order h an output over L = d >> h windows has probability
    (1 + log2 d)^-1 2^-L sum_v w_v 2^m_v masses[m_v][j_v], with weights w_v
    summing to 1: one variant for a plain client, one per kept slot for
    sample-one.  With law the distance law of client_randomizer(alg), of
    length k' (k, or 1 for sample-one, whose m <= 1), each 2^m masses[m][j]
    is the mean of 2^k' law[.] over the completions of an m-prefix, so it
    lies in [2^k' min law, 2^k' max law].  Two streams share h and L, so
    their ratio is at most max(law) / min(law), audit_randomizer's ratio.

    It is attained whenever 2k <= d: stream a alternates at t = 1..k,
    stream b at t = k+1..2k, and the order-0 output takes a's sums with
    the first hi flipped and b's with the first lo flipped (hi, lo the
    extreme distances; sample-one flips all k when its distance is 1), +1
    elsewhere.  For 2k > d the ratio is an upper bound with no witness.
    """
    _check_horizon(d)
    alg = algorithm_config(algorithm, k, eps, L=d)
    report = audit_randomizer(client_randomizer(alg))
    worst = None
    if 2 * k <= d:
        hi, lo = (report.worst_case[key].count(-1) * (k if alg.keep_one else 1)
                  for key in ("input", "input_alt"))
        sums = [(-1) ** i for i in range(k)]
        output = [-s for s in sums[:hi]] + sums[hi:] + [-s for s in sums[:lo]] + sums[lo:]
        worst = {"stream": sums + [0] * (d - k), "stream_alt": [0] * k + sums + [0] * (d - 2 * k),
                 "order": 0, "output": output + [1] * (d - 2 * k)}
    return AuditReport.from_ratio(eps, report.max_ratio, worst)


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
    """Check cfg.gap against (a) enumeration for k <= 12, (b) a Monte-Carlo
    marginal within 4 sigma, (c) the certified lower bound when applicable."""
    g = cfg.gap
    enum_gap = enum_ok = None
    if cfg.k <= AUDIT_K:
        table = exact_output_distribution(np.ones(cfg.k, dtype=np.int8), cfg)
        enum_val = table.marginal_gap(0)
        enum_gap = float(enum_val)
        enum_ok = bool(abs(enum_val - g) <= mpf("1e-10"))
    if rng is None:
        rng = np.random.default_rng(0)
    # coordinate 0 alone: a length-1 prefix has exactly its law in a full draw
    first = sample_composed_batch(cfg, draws, rng, np.ones(draws, dtype=np.int64))[:, 0]
    est = float(first.astype(np.float64).mean())
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
    # chi-square survival function: regularized upper incomplete gamma Q(dof/2, x/2)
    p_value = float(mp.gammainc(mpf(dof) / 2, mpf(statistic) / 2, regularized=True))
    return ChiSquareResult(statistic=statistic, dof=dof, p_value=p_value,
                           passed=p_value >= significance)
