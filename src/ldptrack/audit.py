"""Exact privacy audits.

The randomizer's output law depends on the input only through the Hamming
distance, so its worst-case ratio over all input pairs and the client
audit's prefix marginals are both read off that distance law in closed
form; values stay in extended precision end to end and reports carry
concrete witnesses.  The client's worst ratio over all stream pairs is that
same randomizer ratio (audit_client_certificate), checked against an exact
oracle that lists no full output: audit_client on one pair at any d, and
audit_client_sweep over the streams of d <= 16, both at k <= 4.  For every
algorithm, sample-one included, a stream's value at an output depends only
on its non-zero window sums and the output's mismatches with them, so a
pair's worst ratio at an order is a function of its overlap signature,
computed once per distinct signature in a call.  Floats only screen: exact
ratios are compared within a relative 1e-9 of the float maximum, beyond rounding.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .baselines import AlgorithmConfig, algorithm_config
from .dyadic import DerivativeStream, _check_horizon
from .errors import CapacityError
# exact_output_distribution stays an attribute here: perfbench's audit workload wraps it
from .randomizer import RandomizerConfig, exact_output_distribution  # noqa: F401

CLIENT_AUDIT_D = 16   # enumerate_streams lists sum_{m <= k} C(d, m) series
CLIENT_AUDIT_K = 4    # bounds the O(k^4) cells per signature and the witness's 2^(2k) patterns

RATIO_SLACK = mpf("1e-9")  # absorbs extended-precision rounding on the e^eps test

__all__ = [
    "AuditReport",
    "audit_randomizer",
    "audit_client",
    "audit_client_sweep",
    "audit_client_certificate",
    "enumerate_streams",
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


def _terms(alg: AlgorithmConfig, m: int, j: int) -> tuple:
    """A stream's probability at an order-h output over L windows, as the sum
    of num / den (1 + log2 d)^-1 2^-(L - m') masses[m'][j'] over its terms
    (num, den, m', j'), one per variant of the client, given the stream's m
    non-zero window sums and the output's j mismatches with them.  A plain
    client is its own one variant.  Sample-one is the client on the change
    kept in a uniform slot (weight 1/k each) or on none (the rest).  The
    changes inside one window alternate in sign and sum to the window's sum,
    so the kept change is the window's one non-zero sum when that sum is
    non-zero, and a cancelling (+1, -1) pair weighs 2^-(L-1) (masses[1][0] +
    masses[1][1]) / k = 2^(1-L) / k, as two empty slots do: m kept changes,
    the j mismatched ones last, and k - m empty slots."""
    if alg.keep_one:
        return ((1, alg.k, 1, 0),) * (m - j) + ((1, alg.k, 1, 1),) * j + ((alg.k - m, alg.k, 0, 0),)
    return ((1, 1, m, j),)


def _pattern_cells(rows: np.ndarray, value_id) -> tuple[list[int], dict[tuple[int, int], int]]:
    """The windows where either of a pair's order-h window-sum rows is non-zero,
    and the first output pattern on them of each distinct pair of the streams' value ids.

    Pattern r sets window touched[i] to +1 where bit len(touched) - 1 - i of
    r is set, so r counts up in itertools.product order over the windows
    ascending, -1 first.  A stream's mismatches with r are the set bits of
    (r ^ plus) & mask, mask its non-zero windows and plus its positive ones;
    r is visited in ascending order, so a cell keeps the first r that reaches it.
    """
    touched = np.flatnonzero(rows.any(axis=0)).tolist()
    bits = [1 << len(touched) - 1 - i for i in range(len(touched))]
    signs = [row[touched].tolist() for row in rows]
    masks = [sum(b for b, s in zip(bits, row) if s) for row in signs]
    plus = [sum(b for b, s in zip(bits, row) if s > 0) for row in signs]
    cells: dict[tuple[int, int], int] = {}
    for r in range(1 << len(touched)):
        cells.setdefault(tuple(value_id(mask.bit_count(), ((r ^ p) & mask).bit_count())
                               for mask, p in zip(masks, plus)), r)
    return touched, cells


def _client_algorithm(d: int, k: int, eps: float, algorithm: str) -> AlgorithmConfig:
    _check_horizon(d)
    if k > CLIENT_AUDIT_K:
        raise CapacityError(f"k={k} above client audit bound {CLIENT_AUDIT_K}")
    return algorithm_config(algorithm, k, eps, L=d)


def audit_client(d: int, k: int, eps: float,
                 stream_a: DerivativeStream, stream_b: DerivativeStream,
                 algorithm: str = "futurerand") -> AuditReport:
    """Exact output-probability ratio of the full client on two streams, at any d."""
    alg = _client_algorithm(d, k, eps, algorithm)
    return _worst_report(eps, alg, d, [stream_a, stream_b], [(0, 1)])


def _worst_report(eps: float, alg: AlgorithmConfig, d: int,
                  streams: list[DerivativeStream], index_pairs) -> AuditReport:
    """Worst ratio over the (h, omega) keys of the given stream pairs.

    A stream's value at an order-h output is a function of its m non-zero
    window sums and the output's j mismatches with them (_terms), for every
    algorithm.  So each (pair, order) gets its overlap signature (m_a, m_b,
    agree, disagree) as a code: agree counts the windows both streams touch
    with equal sums and disagree those with opposite sums, and an output's
    mismatches are j_a = x + y + u and j_b = x + (disagree - y) + v over the
    agreeing, disagreeing and own windows.
    Values are taken at order 0: an order-h value is exactly 2^(d - L) times
    that, a power of two that mpf arithmetic scales by without rounding, so
    no ratio depends on h.  Each value's float, 2^d times it, lies in
    [2^k' min law, 2^k' max law] / (1 + log2 d) (audit_client_certificate), a
    normal float: algorithm_config's gap check keeps min law above ~1e-200 at k <= 4.
    Codes, then cells, whose float ratio is within a relative 1e-9 of the
    largest are compared as mpf ratios, the only ones decided or reported; a
    float ratio is within ~3 2^-53 of its mpf one, so a maximal cell always
    passes.  The witness is the first pair, in index_pairs order, that attains
    the maximum, at its first such order and the first output in
    itertools.product order: -1 on every window neither stream's sums touch.
    """
    used, slots = np.unique(np.asarray(index_pairs), return_inverse=True)
    pairs = slots.reshape(-1, 2)
    k, num_orders = alg.k, d.bit_length()
    for i in used:
        if streams[i].d != d:
            raise ValueError(f"stream horizon {streams[i].d} != d={d}")
        if len(streams[i].change_times) > k:
            raise ValueError(f"stream has {len(streams[i].change_times)} changes, above k={k}")
    sums = np.array([streams[i].entries for i in used], dtype=np.int8)
    masses = alg.randomizer.prefix_masses
    values: list[mpf] = []
    scaled: list[float] = []  # each value times 2^d, a normal float
    value_ids: dict[mpf, int] = {}

    @functools.cache
    def value_id(m: int, j: int) -> int:
        v = sum(mpf(num) / den / num_orders * mpf(2) ** (m_v - d) * masses[m_v][j_v]
                for num, den, m_v, j_v in _terms(alg, m, j))
        if v not in value_ids:
            value_ids[v] = len(values)
            values.append(v)
            scaled.append(float(mp.ldexp(v, d)))
        return value_ids[v]

    def screen(id_a: int, id_b: int) -> float:
        a, b = scaled[id_a], scaled[id_b]
        return a / b if a > b else b / a

    @functools.cache
    def ratio(id_a: int, id_b: int) -> mpf:
        a, b = values[id_a], values[id_b]
        return a / b if a > b else b / a

    codes = np.empty((len(pairs), num_orders), dtype=np.int64)
    levels = []  # the order-h window sums of each used stream
    for h in range(num_orders):
        levels.append(sums)
        m = np.count_nonzero(sums, axis=1)
        prod = sums[pairs[:, 0]] * sums[pairs[:, 1]]
        code = np.zeros(len(pairs), dtype=np.int64)
        for col in (m[pairs[:, 0]], m[pairs[:, 1]], np.count_nonzero(prod > 0, axis=1),
                    np.count_nonzero(prod < 0, axis=1)):
            code = code * (k + 1) + col
        codes[:, h] = code
        sums = sums[:, ::2] + sums[:, 1::2]

    distinct, inverse = np.unique(codes.ravel(), return_inverse=True)
    code_cells, screened = [], []
    for code in distinct.tolist():
        code, disagree = divmod(code, k + 1)
        code, agree = divmod(code, k + 1)
        m_a, m_b = divmod(code, k + 1)
        ids_a, ids_b = ([value_id(m, j) for j in range(m + 1)] for m in (m_a, m_b))
        own_a, own_b = m_a - agree - disagree, m_b - agree - disagree
        cells = {(ids_a[x + y + u], ids_b[x + disagree - y + v])
                 for x in range(agree + 1) for y in range(disagree + 1)
                 for u in range(own_a + 1) for v in range(own_b + 1)}
        code_cells.append(cells)
        screened.append(max(itertools.starmap(screen, cells)))
    edge = max(screened) * (1 - 1e-9)
    exact = {i: max(ratio(*cell) for cell in cells if screen(*cell) >= edge)
             for i, cells in enumerate(code_cells) if screened[i] >= edge}
    top = max(exact.values())
    attains = np.array([i in exact and exact[i] == top for i in range(len(code_cells))])
    pair, h = divmod(int(attains[inverse].argmax()), num_orders)
    touched, cells = _pattern_cells(levels[h][pairs[pair]], value_id)
    row = min(r for cell, r in cells.items() if screen(*cell) >= edge and ratio(*cell) == top)
    output = [-1] * (d >> h)
    for i, w in enumerate(touched):
        output[w] = 1 if row >> (len(touched) - 1 - i) & 1 else -1
    stream_a, stream_b = (streams[i] for i in used[pairs[pair]])
    worst = {"stream": list(stream_a.entries), "stream_alt": list(stream_b.entries),
             "order": h, "output": output}
    return AuditReport.from_ratio(eps, top, worst)


def enumerate_streams(d: int, k: int) -> tuple[DerivativeStream, ...]:
    """Streams of every Boolean series on [1, d] with at most k changes, in product order,
    the numeric order of a series read as d bits: the XOR of its changes' suffix masks."""
    if d > CLIENT_AUDIT_D:
        raise CapacityError(f"d={d} above stream enumeration bound {CLIENT_AUDIT_D}")
    times = [c for m in range(k + 1) for c in itertools.combinations(range(1, d + 1), m)]
    times.sort(key=lambda c: functools.reduce(int.__xor__, ((1 << d + 1 - t) - 1 for t in c), 0))
    return tuple(DerivativeStream(c, d, k) for c in times)


def _draw_pairs(n: int, pairs: int, rng: np.random.Generator) -> np.ndarray:
    """``pairs`` rows (a, b), uniform over ordered pairs of distinct indices below n."""
    a, b = rng.integers(0, n, pairs), rng.integers(0, n - 1, pairs)
    b += b >= a
    return np.column_stack((a, b))


def audit_client_sweep(d: int, k: int, eps: float, algorithm: str = "futurerand",
                       pairs: int | None = None,
                       rng: np.random.Generator | None = None) -> AuditReport:
    """Worst client-level ratio over stream pairs: exhaustive, or a random sample.

    With ``pairs`` set, that many ordered pairs of distinct streams are
    drawn uniformly, in one draw (_draw_pairs); otherwise every pair is checked.
    """
    if pairs is not None and (isinstance(pairs, bool) or not isinstance(pairs, (int, np.integer))
                              or pairs < 1):
        raise ValueError(f"pairs must be >= 1 and an int, got {pairs!r}")
    alg = _client_algorithm(d, k, eps, algorithm)
    streams = enumerate_streams(d, k)
    index_pairs = (np.column_stack(np.triu_indices(len(streams), 1)) if pairs is None
                   else _draw_pairs(len(streams), pairs, rng or np.random.default_rng(0)))
    return _worst_report(eps, alg, d, streams, index_pairs)


def audit_client_certificate(d: int, k: int, eps: float,
                             algorithm: str = "futurerand") -> AuditReport:
    """Worst client-level ratio over all stream pairs, in O(k) at any d and k.

    At order h an output over L = d >> h windows has probability
    (1 + log2 d)^-1 2^-L sum_v w_v 2^m_v masses[m_v][j_v], with weights w_v
    summing to 1: one variant for a plain client, one per kept slot for
    sample-one.  With law the distance law of alg.randomizer, over its k'
    coordinates (k, or 1 for sample-one, whose m <= 1), each 2^m masses[m][j]
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
    report = audit_randomizer(alg.randomizer)
    worst = None
    if 2 * k <= d:
        hi, lo = (report.worst_case[key].count(-1) * (k if alg.keep_one else 1)
                  for key in ("input", "input_alt"))
        sums = [(-1) ** i for i in range(k)]
        output = [-s for s in sums[:hi]] + sums[hi:] + [-s for s in sums[:lo]] + sums[lo:]
        worst = {"stream": sums + [0] * (d - k), "stream_alt": [0] * k + sums + [0] * (d - 2 * k),
                 "order": 0, "output": output + [1] * (d - 2 * k)}
    return AuditReport.from_ratio(eps, report.max_ratio, worst)
