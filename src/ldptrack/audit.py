"""Exact privacy audits.

The randomizer's output law depends on the input only through the Hamming
distance, so its worst-case ratio over all input pairs and the client
audit's prefix marginals are both read off that distance law in closed
form; values stay in extended precision end to end and reports carry
concrete witnesses.  The client's worst ratio over all stream pairs is that
same randomizer ratio (audit_client_certificate), checked against an exact
oracle that lists no full output: audit_client on one pair at any d, and
audit_client_sweep over the streams of d <= 16, both at k <= 4.  A pair's
worst ratio at an order is a function of its overlap signature (plain
clients) or of the output patterns on the windows its changes touch
(sample-one), computed once per distinct signature in a call.  Floats only screen:
exact ratios are compared within a relative 1e-9 of the float maximum, beyond rounding.
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
CLIENT_AUDIT_K = 4    # sample-one enumerates up to 2^(2k) output patterns per pair

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


def _changes(alg: AlgorithmConfig, d: int, stream: DerivativeStream) -> list[tuple[int, int]]:
    """(time, delta) of each change of a stream the client can run on."""
    if stream.horizon != d:
        raise ValueError(f"stream horizon {stream.horizon} != d={d}")
    changes = [(c, stream.entries[c - 1]) for c in stream.change_times()]
    if len(changes) > alg.k:
        raise ValueError(f"stream has {len(changes)} changes, above k={alg.k}")
    return changes


def _units(alg: AlgorithmConfig, changes: list[tuple[int, int]], h: int) -> list[tuple[int, int]]:
    """(window, sign) of each unit whose mismatch with an order-h output sets
    the stream's probability: its non-zero window sums, or for sample-one
    the window and delta of each change, in time order."""
    if alg.keep_one:
        return [((c - 1) >> h, v) for c, v in changes]
    return _window_sums(changes, h)


def _terms(alg: AlgorithmConfig, units: list, mismatches: list[int]) -> tuple:
    """A stream's probability at an order-h output over L windows, as the sum
    of num / den (1 + log2 d)^-1 2^-(L - m) masses[m][j] over its terms
    (num, den, m, j), one per variant of the client: the client itself, or
    for sample-one the client on each change kept (weight 1/k each) and on
    none (the rest).  m counts the variant's non-zero window sums, j the
    output's mismatches with them; the other windows report fair coins."""
    if alg.keep_one:
        return tuple((1, alg.k, 1, j) for j in mismatches) + ((alg.k - len(units), alg.k, 0, 0),)
    return ((1, 1, len(units), sum(mismatches)),)


def _pattern_cells(alg: AlgorithmConfig, h: int, pair_changes: list,
                   value_id) -> tuple[list[int], dict[tuple[int, int], int]]:
    """The windows either stream of a pair touches at order h, and the first
    output pattern on them of each distinct pair of the streams' value ids.

    Pattern r sets window touched[i] to +1 where bit len(touched) - 1 - i of
    r is set, so r counts up in itertools.product order over the windows
    ascending, -1 first.  A stream's value depends on r only through the
    bits of its own windows, so each word r & mask gets one value id; r is
    visited in ascending order, so a cell keeps the first r that reaches it.
    """
    units = [_units(alg, changes, h) for changes in pair_changes]
    touched = sorted({w for part in units for w, _ in part})
    shift = {w: len(touched) - 1 - i for i, w in enumerate(touched)}
    masks = [sum({1 << shift[w] for w, _ in part}) for part in units]
    patterns = range(1 << len(touched))
    ids = [{word: value_id(_terms(alg, part, [(word >> shift[w] & 1) ^ (s > 0) for w, s in part]))
            for word in {r & mask for r in patterns}} for part, mask in zip(units, masks)]
    cells: dict[tuple[int, int], int] = {}
    for r in patterns:
        cells.setdefault((ids[0][r & masks[0]], ids[1][r & masks[1]]), r)
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

    Each (pair, order) gets a code that fixes the value pairs its outputs
    reach.  A plain client's is its overlap signature (m_a, m_b, agree,
    disagree): m counts a stream's non-zero window sums, agree the windows
    both touch with equal sums and disagree those with opposite sums; an
    output's mismatches are j_a = x + y + u and j_b = x + (disagree - y) + v
    over the agreeing, disagreeing and own windows.  Sample-one's is the
    rank of each change's window among both streams' change windows.
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
    itertools.product order: -1 on every window no change touches.
    """
    used, slots = np.unique(np.asarray(index_pairs), return_inverse=True)
    pairs = slots.reshape(-1, 2)
    changes = [_changes(alg, d, streams[i]) for i in used]
    k, num_orders = alg.k, d.bit_length()
    masses = alg.randomizer.prefix_masses
    values: list[mpf] = []
    scaled: list[float] = []  # each value times 2^d, a normal float
    value_ids: dict[mpf, int] = {}

    @functools.cache
    def base(num: int, den: int, m: int) -> mpf:
        return mpf(num) / den / num_orders * mpf(2) ** (-(d - m))

    @functools.cache
    def term(num: int, den: int, m: int, j: int) -> mpf:
        return base(num, den, m) * masses[m][j]

    @functools.cache
    def partial_sum(terms: tuple) -> mpf | int:
        # sum() of the terms, left to right: each prefix is added once
        return partial_sum(terms[:-1]) + term(*terms[-1]) if terms else 0

    @functools.cache
    def value_id(terms: tuple) -> int:
        v = partial_sum(terms)
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
    if alg.keep_one:
        times = np.zeros((len(changes), k), dtype=np.int64)
        for row, kept in enumerate(changes):
            times[row, :len(kept)] = [c for c, _ in kept]
        both = np.concatenate([times[pairs[:, 0]], times[pairs[:, 1]]], axis=1)
        for h in range(num_orders):
            windows = np.where(both > 0, (both - 1) >> h, d)
            order = np.argsort(windows, axis=1)
            ranked = np.take_along_axis(windows, order, axis=1)
            rank = np.empty_like(ranked)
            np.put_along_axis(rank, order, np.cumsum(np.diff(ranked, axis=1, prepend=-1) != 0, axis=1),
                              axis=1)
            code = np.zeros(len(pairs), dtype=np.int64)
            for col in np.where(both > 0, rank, 0).T:
                code = code * (2 * k + 1) + col
            codes[:, h] = code
    else:
        sums = np.array([streams[i].entries for i in used], dtype=np.int8)
        for h in range(num_orders):
            m = np.count_nonzero(sums, axis=1)
            prod = sums[pairs[:, 0]] * sums[pairs[:, 1]]
            code = np.zeros(len(pairs), dtype=np.int64)
            for col in (m[pairs[:, 0]], m[pairs[:, 1]], np.count_nonzero(prod > 0, axis=1),
                        np.count_nonzero(prod < 0, axis=1)):
                code = code * (k + 1) + col
            codes[:, h] = code
            sums = sums[:, ::2] + sums[:, 1::2]

    distinct, first, inverse = np.unique(codes.ravel(), return_index=True, return_inverse=True)
    code_cells, screened = [], []
    for code, at in zip(distinct.tolist(), first.tolist()):
        pair, h = divmod(at, num_orders)
        if alg.keep_one:
            cells = _pattern_cells(alg, h, [changes[s] for s in pairs[pair]], value_id)[1]
        else:
            code, disagree = divmod(code, k + 1)
            code, agree = divmod(code, k + 1)
            m_a, m_b = divmod(code, k + 1)
            ids_a, ids_b = ([value_id(((1, 1, m, j),)) for j in range(m + 1)] for m in (m_a, m_b))
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
    touched, cells = _pattern_cells(alg, h, [changes[s] for s in pairs[pair]], value_id)
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
    keys = sorted(functools.reduce(int.__xor__, ((1 << d - c) - 1 for c in changes), 0)
                  for m in range(k + 1) for changes in itertools.combinations(range(d), m))
    series = [tuple(map(int, f"{key:0{d}b}")) for key in keys]
    return tuple(DerivativeStream(tuple(map(int.__sub__, s, (0,) + s[:-1])), k) for s in series)


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
