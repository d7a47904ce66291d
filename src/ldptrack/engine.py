"""Vectorized execution of the protocol for Monte-Carlo experiments.

Gives estimates with the same law as running one client per user through
the online state machine, but batches the work by sampled order so that
populations of 10^5 users over horizons of 10^3 steps run in seconds.  It
does not consume randomness draw for draw as the per-user clients do: each
purpose (population, orders, noise vectors, fair coins) has its own
substream, shared by all users.  Its collected reports, replayed through
the server, give bit-identical estimates.
Randomness comes from counter-based Philox streams derived hierarchically
from (master seed, repetition, purpose), so runs are bit-reproducible and
repetitions could execute in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import AlgorithmConfig
from .errors import SparsityError
from .protocol import ReportRecord, readout, server_scale
from .randomizer import sample_composed_batch

# purpose tags for substream derivation
PURPOSE_POPULATION = 0
PURPOSE_KEEP = 1
PURPOSE_ORDERS = 2
PURPOSE_NOISE = 3
PURPOSE_BITS = 4

CHANGE_MODELS = ("uniform", "exactly_k", "bursty")

__all__ = [
    "CHANGE_MODELS",
    "RepOutcome",
    "substream",
    "sample_changes",
    "truth_from_changes",
    "simulate_rep",
]


def substream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for one (seed, rep, user/purpose, ...) substream."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(key)))
    )


def _fill_by_rejection(rng: np.random.Generator, times: np.ndarray,
                       rows: np.ndarray, counts: np.ndarray, d: int) -> None:
    """Uniform distinct sorted times for rows with few changes.

    Draws whole rows with replacement and redraws any row containing a
    duplicate, which is exact; callers only send rows whose change count
    keeps the collision rate small.
    """
    if rows.size == 0:
        return
    width = int(counts[rows].max())
    sentinels = d + 1 + np.arange(width, dtype=np.int64)
    col = np.arange(width)[None, :]
    pending = rows
    while pending.size:
        m = pending.size
        draw = rng.integers(1, d + 1, size=(m, width), dtype=np.int64)
        invalid = col >= counts[pending, None]
        draw = np.where(invalid, np.broadcast_to(sentinels, (m, width)), draw)
        draw.sort(axis=1)
        dup = (draw[:, 1:] == draw[:, :-1]).any(axis=1)
        ok = ~dup
        accepted = draw[ok]
        accepted[accepted > d] = 0
        times[pending[ok], :width] = accepted
        pending = pending[dup]


def _fill_by_permutation(rng: np.random.Generator, times: np.ndarray,
                         rows: np.ndarray, counts: np.ndarray, d: int, k: int,
                         chunk: int) -> None:
    """Uniform distinct sorted times via batched row permutations."""
    base = np.arange(1, d + 1, dtype=np.int16 if d < (1 << 15) else np.int32)
    col = np.arange(k)[None, :]
    for lo in range(0, rows.size, chunk):
        sl = rows[lo:lo + chunk]
        m = sl.size
        grid = np.repeat(base[None, :], m, axis=0)
        rng.permuted(grid, axis=1, out=grid)
        sel = grid[:, :k].astype(np.int64)
        masked = np.where(col < counts[sl, None], sel, d + 1)
        masked.sort(axis=1)
        masked[masked == d + 1] = 0
        times[sl] = masked


def sample_changes(n: int, d: int, k: int, model: str,
                   rng: np.random.Generator,
                   chunk: int = 16384) -> tuple[np.ndarray, np.ndarray]:
    """Per-user change times: counts[u] sorted times in times[u, :counts[u]].

    "uniform" draws counts from Uniform{0..k} and times uniformly without
    replacement; "exactly_k" fixes counts at k; "bursty" places a uniform
    count of consecutive change times at a random position.
    """
    if model not in CHANGE_MODELS:
        raise ValueError(f"unknown change model {model!r}; choose from {CHANGE_MODELS}")
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    counts = (np.full(n, k, dtype=np.int64) if model == "exactly_k"
              else rng.integers(0, k + 1, size=n))
    times = np.zeros((n, max(k, 1)), dtype=np.int64)
    if k == 0:
        return counts, times
    if model == "bursty":
        starts = rng.integers(1, d - counts + 2)
        cols = np.arange(k)[None, :]
        grid = starts[:, None] + cols
        times = np.where(cols < counts[:, None], grid, 0)
        return counts, times
    # sparse rows go through cheap whole-row rejection, dense rows through
    # per-row permutations; both are exactly uniform without replacement.
    # c* caps the expected redraws per row at e^(c^2 / 2d) <= ~4
    c_star = max(1, int(1.66 * math.sqrt(d)))
    sparse = counts <= c_star
    _fill_by_rejection(rng, times, np.nonzero(sparse & (counts > 0))[0], counts, d)
    _fill_by_permutation(rng, times, np.nonzero(~sparse)[0], counts, d, k, chunk)
    return counts, times


def truth_from_changes(counts: np.ndarray, times: np.ndarray, d: int) -> np.ndarray:
    """Exact population counts f(1..d) from per-user sorted change times."""
    # odd-numbered changes flip 0 -> 1, even-numbered flip back
    width = times.shape[1]
    up = times[:, 0::2][np.arange(0, width, 2)[None, :] < counts[:, None]]
    down = times[:, 1::2][np.arange(1, width, 2)[None, :] < counts[:, None]]
    steps = (np.bincount(up, minlength=d + 1)
             - np.bincount(down, minlength=d + 1))
    return np.cumsum(steps[:d + 1])[1:].astype(np.int64)


def _keep_one(counts: np.ndarray, times: np.ndarray, k: int,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample-one transform: keep the change in a uniform slot out of k, if any.

    The kept derivative entry retains its original value: the change in an
    even slot (0-based) flipped 0 -> 1, an odd slot flipped back.
    """
    n = len(counts)
    slots = rng.integers(0, k, size=n)
    has = slots < counts
    new_counts = has.astype(np.int64)
    new_times = np.zeros_like(times)
    new_signs = np.zeros_like(times, dtype=np.int8)
    idx = np.nonzero(has)[0]
    new_times[idx, 0] = times[idx, slots[idx]]
    new_signs[idx, 0] = np.where(slots[idx] % 2 == 0, 1, -1)
    return new_counts, new_times, new_signs


@dataclass
class RepOutcome:
    truth: np.ndarray
    estimates: np.ndarray
    reports: list[ReportRecord] | None

    @property
    def max_error(self) -> float:
        return float(np.abs(self.estimates - self.truth).max())


def simulate_rep(alg: AlgorithmConfig, n: int, d: int, seed: int, rep: int,
                 change_model: str = "uniform",
                 collect_reports: bool = False) -> RepOutcome:
    """One repetition: fresh population, all clients, server aggregation."""
    k = alg.k
    counts, times = sample_changes(n, d, k, change_model,
                                   substream(seed, rep, PURPOSE_POPULATION))
    truth = truth_from_changes(counts, times, d)
    # derivative entry values: changes alternate +1, -1 starting from 0
    signs = np.broadcast_to(
        np.where(np.arange(times.shape[1]) % 2 == 0, 1, -1).astype(np.int8),
        times.shape,
    )
    if alg.keep_one:
        counts, times, signs = _keep_one(counts, times, k,
                                         substream(seed, rep, PURPOSE_KEEP))
    num_orders = d.bit_length()
    h_u = substream(seed, rep, PURPOSE_ORDERS).integers(0, num_orders, size=n)
    if alg.randomizer.annulus_full:
        # the pre-drawn noise vector is coordinate-wise independent RR, so
        # consuming its next entry is the same law as a fresh draw per window
        btilde = None
        keep_p = float(1 - alg.randomizer.p)
    else:
        btilde = sample_composed_batch(alg.randomizer, n,
                                       substream(seed, rep, PURPOSE_NOISE))
    rng_bits = substream(seed, rep, PURPOSE_BITS)
    reports: list[ReportRecord] | None = [] if collect_reports else None
    sums: dict[int, np.ndarray] = {}
    kcols = times.shape[1]
    for h in range(num_orders):
        rows = np.nonzero(h_u == h)[0]
        L = d >> h
        m = len(rows)
        if m == 0:
            sums[h] = np.zeros(L, dtype=np.int64)
            continue
        R = (rng_bits.integers(0, 2, size=(m, L), dtype=np.int8) * 2 - 1).astype(np.int8)
        c_rows = counts[rows]
        if c_rows.max(initial=0) > 0:
            t_rows = times[rows]
            col = np.arange(kcols)[None, :]
            valid = col < c_rows[:, None]
            windows = (t_rows - 1) >> h
            keys = (np.arange(m)[:, None] * L + windows)[valid]
            vals = signs[rows][valid]
            # window sums of the derivative; in {-1, 0, +1} for valid streams
            sig = np.bincount(keys, weights=vals, minlength=m * L)
            sig = sig.reshape(m, L).astype(np.int8)
            rr, cc = np.nonzero(sig)
            if rr.size:
                nnz_rows = np.bincount(rr, minlength=m)
                if nnz_rows.max(initial=0) > k:
                    raise SparsityError(
                        f"a stream produced {int(nnz_rows.max())} > k={k} non-zero "
                        f"window sums at order {h}: population generation is broken"
                    )
                if btilde is not None:
                    # rank of each non-zero within its row; np.nonzero is
                    # row-major so rows form contiguous runs
                    row_starts = np.zeros(m, dtype=np.int64)
                    np.cumsum(nnz_rows[:-1], out=row_starts[1:])
                    ranks = np.arange(rr.size) - row_starts[rr]
                    noise = btilde[rows[rr], ranks]
                else:
                    noise = ((rng_bits.random(rr.size) < keep_p).astype(np.int8) * 2 - 1)
                R[rr, cc] = sig[rr, cc] * noise
        sums[h] = R.sum(axis=0, dtype=np.int64)
        if collect_reports:
            for i in range(m):
                u = int(rows[i])
                for j in range(L):
                    reports.append(ReportRecord(user=u, h=h, t=(j + 1) << h,
                                                bit=int(R[i, j])))
    scale = float(server_scale(d, alg.gap, alg.server_factor))
    estimates = np.fromiter((readout(scale, sums, t, d) for t in range(1, d + 1)),
                            dtype=np.float64, count=d)
    return RepOutcome(truth=truth, estimates=estimates, reports=reports)
