"""Vectorized execution of the protocol for Monte-Carlo experiments.

Gives estimates with the same law as one client per user driven through
the online state machine, in O(n k) work: a user with at most k changes
has at most k non-zero window sums, and the engine works from change
events.  Users run in shards of ``SHARD`` (8192), ``WORKERS`` (two) at a
time on threads; the heavy numpy steps release the GIL.  A shard draws
only from its own Philox substreams, keyed by (seed, repetition, purpose,
shard), and the calling thread merges the parts in shard order, so runs
are bit-reproducible and identical for any pool size, one included.
Live memory peaks at 6 MiB for one shard and 10-12 MiB for more at
d = 1024, k = 64 (tracemalloc), whatever n: the shard's int32
change times, 4k bytes a row (2 MiB), and the window stage's results,
9 bytes per non-zero window sum (~15 sums a row) and twice that while
their blocks are joined, whose temporaries are made ``WINDOW_ROWS`` rows
at a time.  The change times are freed before the noise draw.  A
repetition of one shard runs on the calling thread and starts no pool.
A client reads its noise vector in order, one coordinate per non-zero
window sum, so the engine draws only that many leading coordinates per
user, with exactly their law in a full draw.  The z fair coins of a
window's zero-sum users are summed as 2 Binomial(z, 1/2) - z, the same
law.  Only ``collect_reports`` draws every user's bit, coins included,
and sums those same bits, so that replaying the reports through the
server gives bit-identical estimates; they come back as one columnar
``ReportBatch``, by order, user, window.  The two modes draw differently
for one seed, and neither in the order the per-user clients do.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .baselines import AlgorithmConfig
from .errors import SparsityError
from .protocol import ReportBatch, readout, server_scale
from .randomizer import sample_composed_batch

# purpose tags for substream derivation
PURPOSE_POPULATION = 0
PURPOSE_KEEP = 1
PURPOSE_ORDERS = 2
PURPOSE_NOISE = 3
PURPOSE_BITS = 4

# users per shard, and shards in flight at once, each on its own thread:
# WORKERS * SHARD rows bound the working set of one repetition
SHARD = 1 << 13
WORKERS = 2
# rows per block of the window stage, whose temporaries scale with the block
WINDOW_ROWS = 1 << 11

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


def _uniform_subsets(rng: np.random.Generator, counts: np.ndarray, d: int,
                     width: int) -> np.ndarray:
    """Row u: counts[u] distinct uniform values of [1, d], sorted, then zeros.

    Draws with replacement, sorts and redraws the duplicate slots until none
    are left.  The result is the set of distinct values of an i.i.d.
    sequence stopped by a rule no relabelling of [1, d] changes, so it is
    uniform over subsets of its size.  Rows with more than d/2 values draw
    their complement, so a slot collides with probability below 1/2.
    """
    flip = 2 * counts > d
    drawn = np.where(flip, d - counts, counts).astype(np.int32)
    w = max(1, min(width, d // 2))
    col = np.arange(w, dtype=np.int32)
    # distinct sentinels above d fill the unused slots and sort last
    out = rng.integers(1, d + 1, size=(len(counts), w), dtype=np.int32)
    np.copyto(out, d + 1 + col, where=col >= drawn[:, None])
    out.sort(axis=1)
    pending, block = np.arange(len(counts)), out
    while True:
        dup = block[:, 1:] == block[:, :-1]
        again = np.flatnonzero(dup.any(axis=1))
        if not again.size:
            break
        pending, block, dup = pending[again], block[again], dup[again]
        block[:, 1:][dup] = rng.integers(1, d + 1, size=int(dup.sum()), dtype=np.int32)
        block.sort(axis=1)
        out[pending] = block
    out *= out <= d  # sentinels become the zero padding
    times = out if w == width else np.pad(out, ((0, 0), (0, width - w)))
    # a flipped row drew its complement: it takes every value it did not draw
    rows = np.flatnonzero(flip)
    chosen = np.ones((rows.size, d + 1), dtype=bool)
    np.put_along_axis(chosen, out[rows], False, axis=1)
    block = np.zeros((rows.size, width), dtype=np.int32)
    block[np.arange(width) < counts[rows, None]] = np.broadcast_to(
        np.arange(1, d + 1, dtype=np.int32), (rows.size, d))[chosen[:, 1:]]
    times[rows] = block
    return times


def sample_changes(n: int, d: int, k: int, model: str,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Change counts, and per user a row of its sorted int32 change times, zero-padded.

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
    width = max(k, 1)
    if model == "bursty":
        cols = np.arange(width, dtype=np.int32)
        starts = rng.integers(1, d - counts + 2).astype(np.int32)[:, None]
        return counts, np.where(cols < counts[:, None], starts + cols, 0)
    return counts, _uniform_subsets(rng, counts, d, width)


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
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample-one transform: keep the change in a uniform slot out of k, if any.

    Returns (rows, 1) arrays of the kept time, zero if none, and the level
    after it: the change in an even slot (0-based) flipped 0 -> 1 and keeps
    +1, an odd slot's keeps -1.
    """
    slots = rng.integers(0, k, size=len(counts))
    kept = np.flatnonzero(slots < counts)
    new_times = np.zeros((len(counts), 1), dtype=times.dtype)
    levels = np.zeros((len(counts), 1), dtype=np.int8)
    new_times[kept, 0] = times[kept, slots[kept]]
    levels[kept, 0] = np.where(slots[kept] % 2 == 0, 1, -1)
    return new_times, levels


def _nonzero_windows(times: np.ndarray, levels: np.ndarray, h_u: np.ndarray,
                     k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every non-zero window sum of a shard, from its change events.

    ``times`` is zero-padded as ``sample_changes`` returns it; ``levels[u, c]``
    is user u's derivative prefix sum just after change c, as int8.  A
    window's sum is the level after its last change minus the level after
    the user's previous window.
    Returns (user, window index from 0, sum) as int32, int32 and int8
    arrays, ordered by user then window.  Rows go in blocks of
    ``WINDOW_ROWS``, so only the results grow with the shard.
    """
    width = times.shape[1]
    parts = ([], [], [])  # the blocks of each result
    for lo in range(0, len(times), WINDOW_ROWS):
        block = times[lo:lo + WINDOW_ROWS]
        window = block - 1
        np.right_shift(window, h_u[lo:lo + WINDOW_ROWS, None], out=window)
        # the last change of each window: the next one is in a later window or absent
        last = block > 0
        last[:, :-1] &= window[:, 1:] != window[:, :-1]
        ends = np.flatnonzero(last)
        row = ends // width
        level = levels[lo:lo + WINDOW_ROWS].ravel()[ends]
        value = np.diff(level, prepend=np.int8(0))
        first = np.flatnonzero(row[1:] != row[:-1]) + 1  # a user's first window
        value[first] = level[first]
        nz = np.flatnonzero(value != 0)
        ends, row, value = ends[nz], row[nz], value[nz]
        per_user = np.bincount(row, minlength=len(block))
        if per_user.max(initial=0) > k:
            u = per_user.argmax()
            raise SparsityError(f"a stream produced {per_user[u]} > k={k} non-zero window "
                                f"sums at order {h_u[lo + u]}: population generation is broken")
        for part, a in zip(parts, ((row + lo).astype(np.int32), window.ravel()[ends], value)):
            part.append(a)
    return tuple(np.concatenate(p) for p in parts)


@dataclass
class RepOutcome:
    truth: np.ndarray
    estimates: np.ndarray
    reports: ReportBatch | None

    @property
    def max_error(self) -> float:
        return float(np.abs(self.estimates - self.truth).max())


def _shard_part(alg: AlgorithmConfig, n: int, d: int, seed: int, rep: int,
                change_model: str, collect_reports: bool, offset: np.ndarray,
                shard: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | int,
                                     list[np.ndarray]]:
    """One shard's truth, window sums, zero-sum users per window, and report
    blocks per order (only when collecting, which leaves no zero-sum users).

    Draws only from the shard's own substreams, so the part does not depend
    on the thread that computes it or on the other shards.
    """
    k = alg.k
    num_orders = len(offset) - 1
    lo = shard * SHARD
    m = min(SHARD, n - lo)
    counts, times = sample_changes(
        m, d, k, change_model, substream(seed, rep, PURPOSE_POPULATION, shard))
    truth = truth_from_changes(counts, times, d)
    # every change flips the Boolean value, which starts at 0
    levels = np.broadcast_to((np.arange(times.shape[1]) % 2 == 0).astype(np.int8),
                             times.shape)
    if alg.keep_one:
        times, levels = _keep_one(counts, times, k,
                                  substream(seed, rep, PURPOSE_KEEP, shard))
    h_u = substream(seed, rep, PURPOSE_ORDERS, shard).integers(
        0, num_orders, size=m).astype(np.int32)
    user, window, value = _nonzero_windows(times, levels, h_u, k)
    del counts, times, levels  # freed before the noise draw
    lengths = np.bincount(user, minlength=m)
    noise = sample_composed_batch(alg.randomizer, m, substream(seed, rep, PURPOSE_NOISE, shard),
                                  lengths)
    # row u's first lengths[u] coordinates, rows in turn: one per non-zero sum, in order
    noise = noise[np.arange(noise.shape[1]) < lengths[:, None]]
    bits = value * noise
    if not collect_reports:
        # the flat window index of every non-zero sum; ±1 sums counted in integers
        flat = offset.astype(np.int32)[h_u][user]
        flat += window
        both = np.bincount(2 * flat + (bits > 0), minlength=2 * offset[-1]).reshape(-1, 2)
        hits = both.sum(axis=1)
        sums = both[:, 1] - both[:, 0]
        zeros = np.repeat(np.bincount(h_u, minlength=num_orders), np.diff(offset)) - hits
        return truth, sums, zeros, []
    h_nz = h_u[user]
    sums = np.empty(offset[-1], dtype=np.int64)
    blocks = []
    rng_bits = substream(seed, rep, PURPOSE_BITS, shard)
    for h in range(num_orders):
        rows = np.flatnonzero(h_u == h)
        L = d >> h
        R = rng_bits.integers(0, 2, size=(rows.size, L), dtype=np.int8) * 2 - 1
        at = h_nz == h
        R[np.searchsorted(rows, user[at]), window[at]] = bits[at]
        sums[offset[h]:offset[h + 1]] = R.sum(axis=0, dtype=np.int64)
        cols = np.broadcast_arrays((rows + lo)[:, None], h, np.arange(1, L + 1) << h, R)
        blocks.append(np.stack(cols, axis=-1, dtype=np.int64).reshape(-1, 4))
    return truth, sums, 0, blocks


def _map_shards(part, num_shards: int) -> Iterator:
    """``part`` of each shard, in shard order: on ``WORKERS`` threads when
    there is more than one shard, else on the calling thread."""
    if min(WORKERS, num_shards) <= 1:
        yield from map(part, range(num_shards))
        return
    # imported on first use: it loads logging, ~10 ms that one-shard runs skip
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(WORKERS, thread_name_prefix="ldptrack-shard") as pool:
        yield from pool.map(part, range(num_shards))


def simulate_rep(alg: AlgorithmConfig, n: int, d: int, seed: int, rep: int,
                 change_model: str = "uniform",
                 collect_reports: bool = False) -> RepOutcome:
    """One repetition: fresh population, all clients, server aggregation."""
    num_orders = d.bit_length()
    # window j (from 0) of order h sits at flat index offset[h] + j
    offset = np.cumsum([0] + [d >> h for h in range(num_orders)])
    truth = np.zeros(d, dtype=np.int64)
    sums = np.zeros(offset[-1], dtype=np.int64)
    zeros = np.zeros(offset[-1], dtype=np.int64)  # zero-sum users, coins not drawn yet
    blocks: list[list[np.ndarray]] = [[] for _ in range(num_orders)]  # row blocks per order
    # built here: mpmath's precision is process-wide, so no worker thread runs it
    alg.randomizer.distance_cdf
    part = partial(_shard_part, alg, n, d, seed, rep, change_model, collect_reports, offset)
    for shard_truth, shard_sums, shard_zeros, shard_blocks in _map_shards(part, -(-n // SHARD)):
        truth += shard_truth
        sums += shard_sums
        zeros += shard_zeros
        for h, block in enumerate(shard_blocks):
            blocks[h].append(block)
    # the zero-sum users' coins as 2 Binomial(z, 1/2) - z (none left when collecting)
    sums += 2 * substream(seed, rep, PURPOSE_BITS).binomial(zeros, 0.5) - zeros
    per_order = [sums[offset[h]:offset[h + 1]] for h in range(num_orders)]
    scale = float(server_scale(d, alg.gap, alg.server_factor))
    estimates = np.fromiter((readout(scale, per_order, t, d) for t in range(1, d + 1)),
                            dtype=np.float64, count=d)
    reports = (ReportBatch(np.concatenate([np.empty((0, 4), dtype=np.int64),
                                           *chain.from_iterable(blocks)]))
               if collect_reports else None)
    return RepOutcome(truth=truth, estimates=estimates, reports=reports)
