"""The engine's change-time sampler, its shards and its window sums."""

import hashlib
import io
import math
import sys
import threading

import numpy as np
import pytest

from ldptrack import engine
from ldptrack.baselines import ALGORITHMS, algorithm_config
from ldptrack.dyadic import derive
from ldptrack.engine import (CHANGE_MODELS, PURPOSE_POPULATION, SHARD,
                             sample_changes, simulate_rep, substream,
                             truth_from_changes)
from ldptrack.errors import SparsityError
from ldptrack.protocol import replay, write_reports

from oracles import chi_square, client_law


def _subset_histogram(times: np.ndarray, d: int, c: int) -> np.ndarray:
    """How often each c-subset of [1, d] occurs among the rows' first c times."""
    masks = (np.int64(1) << (times[:, :c].astype(np.int64) - 1)).sum(axis=1)
    subsets = np.array([m for m in range(1 << d) if m.bit_count() == c])
    idx = np.searchsorted(subsets, masks)
    assert np.array_equal(subsets[np.minimum(idx, subsets.size - 1)], masks)
    return np.bincount(idx, minlength=subsets.size)


# (8, 3) and (8, 4) draw the times, (8, 5) and (16, 13) their complement
@pytest.mark.parametrize("d, c", [(8, 3), (8, 4), (8, 5), (16, 13)])
def test_sampler_uniform_over_all_subsets(d, c):
    bins = math.comb(d, c)
    _, times = sample_changes(max(20_000, 40 * bins), d, c, "exactly_k",
                              np.random.default_rng(100 * d + c))
    res = chi_square(_subset_histogram(times, d, c), np.ones(bins), significance=0.001)
    assert res.passed, res


def test_sampler_uniform_per_count_when_k_equals_d():
    # d = k = 16: counts spread over 0..16, both sides of the complement switch
    counts, times = sample_changes(200_000, 16, 16, "uniform", np.random.default_rng(5))
    for c in (2, 14, 15):
        rows = times[counts == c]
        res = chi_square(_subset_histogram(rows, 16, c), np.ones(math.comb(16, c)),
                         significance=0.001)
        assert res.passed, (c, res)
    full = times[counts == 16]
    assert np.array_equal(full, np.tile(np.arange(1, 17), (len(full), 1)))


def test_sampler_edge_cases_and_layout():
    rng = np.random.default_rng(8)
    counts, times = sample_changes(50, 16, 0, "uniform", rng)
    assert times.dtype == np.int32 and times.shape == (50, 1)
    assert not counts.any() and not times.any()
    _, times = sample_changes(50, 16, 16, "exactly_k", rng)
    assert times.dtype == np.int32
    assert np.array_equal(times, np.tile(np.arange(1, 17, dtype=np.int32), (50, 1)))
    _, times = sample_changes(20, 1, 1, "exactly_k", rng)
    assert np.array_equal(times, np.ones((20, 1)))
    for model in CHANGE_MODELS:
        counts, times = sample_changes(2000, 64, 40, model, rng)
        assert times.dtype == np.int32 and times.shape == (2000, 40)
        valid = np.arange(40) < counts[:, None]
        assert np.all(np.diff(times, axis=1)[valid[:, 1:]] > 0), model
        assert np.all((times[valid] >= 1) & (times[valid] <= 64)), model
        assert not times[~valid].any(), model


@pytest.mark.parametrize("n", [5, SHARD + 3, 2 * SHARD])
def test_shards_cover_every_user_once(n, monkeypatch):
    sizes, threads = [], set()
    sample = engine.sample_changes

    def spy(m, *args):
        sizes.append(m)
        threads.add(threading.current_thread().name)
        return sample(m, *args)

    monkeypatch.setattr(engine, "sample_changes", spy)
    d, k = 8, 2
    alg = algorithm_config("futurerand", k, 1.0, L=d)
    out = simulate_rep(alg, n, d, seed=4, rep=1, collect_reports=True)
    expected = [SHARD] * (n // SHARD) + ([n % SHARD] if n % SHARD else [])
    # shards run on threads, so their calls come in any order
    assert sorted(sizes) == sorted(expected)
    if n <= SHARD:  # one shard: the calling thread, no pool
        assert threads == {threading.current_thread().name}
    else:
        assert all(name.startswith("ldptrack-shard") for name in threads)
    truth = sum(truth_from_changes(*sample(m, d, k, "uniform",
                                           substream(4, 1, PURPOSE_POPULATION, s)), d)
                for s, m in enumerate(expected))
    assert np.array_equal(out.truth, truth)
    # records by order, then user, then window; one bit per due window
    keys = [(r.h, r.user, r.t) for r in out.reports]
    assert keys == sorted(keys)
    order = {r.user: r.h for r in out.reports}
    assert sorted(order) == list(range(n))
    assert len(out.reports) == sum(d >> h for h in order.values())
    assert np.array_equal(replay(out.reports, alg, d), out.estimates)
    # without reports the population is the same; the zero windows' coins differ
    plain = simulate_rep(alg, n, d, seed=4, rep=1)
    assert np.array_equal(plain.truth, out.truth)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_results_identical_for_any_pool_size(algo, monkeypatch):
    d, n = 16, 2 * SHARD + 5
    alg = algorithm_config(algo, 4, 1.0, L=d)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads interleave as often as they can
    try:
        # 1 runs on the calling thread alone, 4 runs all three shards at once
        for workers in (engine.WORKERS, 4, 1):
            monkeypatch.setattr(engine, "WORKERS", workers)
            runs[workers] = [simulate_rep(alg, n, d, seed=9, rep=2, collect_reports=collect)
                             for collect in (False, True)]
    finally:
        sys.setswitchinterval(interval)
    serial = runs.pop(1)
    assert len(serial[1].reports) > n
    for pooled in runs.values():
        for got, want in zip(pooled, serial):
            assert np.array_equal(got.truth, want.truth)
            assert np.array_equal(got.estimates, want.estimates)
            assert got.reports == want.reports


def _forged(n, d, k, model, rng):
    # three changes in three windows at orders 0 and 1, against k = 2
    return np.full(n, 3), np.tile(np.array([1, 3, 5], dtype=np.int32), (n, 1))


def test_forged_population_with_too_many_nonzero_windows_raises(monkeypatch):
    monkeypatch.setattr(engine, "sample_changes", _forged)
    alg = algorithm_config("futurerand", 2, 1.0, L=8)
    with pytest.raises(SparsityError, match="non-zero window sums"):
        simulate_rep(alg, 50, 8, seed=0, rep=0)


def test_sparsity_error_in_the_last_shard_stops_the_pool(monkeypatch):
    sample = engine.sample_changes

    def last_forged(m, *args):
        return (sample if m == SHARD else _forged)(m, *args)

    monkeypatch.setattr(engine, "sample_changes", last_forged)
    alg = algorithm_config("futurerand", 2, 1.0, L=8)
    before = set(threading.enumerate())
    with pytest.raises(SparsityError, match="non-zero window sums"):
        simulate_rep(alg, 2 * SHARD + 5, 8, seed=0, rep=0)
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("series", [(0, 1, 1, 0, 0, 1, 1, 1), (0, 1, 1, 1, 0, 0, 0, 0)])
def test_engine_reports_follow_the_audited_client_law(algo, series, monkeypatch):
    # every user holds one stream, so each user's (h, omega) in the engine's
    # reports is one draw of the exact client law that the audits certify
    d, k, n = 8, 3, 40_000
    stream = derive(series, k=k)
    times = np.zeros(k, dtype=np.int32)
    times[:len(stream.change_times())] = stream.change_times()

    def one_stream(m, d, k, model, rng):
        return np.full(m, len(stream.change_times())), np.tile(times, (m, 1))

    monkeypatch.setattr(engine, "sample_changes", one_stream)
    alg = algorithm_config(algo, k, 1.0, L=d)
    rows = simulate_rep(alg, n, d, seed=3, rep=0, collect_reports=True).reports.rows
    law = client_law(alg, d, stream)
    counts = dict.fromkeys(law, 0)
    for h in range(d.bit_length()):
        outputs, seen = np.unique(rows[rows[:, 1] == h, 3].reshape(-1, d >> h), axis=0,
                                  return_counts=True)
        for omega, c in zip(outputs.tolist(), seen.tolist()):
            counts[h, tuple(omega)] += c
    assert sum(counts.values()) == n
    res = chi_square(list(counts.values()), [float(p) for p in law.values()],
                     significance=0.001)
    assert res.passed, (algo, series, res)


# SHA-256 of the NDJSON dump, as written by the engine that built one
# ReportRecord per bit: the columnar engine writes the same records, in the
# same order, from the same randomness
_DUMP_SHA256 = {
    ("futurerand", 0): "7c53ea874b02bbe8aeb0a263f41ebbe8d3c38efdc1a1502ec680dc8c9638d1cb",
    ("futurerand", 1): "dd39e7172e9546b2006a856374cebcaa039b1797ee809f8ab873d2d8cf901ef2",
    ("sample_one", 0): "aa9c6222269b2a8663d07e121eb6dbf55257d68ad0f9ff3aa0ad9bfd34982190",
    ("sample_one", 1): "eed3e584b058da0d07af1c5b9a309091c584846077ae657dad123707009d6575",
}


@pytest.mark.parametrize("algo, rep", sorted(_DUMP_SHA256))
def test_report_dump_bytes_are_pinned(algo, rep):
    alg = algorithm_config(algo, 8, 1.0, L=64)
    out = simulate_rep(alg, 3000, 64, seed=5, rep=rep, collect_reports=True)
    buf = io.StringIO()
    write_reports(out.reports, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == _DUMP_SHA256[algo, rep]
