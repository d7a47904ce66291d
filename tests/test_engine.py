"""The engine's change-time sampler, its shards and its window sums."""

import hashlib
import io
import math
import sys
import threading
import tracemalloc

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


# one shard; more shards than threads, the last one short; all shards full
@pytest.mark.parametrize("n", [5, 4 * SHARD + 3, 8 * SHARD])
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
    # the server gives the engine's estimates from reports of several shards
    assert np.array_equal(replay(serial[1].reports, alg, d), serial[1].estimates)
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
# same order, from the same randomness (sample-one's since its noise comes
# from its one-coordinate randomizer)
_DUMP_SHA256 = {
    ("futurerand", 0): "7c53ea874b02bbe8aeb0a263f41ebbe8d3c38efdc1a1502ec680dc8c9638d1cb",
    ("futurerand", 1): "dd39e7172e9546b2006a856374cebcaa039b1797ee809f8ab873d2d8cf901ef2",
    ("sample_one", 0): "815d47c82a00dbde4328e894edbd0bb371ef1cbbc151e4a537eb0fdbc3a43ac6",
    ("sample_one", 1): "5877a3a5bfb0bfe3239028bb9e4e875836f151b96560d37af0bde35ac9508577",
}


@pytest.mark.parametrize("algo, rep", sorted(_DUMP_SHA256))
def test_report_dump_bytes_are_pinned(algo, rep):
    alg = algorithm_config(algo, 8, 1.0, L=64)
    out = simulate_rep(alg, 3000, 64, seed=5, rep=rep, collect_reports=True)
    buf = io.StringIO()
    write_reports(out.reports, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == _DUMP_SHA256[algo, rep]


def test_window_stage_matches_a_dense_reference():
    d, k, m = 64, 8, 3 * engine.WINDOW_ROWS // 2  # two blocks, the last one short
    rng = np.random.default_rng(6)
    counts, times = sample_changes(m, d, k, "uniform", rng)
    h_u = rng.integers(0, d.bit_length(), size=m).astype(np.int32)
    parity = np.broadcast_to((np.arange(k) % 2 == 0).astype(np.int8), times.shape)
    got = engine._nonzero_windows(times, parity, h_u, k)
    assert [a.dtype for a in got] == [np.int32, np.int32, np.int8]
    # per user: the dense derivative (+1 on odd-numbered changes, -1 on even)
    # summed over each window of the user's order
    x = np.zeros((m, d + 1), dtype=np.int64)
    valid = np.arange(k) < counts[:, None]
    x[np.nonzero(valid)[0], times[valid]] = np.where(np.nonzero(valid)[1] % 2 == 0, 1, -1)
    want = []
    for u in range(m):
        window_sums = x[u, 1:].reshape(-1, 1 << h_u[u]).sum(axis=1)
        want += [(u, j, s) for j, s in enumerate(window_sums.tolist()) if s]
    assert list(zip(*(a.tolist() for a in got))) == want
    # sample-one's one column reads as its zero-padded row
    kept, levels = engine._keep_one(counts, times, k, rng)
    assert kept.shape == levels.shape == (m, 1)
    padded = [np.pad(a, ((0, 0), (0, k - 1))) for a in (kept, levels)]
    for a, b in zip(engine._nonzero_windows(kept, levels, h_u, k),
                    engine._nonzero_windows(*padded, h_u, k)):
        assert np.array_equal(a, b)


# SHA-256 of truth and estimates at n = 2 * 32768 + 5, by shard size: with
# 32768-user shards (three, the last one short) as the engine with
# full-width window temporaries computed them, and with 8192-user shards
# (nine, the last of 5 users).  Only the shard layout moves the outputs.
# Sample-one's entries date from its noise's one-coordinate randomizer.
# d = k = 256 takes _uniform_subsets through its complement and pad branches.
_OUTPUT_SHA256 = {
    1 << 15: {
        ("futurerand", 1024, 64, "uniform"):
            "b4cd942b6e1844d26a21df8a32233c51747c8a311fd45ada87f7b89f00e52cc0",
        ("futurerand", 256, 256, "uniform"):
            "ed7634fd6d2073c0c63751d6007e58eaaee203fd5bd9c8c132163df77a4b97ec",
        ("naive", 1024, 64, "uniform"):
            "96afb7872061dcef5bca34bf06e8a36fe3f3b2cb2e75085b9249a5999c82b681",
        ("naive", 256, 256, "uniform"):
            "09385d0b5f798b96d0ffe58af0dfdd10bba080511134e710f729104ef7e2f04a",
        ("sample_one", 1024, 64, "uniform"):
            "0cc6e473100418a5ddec3fd3d4e7d8a43cd7095fd55e8f5988a715f3b799e1c1",
        ("sample_one", 256, 256, "uniform"):
            "432e03e5f2eff77143f10885a26d0eb853ff580fce3b847019192b76f30493a7",
        ("bns19", 1024, 64, "uniform"):
            "1a0c1536d07bea14f0c4eaf06489edd46daff1b296664e7639d939ae735fcfb4",
        ("bns19", 256, 256, "uniform"):
            "2f5484b4e3ee08e40f7b7ebfe0c6e5a4b74b08c07d453e2fe9fa12b7c7e5240b",
        ("sample_one", 1024, 64, "exactly_k"):
            "340f511e888fa7d6e05858d295d2a777c2c183b59907e80899717897a35337c7",
        ("futurerand", 1024, 64, "bursty"):
            "3bddbce05c2fae71daae460d1d6f1dce5f9e70f058ee4b8612869d89715ef467",
    },
    1 << 13: {
        ("futurerand", 1024, 64, "uniform"):
            "cf71db8a0b70990d371b3ae55877e758ad46fdea8ea7cdb35d5f7d92aa383ad0",
        ("futurerand", 256, 256, "uniform"):
            "46d25e69800039d877bab2216d6089cbd51f083811b958769be995dfc60c8004",
        ("naive", 1024, 64, "uniform"):
            "7081b4b1c8932083de6c4b28488273beb09c5d586995a156ca12e297bcc91caf",
        ("naive", 256, 256, "uniform"):
            "1686296eeda9c0a4f65447705319a3845eb0b6beb99aeab237a238ca38cd5712",
        ("sample_one", 1024, 64, "uniform"):
            "ff2cef66ae0f1937d45d90449ff8b8a317d658c5aa0a6b90bc8f6b8e9b204618",
        ("sample_one", 256, 256, "uniform"):
            "cec2e2b964a6aa3c954accb1774b81126f7a1c7ee866df6c360aecf9fc3ae78a",
        ("bns19", 1024, 64, "uniform"):
            "7176a2ab3c21e2f2e587b3f084b088ba9daeef0c389a920198896031fe783f5c",
        ("bns19", 256, 256, "uniform"):
            "46585e36a05d7d245c6fbf26875d37510d82afb852a39ad942870dfcfedba452",
        ("sample_one", 1024, 64, "exactly_k"):
            "37ab7295b7b7006f4f17afa288546f4c50d4a63b3637333ccf6c6f69a0e7461b",
        ("futurerand", 1024, 64, "bursty"):
            "eca2a143051200a04ee34d9e24c7dd976032ab8a67fda3d29d5d679aa74d7466",
    },
}


def test_simulate_rep_outputs_are_pinned(monkeypatch):
    assert SHARD in _OUTPUT_SHA256
    for shard, pins in _OUTPUT_SHA256.items():
        monkeypatch.setattr(engine, "SHARD", shard)
        for (algo, d, k, model), sha in pins.items():
            out = simulate_rep(algorithm_config(algo, k, 1.0, L=d), 2 * (1 << 15) + 5, d,
                               seed=11, rep=3, change_model=model)
            digest = hashlib.sha256(out.truth.tobytes() + out.estimates.tobytes()).hexdigest()
            assert digest == sha, (shard, algo, d, k, model)


# one shard runs on the calling thread, two or more on the pool, two at a
# time; a d = 1024, k = 64 shard's largest array is its 2 MiB of int32
# change times, and n = 1e5 is the paper's population (13 shards)
@pytest.mark.parametrize("n, limit_mib", [(SHARD, 9), (2 * SHARD, 15), (100_000, 15)])
def test_simulate_rep_live_memory_is_bounded(n, limit_mib):
    alg = algorithm_config("futurerand", 64, 1.0, L=1024)
    alg.randomizer.distance_cdf  # the cached law is not part of a repetition
    tracemalloc.start()
    try:
        simulate_rep(alg, n, 1024, seed=1, rep=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib << 20, f"{peak / 2**20:.1f} MiB"
