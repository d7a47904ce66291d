import itertools
import math
import time

import numpy as np
import pytest
from mpmath import mp, mpf

from ldptrack.audit import (_draw_pairs, audit_client, audit_client_certificate,
                            audit_client_sweep, audit_randomizer, enumerate_streams)
from ldptrack.baselines import ALGORITHMS, algorithm_config
from ldptrack.dyadic import DerivativeStream, derive
from ldptrack.errors import CapacityError, ConfigError
from ldptrack.protocol import ClientState, client_init, client_step
from ldptrack.randomizer import _build_config, exact_output_distribution

from oracles import chi_square, client_law, streams_by_product


def test_audit_plain_rr_ratio_is_exactly_e_eps_tilde():
    cfg = _build_config(0.4, 1, mpf("0.4"), mpf(0), mpf(1))
    report = audit_randomizer(cfg)
    assert report.passed
    assert abs(report.max_ratio - mp.exp(mpf("0.4"))) < mpf("1e-30")


def test_audit_randomizer_small_grid():
    for k in (2, 3, 4):
        for eps in (0.25, 1.0):
            report = audit_randomizer(algorithm_config("futurerand", k, eps).randomizer)
            assert report.passed, (k, eps, float(report.max_ratio))
            assert report.max_ratio <= mp.exp(mpf(eps)) * (1 + mpf("1e-9"))


def test_audit_randomizer_naive_baseline():
    report = audit_randomizer(algorithm_config("naive", 4, 1.0).randomizer)
    assert report.passed
    # per-coordinate RR at eps/4 composes to a ratio of exactly e^eps
    assert report.max_ratio <= mp.exp(mpf(1)) * (1 + mpf("1e-30"))


def _brute_force_ratio(cfg):
    """max over outputs s of max_x P(s|x) / min_x P(s|x), from all 2^k tables."""
    k = cfg.k
    tables = [exact_output_distribution(x, cfg).probs
              for x in itertools.product((-1, 1), repeat=k)]
    return max(max(t[s] for t in tables) / min(t[s] for t in tables)
               for s in tables[0])


def _buildable_randomizers(ks, eps_grid, algos=ALGORITHMS):
    for algo in algos:
        for k in ks:
            for eps in eps_grid:
                try:
                    yield algorithm_config(algo, k, eps).randomizer
                except ConfigError:
                    continue


def test_audit_randomizer_matches_brute_force_over_all_inputs():
    cfgs = list(_buildable_randomizers(range(1, 7), (0.25, 0.5, 1.0)))
    cfgs += list(_buildable_randomizers((8,), (0.25, 0.5, 1.0), ("futurerand", "bns19")))
    assert len(cfgs) > 40
    for cfg in cfgs:
        report = audit_randomizer(cfg)
        expected = _brute_force_ratio(cfg)
        assert abs(report.max_ratio - expected) <= mpf("1e-12") * expected, (cfg.k, cfg.eps)
        # the witness attains the reported ratio
        w = report.worst_case
        out = tuple(w["output"])
        ratio = (exact_output_distribution(w["input"], cfg).probs[out]
                 / exact_output_distribution(w["input_alt"], cfg).probs[out])
        assert abs(ratio - report.max_ratio) <= mpf("1e-30") * ratio


@pytest.mark.parametrize("k", [3, 8, 64, 256, 1024])
def test_audit_randomizer_large_k(k):
    for algo in ("futurerand", "bns19", "naive", "sample_one"):
        for eps in (0.25, 0.5, 1.0):
            cfg = algorithm_config(algo, k, eps).randomizer
            report = audit_randomizer(cfg)
            assert report.passed, (algo, k, eps, float(report.max_ratio))
            assert report.max_ratio <= mp.exp(mpf(eps)) * (1 + mpf("1e-9"))
            assert len(report.worst_case["output"]) == cfg.k


def test_audit_report_json_schema():
    report = audit_randomizer(algorithm_config("futurerand", 2, 1.0).randomizer)
    payload = report.to_json()
    assert set(payload) == {"epsilon", "max_ratio", "pass", "worst_case"}
    assert payload["pass"] is True
    assert set(payload["worst_case"]) == {"input", "input_alt", "output"}


# ---------------------------------------------------------------------------
# client-level audit


def _reference_ratio(pa, pb):
    """Worst ratio over every (h, omega) key of two expanded laws, and the
    first key, in key order, that attains it."""
    best_ratio = mpf(0)
    best_key = None
    for key, va in pa.items():
        vb = pb[key]
        ratio = va / vb if va > vb else vb / va
        if ratio > best_ratio:
            best_ratio = ratio
            best_key = key
    return best_ratio, best_key


def _reference_sweep(d, k, eps, algo, index_pairs):
    alg = algorithm_config(algo, k, eps, L=d)
    streams = enumerate_streams(d, k)
    laws = {tuple(s.entries): client_law(alg, d, s) for s in streams}
    best = None
    for i, j in index_pairs:
        a, b = streams[i].entries, streams[j].entries
        ratio, (h, omega) = _reference_ratio(laws[tuple(a)], laws[tuple(b)])
        if best is None or ratio > best[0]:
            best = ratio, {"stream": list(a), "stream_alt": list(b),
                           "order": h, "output": list(omega)}
    return best, laws


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_class_pair_ratio_equals_per_key_reference(algo):
    # the class-pair ratio and its witness equal the per-key loop exactly
    # on exhaustive and sampled sweeps; the witness key's own ratio is the maximum
    runs = [(d, k, 1.0, None) for d, k in ((4, 2), (8, 2))]
    runs += [(8, 3, eps, 100) for eps in (0.5, 1.0)]
    # the float screen's edges: at eps = 1e-6 every cell is within ~1e-7 of the
    # maximum, and at the largest eps a config accepts the values spread widest
    runs.append((4, 2, 1e-6, None))
    if algo in ("naive", "sample_one"):
        with pytest.raises(ConfigError):
            algorithm_config(algo, 2, 236.0, L=4)
        runs.append((4, 2, 235.0, None))
    for d, k, eps, pairs in runs:
        n = len(enumerate_streams(d, k))
        if pairs is None:
            index_pairs = list(itertools.combinations(range(n), 2))
            report = audit_client_sweep(d, k, eps, algorithm=algo)
        else:
            index_pairs = _draw_pairs(n, pairs, np.random.default_rng(11))
            report = audit_client_sweep(d, k, eps, algorithm=algo, pairs=pairs,
                                        rng=np.random.default_rng(11))
        (ratio, worst), laws = _reference_sweep(d, k, eps, algo, index_pairs)
        assert report.max_ratio == ratio, (algo, d, k, eps)
        assert report.worst_case == worst, (algo, d, k, eps)
        key = (worst["order"], tuple(worst["output"]))
        va = laws[tuple(worst["stream"])][key]
        vb = laws[tuple(worst["stream_alt"])][key]
        assert max(va / vb, vb / va) == report.max_ratio


def test_sample_one_value_is_set_by_the_plain_clients_counts():
    # sample-one's value at an order-h output over L windows is
    # (1 + log2 d)^-1 2^-L (1 + (gap / k)(m - 2j)), m the stream's non-zero
    # window sums and j the output's mismatches with them, as for a plain client
    for d, k in ((4, 2), (8, 3)):
        alg = algorithm_config("sample_one", k, 1.0, L=d)
        for stream in enumerate_streams(d, k):
            for (h, omega), value in client_law(alg, d, stream).items():
                sums = [sum(stream.entries[w << h:(w + 1) << h]) for w in range(len(omega))]
                m = sum(s != 0 for s in sums)
                j = sum(s != 0 and o != s for o, s in zip(omega, sums))
                expected = ((1 + alg.gap / k * (m - 2 * j)) / d.bit_length()
                            * mpf(2) ** -len(omega))
                assert abs(value - expected) <= mpf("1e-45") * expected, (
                    d, k, stream.entries, h, omega)


def test_sample_one_cancelling_pair_weighs_as_two_empty_slots():
    # changes at t = 3 and 4 share their order-1 window, where they cancel:
    # only order 0 separates the pair from the zero stream, at two mismatches
    a = DerivativeStream((0, 0, 1, -1, 0, 0, 0, 0), 3)
    zero = DerivativeStream((0,) * 8, 3)
    report = audit_client(8, 3, 1.0, a, zero, "sample_one")
    gap = mp.tanh(mpf(1) / 4)
    expected = 1 / (1 - 2 * gap / 3)
    assert abs(report.max_ratio - expected) <= mpf("1e-45") * expected
    assert report.worst_case["order"] == 0
    assert report.worst_case["output"] == [-1, -1, -1, 1, -1, -1, -1, -1]


def test_sampled_sweep_compares_few_exact_ratios(monkeypatch):
    # only cells whose float ratio is within 1e-9 of the float maximum are
    # compared as mpf ratios; a sweep that compares every cell makes 306 and 72
    algorithm_config("futurerand", 3, 1.0, L=8).randomizer.prefix_masses  # not counted
    cls = type(mpf(1))
    counts = dict.fromkeys(("__gt__", "__truediv__"), 0)
    for name in counts:
        def counted(*args, name=name, method=getattr(cls, name)):
            counts[name] += 1
            return method(*args)
        monkeypatch.setattr(cls, name, counted)
    audit_client_sweep(8, 3, 1.0, pairs=100, rng=np.random.default_rng(5))
    assert counts["__gt__"] <= 60 and counts["__truediv__"] <= 40, counts


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_exhaustive_sweep_witness_is_first_pair_attaining_the_maximum(algo):
    # at (8, 3) many pairs tie at the maximum (2366 of 4278 for futurerand):
    # the witness is the first of them in combinations order, at its first key
    d, k, eps = 8, 3, 1.0
    report = audit_client_sweep(d, k, eps, algorithm=algo)
    alg = algorithm_config(algo, k, eps, L=d)
    streams = enumerate_streams(d, k)
    laws = {}
    for i, j in itertools.combinations(range(len(streams)), 2):
        for s in (i, j):
            if s not in laws:
                laws[s] = client_law(alg, d, streams[s])
        ratio, (h, omega) = _reference_ratio(laws[i], laws[j])
        if ratio == report.max_ratio:
            break
    assert ratio == report.max_ratio
    assert report.worst_case == {"stream": list(streams[i].entries),
                                 "stream_alt": list(streams[j].entries),
                                 "order": h, "output": list(omega)}


def test_sweeps_share_no_state_across_calls():
    # the benchmark's audit jobs, run forward and then in reverse in one
    # process, give the same reports, each at its own algorithm's and eps's
    # maximum: a memo kept across calls and keyed without either breaks this
    jobs = {(4, 2, 1.0, "futurerand", None): "1.20487482366063273454969627175",
            (4, 2, 1.0, "naive", None): "2.71828182845904523536028747135",
            (4, 2, 1.0, "sample_one", None): "1.64872127070012814684865078781",
            (4, 2, 1.0, "bns19", None): "1.13259486024348927104308694039",
            (8, 3, 0.5, "futurerand", 100): "1.13836648603723254396466430183",
            (8, 3, 1.0, "futurerand", 100): "1.29509212448965799091089030646"}

    def run(job):
        d, k, eps, algo, pairs = job
        report = audit_client_sweep(d, k, eps, algorithm=algo, pairs=pairs,
                                    rng=np.random.default_rng(5))
        return report.max_ratio, report.worst_case

    forward = [run(job) for job in jobs]
    backward = [run(job) for job in reversed(jobs)][::-1]
    assert [(r._mpf_, w) for r, w in forward] == [(r._mpf_, w) for r, w in backward]
    for (ratio, _), expected in zip(forward, jobs.values()):
        assert abs(ratio - mpf(expected)) <= mpf("1e-25") * ratio


def test_audit_client_identical_streams():
    stream = derive((0, 1, 1, 0), k=2)
    report = audit_client(4, 2, 1.0, stream, stream)
    assert abs(report.max_ratio - 1) < mpf("1e-30")


def test_audit_client_example_pair():
    a = derive((0, 1, 1, 0), k=2)
    b = derive((0, 0, 0, 0), k=2)
    report = audit_client(4, 2, 1.0, a, b)
    assert report.passed
    assert report.max_ratio <= mp.exp(mpf(1)) * (1 + mpf("1e-9"))


def test_audit_client_capacity():
    # only the 2^d stream walk, the O(k^4) cell grid and the witness's 2^(2k) patterns are bounded
    with pytest.raises(CapacityError, match="d=32"):
        audit_client_sweep(32, 2, 1.0)
    with pytest.raises(CapacityError, match="d=32"):
        enumerate_streams(32, 2)
    s4 = derive((0, 0, 0, 0), k=2)
    with pytest.raises(CapacityError, match="k=5"):
        audit_client(4, 5, 1.0, s4, s4)
    s = derive((0,) * 15 + (1,), k=2)
    assert audit_client(16, 2, 1.0, s, s).max_ratio == 1


def test_enumerate_streams_counts():
    # Boolean series on [1,4] with at most 2 changes: C(4,0)+C(4,1)+C(4,2)
    assert len(enumerate_streams(4, 2)) == 1 + 4 + 6


def test_enumerate_streams_equals_the_walk_over_all_series():
    # built from change positions, the streams and their order are the
    # filtered itertools.product walk's
    cases = [(d, k) for d in (1, 2, 4, 8) for k in range(d + 1)] + [(16, 3)]
    for d, k in cases:
        streams = enumerate_streams(d, k)
        assert isinstance(streams, tuple)
        assert list(streams) == streams_by_product(d, k), (d, k)


def test_draw_pairs_is_uniform_over_ordered_distinct_pairs():
    n = 6
    pairs = _draw_pairs(n, 30_000, np.random.default_rng(2024))
    assert pairs.shape == (30_000, 2)
    assert np.all(pairs[:, 0] != pairs[:, 1])
    assert pairs.min() >= 0 and pairs.max() < n
    counts = np.bincount(pairs[:, 0] * n + pairs[:, 1], minlength=n * n)
    ordered = [a * n + b for a in range(n) for b in range(n) if a != b]
    res = chi_square(counts[ordered], np.ones(len(ordered)), significance=0.001)
    assert res.passed, res


def test_audit_client_sweep_exhaustive_small():
    report = audit_client_sweep(4, 2, 1.0)
    assert report.passed
    assert report.max_ratio > 1


@pytest.mark.parametrize("d, k, eps, expected", [
    (4, 2, 0.5, "1.09826294286254530080729368334"),
    (4, 2, 1.0, "1.20487482366063273454969627175"),
    (8, 3, 0.5, "1.13836648603723254396466430183"),
    (8, 3, 1.0, "1.29509212448965799091089030646"),
])
def test_audit_client_sweep_exhaustive_values(d, k, eps, expected):
    # the exhaustive maxima that the sampled sweeps of criterion 4 and the
    # benchmark's audit references are held to
    report = audit_client_sweep(d, k, eps)
    assert abs(report.max_ratio - mpf(expected)) <= mpf("1e-25") * mpf(expected)


def test_audit_client_sweep_sampled():
    report = audit_client_sweep(8, 3, 0.5, pairs=10,
                                rng=np.random.default_rng(4))
    assert report.passed


def test_audit_client_all_algorithms():
    # every algorithm, baselines included, passes the e^eps client audit
    for algo in ("futurerand", "naive", "sample_one", "bns19"):
        report = audit_client_sweep(4, 2, 1.0, algorithm=algo)
        assert report.passed, (algo, float(report.max_ratio))


def test_audit_client_sweep_rejects_zero_pairs():
    for pairs in (0, True, 1.5):
        with pytest.raises(ValueError, match=f"pairs must be >= 1 and an int, got {pairs}"):
            audit_client_sweep(4, 2, 1.0, pairs=pairs)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_client_certificate_bounds_the_exhaustive_sweep(algo):
    # the certificate is the sweep's maximum wherever its witness pair fits
    # (2k <= d) and never below it; at (2, 2) and (4, 4) some algorithms
    # stay strictly below it
    tol = mpf("1e-40")
    grid = [(d, k) for d in (2, 4, 8) for k in range(1, min(3, d) + 1)] + [(4, 4)]
    for d, k in grid:
        for eps in (0.5, 1.0):
            cert = audit_client_certificate(d, k, eps, algorithm=algo).max_ratio
            swept = audit_client_sweep(d, k, eps, algorithm=algo).max_ratio
            assert cert >= swept * (1 - tol), (d, k, eps)
            if 2 * k <= d:
                assert abs(cert - swept) <= tol * cert, (d, k, eps)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_client_certificate_witness_attains_it(algo):
    for d, k in ((2, 1), (4, 1), (4, 2), (8, 1), (8, 2), (8, 3), (8, 4)):
        for eps in (0.5, 1.0):
            report = audit_client_certificate(d, k, eps, algorithm=algo)
            w = report.worst_case
            a, b = (DerivativeStream(tuple(w[key]), k) for key in ("stream", "stream_alt"))
            alg = algorithm_config(algo, k, eps, L=d)
            key = (w["order"], tuple(w["output"]))
            ratio = client_law(alg, d, a)[key] / client_law(alg, d, b)[key]
            assert abs(ratio - report.max_ratio) <= mpf("1e-40") * ratio, (d, k, eps)
            assert abs(audit_client(d, k, eps, a, b, algo).max_ratio - ratio) <= mpf("1e-40") * ratio
    # no pair of k-change streams fits side by side when 2k > d
    assert audit_client_certificate(4, 3, 1.0, algorithm=algo).worst_case is None


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_exhaustive_sweep_at_d16_equals_the_certificate(algo):
    # 697 streams, 242 556 pairs: the signature sweep needs no output list
    started = time.perf_counter()
    swept = audit_client_sweep(16, 3, 1.0, algorithm=algo)
    elapsed = time.perf_counter() - started
    cert = audit_client_certificate(16, 3, 1.0, algorithm=algo).max_ratio
    assert abs(swept.max_ratio - cert) <= mpf("1e-40") * cert
    assert elapsed < 10, f"exhaustive (16, 3) sweep took {elapsed:.1f}s"
    w = swept.worst_case
    a, b = (DerivativeStream(tuple(w[key]), 3) for key in ("stream", "stream_alt"))
    alone = audit_client(16, 3, 1.0, a, b, algo)
    assert alone.max_ratio == swept.max_ratio and alone.worst_case == w


def _alternating_stream(rng, d, k):
    """Uniform count of changes in [0, k] at uniform distinct times, alternating +1, -1."""
    entries = [0] * d
    for i, t in enumerate(np.sort(rng.choice(d, size=rng.integers(0, k + 1), replace=False))):
        entries[t] = 1 - 2 * (i % 2)
    return DerivativeStream(tuple(entries), k)


def test_audit_client_never_exceeds_the_certificate_at_experiment_size():
    d, k, eps = 1024, 4, 1.0
    rng = np.random.default_rng(1024)
    pairs = [(_alternating_stream(rng, d, k), _alternating_stream(rng, d, k))
             for _ in range(1000)]
    for algo in ALGORITHMS:
        cert = audit_client_certificate(d, k, eps, algorithm=algo)
        worst = max(audit_client(d, k, eps, a, b, algo).max_ratio for a, b in pairs)
        assert worst <= cert.max_ratio, (algo, worst, cert.max_ratio)
        # the certificate's witness pair attains it
        a, b = (DerivativeStream(tuple(cert.worst_case[key]), k) for key in ("stream", "stream_alt"))
        attained = audit_client(d, k, eps, a, b, algo).max_ratio
        if algo == "sample_one":
            assert abs(attained - cert.max_ratio) <= mpf("1e-40") * cert.max_ratio
        else:
            assert attained == cert.max_ratio, algo


def test_client_distribution_matches_empirical_sampler():
    # the analytic client output law must agree with histograms of the
    # actual online client
    alg = algorithm_config("futurerand", 2, 1.0, L=4)
    stream = derive((0, 1, 1, 0), k=2)
    law = client_law(alg, 4, stream)
    counts = {key: 0 for key in law}
    runs = 30_000
    for seed in range(runs):
        state = client_init(alg, 4, np.random.default_rng(seed))
        omega = tuple(b for t in range(1, 5)
                      if (b := client_step(state, t, stream.entries[t - 1])) is not None)
        counts[(state.h, omega)] += 1
    keys = list(law)
    res = chi_square([counts[key] for key in keys],
                     [float(law[key]) for key in keys], significance=0.001)
    assert res.passed, res


def test_client_distribution_matches_empirical_sampler_sample_one():
    alg = algorithm_config("sample_one", 2, 1.0, L=4)
    stream = derive((0, 1, 0, 0), k=2)
    law = client_law(alg, 4, stream)
    counts = {key: 0 for key in law}
    runs = 30_000
    for seed in range(runs):
        state = client_init(alg, 4, np.random.default_rng(seed),
                            change_times=stream.change_times())
        omega = tuple(b for t in range(1, 5)
                      if (b := client_step(state, t, stream.entries[t - 1])) is not None)
        counts[(state.h, omega)] += 1
    keys = list(law)
    res = chi_square([counts[key] for key in keys],
                     [float(law[key]) for key in keys], significance=0.001)
    assert res.passed, res


class _ScriptedCoins:
    """Stands in for a client's rng: integers(0, 2) returns the next scripted coin."""

    def __init__(self, coins):
        self.coins = iter(coins)

    def integers(self, lo, hi):
        assert (lo, hi) == (0, 2)
        return next(self.coins)


def _enumerated_client_law(alg, d, stream):
    """Client output law by running client_step over every order, kept slot,
    noise vector (exact table rows) and fair-coin sequence."""
    k = alg.k
    num_orders = d.bit_length()
    table = exact_output_distribution(np.ones(alg.randomizer.k, dtype=np.int8),
                                      alg.randomizer).probs
    change_times = stream.change_times()
    if alg.keep_one:
        slots = [(mpf(1) / k, change_times[s] if s < len(change_times) else None)
                 for s in range(k)]
    else:
        slots = [(mpf(1), None)]
    law = {}
    for h in range(num_orders):
        L = d >> h
        for slot_prob, keep_time in slots:
            for b_tilde, noise_prob in table.items():
                for coins in itertools.product((0, 1), repeat=L):
                    state = ClientState(h=h, d=d, k=k, b_tilde=np.array(b_tilde),
                                        rng=_ScriptedCoins(coins), keep_time=keep_time,
                                        filter_deltas=alg.keep_one)
                    omega = tuple(b for t in range(1, d + 1)
                                  if (b := client_step(state, t, stream.entries[t - 1]))
                                  is not None)
                    pr = slot_prob * noise_prob * mpf(2) ** -L / num_orders
                    law[(h, omega)] = law.get((h, omega), mpf(0)) + pr
    return law


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_client_distribution_equals_enumerated_client(algo):
    cases = [(4, 2, s) for s in enumerate_streams(4, 2)]
    cases += [(8, 3, derive(bits, k=3)) for bits in [(0,) * 8, (0, 0, 0, 1, 1, 1, 1, 0),
                                                     (1, 0, 0, 0, 0, 0, 1, 1),
                                                     (0, 1, 1, 0, 1, 1, 1, 1)]]
    for d, k, stream in cases:
        alg = algorithm_config(algo, k, 1.0, L=d)
        law = client_law(alg, d, stream)
        oracle = _enumerated_client_law(alg, d, stream)
        assert law.keys() == oracle.keys()
        for key, pr in oracle.items():
            assert abs(law[key] - pr) <= mpf("1e-40"), (d, k, stream.entries, key)


@pytest.mark.parametrize("algo", ["futurerand", "sample_one"])
def test_audit_client_rejects_invalid_input(algo):
    three = derive((0, 1, 1, 0, 0, 1, 1, 1))     # changes at t = 2, 4, 6
    other = derive((1, 0, 0, 1, 1, 1, 1, 1))     # changes at t = 1, 2, 4
    with pytest.raises(ValueError, match="above k=2"):
        audit_client(8, 2, 1.0, three, other, algorithm=algo)
    zero8 = derive((0,) * 8, k=2)
    long = derive((0,) * 15 + (1,), k=2)
    with pytest.raises(ValueError, match="horizon 16"):
        audit_client(8, 2, 1.0, long, zero8, algorithm=algo)
    six = derive((0, 1, 1, 0, 0, 0), k=2)
    with pytest.raises(ValueError, match="power of two"):
        audit_client(6, 2, 1.0, six, six, algorithm=algo)
    with pytest.raises(ValueError, match="power of two"):
        audit_client_sweep(6, 2, 1.0, algorithm=algo)


def test_prefix_masses_match_collapsed_table():
    for cfg in _buildable_randomizers(range(1, 7), (0.25, 1.0), ("futurerand", "naive", "bns19")):
        k = cfg.k
        table = exact_output_distribution(np.ones(k, dtype=np.int8), cfg).probs
        masses = cfg.prefix_masses
        for m in range(k + 1):
            collapsed = {}
            for s, pr in table.items():
                collapsed[s[:m]] = collapsed.get(s[:m], mpf(0)) + pr
            assert len(collapsed) == 2 ** m
            for prefix, mass in collapsed.items():
                assert abs(masses[m][prefix.count(-1)] - mass) <= mpf("1e-30"), (k, m, prefix)


@pytest.mark.parametrize("k", [16, 64])
def test_prefix_masses_fold_equals_closed_form_sum(k):
    # masses[m][j] = sum_r C(k - m, r) law[j + r]: the O(k^3) form the fold replaced
    for cfg in _buildable_randomizers((k,), (0.5, 1.0), ("futurerand", "naive", "bns19")):
        law = cfg.distance_law
        masses = cfg.prefix_masses
        assert [len(row) for row in masses] == list(range(1, k + 2))
        for m in range(k + 1):
            for j in range(m + 1):
                direct = sum((math.comb(k - m, r) * law[j + r] for r in range(k - m + 1)),
                             mpf(0))
                assert abs(masses[m][j] - direct) <= mpf("1e-45") * direct, (cfg.k, m, j)


def test_bounded_support_uses_prefix_marginal():
    # a stream with a single change uses only the first noise coordinate:
    # its output law factorizes into 2^-(L-1) times the first-coordinate
    # marginal of the noise vector
    alg = algorithm_config("futurerand", 2, 1.0, L=4)
    stream = derive((0, 0, 0, 1), k=2)
    law = client_law(alg, 4, stream)
    g = alg.gap
    # at order 0 (L=4), the window at t=4 carries the change
    p_keep = (1 + g) / 2   # P[noise coordinate = +1] for the all-ones input
    base = mpf(1) / 3 * mpf(2) ** -3
    for omega in [(1, 1, 1, 1), (-1, -1, -1, 1)]:
        assert abs(law[(0, omega)] - base * p_keep) < mpf("1e-25")
    flipped = (1, 1, 1, -1)
    assert abs(law[(0, flipped)] - base * (1 - p_keep)) < mpf("1e-25")


# ---------------------------------------------------------------------------
# chi-square


def test_chi_square_exact_match():
    res = chi_square([100, 200, 300], [1, 2, 3], significance=0.001)
    assert res.statistic == 0 and res.passed


def test_chi_square_detects_skew():
    res = chi_square([900_000, 100_000], [1, 1], significance=0.001)
    assert not res.passed


def test_chi_square_p_value_closed_forms():
    # dof 1: P[chi2_1 > x] = erfc(sqrt(x/2)); dof 2: exp(-x/2)
    res = chi_square([60, 40], [1, 1], significance=0.001)
    assert res.dof == 1 and res.statistic == 4.0
    assert math.isclose(res.p_value, math.erfc(math.sqrt(2.0)), rel_tol=1e-12)
    res = chi_square([50, 30, 20], [1, 1, 1], significance=0.001)
    assert res.dof == 2
    assert math.isclose(res.p_value, math.exp(-res.statistic / 2), rel_tol=1e-12)


def test_chi_square_bin_merging():
    # tiny expected bins fold into their neighbours instead of blowing up
    res = chi_square([1, 0, 500, 499], [0.001, 0.001, 1, 1], significance=0.001)
    assert res.dof >= 1


def test_chi_square_validation():
    with pytest.raises(ValueError):
        chi_square([1, 2], [1, 0], significance=0.01)
    with pytest.raises(ValueError):
        chi_square([0, 0], [1, 1], significance=0.01)
    with pytest.raises(ValueError):
        chi_square([5], [1], significance=0.01)
