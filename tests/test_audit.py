import itertools
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from ldptrack.audit import (audit_client, audit_client_certificate, audit_client_sweep,
                            audit_randomizer, chi_square, enumerate_streams,
                            _client_distribution)
from ldptrack.baselines import ALGORITHMS, algorithm_config, client_randomizer, make_client
from ldptrack.dyadic import DerivativeStream, derive
from ldptrack.errors import CapacityError, ConfigError
from ldptrack.protocol import ClientState, client_step
from ldptrack.randomizer import _build_config, exact_output_distribution


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
                    yield client_randomizer(algorithm_config(algo, k, eps))
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


@pytest.mark.parametrize("k", [64, 256, 1024])
def test_audit_randomizer_large_k(k):
    for algo in ("futurerand", "bns19", "naive", "sample_one"):
        for eps in (0.25, 0.5, 1.0):
            cfg = client_randomizer(algorithm_config(algo, k, eps))
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


def _law_dict(alg, d, stream):
    """The client law as {(h, omega): p}, expanded from its output classes."""
    classes, values = _client_distribution(alg, d, stream)
    keys = [(h, omega) for h in range(d.bit_length())
            for omega in itertools.product((-1, 1), repeat=d >> h)]
    assert len(keys) == len(classes)
    return {key: values[c] for key, c in zip(keys, classes)}


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
    laws = {tuple(s.entries): _law_dict(alg, d, s) for s in streams}
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
    for d, k, eps, pairs in runs:
        n = len(enumerate_streams(d, k))
        if pairs is None:
            index_pairs = list(itertools.combinations(range(n), 2))
            report = audit_client_sweep(d, k, eps, algorithm=algo)
        else:
            rng = np.random.default_rng(11)
            index_pairs = [tuple(rng.choice(n, size=2, replace=False)) for _ in range(pairs)]
            report = audit_client_sweep(d, k, eps, algorithm=algo, pairs=pairs,
                                        rng=np.random.default_rng(11))
        (ratio, worst), laws = _reference_sweep(d, k, eps, algo, index_pairs)
        assert report.max_ratio == ratio, (algo, d, k, eps)
        assert report.worst_case == worst, (algo, d, k, eps)
        key = (worst["order"], tuple(worst["output"]))
        va = laws[tuple(worst["stream"])][key]
        vb = laws[tuple(worst["stream_alt"])][key]
        assert max(va / vb, vb / va) == report.max_ratio


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
    s = derive((0,) * 16, k=2)
    with pytest.raises(CapacityError):
        audit_client(16, 2, 1.0, s, s)
    s4 = derive((0, 0, 0, 0), k=2)
    with pytest.raises(CapacityError):
        audit_client(4, 5, 1.0, s4, s4)


def test_enumerate_streams_counts():
    # Boolean series on [1,4] with at most 2 changes: C(4,0)+C(4,1)+C(4,2)
    assert len(enumerate_streams(4, 2)) == 1 + 4 + 6


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
    with pytest.raises(ValueError, match="pairs must be >= 1"):
        audit_client_sweep(4, 2, 1.0, pairs=0)


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
            ratio = _law_dict(alg, d, a)[key] / _law_dict(alg, d, b)[key]
            assert abs(ratio - report.max_ratio) <= mpf("1e-40") * ratio, (d, k, eps)
            assert abs(audit_client(d, k, eps, a, b, algo).max_ratio - ratio) <= mpf("1e-40") * ratio
    # no pair of k-change streams fits side by side when 2k > d
    assert audit_client_certificate(4, 3, 1.0, algorithm=algo).worst_case is None


def test_client_distribution_matches_empirical_sampler():
    # the analytic client output law must agree with histograms of the
    # actual online client
    alg = algorithm_config("futurerand", 2, 1.0, L=4)
    stream = derive((0, 1, 1, 0), k=2)
    law = _law_dict(alg, 4, stream)
    counts = {key: 0 for key in law}
    runs = 30_000
    for seed in range(runs):
        state = make_client(alg, 4, np.random.default_rng(seed))
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
    law = _law_dict(alg, 4, stream)
    counts = {key: 0 for key in law}
    runs = 30_000
    for seed in range(runs):
        state = make_client(alg, 4, np.random.default_rng(seed),
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
    table = exact_output_distribution(np.ones(k, dtype=np.int8), alg.randomizer).probs
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
        law = _law_dict(alg, d, stream)
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
    law = _law_dict(alg, 4, stream)
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
