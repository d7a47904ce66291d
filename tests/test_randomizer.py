import math

import numpy as np
import pytest
from mpmath import mp, mpf

from ldptrack import randomizer
from ldptrack.audit import audit_randomizer, chi_square
from ldptrack.baselines import ALGORITHMS, algorithm_config, client_randomizer
from ldptrack.errors import CapacityError, ConfigError
from ldptrack.randomizer import (RandomizerConfig, complement_distances,
                                 exact_output_distribution,
                                 g_weight, gap_lower_bound_expr,
                                 q_star,
                                 sample_composed_batch,
                                 _build_config, _flip_probability, _gap_both_forms)

ONES = lambda k: np.ones(k, dtype=np.int8)


# ---------------------------------------------------------------------------
# configuration and bounds


def test_futurerand_annulus_k4_eps1():
    cfg = algorithm_config("futurerand", 4, 1.0).randomizer
    lb, ub = cfg.lb, cfg.ub
    assert lb == 0  # kp - 2 sqrt(k) is negative, clamped
    # independent high-precision evaluation of the upper-bound formula
    with mp.workdps(80):
        et = mpf(1) / 10
        ub_real = (4 / et) * mp.log(2 * mp.exp(et) / (mp.exp(et) + 1))
        assert ub == min(4, int(mp.floor(ub_real)))


def test_config_fields_k4():
    cfg = algorithm_config("futurerand", 4, 1.0).randomizer
    assert (cfg.lb, cfg.ub) == (0, 1)
    assert float(cfg.eps_tilde) == pytest.approx(0.1, abs=1e-15)
    assert 0 < float(cfg.p) < 0.5


def test_futurerand_rejects_large_eps():
    with pytest.raises(ConfigError):
        algorithm_config("futurerand", 4, 1.5)
    with pytest.raises(ConfigError):
        algorithm_config("futurerand", 4, 0.0)
    with pytest.raises(ConfigError):
        algorithm_config("futurerand", 0, 1.0)


def test_config_validation_catches_degenerate_annulus():
    cfg = algorithm_config("futurerand", 4, 1.0).randomizer
    with pytest.raises(ConfigError):
        RandomizerConfig(eps=cfg.eps, k=cfg.k, eps_tilde=cfg.eps_tilde,
                         lb=3, ub=2, ub_real=cfg.ub_real)


def _derived_grid():
    for algo in ALGORITHMS:
        for k in (1, 2, 3, 8, 64, 256):
            for eps in (0.25, 0.5, 1.0):
                try:
                    alg = algorithm_config(algo, k, eps)
                except ConfigError:
                    continue
                yield from {alg.randomizer, client_randomizer(alg)}
    yield _build_config(1.0, 4, mpf("0.1"), mpf(2), mpf(4))
    yield _build_config(1.0, 8, mpf("0.05"), mpf(2), mpf(4))


def _reference_gap(k, lb, ub, p):
    # the annulus form with g and q* evaluated afresh at every distance
    dists, _ = complement_distances(k, lb, ub)
    qs = q_star(k, lb, ub, p) if dists else mpf(0)
    simplified = mpf(0)
    for i in range(lb, ub + 1):
        c = math.comb(k, i)
        w = mpf(k - 2 * i) / k
        simplified += c * (g_weight(i, k, p) - qs) * w
    return simplified


def test_derived_config_values_equal_the_formulas():
    cfgs = list(_derived_grid())
    assert len(cfgs) > 60
    for cfg in cfgs:
        k, lb, ub = cfg.k, cfg.lb, cfg.ub
        assert cfg.p == _flip_probability(cfg.eps_tilde)
        qs = None if cfg.annulus_full else q_star(k, lb, ub, cfg.p)
        assert cfg.distance_law == tuple(g_weight(i, k, cfg.p) if lb <= i <= ub else qs
                                         for i in range(k + 1)), (k, lb, ub)
        assert cfg.gap == _reference_gap(k, lb, ub, cfg.p), (k, lb, ub)


@pytest.mark.parametrize("algo, k", [pytest.param(a, 8, id=a) for a in ALGORITHMS]
                         + [pytest.param("futurerand", 64, id="futurerand-k64")])
def test_exact_readers_share_one_distance_law(algo, k, monkeypatch):
    # the CDF, the prefix masses, the audit, the 2^k table and the gap lower
    # bound all read the law the config derived: g is evaluated once per
    # distance, plus once at ub_real by the lower bound's applicability test
    calls = []
    monkeypatch.setattr(randomizer, "g_weight",
                        lambda *a: calls.append(a) or g_weight(*a))
    cfg = algorithm_config(algo, k, 1.0).randomizer
    cfg.distance_cdf
    cfg.prefix_masses
    audit_randomizer(cfg)
    if k <= randomizer.ENUMERATION_K:
        exact_output_distribution(ONES(k), cfg)
    assert len(calls) == cfg.k + 1
    gap_lower_bound_expr(cfg)
    assert len(calls) <= cfg.k + 2


# ---------------------------------------------------------------------------
# g and q*


def test_g_weight_endpoints():
    cfg = algorithm_config("futurerand", 5, 1.0).randomizer
    p = cfg.p
    assert abs(g_weight(0, 5, p) - (1 - p) ** 5) < mpf("1e-40")
    assert abs(g_weight(5, 5, p) - p ** 5) < mpf("1e-40")


def test_g_weight_strictly_decreasing():
    cfg = algorithm_config("futurerand", 9, 0.5).randomizer
    vals = [g_weight(i, 9, cfg.p) for i in range(10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_g_shift_identity():
    # g(kp + j) = g(kp) * e^(-eps_tilde * j), checked to 1e-12 relative
    cfg = algorithm_config("futurerand", 16, 1.0).randomizer
    k, p, et = cfg.k, cfg.p, cfg.eps_tilde
    kp = k * p
    p_avg = g_weight(kp, k, p)
    for j in (-3, -1, 0, 1, 2, 5):
        lhs = g_weight(kp + j, k, p)
        rhs = p_avg * mp.exp(-et * j)
        assert abs(lhs - rhs) <= mpf("1e-12") * rhs


def test_binomial_normalization():
    for k, eps in [(3, 0.25), (10, 1.0), (64, 1.0)]:
        cfg = algorithm_config("futurerand", k, eps).randomizer
        total = sum(math.comb(k, i) * g_weight(i, k, cfg.p) for i in range(k + 1))
        assert abs(total - 1) < mpf("1e-12")


def test_q_star_two_term_hand_value():
    cfg = algorithm_config("futurerand", 2, 1.0).randomizer
    p = cfg.p
    expected = ((1 - p) ** 2 + p ** 2) / 2
    assert abs(q_star(2, 1, 1, p) - expected) < mpf("1e-40")


def test_q_star_uniform_g_at_half():
    # annulus [0, k-1] with p = 1/2 leaves only distance k outside
    assert abs(q_star(6, 0, 5, mpf(1) / 2) - mpf(2) ** -6) < mpf("1e-40")


def test_q_star_below_two_to_minus_k():
    cfg = algorithm_config("futurerand", 10, 1.0).randomizer
    assert q_star(10, cfg.lb, cfg.ub, cfg.p) <= mpf(2) ** -10


def test_q_star_empty_complement():
    cfg = algorithm_config("futurerand", 4, 1.0).randomizer
    with pytest.raises(ConfigError):
        q_star(4, 0, 4, cfg.p)


def test_q_star_vs_g_at_ub_invariant():
    for k, eps in [(4, 1.0), (16, 0.5), (64, 1.0), (256, 1.0)]:
        cfg = algorithm_config("futurerand", k, eps).randomizer
        qs = q_star(k, cfg.lb, cfg.ub, cfg.p)
        assert qs <= mpf(2) ** -k <= g_weight(cfg.ub, k, cfg.p)


# ---------------------------------------------------------------------------
# sampling


def test_outside_annulus_distance_histogram():
    # annulus [2, 4] on k=8: the distance law is C(8, i) * law[i], with the
    # outside-annulus distances {0, 1, 5, 6, 7, 8} each at the common q*
    cfg = _build_config(1.0, 8, mpf("0.05"), mpf(2), mpf(4))
    dists, _ = complement_distances(8, 2, 4)
    assert dists == [0, 1, 5, 6, 7, 8]
    law = cfg.distance_law
    batch = sample_composed_batch(cfg, 200_000, np.random.default_rng(21))
    hist = np.bincount((batch == -1).sum(axis=1), minlength=9)
    res = chi_square(hist, [float(math.comb(8, i) * law[i]) for i in range(9)],
                     significance=0.001)
    assert res.passed, res


def test_outside_annulus_flip_sets_uniform():
    # annulus [2, 4] on k=4: distances 0 and 1 carry the outside-annulus
    # value q*, and every output must follow the exact table
    cfg = _build_config(1.0, 4, mpf("0.1"), mpf(2), mpf(4))
    table = exact_output_distribution(ONES(4), cfg)
    batch = sample_composed_batch(cfg, 100_000, np.random.default_rng(3))
    counts = np.bincount((batch == -1).astype(np.int64) @ (1 << np.arange(4)),
                         minlength=16)
    keys = list(table.probs)
    masks = [sum(1 << i for i, x in enumerate(s) if x == -1) for s in keys]
    res = chi_square(counts[masks], [float(table.probs[s]) for s in keys],
                     significance=0.001)
    assert res.passed, res


def test_full_annulus_is_plain_rr():
    # annulus [0, k]: the distance law is C(k, i) g(i), so the output
    # distance is Binomial(k, p)
    cfg = _build_config(1.2, 6, mpf(0.2), mpf(0), mpf(6))
    assert cfg.annulus_full
    p = float(cfg.p)
    batch = sample_composed_batch(cfg, 100_000, np.random.default_rng(11))
    hist = np.bincount((batch == -1).sum(axis=1), minlength=7)
    weights = [math.comb(6, i) * p ** i * (1 - p) ** (6 - i) for i in range(7)]
    res = chi_square(hist, weights, significance=0.001)
    assert res.passed, res


def test_compose_randomize_matches_exact_distribution():
    # one draw per call, as each online client makes it
    cfg = algorithm_config("futurerand", 3, 1.0).randomizer
    table = exact_output_distribution(ONES(3), cfg)
    rng = np.random.default_rng(5)
    counts = {s: 0 for s in table.probs}
    draws = 200_000
    for _ in range(draws):
        row = sample_composed_batch(cfg, 1, rng)[0]
        counts[tuple(int(x) for x in row)] += 1
    keys = list(table.probs)
    res = chi_square([counts[s] for s in keys],
                     [float(table.probs[s]) for s in keys], significance=0.001)
    assert res.passed, res


def test_batch_sampler_matches_exact_distribution():
    cfg = algorithm_config("futurerand", 3, 1.0).randomizer
    table = exact_output_distribution(ONES(3), cfg)
    batch = sample_composed_batch(cfg, 1_000_000, np.random.default_rng(17))
    masks = (batch == -1).astype(np.int64) @ (1 << np.arange(3))
    counts = np.bincount(masks, minlength=8)
    keys = sorted(table.probs)
    weights = []
    observed = []
    for s in keys:
        mask = sum(1 << i for i, x in enumerate(s) if x == -1)
        observed.append(counts[mask])
        weights.append(float(table.probs[s]))
    res = chi_square(observed, weights, significance=0.001)
    assert res.passed, res


def test_output_distance_law_matches_binomial_g():
    # P[distance = i] = C(k, i) g(i) inside the annulus
    cfg = algorithm_config("futurerand", 4, 1.0).randomizer
    table = exact_output_distribution(ONES(4), cfg)
    by_distance = {}
    for s, pr in table.probs.items():
        dist = sum(x == -1 for x in s)
        by_distance[dist] = by_distance.get(dist, mpf(0)) + pr
    for i in range(cfg.lb, cfg.ub + 1):
        expected = math.comb(4, i) * g_weight(i, 4, cfg.p)
        assert abs(by_distance[i] - expected) < mpf("1e-30")


PREFIX_CONFIGS = {
    "futurerand": lambda: algorithm_config("futurerand", 6, 1.0).randomizer,
    "bns19": lambda: algorithm_config("bns19", 5, 1.0).randomizer,
    "naive": lambda: algorithm_config("naive", 4, 1.0).randomizer,
    "annulus-2-4-k8": lambda: _build_config(1.0, 8, mpf("0.05"), mpf(2), mpf(4)),
}


@pytest.mark.parametrize("name", sorted(PREFIX_CONFIGS))
def test_prefix_draws_follow_exact_prefix_law(name):
    # one batch with lengths uniform on 0..k: every row's m-prefix, m up to
    # its length, must follow the closed-form prefix law, and nothing past
    # the length is drawn
    cfg = PREFIX_CONFIGS[name]()
    k = cfg.k
    rng = np.random.default_rng(31)
    lengths = rng.integers(0, k + 1, size=300_000)
    batch = sample_composed_batch(cfg, lengths.size, rng, lengths)
    assert batch.shape == (lengths.size, k)
    assert np.all(batch[np.arange(k)[None, :] >= lengths[:, None]] == 1)
    masses = cfg.prefix_masses
    for m in range(1, k + 1):
        prefix = batch[lengths >= m, :m]
        masks = (prefix == -1).astype(np.int64) @ (1 << np.arange(m))
        counts = np.bincount(masks, minlength=1 << m)
        expected = [float(masses[m][mask.bit_count()]) for mask in range(1 << m)]
        res = chi_square(counts, expected, significance=0.001)
        assert res.passed, (m, res)
    with pytest.raises(ValueError):
        sample_composed_batch(cfg, 2, rng, np.array([k, k + 1]))


def test_sampling_determinism():
    cfg = algorithm_config("futurerand", 8, 0.5).randomizer
    a = sample_composed_batch(cfg, 1000, np.random.default_rng(42))
    b = sample_composed_batch(cfg, 1000, np.random.default_rng(42))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# gap


def test_gap_full_annulus_equals_rr_gap():
    cfg = _build_config(1.5, 5, mpf(0.3), mpf(0), mpf(5))
    expected = (mp.exp(mpf("0.3")) - 1) / (mp.exp(mpf("0.3")) + 1)
    assert abs(cfg.gap - expected) < mpf("1e-12")


def test_gap_matches_enumerated_marginal():
    cfg = algorithm_config("futurerand", 4, 1.0).randomizer
    table = exact_output_distribution(ONES(4), cfg)
    assert abs(cfg.gap - table.marginal_gap(0)) < mpf("1e-10")


def test_gap_forms_agree_up_to_large_k():
    for k in (4, 64, 256, 1024, 4096):
        cfg = algorithm_config("futurerand", k, 1.0).randomizer
        simplified, two_sum = _gap_both_forms(cfg)
        assert abs(simplified - two_sum) <= mpf("1e-12") * abs(simplified)


def test_gap_scaling_constant():
    # gap * sqrt(k) / eps stays above a fixed constant on the tested grid
    for k in (16, 64, 256):
        cfg = algorithm_config("futurerand", k, 1.0).randomizer
        assert cfg.gap >= mpf("0.05") / mp.sqrt(mpf(k))
        lower = gap_lower_bound_expr(cfg)
        if lower is not None:
            assert cfg.gap >= lower >= mpf("0.02") / mp.sqrt(mpf(k))


def test_gap_lower_bound_examples():
    assert gap_lower_bound_expr(algorithm_config("futurerand", 256, 1.0).randomizer) > 0
    for k in (64, 256):
        cfg = algorithm_config("futurerand", k, 1.0).randomizer
        lower = gap_lower_bound_expr(cfg)
        assert lower is not None and lower <= cfg.gap
    # degenerate range at small k: not applicable rather than an error
    assert gap_lower_bound_expr(algorithm_config("futurerand", 4, 1.0).randomizer) is None
    # the identity g(ub_real) = 2^-k does not hold for plain RR configs
    assert gap_lower_bound_expr(_build_config(0.64, 64, mpf(0.01), mpf(0), mpf(64))) is None


# ---------------------------------------------------------------------------
# exact table oracle


def test_table_k1_is_plain_rr():
    cfg = _build_config(0.7, 1, mpf(0.7), mpf(0), mpf(1))
    table = exact_output_distribution(np.array([-1], dtype=np.int8), cfg)
    p = cfg.p
    assert abs(table.probs[(-1,)] - (1 - p)) < mpf("1e-40")
    assert abs(table.probs[(1,)] - p) < mpf("1e-40")


def test_table_ratio_below_e_eps():
    cfg = algorithm_config("futurerand", 3, 1.0).randomizer
    table = exact_output_distribution(ONES(3), cfg)
    vals = list(table.probs.values())
    assert max(vals) / min(vals) <= mp.exp(mpf(1))


def test_distance_law_ratio_at_enumeration_limit():
    # the output law takes one value per distance class, so its spread
    # bounds the worst pair ratio; checked at the k = 12 audit limit
    for eps in (0.25, 1.0):
        law = algorithm_config("futurerand", 12, eps).randomizer.distance_law
        assert max(law) / min(law) <= mp.exp(mpf(eps)) * (1 + mpf("1e-9"))


def test_table_mass_and_capacity():
    cfg = algorithm_config("futurerand", 5, 0.25).randomizer
    table = exact_output_distribution(ONES(5), cfg)
    assert abs(table.total() - 1) < mpf("1e-12")
    big = algorithm_config("futurerand", 21, 1.0).randomizer
    with pytest.raises(CapacityError):
        exact_output_distribution(ONES(21), big)


def test_table_rejects_malformed_input():
    cfg = algorithm_config("futurerand", 4, 1.0).randomizer
    for b in (ONES(3), ONES(5), [1, 1, 0, 1], [1, -1, 2, 1], [1, 1.5, 1, -1],
              np.ones((1, 4), dtype=np.int8), np.ones((4, 1), dtype=np.int8)):
        with pytest.raises(ValueError):
            exact_output_distribution(b, cfg)
    with pytest.raises(CapacityError):
        exact_output_distribution(ONES(21), algorithm_config("futurerand", 21, 1.0).randomizer)


def test_coordinate_gap_uniform_across_coords_and_inputs():
    # the per-coordinate preservation gap is the same for every coordinate
    # and every input vector
    cfg = algorithm_config("futurerand", 4, 0.5).randomizer
    g_val = cfg.gap
    rng = np.random.default_rng(2)
    for _ in range(4):
        b = (rng.integers(0, 2, size=4).astype(np.int8) * 2 - 1)
        table = exact_output_distribution(b, cfg)
        for coord in range(4):
            assert abs(table.marginal_gap(coord) - g_val) < mpf("1e-12")
