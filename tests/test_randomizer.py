import math

import numpy as np
import pytest
from mpmath import mp, mpf

from ldptrack.audit import chi_square
from ldptrack.errors import CapacityError, ConfigError
from ldptrack.randomizer import (RandomizerConfig, annulus_bounds,
                                 complement_distances, compose_randomize,
                                 exact_output_distribution, futurerand_config,
                                 g_weight, gap, gap_lower_bound_expr,
                                 q_star, rr_config,
                                 sample_composed_batch, sample_outside_annulus,
                                 _build_config, _gap_both_forms)

ONES = lambda k: np.ones(k, dtype=np.int8)


# ---------------------------------------------------------------------------
# configuration and bounds


def test_annulus_bounds_k4_eps1():
    lb, ub = annulus_bounds(4, mpf(1) / (5 * mp.sqrt(mpf(4))))
    assert lb == 0  # kp - 2 sqrt(k) is negative, clamped
    # independent high-precision evaluation of the upper-bound formula
    with mp.workdps(80):
        et = mpf(1) / 10
        ub_real = (4 / et) * mp.log(2 * mp.exp(et) / (mp.exp(et) + 1))
        assert ub == min(4, int(mp.floor(ub_real)))


def test_config_fields_k4():
    cfg = futurerand_config(4, 1.0)
    assert (cfg.lb, cfg.ub) == (0, 1)
    assert float(cfg.eps_tilde) == pytest.approx(0.1, abs=1e-15)
    assert 0 < float(cfg.p) < 0.5


def test_futurerand_rejects_large_eps():
    with pytest.raises(ConfigError):
        futurerand_config(4, 1.5)
    with pytest.raises(ConfigError):
        futurerand_config(4, 0.0)
    with pytest.raises(ConfigError):
        futurerand_config(0, 1.0)


def test_config_validation_catches_degenerate_annulus():
    cfg = futurerand_config(4, 1.0)
    with pytest.raises(ConfigError):
        RandomizerConfig(eps=cfg.eps, k=cfg.k, L=cfg.L, eps_tilde=cfg.eps_tilde,
                         p=cfg.p, lb=3, ub=2, gap=cfg.gap, ub_real=cfg.ub_real)


# ---------------------------------------------------------------------------
# g and q*


def test_g_weight_endpoints():
    cfg = futurerand_config(5, 1.0)
    p = cfg.p
    assert abs(g_weight(0, 5, p) - (1 - p) ** 5) < mpf("1e-40")
    assert abs(g_weight(5, 5, p) - p ** 5) < mpf("1e-40")


def test_g_weight_strictly_decreasing():
    cfg = futurerand_config(9, 0.5)
    vals = [g_weight(i, 9, cfg.p) for i in range(10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_g_shift_identity():
    # g(kp + j) = g(kp) * e^(-eps_tilde * j), checked to 1e-12 relative
    cfg = futurerand_config(16, 1.0)
    k, p, et = cfg.k, cfg.p, cfg.eps_tilde
    kp = k * p
    p_avg = g_weight(kp, k, p)
    for j in (-3, -1, 0, 1, 2, 5):
        lhs = g_weight(kp + j, k, p)
        rhs = p_avg * mp.exp(-et * j)
        assert abs(lhs - rhs) <= mpf("1e-12") * rhs


def test_binomial_normalization():
    for k, eps in [(3, 0.25), (10, 1.0), (64, 1.0)]:
        cfg = futurerand_config(k, eps)
        total = sum(math.comb(k, i) * g_weight(i, k, cfg.p) for i in range(k + 1))
        assert abs(total - 1) < mpf("1e-12")


def test_q_star_two_term_hand_value():
    cfg = futurerand_config(2, 1.0)
    p = cfg.p
    expected = ((1 - p) ** 2 + p ** 2) / 2
    assert abs(q_star(2, 1, 1, p) - expected) < mpf("1e-40")


def test_q_star_uniform_g_at_half():
    # annulus [0, k-1] with p = 1/2 leaves only distance k outside
    assert abs(q_star(6, 0, 5, mpf(1) / 2) - mpf(2) ** -6) < mpf("1e-40")


def test_q_star_below_two_to_minus_k():
    cfg = futurerand_config(10, 1.0)
    assert q_star(10, cfg.lb, cfg.ub, cfg.p) <= mpf(2) ** -10


def test_q_star_empty_complement():
    cfg = futurerand_config(4, 1.0)
    with pytest.raises(ConfigError):
        q_star(4, 0, 4, cfg.p)


def test_q_star_vs_g_at_ub_invariant():
    for k, eps in [(4, 1.0), (16, 0.5), (64, 1.0), (256, 1.0)]:
        cfg = futurerand_config(k, eps)
        qs = q_star(k, cfg.lb, cfg.ub, cfg.p)
        assert qs <= mpf(2) ** -k <= g_weight(cfg.ub, k, cfg.p)


# ---------------------------------------------------------------------------
# sampling


def test_outside_annulus_distance_zero_only():
    cfg = _build_config(1.0, 3, 3, mpf("0.1"), 1, 3, mpf(3))
    rng = np.random.default_rng(0)
    b = np.array([1, -1, 1], dtype=np.int8)
    for _ in range(50):
        assert np.array_equal(sample_outside_annulus(b, cfg, rng), b)


def test_outside_annulus_distance_histogram():
    # complement of [2, 4] in [0, 8]: distances {0, 1, 5, 6, 7, 8} with
    # C(8, i)-proportional weights
    cfg = _build_config(1.0, 8, 8, mpf("0.05"), 2, 4, mpf(8))
    dists, weights = complement_distances(8, 2, 4)
    assert dists == [0, 1, 5, 6, 7, 8]
    rng = np.random.default_rng(21)
    b = ONES(8)
    draws = 200_000
    hist = np.zeros(9, dtype=np.int64)
    for _ in range(draws):
        out = sample_outside_annulus(b, cfg, rng)
        hist[int((out != b).sum())] += 1
    assert hist[[2, 3, 4]].sum() == 0
    res = chi_square(hist[dists], weights, significance=0.001)
    assert res.passed, res


def test_outside_annulus_flip_sets_uniform():
    # annulus [2, 4] on k=4: complement distances {0, 1}; the 4 singleton
    # flip sets must be equally likely
    cfg = _build_config(1.0, 4, 4, mpf("0.1"), 2, 4, mpf(4))
    rng = np.random.default_rng(3)
    b = ONES(4)
    counts = {}
    for _ in range(100_000):
        out = sample_outside_annulus(b, cfg, rng)
        counts[tuple(out)] = counts.get(tuple(out), 0) + 1
    assert len(counts) == 5
    singletons = [v for key, v in counts.items() if key.count(-1) == 1]
    res = chi_square(singletons, [1, 1, 1, 1], significance=0.001)
    assert res.passed, res


def test_compose_randomize_full_annulus_is_plain_rr():
    # annulus [0, k]: the resampling branch is unreachable and the output
    # distance is Binomial(k, p)
    cfg = rr_config(6, 0.2, eps=1.2)
    assert cfg.annulus_full
    rng = np.random.default_rng(11)
    b = np.array([1, -1, 1, 1, -1, -1], dtype=np.int8)
    p = float(cfg.p)
    hist = np.zeros(7, dtype=np.int64)
    for _ in range(100_000):
        out = compose_randomize(b, cfg, rng)
        hist[int((out != b).sum())] += 1
    weights = [math.comb(6, i) * p ** i * (1 - p) ** (6 - i) for i in range(7)]
    res = chi_square(hist, weights, significance=0.001)
    assert res.passed, res


def test_compose_randomize_matches_exact_distribution():
    cfg = futurerand_config(3, 1.0)
    table = exact_output_distribution(ONES(3), cfg)
    rng = np.random.default_rng(5)
    counts = {s: 0 for s in table.probs}
    draws = 200_000
    for _ in range(draws):
        counts[tuple(int(x) for x in compose_randomize(ONES(3), cfg, rng))] += 1
    keys = list(table.probs)
    res = chi_square([counts[s] for s in keys],
                     [float(table.probs[s]) for s in keys], significance=0.001)
    assert res.passed, res


def test_batch_sampler_matches_exact_distribution():
    cfg = futurerand_config(3, 1.0)
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
    cfg = futurerand_config(4, 1.0)
    table = exact_output_distribution(ONES(4), cfg)
    by_distance = {}
    for s, pr in table.probs.items():
        dist = sum(x == -1 for x in s)
        by_distance[dist] = by_distance.get(dist, mpf(0)) + pr
    for i in range(cfg.lb, cfg.ub + 1):
        expected = math.comb(4, i) * g_weight(i, 4, cfg.p)
        assert abs(by_distance[i] - expected) < mpf("1e-30")


def test_sampling_determinism():
    cfg = futurerand_config(8, 0.5)
    a = sample_composed_batch(cfg, 1000, np.random.default_rng(42))
    b = sample_composed_batch(cfg, 1000, np.random.default_rng(42))
    assert np.array_equal(a, b)
    x = compose_randomize(ONES(8), cfg, np.random.default_rng(9))
    y = compose_randomize(ONES(8), cfg, np.random.default_rng(9))
    assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# gap


def test_gap_full_annulus_equals_rr_gap():
    cfg = rr_config(5, 0.3, eps=1.5)
    expected = (mp.exp(mpf("0.3")) - 1) / (mp.exp(mpf("0.3")) + 1)
    assert abs(gap(cfg) - expected) < mpf("1e-12")


def test_gap_matches_enumerated_marginal():
    cfg = futurerand_config(4, 1.0)
    table = exact_output_distribution(ONES(4), cfg)
    assert abs(gap(cfg) - table.marginal_gap(0)) < mpf("1e-10")


def test_gap_forms_agree_up_to_large_k():
    for k in (4, 64, 256, 1024, 4096):
        cfg = futurerand_config(k, 1.0)
        simplified, two_sum = _gap_both_forms(k, cfg.lb, cfg.ub, cfg.p)
        assert abs(simplified - two_sum) <= mpf("1e-12") * abs(simplified)


def test_gap_scaling_constant():
    # gap * sqrt(k) / eps stays above a fixed constant on the tested grid
    for k in (16, 64, 256):
        cfg = futurerand_config(k, 1.0)
        assert gap(cfg) >= mpf("0.05") / mp.sqrt(mpf(k))
        lower = gap_lower_bound_expr(cfg)
        if lower is not None:
            assert gap(cfg) >= lower >= mpf("0.02") / mp.sqrt(mpf(k))


def test_gap_lower_bound_examples():
    assert gap_lower_bound_expr(futurerand_config(256, 1.0)) > 0
    for k in (64, 256):
        cfg = futurerand_config(k, 1.0)
        lower = gap_lower_bound_expr(cfg)
        assert lower is not None and lower <= gap(cfg)
    # degenerate range at small k: not applicable rather than an error
    assert gap_lower_bound_expr(futurerand_config(4, 1.0)) is None
    # the identity g(ub_real) = 2^-k does not hold for plain RR configs
    assert gap_lower_bound_expr(rr_config(64, 0.01, eps=0.64)) is None


# ---------------------------------------------------------------------------
# exact table oracle


def test_table_k1_is_plain_rr():
    cfg = rr_config(1, 0.7, eps=0.7)
    table = exact_output_distribution(np.array([-1], dtype=np.int8), cfg)
    p = cfg.p
    assert abs(table.probs[(-1,)] - (1 - p)) < mpf("1e-40")
    assert abs(table.probs[(1,)] - p) < mpf("1e-40")


def test_table_ratio_below_e_eps():
    cfg = futurerand_config(3, 1.0)
    table = exact_output_distribution(ONES(3), cfg)
    vals = list(table.probs.values())
    assert max(vals) / min(vals) <= mp.exp(mpf(1))


def test_distance_law_ratio_at_enumeration_limit():
    # the output law takes one value per distance class, so its spread
    # bounds the worst pair ratio; checked at the k = 12 audit limit
    from ldptrack.randomizer import distance_law
    for eps in (0.25, 1.0):
        law = distance_law(futurerand_config(12, eps))
        assert max(law) / min(law) <= mp.exp(mpf(eps)) * (1 + mpf("1e-9"))


def test_table_mass_and_capacity():
    cfg = futurerand_config(5, 0.25)
    table = exact_output_distribution(ONES(5), cfg)
    assert abs(table.total() - 1) < mpf("1e-12")
    big = futurerand_config(21, 1.0)
    with pytest.raises(CapacityError):
        exact_output_distribution(ONES(21), big)


def test_coordinate_gap_uniform_across_coords_and_inputs():
    # the per-coordinate preservation gap is the same for every coordinate
    # and every input vector
    cfg = futurerand_config(4, 0.5)
    g_val = gap(cfg)
    rng = np.random.default_rng(2)
    for _ in range(4):
        b = (rng.integers(0, 2, size=4).astype(np.int8) * 2 - 1)
        table = exact_output_distribution(b, cfg)
        for coord in range(4):
            assert abs(table.marginal_gap(coord) - g_val) < mpf("1e-12")
