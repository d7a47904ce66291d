import hashlib

import numpy as np
import pytest
from mpmath import mp, mpf

from ldptrack import baselines, randomizer
from ldptrack.audit import audit_client
from ldptrack.baselines import ALGORITHMS, algorithm_config
from ldptrack.dyadic import derive
from ldptrack.engine import simulate_rep
from ldptrack.errors import ConfigError
from ldptrack.harness import ExperimentSpec, run_experiment
from ldptrack.protocol import client_init, client_step, server_scale
from ldptrack.randomizer import g_weight, gap_lower_bound_expr


def test_naive_gap_k1():
    alg = algorithm_config("naive", 1, 1.0)
    expected = (mp.e - 1) / (mp.e + 1)
    assert abs(alg.gap - expected) < mpf("1e-40")


def test_naive_gap_vanishes_for_small_per_coordinate_budget():
    assert float(algorithm_config("naive", 1000, 0.01).gap) < 1e-4


def test_naive_accepts_eps_above_one():
    alg = algorithm_config("naive", 4, 3.0)
    assert alg.randomizer.annulus_full
    assert float(alg.randomizer.eps_tilde) == pytest.approx(0.75)


def test_sample_one_parameters():
    alg = algorithm_config("sample_one", 8, 1.0)
    assert alg.server_factor == 8 and alg.keep_one
    expected = (mp.exp(mpf(1) / 2) - 1) / (mp.exp(mpf(1) / 2) + 1)
    assert abs(alg.gap - expected) < mpf("1e-40")


def test_sample_one_k1_scale_comparable_to_futurerand():
    # with a single change both schemes reduce to one randomized-response
    # bit; their estimator scales agree up to a small constant
    s1 = server_scale(8, algorithm_config("sample_one", 1, 1.0).gap, 1)
    fr = server_scale(8, algorithm_config("futurerand", 1, 1.0).gap, 1)
    assert 0.2 < float(s1 / fr) < 5


def test_bns19_parameter_identity():
    for k, eps in [(16, 1.0), (256, 1.0), (64, 0.5)]:
        alg = algorithm_config("bns19", k, eps)
        lhs = mpf(eps)
        lam = lhs / (12 * (k + 1) * mp.sqrt(1 + mp.log(1 / lhs)))
        rhs = 6 * alg.randomizer.eps_tilde * mp.sqrt(k * mp.log(1 / lam))
        assert abs(lhs - rhs) <= mpf("1e-12") * lhs
        assert rhs <= 1


def test_bns19_gap_below_futurerand():
    for k in (256, 1024):
        assert algorithm_config("bns19", k, 1.0).gap < algorithm_config("futurerand", k, 1.0).gap


def test_bns19_rejects_bad_eps():
    with pytest.raises(ConfigError):
        algorithm_config("bns19", 64, 1.5)
    with pytest.raises(ConfigError):
        algorithm_config("bns19", 64, 0.0)


def test_gap_ordering_on_grid():
    # bns19 stays below the composed randomizer everywhere tested; naive
    # drops below bns19 once k is large enough that eps/k loses to
    # eps / (6 sqrt(k ln(1/lambda))) (crossover near k ~ 300 at eps = 1)
    for k in (64, 256, 1024):
        assert algorithm_config("bns19", k, 1.0).gap <= algorithm_config("futurerand", k, 1.0).gap
    assert algorithm_config("naive", 1024, 1.0).gap <= algorithm_config("bns19", 1024, 1.0).gap


def test_bns19_gap_within_fitted_constant_bound():
    # gap <= C * (eps / sqrt(k ln(k/eps)) + (eps / (k ln(k/eps)))^(2/3))
    # for one modest C across the grid; the ratio must also stay in a
    # narrow band for the expression to capture the scaling shape
    def expr(k, eps):
        log_term = mp.log(k / mpf(eps))
        return (eps / mp.sqrt(k * log_term)
                + (eps / (k * log_term)) ** (mpf(2) / 3))

    ratios = [algorithm_config("bns19", k, 1.0).gap / expr(k, 1.0)
              for k in (64, 256, 1024)]
    assert max(ratios) < mpf("0.5")
    assert max(ratios) / min(ratios) < 2


def test_algorithm_config_tags():
    assert algorithm_config("sample-one", 4, 1.0).tag == "sample_one"
    assert algorithm_config("futurerand", 4, 1.0).tag == "futurerand"
    with pytest.raises(ConfigError):
        algorithm_config("nope", 4, 1.0)


@pytest.mark.parametrize("tag", ALGORITHMS)
def test_builders_reject_bad_k_and_eps(tag):
    for k, eps in [(0, 1.0), (4, 0.0), (4, -1.0)]:
        with pytest.raises(ConfigError):
            algorithm_config(tag, k, eps)
    if tag in ("futurerand", "bns19"):
        with pytest.raises(ConfigError):
            algorithm_config(tag, 4, 1.5)


def _exact(x):
    return repr(x.man_exp) if isinstance(x, mpf) else repr(x)


def test_every_config_is_pinned():
    # SHA-256 over the chosen and derived values, the sampler's CDF bytes and
    # the gap lower bound of each algorithm's randomizer, the one its clients
    # apply, bit for bit, across the grid; the cells that raise are pinned too
    digest, raised = hashlib.sha256(), set()
    for tag in ALGORITHMS:
        for k in (1, 2, 3, 8, 64, 256, 1024):
            for eps in (0.25, 0.5, 1.0, 1.5):
                try:
                    alg = algorithm_config(tag, k, eps)
                except ConfigError:
                    raised.add((tag, k, eps))
                    continue
                cfg = alg.randomizer
                fields = (cfg.eps_tilde, cfg.lb, cfg.ub, cfg.ub_real, cfg.p, cfg.gap,
                          gap_lower_bound_expr(cfg))
                digest.update(" ".join(map(_exact, fields)).encode())
                digest.update(cfg.distance_cdf.tobytes())
    assert raised == {(tag, k, 1.5) for tag in ("futurerand", "bns19")
                      for k in (1, 2, 3, 8, 64, 256, 1024)}
    assert digest.hexdigest() == (
        "571640ec10bc2637debf06012ae9d9c8d946d11ebce826b62a31ae1775631740")


def test_algorithm_config_rejects_k_above_l():
    with pytest.raises(ConfigError):
        algorithm_config("futurerand", 5, 1.0, L=4)
    assert algorithm_config("futurerand", 4, 1.0, L=4).k == 4


def test_make_client_sample_one_filters_stream():
    alg = algorithm_config("sample_one", 2, 1.0, L=4)
    kept_states = []
    for seed in range(200):
        state = client_init(alg, 4, np.random.default_rng(seed),
                            change_times=(2, 4))
        kept_states.append(state.keep_time)
        deltas = {2: 1, 4: -1}
        bits = [client_step(state, t, deltas.get(t, 0)) for t in range(1, 5)]
        emitted = [b for b in bits if b is not None]
        assert len(emitted) == 4 >> state.h
        # at most one window carries the kept change; nnz reflects it
        assert state.nnz == (0 if state.keep_time is None else 1)
    assert set(kept_states) == {2, 4}  # both slots are real changes here


def test_make_client_sample_one_requires_changes():
    alg = algorithm_config("sample_one", 2, 1.0, L=4)
    with pytest.raises(ValueError):
        client_init(alg, 4, np.random.default_rng(0))


def test_sample_one_unbiased_small():
    alg = algorithm_config("sample_one", 3, 1.0, L=8)
    diffs = []
    for rep in range(600):
        out = simulate_rep(alg, 150, 8, seed=29, rep=rep)
        diffs.append(out.estimates - out.truth)
    D = np.array(diffs)
    z = np.abs(D.mean(axis=0)) / (D.std(axis=0, ddof=1) / np.sqrt(len(D)))
    assert z.max() < 4.5, z


def test_one_config_is_shared_per_algorithm_k_and_eps():
    baselines._algorithm_config.cache_clear()
    alg = algorithm_config("sample-one", 4, 1)
    assert type(alg.eps) is float and alg.eps == 1.0
    assert not alg.randomizer.distance_cdf.flags.writeable
    for L in (None, 4, 1024):
        for tag in ("sample_one", "sample-one"):
            for eps in (1, 1.0):
                assert algorithm_config(tag, 4, eps, L=L) is alg
    assert algorithm_config("sample_one", 4, mpf(1)) is alg
    assert algorithm_config("sample_one", 4, np.float64(1)) is alg
    assert algorithm_config("sample_one", 4, 0.5) is not alg
    assert algorithm_config("naive", 4, 1.0) is not alg


def test_a_config_is_shared_only_at_its_own_precision():
    baselines._algorithm_config.cache_clear()
    alg = algorithm_config("futurerand", 4, 1.0)
    with mp.workdps(80):
        wide = algorithm_config("futurerand", 4, 1.0)
        assert wide is not alg
        # eps_tilde = 1 / (5 sqrt(4)) = 1/10, rounded at 80 digits, not at 50
        assert wide.randomizer.eps_tilde == mpf(1) / 10 != alg.randomizer.eps_tilde
    assert algorithm_config("futurerand", 4, 1.0) is alg


def test_a_config_error_is_never_cached():
    baselines._algorithm_config.cache_clear()
    bad = [("nope", 4, 1.0, None), ("futurerand", 0, 1.0, None), ("naive", 4, 0.0, None),
           ("sample_one", 4, -1.0, None), ("futurerand", 4, 1.5, None), ("bns19", 4, 1.5, None),
           ("naive", 5, 1.0, 4), ("naive", 4, "1", None), ("naive", 4, None, None),
           ("naive", 4.0, 1.0, None), ("naive", "4", 1.0, None), ("naive", None, 1.0, None),
           ("naive", True, 1.0, None)]
    for _ in range(2):
        for tag, k, eps, L in bad:
            with pytest.raises(ConfigError):
                algorithm_config(tag, k, eps, L=L)
    assert baselines._algorithm_config.cache_info().currsize == 0
    # a cached config still fails a later call whose L is below its k
    assert algorithm_config("naive", 5, 1.0).k == 5
    with pytest.raises(ConfigError):
        algorithm_config("naive", 5, 1.0, L=4)


def test_run_certificate_and_audit_derive_one_distance_law(monkeypatch):
    # the run, its certificate and a client audit at the same (k, eps) share
    # one config, so g is evaluated once per distance in all
    baselines._algorithm_config.cache_clear()
    calls = []
    monkeypatch.setattr(randomizer, "g_weight",
                        lambda *a: calls.append(a) or g_weight(*a))
    k = 4
    spec = ExperimentSpec(n=50, d=8, k=k, eps=1.0, beta=0.1, algo="futurerand")
    metrics = run_experiment(spec)
    assert metrics.certificate.passed
    stream = derive((0, 1, 1, 0), k=k)
    assert audit_client(4, k, 1.0, stream, stream).passed
    assert len(calls) == k + 1
