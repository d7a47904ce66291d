"""End-to-end acceptance gate.

Each test exercises one release criterion at its stated tolerance and
prints one PASS line (visible under ``pytest -s`` or in the captured
output of a failure).  The statistical criteria run at fixed seeds, so
outcomes are reproducible.
"""

import math
import time

import numpy as np
from mpmath import mp, mpf

from ldptrack.audit import audit_client_sweep, audit_randomizer
from ldptrack.baselines import (algorithm_config, bns19_config,
                                futurerand_algorithm)
from ldptrack.engine import simulate_rep, substream
from ldptrack.harness import (ExperimentSpec, gen_population, run_experiment,
                              run_reference, scaling_study)
from ldptrack.protocol import read_reports, write_reports
from ldptrack.randomizer import (exact_output_distribution, futurerand_config,
                                 gap_lower_bound_expr,
                                 sample_composed_batch, _gap_both_forms)

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_oracle_normalization_and_randomizer_privacy():
    """Exact tables sum to 1 and every input pair stays within e^eps."""
    started = time.perf_counter()
    worst_margin = 0.0
    for k in range(2, 11):
        for eps in (0.25, 0.5, 1.0):
            cfg = futurerand_config(k, eps)
            table = exact_output_distribution(np.ones(k, dtype=np.int8), cfg)
            assert abs(table.total() - 1) <= mpf("1e-12")
            report = audit_randomizer(cfg)
            limit = mp.exp(mpf(eps)) * (1 + mpf("1e-9"))
            assert report.passed and report.max_ratio <= limit, (k, eps)
            worst_margin = max(worst_margin, float(report.max_ratio / limit))
    elapsed = time.perf_counter() - started
    assert elapsed <= 120, f"criterion 1 took {elapsed:.1f}s, budget 120s"
    _report("criterion 1",
            f"k in 2..10 x eps in {{0.25,0.5,1}}: tables normalized, "
            f"worst ratio/e^eps = {worst_margin:.4f}, {elapsed:.1f}s")


def test_criterion_2_gap_exactness():
    """Enumeration, algebraic cross-form, and Monte-Carlo agreement."""
    started = time.perf_counter()
    for k in range(2, 11):
        cfg = futurerand_config(k, 1.0)
        table = exact_output_distribution(np.ones(k, dtype=np.int8), cfg)
        assert abs(table.marginal_gap(0) - cfg.gap) <= mpf("1e-10"), k
    for k in (4, 64, 256):
        cfg = futurerand_config(k, 1.0)
        simplified, two_sum = _gap_both_forms(cfg)
        assert abs(simplified - two_sum) <= mpf("1e-12") * abs(simplified), k
    deviations = {}
    for k in (4, 64, 256):
        cfg = futurerand_config(k, 1.0)
        batch = sample_composed_batch(cfg, 1_000_000, substream(4242, 0, k))
        est = float(batch[:, 0].astype(np.float64).mean())
        g = float(cfg.gap)
        sigma = math.sqrt((1 - g * g) / 1_000_000)
        assert abs(est - g) <= 4 * sigma, (k, est, g)
        deviations[k] = (est - g) / sigma
    elapsed = time.perf_counter() - started
    assert elapsed <= 60, f"criterion 2 took {elapsed:.1f}s, budget 60s"
    _report("criterion 2",
            f"enumerated marginal within 1e-10 (k<=10), forms agree to 1e-12, "
            f"MC deviations {deviations} sigma, {elapsed:.1f}s")


def test_criterion_3_gap_lower_bound():
    """Certified summation lower-bounds the gap and stays positive."""
    values = {}
    for k in (64, 256, 1024):
        cfg = futurerand_config(k, 1.0)
        lower = gap_lower_bound_expr(cfg)
        assert lower is not None and 0 < lower <= cfg.gap, k
        values[k] = float(lower)
    _report("criterion 3", f"0 < lower bound <= gap at k in {{64,256,1024}}: {values}")


def test_criterion_4_client_level_privacy():
    """Full client output ratios stay within e^eps across stream pairs."""
    started = time.perf_counter()
    ratios = {}
    for eps in (0.5, 1.0):
        exhaustive = audit_client_sweep(4, 2, eps)  # all valid stream pairs
        assert exhaustive.passed, (eps, float(exhaustive.max_ratio))
        sampled = audit_client_sweep(8, 3, eps, pairs=100,
                                     rng=np.random.default_rng(123))
        assert sampled.passed, (eps, float(sampled.max_ratio))
        ratios[eps] = (float(exhaustive.max_ratio), float(sampled.max_ratio))
    elapsed = time.perf_counter() - started
    assert elapsed <= 300, f"criterion 4 took {elapsed:.1f}s, budget 300s"
    _report("criterion 4",
            f"exhaustive d=4,k=2 and 100 pairs d=8,k=3 at eps in {{0.5,1}}: "
            f"max ratios {ratios}, {elapsed:.1f}s")


def test_criterion_5_unbiasedness():
    """Per-t mean of f_hat - f lies inside the 99% CI over 2000 runs."""
    alg = algorithm_config("futurerand", 4, 1.0, L=16)
    reps = 2000
    diffs = np.empty((reps, 16))
    for rep in range(reps):
        out = simulate_rep(alg, 200, 16, seed=0, rep=rep)
        diffs[rep] = out.estimates - out.truth
    mean = diffs.mean(axis=0)
    half_width = Z_99 * diffs.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(mean) <= half_width), (mean, half_width)
    worst = float(np.max(np.abs(mean) / (diffs.std(axis=0, ddof=1) / math.sqrt(reps))))
    _report("criterion 5",
            f"n=200,d=16,k=4,eps=1,2000 reps: every per-t mean inside the "
            f"99% CI (worst |z| = {worst:.2f})")


def test_criterion_6_hoeffding_bound_coverage():
    """Max error exceeds the analytic bound no more often than beta allows."""
    started = time.perf_counter()
    spec = ExperimentSpec(n=100_000, d=1024, k=64, eps=1.0, beta=0.1,
                          reps=50, seed=0)
    metrics = run_experiment(spec)
    exceed = sum(e > metrics.bound for e in metrics.max_errs)
    freq = exceed / spec.reps
    slack = Z_99 * math.sqrt(spec.beta * (1 - spec.beta) / spec.reps)
    assert freq <= spec.beta + slack, (freq, spec.beta + slack)
    assert metrics.regime_ok
    elapsed = time.perf_counter() - started
    assert elapsed <= 120, f"criterion 6 took {elapsed:.1f}s, budget 120s"
    _report("criterion 6",
            f"exceedance {exceed}/{spec.reps} <= beta + slack = "
            f"{spec.beta + slack:.3f}; bound {metrics.bound:.3e}, "
            f"largest error {max(metrics.max_errs):.3e}, {elapsed:.1f}s")


def test_criterion_7_sqrt_k_separation():
    """Log-log error slopes: ~0.5 for the composed randomizer, ~1 for
    sample-one, with a strict gap at k = 256."""
    base = ExperimentSpec(n=100_000, d=256, k=256, eps=1.0, beta=0.1,
                          reps=30, seed=0)
    study = scaling_study(base, [16, 64, 256], ["futurerand", "sample_one"])
    slopes = study.slopes
    assert abs(slopes["futurerand"] - 0.5) <= 0.15, slopes
    assert abs(slopes["sample_one"] - 1.0) <= 0.15, slopes
    rms = {(c.algorithm, c.k): c.rms_max_error for c in study.cells}
    assert rms[("futurerand", 256)] < rms[("sample_one", 256)]
    _report("criterion 7",
            f"slopes futurerand {slopes['futurerand']:.3f} (0.5 +- 0.15), "
            f"sample_one {slopes['sample_one']:.3f} (1.0 +- 0.15); "
            f"rms at k=256: {rms[('futurerand', 256)]:.3e} < "
            f"{rms[('sample_one', 256)]:.3e}")


def test_criterion_8_baseline_gap_comparisons():
    """bns19's gap sits below the composed randomizer's and respects its
    analytic upper bound with one fitted constant."""
    for k in (256, 1024):
        assert bns19_config(k, 1.0).gap < futurerand_algorithm(k, 1.0).gap, k

    def bound_expr(k, eps):
        log_term = mp.log(k / mpf(eps))
        return (eps / mp.sqrt(k * log_term)
                + (eps / (k * log_term)) ** (mpf(2) / 3))

    ratios = {k: float(bns19_config(k, 1.0).gap / bound_expr(k, 1.0))
              for k in (64, 256, 1024)}
    fitted = max(ratios.values())
    assert fitted < 0.5, ratios
    assert fitted / min(ratios.values()) < 2, ratios
    _report("criterion 8",
            f"gap(bns19) < gap(futurerand) at k in {{256,1024}}; "
            f"gap/bound ratios {ratios} (fitted C = {fitted:.3f})")


def test_criterion_9_determinism_and_wire_round_trip(tmp_path):
    """Fixed seeds reproduce bit-identical runs; report records survive
    serialization losslessly."""
    spec = ExperimentSpec(n=150, d=32, k=4, eps=1.0, beta=0.1, reps=5, seed=11)
    assert run_experiment(spec).to_json() == run_experiment(spec).to_json()

    alg = algorithm_config("futurerand", 3, 1.0, L=16)
    out1 = simulate_rep(alg, 40, 16, seed=7, rep=0, collect_reports=True)
    out2 = simulate_rep(alg, 40, 16, seed=7, rep=0, collect_reports=True)
    assert np.array_equal(out1.estimates, out2.estimates)
    assert out1.reports == out2.reports

    path = tmp_path / "reports.ndjson"
    with path.open("w") as fp:
        write_reports(out1.reports, fp)
    with path.open() as fp:
        assert read_reports(fp) == out1.reports

    streams, _ = gen_population(25, 8, 2, "uniform", np.random.default_rng(1))
    alg2 = algorithm_config("futurerand", 2, 1.0, L=8)
    est_a, recs_a = run_reference(streams, alg2, 8, seed=3)
    est_b, recs_b = run_reference(streams, alg2, 8, seed=3)
    assert est_a == est_b and recs_a == recs_b
    _report("criterion 9", "fixed-seed runs bit-identical; NDJSON round-trip lossless")
