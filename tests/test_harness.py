import csv
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from ldptrack import baselines, harness
from ldptrack.baselines import ALGORITHMS, algorithm_config
from ldptrack.dyadic import decompose
from ldptrack.engine import (sample_changes, simulate_rep, substream,
                             truth_from_changes)
from ldptrack.harness import (ExperimentSpec, gen_population, regime_ok,
                              run_experiment, run_reference, scaling_study)
from ldptrack.protocol import read_reports, replay, server_scale

from oracles import boolean_series, chi_square


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(n=10, d=12, k=2, eps=1.0, beta=0.1)
    with pytest.raises(ValueError):
        ExperimentSpec(n=10, d=8, k=9, eps=1.0, beta=0.1)
    with pytest.raises(ValueError):
        ExperimentSpec(n=10, d=8, k=2, eps=1.0, beta=1.5)
    with pytest.raises(ValueError):
        ExperimentSpec(n=0, d=8, k=2, eps=1.0, beta=0.1)
    with pytest.raises(ValueError):
        ExperimentSpec(n=10, d=8, k=2, eps=1.0, beta=0.1, change_model="x")


# ---------------------------------------------------------------------------
# population generation


def test_gen_population_k0():
    streams, truth = gen_population(20, 8, 0, "uniform", np.random.default_rng(0))
    assert all(s.entries == (0,) * 8 for s in streams)
    assert truth.tolist() == [0] * 8


def test_gen_population_exactly_k_full_is_alternating():
    streams, truth = gen_population(5, 8, 8, "exactly_k", np.random.default_rng(1))
    for s in streams:
        assert s.entries == (1, -1, 1, -1, 1, -1, 1, -1)
    assert truth.tolist() == [5, 0, 5, 0, 5, 0, 5, 0]


def test_gen_population_rejects_k_above_d():
    with pytest.raises(ValueError):
        gen_population(5, 4, 6, "uniform", np.random.default_rng(0))


def test_gen_population_truth_consistency():
    streams, truth = gen_population(50, 16, 5, "uniform", np.random.default_rng(3))
    recomputed = np.zeros(16, dtype=int)
    for s in streams:
        recomputed += np.asarray(boolean_series(s))
    assert np.array_equal(recomputed, truth)


@given(st.integers(1, 40), st.integers(0, 4), st.integers(0, 3),
       st.sampled_from(["uniform", "exactly_k", "bursty"]), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_gen_population_streams_valid(n, log_d, k, model, seed):
    d = 1 << log_d
    k = min(k, d)
    streams, truth = gen_population(n, d, k, model, np.random.default_rng(seed))
    # DerivativeStream validates its own invariants on construction
    assert len(streams) == n
    assert all(len(s.entries) == d and s.k == k for s in streams)
    assert truth.dtype == np.int64 and ((0 <= truth) & (truth <= n)).all()


def test_sample_changes_uniform_count_distribution():
    counts, _ = sample_changes(60_000, 16, 4, "uniform", np.random.default_rng(9))
    res = chi_square(np.bincount(counts, minlength=5), [1] * 5, significance=0.001)
    assert res.passed, res


def test_sample_changes_time_marginal_uniform():
    counts, times = sample_changes(60_000, 8, 2, "uniform", np.random.default_rng(10))
    sel = times[counts == 1, 0]
    res = chi_square(np.bincount(sel, minlength=9)[1:], [1] * 8, significance=0.001)
    assert res.passed, res


def test_sample_changes_bursty_consecutive():
    counts, times = sample_changes(500, 32, 6, "bursty", np.random.default_rng(11))
    for u in range(500):
        c = counts[u]
        row = times[u, :c]
        if c > 1:
            assert np.all(np.diff(row) == 1)
        assert np.all(times[u, c:] == 0)


def test_truth_from_changes_hand_case():
    counts = np.array([2, 1])
    times = np.array([[2, 5], [3, 0]])
    # user 0 holds 1 on [2,5), user 1 holds 1 from t=3 on
    assert truth_from_changes(counts, times, 6).tolist() == [0, 1, 2, 2, 1, 1]


# ---------------------------------------------------------------------------
# experiment runner


def test_run_experiment_deterministic():
    spec = ExperimentSpec(n=120, d=16, k=3, eps=1.0, beta=0.1, reps=4, seed=17)
    a = run_experiment(spec).to_json()
    b = run_experiment(spec).to_json()
    assert a == b


def test_run_experiment_bound_field_matches_independent_recomputation():
    spec = ExperimentSpec(n=300, d=32, k=4, eps=0.5, beta=0.2, reps=2, seed=5)
    metrics = run_experiment(spec)
    gap_value = spec.algorithm().gap
    with mp.workdps(60):
        expected = float(mpf(6) / gap_value * mp.sqrt(2 * 300 * mp.log(2 * 32 / mpf("0.2"))))
    assert metrics.bound == pytest.approx(expected, rel=1e-13)
    assert metrics.gap == float(gap_value)


def test_sample_one_bound_coverage():
    # the bound scales with the server's factor k; without it sample_one
    # exceeds the bound in every repetition at this size
    spec = ExperimentSpec(n=5000, d=16, k=8, eps=1.0, beta=0.1,
                          algo="sample_one", reps=40, seed=0)
    metrics = run_experiment(spec)
    exceed = sum(e > metrics.bound for e in metrics.max_errs)
    slack = 2.5758293035489004 * math.sqrt(spec.beta * (1 - spec.beta) / spec.reps)
    assert exceed / spec.reps <= spec.beta + slack, exceed


def test_regime_flag():
    assert regime_ok(n=10**5, d=1024, k=64, eps=1.0, beta=0.1)
    assert not regime_ok(n=100, d=1024, k=64, eps=1.0, beta=0.1)
    spec = ExperimentSpec(n=10, d=16, k=4, eps=1.0, beta=0.1, reps=1, seed=0)
    assert run_experiment(spec).regime_ok == regime_ok(10, 16, 4, 1.0, 0.1)


def test_run_experiment_json_schema():
    spec = ExperimentSpec(n=50, d=8, k=2, eps=1.0, beta=0.1, reps=3, seed=1)
    payload = run_experiment(spec).to_json()
    assert set(payload) == {"spec", "gap", "bound", "regime_ok", "reps", "exceedances",
                            "summary", "certified_ratio", "certified"}
    assert len(payload["reps"]) == 3
    assert all(set(r) == {"max_err"} for r in payload["reps"])
    assert set(payload["summary"]) == {"mean", "stddev", "quantiles"}


def test_run_experiment_outputs_and_report_consistency(tmp_path):
    out = tmp_path / "run.json"
    reports_path = tmp_path / "reports.ndjson"
    spec = ExperimentSpec(n=40, d=16, k=3, eps=1.0, beta=0.1, reps=2, seed=23,
                          out=str(out))
    metrics = run_experiment(spec, dump_reports_to=reports_path)

    payload = json.loads(out.read_text())
    assert payload["gap"] == metrics.gap

    with (tmp_path / "run.csv").open() as fp:
        rows = list(csv.reader(fp))
    assert rows[0] == ["t", "f", "fhat", "abs_err", "bound"]
    assert len(rows) == 17

    # recompute the first repetition from raw report records and match the CSV
    with reports_path.open() as fp:
        records = read_reports(fp)
    alg = spec.algorithm()
    scale = float(server_scale(16, alg.gap, alg.server_factor))
    sums = {}
    for rec in records:
        key = (rec.h, rec.t >> rec.h)
        sums[key] = sums.get(key, 0) + rec.bit
    for row in rows[1:]:
        t, f_val, fhat, abs_err = int(row[0]), int(row[1]), float(row[2]), float(row[3])
        recomputed = scale * sum(sums[w] for w in decompose(t, 16))
        assert recomputed == fhat
        assert abs_err == abs(fhat - f_val)


def test_engine_reports_one_bit_per_due_window(tmp_path):
    alg = algorithm_config("futurerand", 2, 1.0, L=8)
    out = simulate_rep(alg, 12, 8, seed=3, rep=0, collect_reports=True)
    per_user = {}
    for rec in out.reports:
        per_user.setdefault(rec.user, []).append(rec)
    assert set(per_user) == set(range(12))
    for user, recs in per_user.items():
        h = recs[0].h
        assert all(r.h == h for r in recs)
        assert sorted(r.t for r in recs) == [(j + 1) << h for j in range(8 >> h)]


def test_engine_matches_reference_distribution():
    # the vectorized engine and the per-user state machines are two
    # implementations of the same protocol: their estimates must agree
    # in distribution (checked via mean and spread of the error at a
    # fixed time)
    alg = algorithm_config("futurerand", 2, 1.0, L=8)
    reps = 150
    eng, ref = [], []
    rng = np.random.default_rng(77)
    for rep in range(reps):
        out = simulate_rep(alg, 60, 8, seed=2000, rep=rep)
        eng.append(out.estimates[5] - out.truth[5])
        streams, truth = gen_population(60, 8, 2, "uniform",
                                        substream(3000, rep, 0))
        est, _ = run_reference(streams, alg, 8, seed=3000, rep=rep)
        ref.append(est[5] - truth[5])
    eng, ref = np.array(eng), np.array(ref)
    se = np.sqrt(eng.var(ddof=1) / reps + ref.var(ddof=1) / reps)
    assert abs(eng.mean() - ref.mean()) < 4 * se
    assert 0.5 < eng.std(ddof=1) / ref.std(ddof=1) < 2.0


@pytest.mark.parametrize("algo", ["futurerand", "naive", "sample_one"])
def test_engine_estimates_equal_server_replay_of_its_reports(algo):
    # the engine and the server share one readout, so replaying an engine
    # repetition's own reports through the server gives identical floats
    d = 512
    alg = algorithm_config(algo, 16, 1.0, L=d)
    out = simulate_rep(alg, 2000, d, seed=5, rep=0, collect_reports=True)
    replayed = replay(out.reports, alg, d)
    assert np.array_equal(replayed, out.estimates)


def test_reference_runner_deterministic_and_round_trip(tmp_path):
    alg = algorithm_config("naive", 2, 1.0, L=8)
    streams, _ = gen_population(15, 8, 2, "uniform", np.random.default_rng(6))
    est1, recs1 = run_reference(streams, alg, 8, seed=5)
    est2, recs2 = run_reference(streams, alg, 8, seed=5)
    assert est1 == est2 and recs1 == recs2
    path = tmp_path / "ref.ndjson"
    with path.open("w") as fp:
        from ldptrack.protocol import write_reports
        write_reports(recs1, fp)
    with path.open() as fp:
        assert read_reports(fp) == recs1


# SHA-256 of the estimates and report rows of run_reference, as computed by
# per-user clients driving server_init/server_register/server_step directly
# (sample-one's since its noise comes from its one-coordinate randomizer)
_REFERENCE_SHA256 = {
    "futurerand": "79edb85e65b615bf42ac801e9b9e6301ecd8b3e33f0bd9a05dcf388592d57803",
    "naive": "2514513dedf8a4a6fb964f7732cdaa8190d3abb4508dbc379314998be08efa62",
    "sample_one": "b860a7094171d4bf7b61f2294a8808971541b395bbc65bf32b97e255858c4191",
    "bns19": "efde2e6a8cff332f0a0047430ff869b8bcd04f8d7800cf1854c76f59e8cf7013",
}


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_run_reference_outputs_are_pinned(algo):
    alg = algorithm_config(algo, 3, 1.0, L=8)
    streams, _ = gen_population(40, 8, 3, "uniform", np.random.default_rng(12))
    est, reports = run_reference(streams, alg, 8, seed=7, rep=1)
    assert len(reports) == 165
    digest = hashlib.sha256(np.array(est).tobytes() + reports.rows.tobytes()).hexdigest()
    assert digest == _REFERENCE_SHA256[algo]


def test_scaling_study_smoke():
    base = ExperimentSpec(n=400, d=16, k=4, eps=1.0, beta=0.1, reps=3, seed=9)
    study = scaling_study(base, [2, 4], ["futurerand", "naive"])
    assert len(study.cells) == 4
    assert set(study.slopes) == {"futurerand", "naive"}
    assert all(np.isfinite(c.rms_max_error) and c.rms_max_error > 0
               for c in study.cells)
    text = study.table()
    assert "futurerand" in text and "rms_max_error" in text


def test_scaling_study_empty_grid():
    base = ExperimentSpec(n=10, d=8, k=2, eps=1.0, beta=0.1)
    with pytest.raises(ValueError):
        scaling_study(base, [], ["futurerand"])


@pytest.mark.parametrize("grid, algos, message", [
    ([2, 4], [], "at least one algorithm"),
    ([2], ["futurerand"], "two distinct k"),
    ([4, 4], ["futurerand"], "two distinct k"),
])
def test_scaling_study_rejects_grids_it_cannot_fit(grid, algos, message):
    base = ExperimentSpec(n=10, d=8, k=2, eps=1.0, beta=0.1)
    with pytest.raises(ValueError, match=message):
        scaling_study(base, grid, algos)


def test_scaling_study_checks_every_cell_before_running_one(monkeypatch):
    monkeypatch.setattr(harness, "run_experiment", lambda spec: pytest.fail("a cell ran"))
    base = ExperimentSpec(n=10, d=8, k=2, eps=1.0, beta=0.1)
    with pytest.raises(ValueError, match="k=16 exceeds horizon d=8"):
        scaling_study(base, [2, 16], ["futurerand"])
    # a bad algorithm or eps fails its config before the valid cells before it run
    with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
        scaling_study(base, [2, 4], ["naive", "bogus"])
    base = ExperimentSpec(n=10, d=8, k=2, eps=1.5, beta=0.1)
    with pytest.raises(ValueError, match="eps=1.5 outside"):
        scaling_study(base, [2, 4], ["naive", "futurerand"])


def test_a_run_and_its_certificate_build_no_prefix_masses():
    # the O(k^2) table stays on the shared config once read, and only the
    # enumeration audits (k <= 4) read it
    baselines._algorithm_config.cache_clear()
    spec = ExperimentSpec(n=8, d=1024, k=1024, eps=1.0, beta=0.1, algo="futurerand")
    metrics = run_experiment(spec)
    assert metrics.certificate.passed
    cfg = spec.algorithm().randomizer
    assert "distance_cdf" in cfg.__dict__
    assert "prefix_masses" not in cfg.__dict__
