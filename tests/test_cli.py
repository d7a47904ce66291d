import csv
import json
import math
import time

import pytest

from ldptrack import harness
from ldptrack.audit import audit_client_certificate
from ldptrack.cli import main


def test_simulate_small(capsys, tmp_path):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--n", "50", "--d", "8", "--k", "2", "--eps", "1.0",
                 "--beta", "0.1", "--reps", "2", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"spec", "gap", "bound", "regime_ok", "reps", "exceedances",
                            "summary", "certified_ratio", "certified"}
    assert payload["certified_ratio"] == float(audit_client_certificate(8, 2, 1.0).max_ratio)
    assert payload["certified"] is True
    assert payload["exceedances"] == sum(r["max_err"] > payload["bound"]
                                         for r in payload["reps"])
    assert json.loads(out.read_text())["exceedances"] == payload["exceedances"]
    assert out.exists() and (tmp_path / "sim.csv").exists()


def test_simulate_out_certifies_once(capsys, tmp_path, monkeypatch):
    # the file and stdout share one certificate, computed once per run
    calls = []

    def spy(*args):
        calls.append(args)
        return audit_client_certificate(*args)

    monkeypatch.setattr(harness, "audit_client_certificate", spy)
    out = tmp_path / "sim.json"
    code = main(["simulate", "--n", "20", "--d", "8", "--k", "2", "--eps", "1.0",
                 "--reps", "1", "--out", str(out)])
    assert code == 0
    assert calls == [(8, 2, 1.0, "futurerand")]
    expected = float(audit_client_certificate(8, 2, 1.0).max_ratio)
    for payload in (json.loads(out.read_text()), json.loads(capsys.readouterr().out)):
        assert payload["certified_ratio"] == expected
        assert payload["certified"] is True


def test_simulate_all_algorithms(capsys):
    for algo in ("futurerand", "naive", "sample-one", "bns19"):
        code = main(["simulate", "--n", "30", "--d", "8", "--k", "2",
                     "--eps", "1.0", "--algo", algo, "--reps", "1"])
        assert code == 0
        capsys.readouterr()


def test_simulate_config_error_exit_code(capsys):
    code = main(["simulate", "--n", "50", "--d", "12", "--k", "2", "--eps", "1.0"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    code = main(["simulate", "--n", "50", "--d", "8", "--k", "2", "--eps", "1.5"])
    assert code == 2
    capsys.readouterr()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "50"])
    assert exc.value.code == 2


def test_gap_command(capsys):
    code = main(["gap", "--k", "4", "--eps", "1.0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lb"] == 0 and payload["ub"] == 1
    assert payload["gap"] == pytest.approx(0.036379932, rel=1e-6)
    code = main(["gap", "--k", "8", "--eps", "1.0", "--algo", "naive"])
    assert code == 0
    capsys.readouterr()
    # sample-one prints its own k and the one-coordinate annulus its clients apply
    code = main(["gap", "--k", "4", "--eps", "1", "--algo", "sample-one"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["k"], payload["lb"], payload["ub"]) == (4, 0, 1)
    assert payload["gap"] == pytest.approx(math.tanh(0.25), rel=1e-12)


def test_audit_randomizer_command(capsys, tmp_path):
    out = tmp_path / "audit.json"
    code = main(["audit", "randomizer", "--k", "3", "--eps", "1.0",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True and payload["max_ratio"] > 1
    capsys.readouterr()


@pytest.mark.parametrize("algo", ["futurerand", "bns19", "naive", "sample-one"])
def test_audit_randomizer_command_at_k_1024(capsys, algo):
    code = main(["audit", "randomizer", "--k", "1024", "--eps", "1", "--algo", algo])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["max_ratio"] <= math.e * (1 + 1e-9)


def test_audit_client_command(capsys):
    code = main(["audit", "client", "--d", "4", "--k", "2", "--eps", "1.0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


def test_audit_client_exhaustive_d8_k3(tmp_path, capsys):
    out = tmp_path / "client.json"
    code = main(["audit", "client", "--d", "8", "--k", "3", "--eps", "1",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["max_ratio"] == 1.2950921244896580
    assert payload["worst_case"].keys() == {"stream", "stream_alt", "order", "output"}
    capsys.readouterr()


def test_audit_client_bad_horizon_is_a_config_error(capsys):
    for algo in ("futurerand", "sample-one"):
        code = main(["audit", "client", "--d", "6", "--k", "2", "--eps", "1",
                     "--algo", algo])
        assert code == 2
        assert "power of two" in capsys.readouterr().err


def test_audit_client_certificate_at_d_1024(capsys):
    started = time.perf_counter()
    for algo in ("futurerand", "naive", "sample-one", "bns19"):
        code = main(["audit", "client", "--d", "1024", "--k", "1024", "--eps", "1",
                     "--algo", algo])
        assert code == 0, algo
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True and payload["worst_case"] is None
    assert time.perf_counter() - started < 10
    # with 2k <= d the certificate comes with a witness pair and output
    code = main(["audit", "client", "--d", "1024", "--k", "64", "--eps", "1"])
    assert code == 0
    witness = json.loads(capsys.readouterr().out)["worst_case"]
    assert witness["order"] == 0 and len(witness["output"]) == 1024
    assert [sum(map(abs, witness[key])) for key in ("stream", "stream_alt")] == [64, 64]


def test_file_errors_exit_2_with_the_path(capsys, tmp_path, monkeypatch):
    missing = tmp_path / "missing.ndjson"
    code = main(["aggregate", "--reports", str(missing), "--d", "8", "--k", "2",
                 "--eps", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("file error:") and str(missing) in err
    reps = []
    real = harness.simulate_rep
    monkeypatch.setattr(harness, "simulate_rep",
                        lambda *a, **kw: reps.append(1) or real(*a, **kw))
    (tmp_path / "f").write_text("")
    for option, name in (("--out", "x.json"), ("--dump-reports", "r.ndjson")):
        code = main(["simulate", "--n", "10", "--d", "8", "--k", "2", "--eps", "1",
                     option, str(tmp_path / "f" / name)])
        assert code == 2, option
        err = capsys.readouterr().err
        assert err.startswith("file error:") and str(tmp_path / "f") in err
        assert reps == [], option


def test_dump_reports(tmp_path, capsys):
    reports = tmp_path / "reports.ndjson"
    code = main(["simulate", "--n", "20", "--d", "8", "--k", "2", "--eps", "1.0",
                 "--reps", "1", "--dump-reports", str(reports)])
    assert code == 0
    capsys.readouterr()
    from ldptrack.protocol import read_reports
    with reports.open() as fp:
        records = read_reports(fp)
    assert records and all(r.bit in (-1, 1) for r in records)


def _simulate_with_dump(tmp_path, algo):
    reports = tmp_path / "reports.ndjson"
    code = main(["simulate", "--n", "300", "--d", "16", "--k", "3", "--eps", "1.0",
                 "--algo", algo, "--reps", "2", "--seed", "7",
                 "--out", str(tmp_path / "run.json"), "--dump-reports", str(reports)])
    assert code == 0
    return reports


def _column(path, name):
    with path.open(newline="") as fp:
        return [row[name] for row in csv.DictReader(fp)]


@pytest.mark.parametrize("algo", ["futurerand", "sample-one"])
def test_aggregate_reproduces_the_simulated_estimates(capsys, tmp_path, algo):
    reports = _simulate_with_dump(tmp_path, algo)
    est = tmp_path / "est.csv"
    code = main(["aggregate", "--reports", str(reports), "--d", "16", "--k", "3",
                 "--eps", "1.0", "--algo", algo, "--out", str(est)])
    assert code == 0
    fhat = _column(tmp_path / "run.csv", "fhat")
    assert len(fhat) == 16
    assert _column(est, "t") == [str(t) for t in range(1, 17)]
    assert _column(est, "fhat") == fhat
    capsys.readouterr()
    # without --out the same CSV goes to stdout
    main(["aggregate", "--reports", str(reports), "--d", "16", "--k", "3",
          "--eps", "1.0", "--algo", algo])
    assert capsys.readouterr().out == est.read_text()


def test_aggregate_rejects_a_record_with_another_order(capsys, tmp_path):
    reports = _simulate_with_dump(tmp_path, "futurerand")
    lines = reports.read_text().splitlines(keepends=True)
    # the second record of a user whose first record is just before it
    i = next(i for i in range(1, len(lines))
             if json.loads(lines[i])["user"] == json.loads(lines[i - 1])["user"])
    rec = json.loads(lines[i])
    rec["h"] = (rec["h"] + 1) % 5
    lines[i] = json.dumps(rec) + "\n"
    reports.write_text("".join(lines))
    capsys.readouterr()
    code = main(["aggregate", "--reports", str(reports), "--d", "16", "--k", "3",
                 "--eps", "1.0"])
    assert code == 2
    assert "protocol error" in capsys.readouterr().err
    # a malformed record is a protocol error too, and so are an int beyond
    # int64 and a repeated key
    for line in ('{"user": 1, "h": 0, "t": 1, "bit": 2}\n',
                 '{"user": 9223372036854775808, "h": 0, "t": 1, "bit": 1}\n',
                 '{"user": 1, "h": 0, "t": 1, "bit": 1, "user": 7}\n'):
        reports.write_text(line)
        code = main(["aggregate", "--reports", str(reports), "--d", "16", "--k", "3",
                     "--eps", "1.0"])
        assert code == 2
        assert "protocol error" in capsys.readouterr().err


def test_scaling_command(capsys, tmp_path):
    out = tmp_path / "scaling.json"
    code = main(["scaling", "--k-grid", "2,4", "--n", "200", "--d", "8",
                 "--eps", "1.0", "--reps", "2", "--seed", "4",
                 "--algos", "futurerand,naive", "--out", str(out)])
    assert code == 0
    assert "log-log slope" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert set(payload) == {"cells", "slopes"}


@pytest.mark.parametrize("grid, algos, message", [
    ("2,4", "", "at least one algorithm"),
    ("2", "futurerand", "two distinct k"),
    ("2,2", "futurerand", "two distinct k"),
    ("", "futurerand", "two distinct k"),
    ("2,16", "futurerand", "k=16 exceeds horizon d=8"),
])
def test_scaling_command_rejects_grids_it_cannot_fit(capsys, tmp_path, grid, algos, message):
    out = tmp_path / "scaling.json"
    code = main(["scaling", f"--k-grid={grid}", "--n", "50", "--d", "8", "--eps", "1.0",
                 "--reps", "2", f"--algos={algos}", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not out.exists()


def test_audit_randomizer_sample_one_audits_the_coordinate_it_uses(capsys):
    # a keep-one client only ever uses coordinate 0, at eps / 2
    code = main(["audit", "randomizer", "--algo", "sample-one", "--k", "3",
                 "--eps", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["max_ratio"] == pytest.approx(math.exp(0.5), rel=1e-12)
