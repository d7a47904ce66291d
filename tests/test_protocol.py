import io

import numpy as np
import pytest
from mpmath import mpf

from ldptrack.audit import chi_square
from ldptrack.dyadic import derive
from ldptrack.errors import ProtocolError, SparsityError
from ldptrack.protocol import (ReportRecord, client_init, client_step,
                               read_reports, server_init, server_register,
                               server_step, write_reports)
from ldptrack.randomizer import futurerand_config


def _client_with_order(k, d, eps, h, start_seed=0):
    cfg = futurerand_config(k, eps, L=d)
    for seed in range(start_seed, start_seed + 5000):
        state = client_init(k, d, eps, np.random.default_rng(seed), cfg=cfg)
        if state.h == h:
            return state
    raise AssertionError(f"no seed produced order {h}")


# ---------------------------------------------------------------------------
# client


def test_client_init_horizon_one_forces_order_zero():
    for seed in range(20):
        state = client_init(2, 1, 1.0, np.random.default_rng(seed))
        assert state.h == 0 and state.L == 1


def test_client_init_order_uniform():
    cfg = futurerand_config(2, 1.0, L=8)
    counts = np.zeros(4, dtype=np.int64)
    for seed in range(20_000):
        counts[client_init(2, 8, 1.0, np.random.default_rng(seed), cfg=cfg).h] += 1
    res = chi_square(counts, [1, 1, 1, 1], significance=0.001)
    assert res.passed, res


def test_client_init_btilde_marginal_matches_gap():
    cfg = futurerand_config(2, 1.0, L=8)
    total = 0
    n = 20_000
    for seed in range(n):
        state = client_init(2, 8, 1.0, np.random.default_rng(seed), cfg=cfg)
        total += int(state.b_tilde[0])
    est = total / n
    g = float(cfg.gap)
    sigma = np.sqrt((1 - g * g) / n)
    assert abs(est - g) < 4 * sigma


def test_client_step_zero_stream_emits_fair_bits():
    bits = []
    for seed in range(4000):
        state = _client_with_order(2, 4, 1.0, h=0, start_seed=seed * 7)
        for t in range(1, 5):
            bits.append(client_step(state, t, 0))
    counts = [bits.count(-1), bits.count(1)]
    res = chi_square(counts, [1, 1], significance=0.001)
    assert res.passed, res


def test_client_step_scripted_change_stream():
    # derivative (0, 1, 0, -1) at order 1: windows sum to +1 then -1
    stream = derive((0, 1, 1, 0))
    state = _client_with_order(2, 4, 1.0, h=1)
    out = [client_step(state, t, stream.entries[t - 1]) for t in range(1, 5)]
    assert out[0] is None and out[2] is None
    assert out[1] == 1 * int(state.b_tilde[0])
    assert out[3] == -1 * int(state.b_tilde[1])
    assert state.nnz == 2


def test_client_step_top_order_single_window():
    stream = derive((0, 1, 1, 1))
    state = _client_with_order(2, 4, 1.0, h=2)
    out = [client_step(state, t, stream.entries[t - 1]) for t in range(1, 5)]
    assert out[:3] == [None, None, None]
    assert out[3] == int(state.b_tilde[0])  # window sum is X[4] - 0 = +1


def test_client_step_sparsity_violation():
    state = _client_with_order(1, 4, 1.0, h=0)
    assert client_step(state, 1, 1) in (-1, 1)
    with pytest.raises(SparsityError):
        client_step(state, 2, -1)


def test_client_step_out_of_order():
    state = _client_with_order(2, 4, 1.0, h=0)
    client_step(state, 1, 0)
    with pytest.raises(ProtocolError):
        client_step(state, 3, 0)


def test_client_step_rejects_invalid_window_sum():
    state = _client_with_order(2, 4, 1.0, h=1)
    client_step(state, 1, 1)
    with pytest.raises(ValueError):
        client_step(state, 2, 1)  # prefix sums 1,2 are not a Boolean series


# ---------------------------------------------------------------------------
# server


def test_server_register_buckets():
    server = server_init(4, 2, 1.0, mpf(1))
    for uid in range(6):
        server_register(server, uid, uid % 3)
    assert {h: len(b) for h, b in server.buckets.items()} == {0: 2, 1: 2, 2: 2}
    with pytest.raises(ProtocolError):
        server_register(server, 3, 0)
    with pytest.raises(ProtocolError):
        server_register(server, 99, 7)


def test_server_step_scripted_hand_values():
    # three users at orders 0, 1, 2 with gap forced to 1: scale is 3
    server = server_init(4, 2, 1.0, mpf(1))
    server_register(server, 0, 0)
    server_register(server, 1, 1)
    server_register(server, 2, 2)
    assert server_step(server, 1, [(0, 1)]) == pytest.approx(3.0)
    assert server_step(server, 2, [(0, -1), (1, 1)]) == pytest.approx(3.0)
    assert server_step(server, 3, [(0, 1)]) == pytest.approx(6.0)
    assert server_step(server, 4, [(0, 1), (1, -1), (2, 1)]) == pytest.approx(3.0)
    assert [s.tolist() for s in server.sums] == [[1, -1, 1, 1], [1, -1], [1]]


def test_server_step_validates_reports():
    server = server_init(4, 2, 1.0, mpf(1))
    server_register(server, 0, 0)
    server_register(server, 1, 1)
    with pytest.raises(ProtocolError):
        server_step(server, 1, [(0, 1), (1, 1)])  # user 1 not due at t=1
    server = server_init(4, 2, 1.0, mpf(1))
    server_register(server, 0, 0)
    with pytest.raises(ProtocolError):
        server_step(server, 1, [(0, 1), (0, 1)])  # duplicate
    server = server_init(4, 2, 1.0, mpf(1))
    server_register(server, 0, 0)
    with pytest.raises(ProtocolError):
        server_step(server, 1, [])  # missing due report
    server = server_init(4, 2, 1.0, mpf(1))
    with pytest.raises(ProtocolError):
        server_step(server, 1, [(5, 1)])  # unregistered
    server = server_init(4, 2, 1.0, mpf(1))
    server_register(server, 0, 0)
    server_register(server, 1, 1)
    server_step(server, 1, [(0, 1)])
    with pytest.raises(ProtocolError):
        server_step(server, 2, [(0, 1)])  # order-1 user missing at t=2
    server = server_init(2, 2, 1.0, mpf(1))
    server_step(server, 1, [])
    server_step(server, 2, [])
    with pytest.raises(ProtocolError):
        server_step(server, 3, [])  # past the horizon


def test_identity_channel_round():
    # noiseless plumbing: every user cloned at every order, scale neutralized
    # by setting the gap to 1 + log2 d, true window sums as bits, and the
    # +1/-1 reports for zero sums cancelled by an antithetic second run
    d = 8
    series = [(0, 1, 1, 0, 0, 1, 1, 1), (1, 1, 0, 0, 1, 1, 0, 0),
              (0, 0, 0, 1, 1, 1, 1, 0)]
    streams = [derive(s) for s in series]
    truth = [sum(s[t] for s in series) for t in range(d)]
    num_orders = d.bit_length()

    def run(zero_bit):
        server = server_init(d, 4, 1.0, mpf(num_orders))
        uid = 0
        assignment = {}
        for h in range(num_orders):
            for s_idx in range(len(streams)):
                server_register(server, uid, h)
                assignment[uid] = (h, s_idx)
                uid += 1
        estimates = []
        for t in range(1, d + 1):
            reports = []
            for u, (h, s_idx) in assignment.items():
                if t % (1 << h) == 0:
                    window = range(t - (1 << h) + 1, t + 1)
                    sigma = sum(streams[s_idx].entries[tt - 1] for tt in window)
                    reports.append((u, sigma if sigma != 0 else zero_bit))
            estimates.append(server_step(server, t, reports))
        return np.array(estimates)

    averaged = (run(+1) + run(-1)) / 2
    assert np.array_equal(averaged, np.array(truth, dtype=float))


# ---------------------------------------------------------------------------
# wire format


def test_report_record_round_trip():
    records = [ReportRecord(user=3, h=1, t=2, bit=-1),
               ReportRecord(user=0, h=0, t=1, bit=1)]
    buf = io.StringIO()
    write_reports(records, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == '{"user": 3, "h": 1, "t": 2, "bit": -1}'
    assert read_reports(io.StringIO(text)) == records


def test_report_record_rejects_bad_payload():
    with pytest.raises(ValueError):
        ReportRecord.from_json('{"user": 1, "h": 0, "t": 1}')
    with pytest.raises(ValueError):
        ReportRecord.from_json('{"user": 1, "h": 0, "t": 1, "bit": 2}')
    with pytest.raises(ValueError):
        ReportRecord.from_json('{"user": 1, "h": 0, "t": 1, "bit": 1, "x": 0}')
