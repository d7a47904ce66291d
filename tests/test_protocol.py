import io
import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from ldptrack import protocol
from ldptrack.baselines import algorithm_config
from ldptrack.dyadic import decompose, derive
from ldptrack.engine import simulate_rep
from ldptrack.errors import ProtocolError, SparsityError
from ldptrack.protocol import (ReportBatch, ReportRecord, client_init, client_step,
                               read_reports, replay, server_init, server_register,
                               server_scale, server_step, write_reports)

from oracles import chi_square


def _client_with_order(k, d, eps, h, start_seed=0):
    alg = algorithm_config("futurerand", k, eps)
    for seed in range(start_seed, start_seed + 5000):
        state = client_init(alg, d, np.random.default_rng(seed))
        if state.h == h:
            return state
    raise AssertionError(f"no seed produced order {h}")


# ---------------------------------------------------------------------------
# client


def test_client_init_horizon_one_forces_order_zero():
    alg = algorithm_config("futurerand", 2, 1.0)
    for seed in range(20):
        state = client_init(alg, 1, np.random.default_rng(seed))
        assert state.h == 0


def test_client_init_order_uniform():
    alg = algorithm_config("futurerand", 2, 1.0)
    counts = np.zeros(4, dtype=np.int64)
    for seed in range(20_000):
        counts[client_init(alg, 8, np.random.default_rng(seed)).h] += 1
    res = chi_square(counts, [1, 1, 1, 1], significance=0.001)
    assert res.passed, res


def test_client_init_btilde_marginal_matches_gap():
    alg = algorithm_config("futurerand", 2, 1.0)
    total = 0
    n = 20_000
    for seed in range(n):
        state = client_init(alg, 8, np.random.default_rng(seed))
        total += int(state.b_tilde[0])
    est = total / n
    g = float(alg.gap)
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
    assert server.registered == [2, 2, 2]
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
    server = server_init(4, 2, 1.0, mpf(1))
    for uid, h in ((0, 0), (3, 0), (1, 1), (2, 2)):
        server_register(server, uid, h)
    server_step(server, 1, [(0, 1), (3, 1)])
    with pytest.raises(ProtocolError, match=r"missing reports at t=2 from users \[0, 1\]$"):
        server_step(server, 2, [(3, 1)])  # user 2 (order 2) is not due
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


def _engine_reports():
    alg = algorithm_config("futurerand", 2, 1.0, L=8)
    return alg, simulate_rep(alg, 40, 8, seed=11, rep=0, collect_reports=True)


def test_replay_equals_engine_estimates():
    alg, out = _engine_reports()
    assert np.array_equal(replay(out.reports, alg, 8), out.estimates)
    # the server does not depend on the order records arrive in
    assert np.array_equal(replay(out.reports[::-1], alg, 8), out.estimates)


def test_replay_rejects_inconsistent_records():
    alg, out = _engine_reports()
    recs = list(out.reports)
    # a later record of a user at another order than its first
    i = next(i for i, r in enumerate(recs) if i and recs[i - 1].user == r.user)
    forged = replace(recs[i], h=(recs[i].h + 1) % 4)
    with pytest.raises(ProtocolError, match="order"):
        replay(recs[:i] + [forged] + recs[i + 1:], alg, 8)
    for t in (0, 9, -8):
        with pytest.raises(ProtocolError, match="outside"):
            replay(recs + [replace(recs[0], t=t)], alg, 8)
    # and what server_step rejects
    with pytest.raises(ProtocolError, match="duplicate"):
        replay(recs + [recs[0]], alg, 8)
    with pytest.raises(ProtocolError, match="missing"):
        replay(recs[1:], alg, 8)
    odd = next(r for r in recs if r.h > 0)
    with pytest.raises(ProtocolError, match="no report due"):
        replay(recs + [replace(odd, t=odd.t - 1)], alg, 8)


# small values hit other users, orders and times of the dump; the rest any int64
_ANY_INT64 = st.one_of(st.integers(-2, 50), st.integers(-(2 ** 63), 2 ** 63 - 1))


@given(st.sampled_from(["user", "h", "t", "drop", "duplicate"]), st.data())
@settings(max_examples=300, deadline=None)
def test_replay_rejects_any_inconsistent_dump(kind, data):
    alg, out = _engine_reports()
    rows = out.reports.rows.copy()
    # a user of the top order sends one record, and a dump does not list its
    # users: losing that record, or moving it to a new user, loses the user
    pool = np.flatnonzero(rows[:, 1] < 3) if kind in ("user", "drop") else range(len(rows))
    i = data.draw(st.sampled_from(pool), label="record")
    if kind in ("user", "h", "t"):
        col = ("user", "h", "t").index(kind)
        rows[i, col] = data.draw(_ANY_INT64.filter(lambda v: v != rows[i, col]))
    elif kind == "drop":
        rows = np.delete(rows, i, axis=0)
    else:
        rows = np.insert(rows, data.draw(st.integers(0, len(rows))), rows[i], axis=0)
    with pytest.raises(ProtocolError):
        replay(ReportBatch(rows), alg, 8)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_replay_of_a_dump_with_one_flipped_bit(data):
    alg, out = _engine_reports()
    rows = out.reports.rows.copy()
    i = data.draw(st.integers(0, len(rows) - 1), label="record")
    _, h, t, bit = rows[i].tolist()
    rows[i, 3] = -bit
    flipped = replay(ReportBatch(rows), alg, 8)
    # every estimate is the scale times an exact integer total of bits
    scale = float(server_scale(8, alg.gap, alg.server_factor))
    totals = [np.rint(est / scale) for est in (out.estimates, flipped)]
    for est, total in zip((out.estimates, flipped), totals):
        assert np.array_equal(est, scale * total)
    # which moves by -2 bit exactly where the flipped window is read out
    expected = [-2 * bit if (h, t >> h) in decompose(step, 8) else 0 for step in range(1, 9)]
    assert np.array_equal(totals[1] - totals[0], expected)


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
    # every field must be a JSON integer: no truncation, no coercion
    with pytest.raises(ValueError):
        ReportRecord.from_json('{"user": 1.7, "h": 0, "t": 1, "bit": 1}')
    with pytest.raises(ValueError):
        ReportRecord.from_json('{"user": "5", "h": 0, "t": 1, "bit": 1}')
    with pytest.raises(ValueError):
        ReportRecord.from_json('{"user": 1, "h": 0, "t": 2.9, "bit": 1}')
    with pytest.raises(ValueError):
        ReportRecord.from_json('{"user": 1, "h": 0, "t": 1, "bit": true}')
    # a JSON value that is not an object
    for line in ("1", "null", '"user"', '[1, "a"]'):
        with pytest.raises(ValueError, match="JSON object"):
            ReportRecord.from_json(line)
    # every field must fit int64, the column type of a ReportBatch
    for key in ("user", "h", "t", "bit"):
        for v in (2 ** 63, -(2 ** 63) - 1):
            with pytest.raises(ValueError, match=f"field {key}="):
                ReportRecord.from_json(json.dumps({"user": 1, "h": 0, "t": 1, "bit": 1, key: v}))
    edges = '{"user": -9223372036854775808, "h": 0, "t": 9223372036854775807, "bit": 1}'
    assert ReportRecord.from_json(edges) == ReportRecord(-(2 ** 63), 0, 2 ** 63 - 1, 1)


def test_report_batch_indexing_iteration_and_equality():
    records = [ReportRecord(3, 1, 2, -1), ReportRecord(0, 0, 1, 1),
               ReportRecord(-(2 ** 63), 2, 2 ** 63 - 1, 1)]
    batch = ReportBatch.of(records)
    assert batch.rows.dtype == np.int64 and batch.rows.shape == (3, 4) and len(batch) == 3
    assert [[r.user, r.h, r.t, r.bit] for r in batch] == batch.rows.tolist()
    assert all(type(v) is int for r in batch for v in (r.user, r.h, r.t, r.bit))
    assert list(batch) == records
    assert batch[1] == records[1] and batch[-1] == records[-1]
    assert isinstance(batch[1:], ReportBatch) and batch[1:] == records[1:]
    assert batch[::-1] == records[::-1] and list(batch[::-1]) == records[::-1]
    assert batch == ReportBatch.of(records) and batch == records and records == batch
    assert batch != records[::-1] and batch != records[:2]
    assert batch != ReportBatch.of(records[:2]) and batch != batch[::-1]


def test_empty_batch_writes_nothing_and_reads_back():
    empty = ReportBatch.of([])
    assert len(empty) == 0 and list(empty) == [] and empty == []
    buf = io.StringIO()
    write_reports(empty, buf)
    assert buf.getvalue() == ""
    assert read_reports(io.StringIO("")) == empty


def test_write_reports_exact_bytes():
    records = [ReportRecord(user=0, h=0, t=1, bit=-1),
               ReportRecord(user=2**40 + 7, h=10, t=1024, bit=1),
               ReportRecord(user=99_999, h=3, t=16, bit=-1)]
    buf = io.StringIO()
    write_reports(records, buf)
    assert buf.getvalue() == (
        '{"user": 0, "h": 0, "t": 1, "bit": -1}\n'
        '{"user": 1099511627783, "h": 10, "t": 1024, "bit": 1}\n'
        '{"user": 99999, "h": 3, "t": 16, "bit": -1}\n'
    )
    # each line is json.dumps of the record's fields
    for line, rec in zip(buf.getvalue().splitlines(), records, strict=True):
        assert line == json.dumps(
            {"user": rec.user, "h": rec.h, "t": rec.t, "bit": rec.bit})


def _line_by_line(text):
    """What read_reports returns when every line goes through from_json."""
    return [ReportRecord.from_json(line) for line in io.StringIO(text) if line.strip()]


def _assert_reads_like_from_json(text):
    try:
        expected = _line_by_line(text)
    except ValueError:
        with pytest.raises(ValueError):
            read_reports(io.StringIO(text))
    else:
        assert read_reports(io.StringIO(text)) == expected


_FIELDS = ("user", "h", "t", "bit")


def _mutate(text, kind, data):
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    obj = json.loads(lines[i])
    key = data.draw(st.sampled_from(_FIELDS))
    if kind == "reordered keys":
        keys = data.draw(st.permutations(_FIELDS))
        lines[i] = json.dumps({f: obj[f] for f in keys}) + "\n"
    elif kind == "compact separators":
        lines[i] = json.dumps(obj, separators=(",", ":")) + "\n"
    elif kind == "non-int field":
        obj[key] = data.draw(st.sampled_from([1.0, "1", True, None, [1]]))
        lines[i] = json.dumps(obj) + "\n"
    elif kind == "bit 2":
        lines[i] = json.dumps({**obj, "bit": 2}) + "\n"
    elif kind == "missing key":
        del obj[key]
        lines[i] = json.dumps(obj) + "\n"
    elif kind == "extra key":
        lines[i] = json.dumps({**obj, "x": 0}) + "\n"
    elif kind == "blank line":
        lines.insert(i, data.draw(st.sampled_from(["\n", "  \n", "\t\n"])))
    elif kind == "no final newline":
        lines[-1] = lines[-1].rstrip("\n")
    elif kind == "CRLF":
        lines = [line.replace("\n", "\r\n") for line in lines]
    elif kind == "user 2**70":
        lines[i] = json.dumps({**obj, "user": 2 ** 70}) + "\n"
    elif kind == "not an object":
        lines[i] = json.dumps(data.draw(st.sampled_from([1, None, "x", list(obj.values())]))) + "\n"
    elif kind == "split record":
        cut = data.draw(st.integers(1, len(lines[i]) - 2))
        lines[i] = lines[i][:cut] + "\n" + lines[i][cut:]
    return "".join(lines)


_RECORDS = st.lists(st.builds(
    ReportRecord,
    user=st.one_of(st.integers(0, 10 ** 6), st.integers(-(2 ** 63), 2 ** 63 - 1)),
    h=st.integers(0, 12),
    t=st.one_of(st.integers(1, 4096), st.integers(-(2 ** 63), 2 ** 63 - 1)),
    bit=st.sampled_from([-1, 1])), min_size=1, max_size=30)


@given(_RECORDS, st.sampled_from(["none", "reordered keys", "compact separators",
                                  "non-int field", "bit 2", "missing key", "extra key",
                                  "blank line", "no final newline", "CRLF",
                                  "user 2**70", "not an object", "split record"]),
       st.sampled_from([1, 16, 64, 1 << 18]), st.data())
@settings(max_examples=300, deadline=None)
def test_read_reports_equals_from_json_line_by_line(records, kind, block_chars, data):
    buf = io.StringIO()
    write_reports(records, buf)
    text = buf.getvalue()
    if kind == "none":
        assert read_reports(io.StringIO(text)) == records
    else:
        text = _mutate(text, kind, data)
    # small blocks put block ends inside records and lines longer than a block
    with mock.patch.object(protocol, "_BLOCK_CHARS", block_chars):
        _assert_reads_like_from_json(text)


def test_read_reports_across_blocks_with_a_noncanonical_line(tmp_path):
    rng = np.random.default_rng(3)
    records = [ReportRecord(int(u), int(h), int(t), int(b)) for u, h, t, b in zip(
        rng.integers(0, 10 ** 12, 30_000), rng.integers(0, 10, 30_000),
        rng.integers(1, 1024, 30_000), rng.choice([-1, 1], 30_000))]
    buf = io.StringIO()
    write_reports(records, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    assert len(buf.getvalue()) > 4 * protocol._BLOCK_CHARS
    mid = len(lines) // 2
    lines[mid] = json.dumps(json.loads(lines[mid]), separators=(",", ":")) + "\n"
    lines.insert(mid + 5, "\n")
    text = "".join(lines)
    assert read_reports(io.StringIO(text)) == records
    _assert_reads_like_from_json(text)
    # a text-mode file translates CRLF line ends before blocks are cut
    path = tmp_path / "crlf.ndjson"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    with path.open() as fp:
        assert read_reports(fp) == records
    # a lone "\r" (JSON whitespace) inside a line: newline=None reads it as a
    # line end, and readline on a newline="" file stops there
    crlf = text.replace("\n", "\r\n")
    cr = crlf.index(":", crlf.index("\n", len(crlf) // 2)) + 1
    path.write_bytes((crlf[:cr] + "\r" + crlf[cr:]).encode())
    for newline in (None, "", "\r\n"):
        with path.open(newline=newline) as fp:
            try:
                expected = _line_by_line(fp.read())
            except ValueError:
                expected = ValueError
        for block_chars in (1, 7, protocol._BLOCK_CHARS):
            with path.open(newline=newline) as fp, \
                    mock.patch.object(protocol, "_BLOCK_CHARS", block_chars):
                if expected is ValueError:
                    with pytest.raises(ValueError):
                        read_reports(fp)
                else:
                    assert read_reports(fp) == expected
    # digits outside ASCII are not JSON numbers
    for digit in ("\u0661", "\uff11"):
        lines[mid] = f'{{"user": 1{digit}, "h": 0, "t": 1, "bit": 1}}\n'
        with pytest.raises(ValueError):
            read_reports(io.StringIO("".join(lines)))
    # an invalid line in the middle of a block still raises
    lines[mid] = '{"user": 1, "h": 0, "t": 1, "bit": 2}\n'
    with pytest.raises(ValueError, match="bit must be"):
        read_reports(io.StringIO("".join(lines)))
