import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldptrack.dyadic import DerivativeStream, decompose, derive

from oracles import _window_sums
from oracles import boolean_series as series_of


def _times(window):
    """Time steps of the dyadic window (h, j)."""
    h, j = window
    return range((j - 1) * (1 << h) + 1, j * (1 << h) + 1)


def _changes(ds):
    return [(c, ds.entries[c - 1]) for c in ds.change_times()]


def test_derive_example():
    assert derive((0, 1, 1, 0)).entries == (0, 1, 0, -1)


def test_derive_constant_zero():
    assert derive((0, 0, 0, 0)).entries == (0, 0, 0, 0)


def test_derive_single_initial_change():
    assert derive((1, 1, 1, 1)).entries == (1, 0, 0, 0)


def test_derive_rejects_non_boolean():
    with pytest.raises(ValueError):
        derive((0, 2, 0))
    with pytest.raises(ValueError):
        derive(())


def test_decompose_example():
    parts = decompose(3, 4)
    assert parts == [(1, 1), (0, 3)]
    assert list(_times(parts[0])) == [1, 2]
    assert list(_times(parts[1])) == [3]


def test_decompose_whole_horizon():
    assert decompose(8, 8) == [(3, 1)]


def test_decompose_t7_d8():
    parts = decompose(7, 8)
    assert parts == [(2, 1), (1, 3), (0, 7)]
    assert len(parts) == bin(7).count("1")


def test_decompose_out_of_range():
    with pytest.raises(ValueError):
        decompose(0, 4)
    with pytest.raises(ValueError):
        decompose(5, 4)
    with pytest.raises(ValueError):
        decompose(2, 6)  # horizon not a power of two


def test_window_sums_examples():
    # window sums of the derivative; windows are numbered from 0
    ds = derive((0, 1, 1, 0))
    assert _window_sums(_changes(ds), 1) == [(0, 1), (1, -1)]
    assert _window_sums(_changes(ds), 2) == []
    assert _window_sums(_changes(derive((0, 1, 0, 0))), 0) == [(1, 1), (2, -1)]


def test_window_sums_support_examples():
    ds = derive((0, 1, 1, 0))
    assert [w for w, _ in _window_sums(_changes(ds), 1)] == [0, 1]
    assert _window_sums(_changes(ds), 2) == []
    assert _window_sums(_changes(derive((0, 0, 0, 0))), 0) == []


def test_stream_invariant_validation():
    with pytest.raises(ValueError):
        DerivativeStream(entries=(1, 1), k=2)  # prefix sum hits 2
    with pytest.raises(ValueError):
        DerivativeStream(entries=(-1, 0), k=2)  # prefix sum hits -1
    with pytest.raises(ValueError):
        DerivativeStream(entries=(1, -1, 1, -1), k=3)  # too many changes
    with pytest.raises(ValueError):
        DerivativeStream(entries=(0, 2), k=2)


@st.composite
def boolean_series(draw):
    log_d = draw(st.integers(min_value=0, max_value=5))
    d = 1 << log_d
    return tuple(draw(st.lists(st.integers(0, 1), min_size=d, max_size=d)))


@given(boolean_series())
def test_derive_prefix_sum_roundtrip(series):
    assert series_of(derive(series)) == series


@given(boolean_series(), st.data())
def test_decomposition_reconstructs_prefix(series, data):
    d = len(series)
    ds = derive(series)
    t = data.draw(st.integers(1, d))
    windows = decompose(t, d)
    total = sum(ds.entries[x - 1] for w in windows for x in _times(w))
    assert total == series[t - 1]


@given(st.integers(0, 6), st.data())
def test_decompose_structure(log_d, data):
    d = 1 << log_d
    t = data.draw(st.integers(1, d))
    parts = decompose(t, d)
    assert len(parts) == bin(t).count("1")
    orders = [h for h, _ in parts]
    assert orders == sorted(orders, reverse=True) and len(set(orders)) == len(orders)
    covered = sorted(x for w in parts for x in _times(w))
    assert covered == list(range(1, t + 1))
    for h, j in parts:
        assert 1 <= j <= d >> h


@given(boolean_series(), st.data())
@settings(max_examples=60)
def test_window_sums_bounded(series, data):
    d = len(series)
    ds = derive(series)
    h = data.draw(st.integers(0, d.bit_length() - 1))
    sums = _window_sums(_changes(ds), h)
    support = [w for w, _ in sums]
    assert len(support) <= min(ds.k, d >> h)
    assert support == sorted(support)
    for w, s in sums:
        assert s == sum(ds.entries[x - 1] for x in _times((h, w + 1))) != 0
    # every other window of order h sums to zero
    for j in range(1, (d >> h) + 1):
        if j - 1 not in support:
            assert sum(ds.entries[x - 1] for x in _times((h, j))) == 0
