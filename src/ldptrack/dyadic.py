"""Dyadic-interval arithmetic and the derivative view of Boolean streams.

Time steps are 1-indexed, the horizon ``d`` is a power of two, and a user's
Boolean series is handled through its step-to-step differences, which are
sparse when the value changes rarely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


__all__ = [
    "DyadicInterval",
    "DerivativeStream",
    "TruthSeries",
    "derive",
    "decompose",
    "partial_sum",
    "order_support",
    "is_power_of_two",
]


def is_power_of_two(d: int) -> bool:
    return d >= 1 and (d & (d - 1)) == 0


def _check_horizon(d: int) -> None:
    if not is_power_of_two(d):
        raise ValueError(f"horizon d={d} must be a power of two")


@dataclass(frozen=True)
class DyadicInterval:
    """The window ((j-1)*2^h, j*2^h] of time steps within a horizon d.

    ``order`` is h, ``index`` is j (1-based among the d / 2^h windows of
    that order).
    """

    order: int
    index: int
    horizon: int

    def __post_init__(self) -> None:
        _check_horizon(self.horizon)
        max_order = self.horizon.bit_length() - 1
        if not 0 <= self.order <= max_order:
            raise ValueError(f"order {self.order} outside [0, {max_order}]")
        if not 1 <= self.index <= self.horizon >> self.order:
            raise ValueError(
                f"index {self.index} outside [1, {self.horizon >> self.order}]"
            )

    @property
    def start(self) -> int:
        """First covered time step."""
        return (self.index - 1) * (1 << self.order) + 1

    @property
    def end(self) -> int:
        """Last covered time step (a multiple of 2^order)."""
        return self.index * (1 << self.order)

    @property
    def length(self) -> int:
        return 1 << self.order

    def times(self) -> range:
        return range(self.start, self.end + 1)

    def __contains__(self, t: int) -> bool:
        return self.start <= t <= self.end


@dataclass(frozen=True)
class DerivativeStream:
    """Per-step differences of one user's Boolean series.

    Entries live in {-1, 0, +1}, at most ``k`` of them are non-zero, and
    every prefix sum is 0 or 1 (the underlying Boolean value).
    """

    entries: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("sparsity bound k must be >= 0")
        nnz = 0
        prefix = 0
        for t, e in enumerate(self.entries, start=1):
            if e not in (-1, 0, 1):
                raise ValueError(f"entry at t={t} is {e}, expected -1, 0 or 1")
            nnz += e != 0
            prefix += e
            if prefix not in (0, 1):
                raise ValueError(f"prefix sum at t={t} is {prefix}, expected 0 or 1")
        if nnz > self.k:
            raise ValueError(f"{nnz} non-zero entries exceed sparsity bound k={self.k}")

    @property
    def horizon(self) -> int:
        return len(self.entries)

    def boolean_series(self) -> tuple[int, ...]:
        """Reconstruct the Boolean values by prefix summation."""
        out = []
        acc = 0
        for e in self.entries:
            acc += e
            out.append(acc)
        return tuple(out)

    def change_times(self) -> tuple[int, ...]:
        return tuple(t for t, e in enumerate(self.entries, start=1) if e != 0)


@dataclass(frozen=True)
class TruthSeries:
    """Exact per-step population counts f(1..d) for n users."""

    counts: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        for t, c in enumerate(self.counts, start=1):
            if not 0 <= c <= self.n:
                raise ValueError(f"count f({t})={c} outside [0, n={self.n}]")


def derive(boolean_series: Sequence[int], k: int | None = None) -> DerivativeStream:
    """Differences of a Boolean series, with the value before time 1 taken as 0.

    ``k`` defaults to the number of changes actually present.
    """
    if len(boolean_series) < 1:
        raise ValueError("series must have length >= 1")
    entries = []
    prev = 0
    for t, x in enumerate(boolean_series, start=1):
        if x not in (0, 1):
            raise ValueError(f"value at t={t} is {x}, expected 0 or 1")
        entries.append(x - prev)
        prev = x
    if k is None:
        k = sum(e != 0 for e in entries)
    return DerivativeStream(entries=tuple(entries), k=k)


def decompose(t: int, d: int) -> list[DyadicInterval]:
    """Minimal cover of {1, ..., t} by dyadic intervals with distinct orders.

    Built from the binary expansion of t: each set bit 2^h contributes one
    interval of order h, highest order first, so the list has popcount(t)
    elements and the orders strictly decrease.
    """
    _check_horizon(d)
    if not 1 <= t <= d:
        raise ValueError(f"t={t} outside [1, {d}]")
    out = []
    pos = 0
    for h in range(t.bit_length() - 1, -1, -1):
        if t & (1 << h):
            out.append(DyadicInterval(order=h, index=(pos >> h) + 1, horizon=d))
            pos += 1 << h
    return out


def partial_sum(user: DerivativeStream, interval: DyadicInterval) -> int:
    """Sum of the user's derivative entries over the interval; always -1, 0 or +1."""
    if interval.horizon != user.horizon:
        raise ValueError(
            f"interval horizon {interval.horizon} != stream horizon {user.horizon}"
        )
    return sum(user.entries[t - 1] for t in interval.times())


def order_support(user: DerivativeStream, h: int) -> list[int]:
    """Indices j of order-h windows with a non-zero partial sum, ascending."""
    d = user.horizon
    _check_horizon(d)
    if not 0 <= h <= d.bit_length() - 1:
        raise ValueError(f"order {h} outside [0, {d.bit_length() - 1}]")
    out = []
    for j in range(1, (d >> h) + 1):
        if partial_sum(user, DyadicInterval(order=h, index=j, horizon=d)) != 0:
            out.append(j)
    return out
