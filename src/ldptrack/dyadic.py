"""Dyadic windows and the derivative view of Boolean streams.

Time steps are 1-indexed and the horizon ``d`` is a power of two.  A
dyadic window is an int pair (h, j): the time steps ((j-1) 2^h, j 2^h],
order h and 1-based index j among the d / 2^h windows of that order.  A
user's Boolean series is handled through its step-to-step differences,
which are sparse when the value changes rarely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


__all__ = [
    "DerivativeStream",
    "derive",
    "decompose",
    "is_power_of_two",
]


def is_power_of_two(d: int) -> bool:
    return d >= 1 and (d & (d - 1)) == 0


def _check_horizon(d: int) -> None:
    if not is_power_of_two(d):
        raise ValueError(f"horizon d={d} must be a power of two")


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

    def change_times(self) -> tuple[int, ...]:
        return tuple(t for t, e in enumerate(self.entries, start=1) if e != 0)


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


def decompose(t: int, d: int) -> list[tuple[int, int]]:
    """Minimal cover of {1, ..., t} by dyadic windows (h, j) with distinct orders.

    Built from the binary expansion of t: each set bit 2^h contributes one
    window of order h, highest order first, so the list has popcount(t)
    elements and the orders strictly decrease.
    """
    _check_horizon(d)
    if not 1 <= t <= d:
        raise ValueError(f"t={t} outside [1, {d}]")
    out = []
    pos = 0
    for h in range(t.bit_length() - 1, -1, -1):
        if t & (1 << h):
            out.append((h, (pos >> h) + 1))
            pos += 1 << h
    return out
