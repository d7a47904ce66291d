"""Dyadic windows and the derivative view of Boolean streams.

Time steps are 1-indexed and the horizon ``d`` is a power of two.  A
dyadic window is an int pair (h, j): the time steps ((j-1) 2^h, j 2^h],
order h and 1-based index j among the d / 2^h windows of that order.  A
user's Boolean series is held as its change times, the steps where its
value flips, which are few when the value changes rarely.
"""

from __future__ import annotations

import functools
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
    """A user's Boolean series on [1, d], starting at 0, held as its at most ``k``
    strictly increasing ``change_times``: its derivative, ``entries`` at t = 1..d,
    is +1 at the odd-numbered changes, -1 at the even ones and 0 elsewhere."""

    change_times: tuple[int, ...]
    d: int
    k: int

    def __post_init__(self) -> None:
        times = self.change_times
        if len(times) > self.k:
            raise ValueError(f"{len(times)} changes exceed sparsity bound k={self.k}")
        if any(a >= b for a, b in zip((0, *times), (*times, self.d + 1))):
            raise ValueError(f"change times {times} not strictly increasing in [1, {self.d}]")

    @functools.cached_property
    def entries(self) -> tuple[int, ...]:
        out = [0] * self.d
        for i, t in enumerate(self.change_times):
            out[t - 1] = -1 if i & 1 else 1
        return tuple(out)


def derive(boolean_series: Sequence[int], k: int | None = None) -> DerivativeStream:
    """The change times of a Boolean series, with the value before time 1 taken as 0.

    ``k`` defaults to the number of changes actually present.
    """
    if len(boolean_series) < 1 or not set(boolean_series) <= {0, 1}:
        raise ValueError(f"series {boolean_series!r} must be non-empty and hold only 0 and 1")
    times = tuple(t for t, (prev, x) in enumerate(zip((0, *boolean_series), boolean_series), 1)
                  if x != prev)
    return DerivativeStream(times, len(boolean_series), len(times) if k is None else k)


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
