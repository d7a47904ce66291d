"""Online client and server of the longitudinal estimation protocol.

Each client samples one dyadic order h, and at every multiple of 2^h
reports a single perturbed bit for the window that just closed: non-zero
window sums consume the next coordinate of a noise vector pre-drawn from
the composed randomizer at init, zero sums are reported as fresh fair
coin flips.  The server buckets users by order, scales the per-window bit
sums by (1 + log2 d) / gap and assembles estimates along the dyadic
decomposition of each time step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, Iterable, Sequence

import numpy as np
from mpmath import mpf

from .dyadic import _check_horizon, decompose
from .errors import ProtocolError, SparsityError
from .randomizer import RandomizerConfig, compose_randomize, futurerand_config

__all__ = [
    "ClientState",
    "ServerState",
    "EstimateSeries",
    "ReportRecord",
    "client_init",
    "client_step",
    "server_init",
    "server_register",
    "server_step",
    "server_scale",
    "readout",
    "write_reports",
    "read_reports",
]


@dataclass
class ClientState:
    """Per-user protocol state; driven by one thread via client_step."""

    h: int
    L: int
    d: int
    k: int
    eps: float
    cfg: RandomizerConfig
    b_tilde: np.ndarray
    rng: np.random.Generator
    nnz: int = 0
    window_acc: int = 0
    next_t: int = 1
    # sample-one transform: when set, derivative entries at any other time
    # are dropped before windowing.
    keep_time: int | None = None
    filter_deltas: bool = False


def client_init(k: int, d: int, eps: float, rng: np.random.Generator,
                cfg: RandomizerConfig | None = None) -> ClientState:
    """Sample the order uniformly and pre-draw the noise vector R~(1^k)."""
    _check_horizon(d)
    if cfg is None:
        cfg = futurerand_config(k, eps, L=max(d, k))
    if cfg.k != k:
        raise ValueError(f"config built for k={cfg.k}, client asked k={k}")
    h = int(rng.integers(0, d.bit_length()))
    b_tilde = compose_randomize(np.ones(k, dtype=np.int8), cfg, rng)
    return ClientState(h=h, L=d >> h, d=d, k=k, eps=eps, cfg=cfg,
                       b_tilde=b_tilde, rng=rng)


def client_step(state: ClientState, t: int, delta: int) -> int | None:
    """Feed the derivative entry for time t; returns a bit at window ends.

    Raises SparsityError if the stream produces more than k non-zero
    window sums at the sampled order, which valid inputs cannot do.
    """
    if t != state.next_t:
        raise ProtocolError(f"expected t={state.next_t}, got t={t}")
    if not 1 <= t <= state.d:
        raise ProtocolError(f"t={t} outside [1, {state.d}]")
    if delta not in (-1, 0, 1):
        raise ValueError(f"delta must be -1, 0 or +1, got {delta}")
    state.next_t += 1
    if state.filter_deltas and t != state.keep_time:
        delta = 0
    state.window_acc += delta
    if t % (1 << state.h) != 0:
        return None
    v = state.window_acc
    state.window_acc = 0
    if v == 0:
        return int(state.rng.integers(0, 2)) * 2 - 1
    if v not in (-1, 1):
        raise ValueError(f"window sum {v} at t={t}: input is not a valid derivative")
    if state.nnz >= state.k:
        raise SparsityError(
            f"more than k={state.k} non-zero window sums at order {state.h}"
        )
    bit = int(v * state.b_tilde[state.nnz])
    state.nnz += 1
    return bit


# ---------------------------------------------------------------------------
# server


@dataclass
class ServerState:
    """Users bucketed by order, and per order the exact integer bit sum of
    every closed window: ``sums[h][j - 1]`` for window j of order h."""

    d: int
    k: int
    eps: float
    scale: mpf
    buckets: dict[int, set[int]] = field(default_factory=dict)
    h_of: dict[int, int] = field(default_factory=dict)
    sums: list[np.ndarray] = field(default_factory=list)
    next_t: int = 1


def server_scale(d: int, gap_value: mpf, extra_factor: int = 1) -> mpf:
    """(1 + log2 d) * extra_factor / gap, in extended precision."""
    return mpf(d.bit_length()) * extra_factor / mpf(gap_value)


@lru_cache(maxsize=1 << 14)
def _decomposition_pairs(t: int, d: int) -> tuple[tuple[int, int], ...]:
    return tuple((iv.order, iv.index) for iv in decompose(t, d))


def readout(scale: float | mpf, sums, t: int, d: int) -> float:
    """Estimate of f(t) from per-order window sums.

    ``float(scale)`` times the exact integer total of ``sums[h][j - 1]``
    over the windows (h, j) of the dyadic decomposition of [1, t].
    """
    total = 0
    for h, j in _decomposition_pairs(t, d):
        total += int(sums[h][j - 1])
    return float(scale) * total


def server_init(d: int, k: int, eps: float, gap_value: mpf,
                extra_factor: int = 1) -> ServerState:
    _check_horizon(d)
    scale = server_scale(d, gap_value, extra_factor)
    orders = range(d.bit_length())
    return ServerState(d=d, k=k, eps=eps, scale=scale,
                       buckets={h: set() for h in orders},
                       sums=[np.zeros(d >> h, dtype=np.int64) for h in orders])


def server_register(state: ServerState, user: int, h: int) -> None:
    if user in state.h_of:
        raise ProtocolError(f"user {user} already registered")
    if h not in state.buckets:
        raise ProtocolError(f"order {h} outside [0, {state.d.bit_length() - 1}]")
    state.h_of[user] = h
    state.buckets[h].add(user)


def server_step(state: ServerState, t: int,
                reports: Iterable[tuple[int, int]]) -> float:
    """Ingest the bits due at time t and return the estimate of f(t).

    Exactly the users whose 2^h divides t must report, once each.  Window
    bit sums are kept as exact integers; the common scale is applied when
    estimates are read out.
    """
    if t != state.next_t:
        raise ProtocolError(f"expected t={state.next_t}, got t={t}")
    if t > state.d:
        raise ProtocolError(f"t={t} outside [1, {state.d}]")
    state.next_t += 1
    due_orders = [h for h in state.buckets if t % (1 << h) == 0]
    seen: set[int] = set()
    step_sums = [0] * len(state.buckets)
    for user, bit in reports:
        h = state.h_of.get(user)
        if h is None:
            raise ProtocolError(f"report from unregistered user {user}")
        if t % (1 << h) != 0:
            raise ProtocolError(f"user {user} has no report due at t={t}")
        if user in seen:
            raise ProtocolError(f"duplicate report from user {user} at t={t}")
        if bit not in (-1, 1):
            raise ValueError(f"bit must be -1 or +1, got {bit}")
        seen.add(user)
        step_sums[h] += bit
    if len(seen) != sum(len(state.buckets[h]) for h in due_orders):
        missing = set().union(*(state.buckets[h] for h in due_orders)) - seen
        raise ProtocolError(f"missing reports at t={t} from users {sorted(missing)}")
    for h in due_orders:
        state.sums[h][(t >> h) - 1] = step_sums[h]
    return readout(state.scale, state.sums, t, state.d)


@dataclass(frozen=True)
class EstimateSeries:
    """Estimates f_hat(1..d) produced by a full server run."""

    estimates: tuple[float, ...]


# ---------------------------------------------------------------------------
# wire format: one NDJSON object per emitted bit


@dataclass(frozen=True)
class ReportRecord:
    user: int
    h: int
    t: int
    bit: int

    def to_json(self) -> str:
        return json.dumps({"user": self.user, "h": self.h,
                           "t": self.t, "bit": self.bit})

    @classmethod
    def from_json(cls, line: str) -> "ReportRecord":
        obj = json.loads(line)
        if set(obj) != {"user", "h", "t", "bit"}:
            raise ValueError(f"record keys {sorted(obj)} != ['bit', 'h', 't', 'user']")
        rec = cls(user=int(obj["user"]), h=int(obj["h"]),
                  t=int(obj["t"]), bit=int(obj["bit"]))
        if rec.bit not in (-1, 1):
            raise ValueError(f"bit must be -1 or +1, got {rec.bit}")
        return rec


def write_reports(records: Sequence[ReportRecord], fp: IO[str]) -> None:
    for rec in records:
        fp.write(rec.to_json())
        fp.write("\n")


def read_reports(fp: IO[str]) -> list[ReportRecord]:
    return [ReportRecord.from_json(line) for line in fp if line.strip()]
