"""Online client and server of the longitudinal estimation protocol.

Each client samples one dyadic order h, and at every multiple of 2^h
reports a single perturbed bit for the window that just closed: non-zero
window sums consume the next coordinate of a noise vector pre-drawn from
the composed randomizer at init, zero sums are reported as fresh fair
coin flips.  The server keeps each user's order, scales the per-window bit
sums by (1 + log2 d) / gap and assembles estimates along the dyadic
decomposition of each time step.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np
from mpmath import mpf

from .dyadic import _check_horizon, decompose
from .errors import ProtocolError, SparsityError
from .randomizer import sample_composed_batch

if TYPE_CHECKING:
    from .baselines import AlgorithmConfig

__all__ = [
    "ClientState",
    "ServerState",
    "ReportRecord",
    "ReportBatch",
    "client_init",
    "client_step",
    "server_init",
    "server_register",
    "server_step",
    "server_scale",
    "readout",
    "replay",
    "write_reports",
    "read_reports",
]


@dataclass
class ClientState:
    """Per-user protocol state; driven by one thread via client_step."""

    h: int
    d: int
    k: int
    b_tilde: np.ndarray
    rng: np.random.Generator
    nnz: int = 0
    window_acc: int = 0
    next_t: int = 1
    # sample-one transform: when set, derivative entries at any other time
    # are dropped before windowing.
    keep_time: int | None = None
    filter_deltas: bool = False


def client_init(alg: AlgorithmConfig, d: int, rng: np.random.Generator,
                change_times: Sequence[int] | None = None) -> ClientState:
    """Sample the order uniformly and pre-draw the noise vector R~(1^k'), k' = alg.randomizer.k.

    A sample-one client then draws its kept slot, once, over the user's
    full derivative, so it needs the change times upfront: the one place a
    baseline consumes offline knowledge.
    """
    _check_horizon(d)
    h = int(rng.integers(0, d.bit_length()))
    b_tilde = sample_composed_batch(alg.randomizer, 1, rng)[0]
    state = ClientState(h=h, d=d, k=alg.k, b_tilde=b_tilde, rng=rng)
    if alg.keep_one:
        if change_times is None:
            raise ValueError("sample-one client needs the user's change times at init")
        slot = int(rng.integers(0, alg.k))
        state.keep_time = change_times[slot] if slot < len(change_times) else None
        state.filter_deltas = True
    return state


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
    """Each user's order ``h_of[user]``, the number of users at each order
    ``registered[h]``, and per order the exact integer bit sum of every
    closed window: ``sums[h][j - 1]`` for window j of order h."""

    d: int
    k: int
    eps: float
    scale: mpf
    h_of: dict[int, int] = field(default_factory=dict)
    registered: list[int] = field(default_factory=list)
    sums: list[np.ndarray] = field(default_factory=list)
    next_t: int = 1


def server_scale(d: int, gap_value: mpf, extra_factor: int = 1) -> mpf:
    """(1 + log2 d) * extra_factor / gap, in extended precision."""
    return mpf(d.bit_length()) * extra_factor / mpf(gap_value)


@lru_cache(maxsize=1 << 14)
def _decomposition_pairs(t: int, d: int) -> tuple[tuple[int, int], ...]:
    return tuple(decompose(t, d))


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
                       registered=[0] * len(orders),
                       sums=[np.zeros(d >> h, dtype=np.int64) for h in orders])


def server_register(state: ServerState, user: int, h: int) -> None:
    if user in state.h_of:
        raise ProtocolError(f"user {user} already registered")
    if not 0 <= h < len(state.registered):
        raise ProtocolError(f"order {h} outside [0, {state.d.bit_length() - 1}]")
    state.h_of[user] = h
    state.registered[h] += 1


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
    due_orders = [h for h in range(len(state.registered)) if t % (1 << h) == 0]
    seen: set[int] = set()
    step_sums = [0] * len(state.registered)
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
    if len(seen) != sum(state.registered[h] for h in due_orders):
        missing = sorted(u for u, h in state.h_of.items() if t % (1 << h) == 0 and u not in seen)
        raise ProtocolError(f"missing reports at t={t} from users {missing}")
    for h in due_orders:
        state.sums[h][(t >> h) - 1] = step_sums[h]
    return readout(state.scale, state.sums, t, state.d)


def replay(records: Iterable[ReportRecord], alg: AlgorithmConfig, d: int) -> np.ndarray:
    """Server estimates for t = 1..d from one run's report records.

    Each user is registered at the order of its first record; a later
    record at another order, or a time outside [1, d], raises
    ProtocolError, as does everything server_step rejects (a report not
    due, a duplicate, a missing due report).  The records do not list the
    users, so losing a top-order user's only record, or moving it to a
    new user id, is not detected.
    """
    batch = records if isinstance(records, ReportBatch) else ReportBatch.of(records)
    user, h, t, bit = batch.rows.T
    server = server_init(d, alg.k, alg.eps, alg.gap, alg.server_factor)
    if (bad := np.flatnonzero((t < 1) | (t > d))).size:
        i = bad[0]
        raise ProtocolError(f"report from user {user[i]} at t={t[i]} outside [1, {d}]")
    users, first, which = np.unique(user, return_index=True, return_inverse=True)
    if (bad := np.flatnonzero(h != h[first][which])).size:
        i = bad[0]
        raise ProtocolError(f"user {user[i]} reports at order {h[i]} "
                            f"after reporting at order {h[first[which[i]]]}")
    for u, order in zip(users.tolist(), h[first].tolist()):
        server_register(server, u, order)
    by_t = np.argsort(t, kind="stable")
    cuts = np.searchsorted(t[by_t], np.arange(1, d + 2)).tolist()
    users_by_t, bits_by_t = user[by_t].tolist(), bit[by_t].tolist()
    return np.array([server_step(server, step, zip(users_by_t[lo:hi], bits_by_t[lo:hi]))
                     for step, lo, hi in zip(range(1, d + 1), cuts, cuts[1:])])


# ---------------------------------------------------------------------------
# wire format: one NDJSON object per emitted bit


# one record's NDJSON line: with int fields, exactly what json.dumps gives
_LINE = '{"user": %d, "h": %d, "t": %d, "bit": %d}\n'
_WRITE_ROWS = 1 << 14


@dataclass(slots=True)
class ReportRecord:
    user: int
    h: int
    t: int
    bit: int

    @classmethod
    def from_json(cls, line: str) -> "ReportRecord":
        obj = json.loads(line)
        if type(obj) is not dict or obj.keys() != {"user", "h", "t", "bit"}:
            raise ValueError(f"not a JSON object of user, h, t, bit: {obj!r}")
        for key, v in obj.items():
            if type(v) is not int or not -(1 << 63) <= v < 1 << 63:
                raise ValueError(f"record field {key}={v!r} is not an int64")
        if obj["bit"] not in (-1, 1):
            raise ValueError(f"bit must be -1 or +1, got {obj['bit']}")
        return cls(**obj)


@dataclass(slots=True, eq=False)
class ReportBatch:
    """Report records as ``rows``, an (n, 4) int64 array of user, h, t, bit;
    equal to a batch with equal rows and to a list of the same records."""

    rows: np.ndarray

    @classmethod
    def of(cls, records: Iterable[ReportRecord]) -> ReportBatch:
        return cls(np.array([(r.user, r.h, r.t, r.bit) for r in records],
                            dtype=np.int64).reshape(-1, 4))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[ReportRecord]:
        return map(ReportRecord, *self.rows.T.tolist())

    def __getitem__(self, i: int | slice) -> ReportRecord | ReportBatch:
        return (ReportBatch(self.rows[i]) if isinstance(i, slice)
                else ReportRecord(*self.rows[i].tolist()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReportBatch):
            return np.array_equal(self.rows, other.rows)
        return list(self) == other if isinstance(other, list) else NotImplemented


def write_reports(records: Iterable[ReportRecord], fp: IO[str]) -> None:
    """One NDJSON line per record."""
    rows = (records if isinstance(records, ReportBatch) else ReportBatch.of(records)).rows
    for part in np.split(rows, range(_WRITE_ROWS, len(rows), _WRITE_ROWS)):
        fp.write(_LINE * len(part) % tuple(part.ravel().tolist()))


# The exact line write_reports writes, with ints of at most 18 digits
# (so they fit int64); [0-9], since \d also matches non-ASCII digits.  Each
# line has one parse, so a block that does not match fails in linear time.
_INT = r"-?(?:0|[1-9][0-9]{0,17})"
_CANONICAL_LINES = re.compile(
    rf'(?:\{{"user": {_INT}, "h": {_INT}, "t": {_INT}, "bit": (?:-1|1)\}}\n)*')
# what is left of a canonical line after this is its four ints
_KEYS_TO_SPACES = str.maketrans(dict.fromkeys('{}":,behirstu', " "))
_BLOCK_CHARS = 1 << 18


def read_reports(fp: IO[str]) -> ReportBatch:
    """Records of the non-blank lines of fp, read in blocks.

    Each block is _BLOCK_CHARS of text read on with readline to a newline;
    lines end at the newlines of the text fp.read returns, and a last line
    without one gets one.  A block whose lines are all as write_reports
    writes them (the common case) is parsed as one int64 array; any other
    block goes line by line through from_json, which accepts every JSON
    object of exactly the four int64 fields and raises ValueError otherwise.
    """
    parts = [np.empty((0, 4), dtype=np.int64)]
    while block := fp.read(_BLOCK_CHARS):
        # loops because readline on a newline="" file also stops at a lone "\r"
        while not block.endswith("\n"):
            block += fp.readline() or "\n"
        if _CANONICAL_LINES.fullmatch(block):
            ints = np.fromstring(block.translate(_KEYS_TO_SPACES), dtype=np.int64, sep=" ")
            parts.append(ints.reshape(-1, 4))
        else:
            lines = filter(str.strip, block.split("\n"))
            parts.append(ReportBatch.of(map(ReportRecord.from_json, lines)).rows)
    return ReportBatch(np.concatenate(parts))
