"""In-memory spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's side only: around the program
functions it calls directly, and around module attributes that the program
looks up at call time, which ``instrumented`` swaps for timing wrappers and
restores afterwards.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from functools import wraps


class Tracer:
    """Spans as [name, start, end, parent index, op id]; counters per op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.op][name] += value

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, per span name: summed duration minus the child spans' durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[op][name] += (end - start) - child[i]
        return out

    def calls(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for name, _, _, _, op in self.spans:
            out[op][name] += 1
        return out

    def calls_under(self, name: str, parent_name: str) -> list[int]:
        """For each span called ``parent_name``, how many direct ``name`` children it had."""
        per_parent = {i: 0 for i, s in enumerate(self.spans) if s[0] == parent_name}
        for s in self.spans:
            if s[0] == name and s[3] in per_parent:
                per_parent[s[3]] += 1
        return list(per_parent.values())

    def dump(self, path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fp:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fp)
            fp.write("\n")


def span_or_null(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def median_over_ops(per_op: dict[int, dict[str, float]], ops: list[int],
                    name: str) -> float:
    """Median over the given ops of one per-op figure; ops without it count 0."""
    if not ops:
        return 0.0
    return float(statistics.median(per_op.get(op, {}).get(name, 0.0) for op in ops))


@contextmanager
def instrumented(tracer: Tracer, targets):
    """Swap (module, attribute, span name, counter) targets for spanned wrappers.

    ``counter`` is None or a function of the call's result returning
    (counter name, value) to add to the current op.
    """
    saved = []
    try:
        for module, attr, name, counter in targets:
            orig = getattr(module, attr)
            setattr(module, attr, _spanned(tracer, name, orig, counter))
            saved.append((module, attr, orig))
        yield
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


def _spanned(tracer: Tracer, name: str, fn, counter):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            tracer.count(*counter(result))
        return result
    return wrapper
