"""Test-only oracles and statistics: the full client output law in closed
form, the stream walk over all 2^d Boolean series, a chi-square tester, and
the Boolean series of a derivative stream."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from ldptrack.dyadic import derive


def _window_sums(changes, h):
    """(window, sum) of the order-h windows with a non-zero sum, by window.

    ``changes`` holds (time, delta) pairs in time order; window w (from 0)
    covers the times (w 2^h, (w + 1) 2^h].
    """
    sums = {}
    for c, v in changes:
        w = (c - 1) >> h
        sums[w] = sums.get(w, 0) + v
    return [(w, s) for w, s in sums.items() if s]


def client_law(alg, d, stream):
    """The full client's output law as {(h, omega): p}, over every output.

    At order h with m non-zero window sums, an output over L = d >> h
    windows has probability (1 + log2 d)^-1 2^-(L - m) masses[m][j], j its
    mismatches with those sums: they read the noise vector's m-prefix, the
    other L - m windows report fair coins.  A keep-one client is this client
    run on the change kept in a uniform slot out of k, or on no change for
    an empty slot.  Outputs run in itertools.product order, h ascending.
    """
    masses = alg.randomizer.prefix_masses
    num_orders = d.bit_length()
    changes = [(c, stream.entries[c - 1]) for c in stream.change_times()]
    if alg.keep_one:
        variants = [((1, alg.k), [ch]) for ch in changes]
        variants.append(((alg.k - len(changes), alg.k), []))
    else:
        variants = [((1, 1), changes)]
    law = {}
    for h in range(num_orders):
        L = d >> h
        terms = []
        for (num, den), kept in variants:
            sums = _window_sums(kept, h)
            m = len(sums)
            terms.append((mpf(num) / den / num_orders * mpf(2) ** (-(L - m)), masses[m], sums))
        values = {}
        for omega in itertools.product((-1, 1), repeat=L):
            js = tuple(sum(omega[w] != s for w, s in sums) for _, _, sums in terms)
            if js not in values:
                values[js] = sum(base * prefix[j] for (base, prefix, _), j in zip(terms, js))
            law[h, omega] = values[js]
    mass = sum(law.values(), mpf(0))
    if abs(mass - 1) > mpf("1e-12"):
        raise ArithmeticError(f"client distribution mass {mass} deviates from 1")
    return law


def streams_by_product(d, k):
    """Derivative streams of every Boolean series on [1, d] with at most k
    changes: all 2^d series in itertools.product order, filtered."""
    out = []
    for bits in itertools.product((0, 1), repeat=d):
        changes = sum(b != prev for b, prev in zip(bits, (0,) + bits[:-1]))
        if changes <= k:
            out.append(derive(bits, k=k))
    return out


def boolean_series(stream) -> tuple[int, ...]:
    """Reconstruct a derivative stream's Boolean values by prefix summation."""
    return tuple(itertools.accumulate(stream.entries))


@dataclass
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    passed: bool


def chi_square(observed, expected, significance: float) -> ChiSquareResult:
    """Pearson chi-square of observed counts against expected weights.

    Bins with expected count below 5 are merged with their neighbours
    before the test.
    """
    obs = np.asarray(observed, dtype=np.float64)
    weights = np.asarray(expected, dtype=np.float64)
    if obs.ndim != 1 or obs.shape != weights.shape:
        raise ValueError("observed and expected must be 1-d arrays of equal length")
    if np.any(weights <= 0):
        raise ValueError("expected weights must be positive")
    if np.any(obs < 0):
        raise ValueError("observed counts must be non-negative")
    total = obs.sum()
    if total <= 0 or len(obs) < 2:
        raise ValueError("degenerate histogram")
    exp_counts = total * weights / weights.sum()
    merged_o: list[float] = []
    merged_e: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp_counts):
        acc_o += o
        acc_e += e
        if acc_e >= 5:
            merged_o.append(acc_o)
            merged_e.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if not merged_e:
            raise ValueError("degenerate histogram: too few expected counts")
        merged_o[-1] += acc_o
        merged_e[-1] += acc_e
    if len(merged_e) < 2:
        raise ValueError("degenerate histogram: fewer than two bins after merging")
    o_arr = np.array(merged_o)
    e_arr = np.array(merged_e)
    statistic = float(((o_arr - e_arr) ** 2 / e_arr).sum())
    dof = len(e_arr) - 1
    # chi-square survival function: regularized upper incomplete gamma Q(dof/2, x/2)
    p_value = float(mp.gammainc(mpf(dof) / 2, mpf(statistic) / 2, regularized=True))
    return ChiSquareResult(statistic=statistic, dof=dof, p_value=p_value,
                           passed=p_value >= significance)
