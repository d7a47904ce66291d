"""Composed randomized response over sign vectors.

The mechanism perturbs a vector b in {-1,+1}^k coordinate-wise with
randomized response at a small per-bit budget, then applies an annulus
rule on the Hamming distance between input and output: results whose
distance lies inside [lb, ub] are kept, anything else is replaced by a
uniform sample from the sign vectors outside the annulus.  The resulting
output law depends on the input only through the Hamming distance, which
is what the exact oracles and the sampler below exploit: a config derives
that distance law once, checks its unit mass once, and the gap, the
sampler's CDF, the prefix masses, the audits and the 2^k table all read it.

All probability arithmetic runs in the logarithmic domain with mpmath at
50 significant digits; the server later divides by the preservation gap,
so its error enters estimates multiplicatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, product

import numpy as np
from mpmath import mp, mpf

from .errors import CapacityError, ConfigError

# Quadruple-equivalent precision everywhere probabilities are manipulated.
mp.dps = 50

ENUMERATION_K = 20  # full 2^k output tables are built up to this k

__all__ = [
    "RandomizerConfig",
    "DistributionTable",
    "g_weight",
    "q_star",
    "complement_distances",
    "sample_composed_batch",
    "gap_lower_bound_expr",
    "exact_output_distribution",
]


# ---------------------------------------------------------------------------
# configuration


def _flip_probability(eps_tilde: mpf) -> mpf:
    return 1 / (mp.exp(eps_tilde) + 1)


def g_weight(i, k: int, p) -> mpf:
    """p^i * (1-p)^(k-i), evaluated in the log domain.

    ``i`` may be real-valued; the annulus bound expressions evaluate the
    same function at non-integer distances.
    """
    i = mpf(i)
    if not 0 <= i <= k:
        raise ValueError(f"distance {i} outside [0, {k}]")
    p = mpf(p)
    return mp.exp(i * mp.log(p) + (k - i) * mp.log(1 - p))


def _binomials(k: int) -> list[int]:
    """C(k, i) for i = 0..k, exact, in O(k) integer steps."""
    row = [1]
    for i in range(k):
        row.append(row[-1] * (k - i) // (i + 1))
    return row


def complement_distances(k: int, lb: int, ub: int) -> tuple[list[int], list[int]]:
    """Distances outside [lb, ub] and their exact vector counts C(k, i)."""
    dists = [i for i in range(0, k + 1) if not lb <= i <= ub]
    row = _binomials(k)
    return dists, [row[i] for i in dists]


def q_star(k: int, lb: int, ub: int, p) -> mpf:
    """Common probability of each sign vector outside the annulus.

    Weighted mean of g over the complement distances; always <= 2^-k.
    """
    dists, weights = complement_distances(k, lb, ub)
    if not dists:
        raise ConfigError("annulus covers [0, k]: no outside-annulus mass to average")
    num = sum((c * g_weight(i, k, p) for i, c in zip(dists, weights)), mpf(0))
    return num / mpf(sum(weights))


@dataclass(frozen=True)
class RandomizerConfig:
    """A composed randomizer: the parameters a builder chooses.

    ``eps`` is the end-to-end budget the annulus construction targets,
    ``eps_tilde`` the per-bit randomized-response budget and [lb, ub] the
    integer annulus on the Hamming distance.  ``ub_real`` keeps the
    pre-rounding upper bound for the certified lower-bound expression.
    The flip probability ``p``, the ``distance_law`` and the exact
    per-coordinate preservation ``gap`` are derived from these, once.
    """

    eps: float
    k: int
    eps_tilde: mpf
    lb: int
    ub: int
    ub_real: mpf = field(repr=False)

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ConfigError("eps must be > 0")
        if self.k < 1:
            raise ConfigError(f"need k >= 1, got k={self.k}")
        if not 0 <= self.lb <= self.ub <= self.k:
            raise ConfigError(f"need 0 <= lb <= ub <= k, got [{self.lb}, {self.ub}]")
        if not 0 < self.p < mpf(1) / 2:
            raise ConfigError(f"flip probability {float(self.p)} outside (0, 1/2)")
        if not 0 < self.gap < 1:
            raise ConfigError(f"gap {float(self.gap)} outside (0, 1)")

    @cached_property
    def p(self) -> mpf:
        """Per-bit flip probability 1 / (e^eps_tilde + 1)."""
        return _flip_probability(self.eps_tilde)

    @cached_property
    def distance_law(self) -> tuple[mpf, ...]:
        """Output probability of a single sign vector at each Hamming distance.

        law[i] = g(i) inside the annulus, the common outside-annulus value q*
        elsewhere.  Checked once for unit mass, sum_i C(k, i) law[i] = 1.
        """
        k, lb, ub, p = self.k, self.lb, self.ub, self.p
        qs = None if self.annulus_full else q_star(k, lb, ub, p)
        law = tuple(g_weight(i, k, p) if lb <= i <= ub else qs for i in range(k + 1))
        mass = sum((c * w for c, w in zip(_binomials(k), law)), mpf(0))
        if abs(mass - 1) > mpf("1e-12"):
            raise ArithmeticError(f"distance law mass {mass} deviates from 1")
        return law

    @cached_property
    def gap(self) -> mpf:
        """P[output_i = input_i] - P[output_i = -input_i], for every coordinate i.

        The annulus form of _gap_both_forms, checked against the direct form.
        """
        annulus, direct = _gap_both_forms(self)
        if abs(annulus - direct) > mpf("1e-12") * abs(annulus):
            raise ArithmeticError(f"gap forms disagree: {annulus} vs {direct}")
        return annulus

    @property
    def annulus_full(self) -> bool:
        """True when the annulus covers every distance, i.e. plain independent RR."""
        return self.lb == 0 and self.ub == self.k

    @cached_property
    def distance_cdf(self) -> np.ndarray:
        """float64 CDF of the output's Hamming distance from the input.

        P[distance = i] = C(k, i) law[i], accumulated in extended precision
        and rounded once per entry; the last entry is exactly 1.
        """
        cum = list(accumulate(c * w for c, w in zip(_binomials(self.k), self.distance_law)))
        cdf = np.array([float(c / cum[-1]) for c in cum])
        cdf.flags.writeable = False  # shared by every caller of the config
        return cdf

    @cached_property
    def prefix_masses(self) -> tuple[tuple[mpf, ...], ...]:
        """masses[m][j]: probability that the first m coordinates of the noise
        vector (drawn on 1^k) equal one given pattern holding j minus-ones.

        A full vector at distance j has mass law[j]; a length-m prefix sums its
        two extensions by coordinate m + 1: masses[m][j] = masses[m + 1][j] +
        masses[m + 1][j + 1] = sum_r C(k - m, r) law[j + r].  The O(k^2) table (118 MiB
        at k = 1024) stays on the shared config once read; only audits at k <= 4 read it.
        """
        masses = [self.distance_law]
        for _ in range(self.k):
            longer = masses[-1]
            masses.append(tuple(a + b for a, b in zip(longer, longer[1:])))
        return tuple(masses[::-1])


def _build_config(eps: float, k: int, eps_tilde: mpf,
                  lb_real: mpf, ub_real: mpf) -> RandomizerConfig:
    """Config for the real-valued annulus [lb_real, ub_real] at this budget.

    Rounds inward (lb up, ub down) and clamps to [0, k], so the integer
    annulus stays inside the real-valued one.
    """
    lb = max(0, int(mp.ceil(lb_real)))
    ub = min(k, int(mp.floor(ub_real)))
    if lb > ub:
        raise ConfigError(
            f"annulus degenerate after rounding: lb={lb} > ub={ub} "
            f"(k={k}, eps_tilde={float(eps_tilde):.6g}); k too small for this budget"
        )
    return RandomizerConfig(eps=eps, k=k, eps_tilde=eps_tilde,
                            lb=lb, ub=ub, ub_real=ub_real)


# ---------------------------------------------------------------------------
# exact quantities


def _gap_both_forms(cfg: RandomizerConfig) -> tuple[mpf, mpf]:
    """The preservation gap, sum_i C(k, i) law[i] (k - 2i)/k, in two forms.

    The annulus form subtracts q* from every term, which removes the
    outside-annulus terms (sum_i C(k, i) (k - 2i) = 0); the direct form sums
    every distance.
    """
    k, law, comb = cfg.k, cfg.distance_law, _binomials(cfg.k)
    qs = mpf(0) if cfg.annulus_full else law[0 if cfg.lb > 0 else k]
    annulus = mpf(0)
    for i in range(cfg.lb, cfg.ub + 1):
        annulus += comb[i] * (law[i] - qs) * (mpf(k - 2 * i) / k)
    direct = sum((comb[i] * law[i] * (k - 2 * i) for i in range(k + 1)), mpf(0)) / k
    return annulus, direct


def gap_lower_bound_expr(cfg: RandomizerConfig) -> mpf | None:
    """Certified numeric lower bound on the gap, or None when not applicable.

    Sums C(k,i) * (g(i) - 2^-k) * (k-2i)/k for integer i from
    ceil(ub_real - 2 sqrt(k)) to floor(ub_real - sqrt(k)/2).  Valid only
    when g(ub_real) = 2^-k (which pins every summand non-negative) and the
    rounded range stays inside the annulus; outside that regime the bound
    does not certify anything and None is returned.
    """
    k = cfg.k
    if cfg.ub_real > k or abs(g_weight(min(cfg.ub_real, k), k, cfg.p) * mpf(2) ** k - 1) > mpf("1e-30"):
        return None
    lo = int(mp.ceil(cfg.ub_real - 2 * mp.sqrt(mpf(k))))
    hi = int(mp.floor(cfg.ub_real - mp.sqrt(mpf(k)) / 2))
    if lo > hi or lo < cfg.lb or hi > cfg.ub:
        return None
    # inside [lb, ub], law[i] is g(i)
    law, comb, half = cfg.distance_law, _binomials(k), mpf(2) ** (-k)
    total = mpf(0)
    for i in range(lo, hi + 1):
        total += comb[i] * (law[i] - half) * mpf(k - 2 * i) / k
    return total


# ---------------------------------------------------------------------------
# sampling


def sample_composed_batch(cfg: RandomizerConfig, n: int, rng: np.random.Generator,
                          lengths: np.ndarray | None = None) -> np.ndarray:
    """n independent draws of the composed randomizer on the all-ones vector.

    The output law depends only on the distance from the input, so a row
    has D minus-ones with probability C(k, D) law[D] and their positions
    are a uniform D-subset.  Each row draws D from ``cfg.distance_cdf``,
    then walks its coordinates as an urn: coordinate r is -1 with
    probability (minus-ones left) / (k - r).  With ``lengths``, row u walks
    only its first lengths[u] coordinates, which have exactly the law of
    that prefix of a full draw; its later entries stay +1 and must not be
    read.  Returns an (n, k) int8 array of signs, or (n, max(lengths)).
    """
    k = cfg.k
    lengths = np.full(n, k) if lengths is None else np.asarray(lengths)
    width = int(lengths.max(initial=0))
    if width > k:
        raise ValueError(f"prefix length {width} above k={k}")
    # rows longest first, so the rows still walking at coordinate r are a prefix
    order = np.argsort(-lengths, kind="stable")
    walking = n - np.cumsum(np.bincount(lengths, minlength=k + 1))
    left = np.searchsorted(cfg.distance_cdf, rng.random(n), side="right")[order]
    left = left.astype(np.float64)
    # one contiguous row per coordinate, in walking order
    out = np.ones((width, n), dtype=np.int8)
    for r, a in enumerate(walking[:width]):
        u = rng.random(a)
        u *= k - r  # u < 1, so u (k - r) < left holds surely once left = k - r
        minus = u < left[:a]
        left[:a] -= minus
        out[r, :a] -= 2 * minus.view(np.int8)
    return np.take(out, np.argsort(order), axis=1).T


# ---------------------------------------------------------------------------
# exact enumeration oracle


@dataclass
class DistributionTable:
    """Exact output distribution of the composed randomizer on one input."""

    k: int
    input: tuple[int, ...]
    probs: dict[tuple[int, ...], mpf]

    def total(self) -> mpf:
        return sum(self.probs.values(), mpf(0))

    def marginal_gap(self, coord: int) -> mpf:
        """P[output_coord = input_coord] - P[output_coord = -input_coord]."""
        b_i = self.input[coord]
        acc = mpf(0)
        for s, pr in self.probs.items():
            acc += pr if s[coord] == b_i else -pr
        return acc


def exact_output_distribution(b, cfg: RandomizerConfig) -> DistributionTable:
    """Full 2^k table of output probabilities for input b; audit oracle.

    Output s has probability law[dist(s, b)]: g(distance) inside the
    annulus, q* outside.  Outputs are keyed in itertools.product order.
    """
    k = cfg.k
    b = np.asarray(b)
    if b.shape != (k,) or not np.all((b == 1) | (b == -1)):
        raise ValueError(f"expected a length-{k} vector of -1/+1 entries, got {b.tolist()}")
    if k > ENUMERATION_K:
        raise CapacityError(f"k={k} above enumeration bound {ENUMERATION_K}")
    x = tuple(int(v) for v in b)
    law = cfg.distance_law
    probs = {s: law[sum(a != c for a, c in zip(s, x))] for s in product((-1, 1), repeat=k)}
    return DistributionTable(k=k, input=x, probs=probs)
