"""Composed randomized response over sign vectors.

The mechanism perturbs a vector b in {-1,+1}^k coordinate-wise with
randomized response at a small per-bit budget, then applies an annulus
rule on the Hamming distance between input and output: results whose
distance lies inside [lb, ub] are kept, anything else is replaced by a
uniform sample from the sign vectors outside the annulus.  The resulting
output law depends on the input only through the Hamming distance, which
is what the exact oracles below exploit.

All probability arithmetic runs in the logarithmic domain with mpmath at
50 significant digits; the server later divides by the preservation gap,
so its error enters estimates multiplicatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpf

from .errors import CapacityError, ConfigError

# Quadruple-equivalent precision everywhere probabilities are manipulated.
mp.dps = 50

MAX_EXACT_K = 4096  # exact big-integer binomials are used up to this k
ENUMERATION_K = 20  # full 2^k output tables are built up to this k

__all__ = [
    "RandomizerConfig",
    "DistributionTable",
    "annulus_bounds",
    "g_weight",
    "q_star",
    "futurerand_config",
    "rr_config",
    "distance_law",
    "complement_distances",
    "sample_outside_annulus",
    "compose_randomize",
    "sample_composed_batch",
    "gap",
    "gap_lower_bound_expr",
    "exact_output_distribution",
]


# ---------------------------------------------------------------------------
# configuration


def _flip_probability(eps_tilde: mpf) -> mpf:
    return 1 / (mp.exp(eps_tilde) + 1)


def annulus_bounds(k: int, eps_tilde: float | mpf) -> tuple[int, int]:
    """Integer annulus [lb, ub] on the Hamming distance.

    lb rounds kp - 2*sqrt(k) up and clamps at 0; ub rounds
    (k/eps_tilde) * ln(2 e^eps_tilde / (e^eps_tilde + 1)) down and clamps
    at k.  Rounding inward keeps the integer annulus inside the
    real-valued one.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    et = mpf(eps_tilde)
    if et <= 0:
        raise ValueError("per-bit budget must be > 0")
    p = _flip_probability(et)
    lb_real = k * p - 2 * mp.sqrt(mpf(k))
    ub_real = (k / et) * mp.log(2 * mp.exp(et) / (mp.exp(et) + 1))
    lb = max(0, int(mp.ceil(lb_real)))
    ub = min(k, int(mp.floor(ub_real)))
    if lb > ub:
        raise ConfigError(
            f"annulus degenerate after rounding: lb={lb} > ub={ub} "
            f"(k={k}, eps_tilde={float(et):.6g}); k too small for this budget"
        )
    return lb, ub


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


def complement_distances(k: int, lb: int, ub: int) -> tuple[list[int], list[int]]:
    """Distances outside [lb, ub] and their exact vector counts C(k, i)."""
    dists = [i for i in range(0, k + 1) if not lb <= i <= ub]
    return dists, [math.comb(k, i) for i in dists]


def q_star(k: int, lb: int, ub: int, p) -> mpf:
    """Common probability of each sign vector outside the annulus.

    Weighted mean of g over the complement distances; always <= 2^-k.
    """
    dists, weights = complement_distances(k, lb, ub)
    if not dists:
        raise ConfigError("annulus covers [0, k]: no outside-annulus mass to average")
    p = mpf(p)
    num = mpf(0)
    den = 0
    for i, c in zip(dists, weights):
        num += c * g_weight(i, k, p)
        den += c
    return num / mpf(den)


@dataclass(frozen=True)
class RandomizerConfig:
    """Derived parameters of a composed randomizer.

    ``eps`` is the end-to-end budget the annulus construction targets,
    ``eps_tilde`` the per-bit randomized-response budget, ``p`` the flip
    probability, [lb, ub] the integer annulus on the Hamming distance and
    ``gap`` the exact per-coordinate preservation gap.  ``ub_real`` keeps
    the pre-rounding upper bound for the certified lower-bound expression.
    """

    eps: float
    k: int
    L: int
    eps_tilde: mpf
    p: mpf
    lb: int
    ub: int
    gap: mpf
    ub_real: mpf = field(repr=False)

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ConfigError("eps must be > 0")
        if not 1 <= self.k <= self.L:
            raise ConfigError(f"need 1 <= k <= L, got k={self.k}, L={self.L}")
        if not 0 <= self.lb <= self.ub <= self.k:
            raise ConfigError(f"need 0 <= lb <= ub <= k, got [{self.lb}, {self.ub}]")
        if not 0 < self.p < mpf(1) / 2:
            raise ConfigError(f"flip probability {float(self.p)} outside (0, 1/2)")
        if not 0 < self.gap < 1:
            raise ConfigError(f"gap {float(self.gap)} outside (0, 1)")

    @property
    def annulus_full(self) -> bool:
        """True when the annulus covers every distance, i.e. plain independent RR."""
        return self.lb == 0 and self.ub == self.k


def _build_config(eps: float, k: int, L: int, eps_tilde: mpf,
                  lb: int, ub: int, ub_real: mpf) -> RandomizerConfig:
    p = _flip_probability(eps_tilde)
    simplified, two_sum = _gap_both_forms(k, lb, ub, p)
    if abs(simplified - two_sum) > mpf("1e-12") * abs(simplified):
        raise ArithmeticError(f"gap forms disagree: {simplified} vs {two_sum}")
    return RandomizerConfig(eps=eps, k=k, L=L, eps_tilde=eps_tilde, p=p,
                            lb=lb, ub=ub, gap=simplified, ub_real=ub_real)


def futurerand_config(k: int, eps: float, L: int | None = None) -> RandomizerConfig:
    """Composed-randomizer parameters at per-bit budget eps / (5 sqrt(k)).

    Requires 0 < eps <= 1; the annulus construction's guarantees are
    derived under that assumption.
    """
    if not 0 < eps <= 1:
        raise ConfigError(f"eps={eps} outside (0, 1]")
    if k < 1:
        raise ConfigError("k must be >= 1")
    L = k if L is None else L
    et = mpf(eps) / (5 * mp.sqrt(mpf(k)))
    lb, ub = annulus_bounds(k, et)
    ub_real = (k / et) * mp.log(2 * mp.exp(et) / (mp.exp(et) + 1))
    return _build_config(eps, k, L, et, lb, ub, ub_real)


def rr_config(k: int, eps_tilde: float | mpf, eps: float,
              L: int | None = None) -> RandomizerConfig:
    """Independent randomized response as a degenerate config (annulus [0, k])."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    L = k if L is None else L
    et = mpf(eps_tilde)
    if et <= 0:
        raise ConfigError("per-bit budget must be > 0")
    return _build_config(eps, k, L, et, 0, k, mpf(k))


# ---------------------------------------------------------------------------
# exact quantities


def distance_law(cfg: RandomizerConfig) -> list[mpf]:
    """Output probability of a single sign vector at each Hamming distance.

    v[i] = g(i) inside the annulus, the common outside-annulus value q*
    elsewhere.
    """
    qs = None if cfg.annulus_full else q_star(cfg.k, cfg.lb, cfg.ub, cfg.p)
    return [
        g_weight(i, cfg.k, cfg.p) if cfg.lb <= i <= cfg.ub else qs
        for i in range(cfg.k + 1)
    ]


def _gap_both_forms(k: int, lb: int, ub: int, p: mpf) -> tuple[mpf, mpf]:
    """The preservation gap via the single-sum and the two-sum expressions."""
    dists, weights = complement_distances(k, lb, ub)
    qs = q_star(k, lb, ub, p) if dists else mpf(0)
    simplified = mpf(0)
    annulus_g_part = mpf(0)
    for i in range(lb, ub + 1):
        c = math.comb(k, i)
        w = mpf(k - 2 * i) / k
        simplified += c * (g_weight(i, k, p) - qs) * w
        annulus_g_part += c * g_weight(i, k, p) * w
    comp_count_part = mpf(0)
    for i, c in zip(dists, weights):
        comp_count_part += c * mpf(k - 2 * i) / k
    two_sum = annulus_g_part + qs * comp_count_part
    return simplified, two_sum


def gap(cfg: RandomizerConfig) -> mpf:
    """Exact per-coordinate gap P[output_i = b_i] - P[output_i = -b_i].

    Identical for every coordinate and every input; computed once when the
    config is built, where its two algebraic forms must agree to 1e-12
    relative.
    """
    return cfg.gap


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
    half = mpf(2) ** (-k)
    total = mpf(0)
    for i in range(lo, hi + 1):
        total += math.comb(k, i) * (g_weight(i, k, cfg.p) - half) * mpf(k - 2 * i) / k
    return total


# ---------------------------------------------------------------------------
# sampling


def _as_sign_array(b) -> np.ndarray:
    arr = np.asarray(b, dtype=np.int8)
    if arr.ndim != 1 or not np.all((arr == 1) | (arr == -1)):
        raise ValueError("sign vector must be 1-d with entries -1 or +1")
    return arr


def _randint_below(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for arbitrary-precision n, by rejection."""
    nbits = n.bit_length()
    words = (nbits + 31) // 32
    excess = 32 * words - nbits
    while True:
        r = 0
        for w in map(int, rng.integers(0, 1 << 32, size=words, dtype=np.uint64)):
            r = (r << 32) | w
        r >>= excess
        if r < n:
            return r


def sample_outside_annulus(b, cfg: RandomizerConfig,
                           rng: np.random.Generator) -> np.ndarray:
    """Uniform sample from the sign vectors at distance outside [lb, ub] from b.

    Two stages: the distance i is drawn with exact big-integer weight
    C(k, i) over the complement range, then a uniformly random i-subset of
    coordinates is flipped.
    """
    b = _as_sign_array(b)
    if len(b) != cfg.k:
        raise ValueError(f"expected length {cfg.k}, got {len(b)}")
    dists, weights = complement_distances(cfg.k, cfg.lb, cfg.ub)
    if not dists:
        raise ConfigError("annulus covers [0, k]: complement is empty")
    total = sum(weights)
    target = _randint_below(rng, total)
    acc = 0
    for i, c in zip(dists, weights):
        acc += c
        if target < acc:
            distance = i
            break
    out = b.copy()
    if distance:
        flip = rng.choice(cfg.k, size=distance, replace=False)
        out[flip] = -out[flip]
    return out


def compose_randomize(b, cfg: RandomizerConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """Coordinate-wise randomized response, then the annulus accept/resample rule.

    The resample is a fresh uniform draw from outside the annulus; it does
    not condition on the rejected intermediate vector.
    """
    b = _as_sign_array(b)
    if len(b) != cfg.k:
        raise ValueError(f"expected length {cfg.k}, got {len(b)}")
    flips = rng.random(cfg.k) < float(cfg.p)
    out = np.where(flips, -b, b).astype(np.int8)
    distance = int(flips.sum())
    if cfg.lb <= distance <= cfg.ub:
        return out
    return sample_outside_annulus(b, cfg, rng)


def _complement_probs_float(cfg: RandomizerConfig) -> tuple[np.ndarray, np.ndarray]:
    dists, weights = complement_distances(cfg.k, cfg.lb, cfg.ub)
    total = mpf(sum(weights))
    probs = np.array([float(mpf(c) / total) for c in weights], dtype=np.float64)
    probs /= probs.sum()
    return np.array(dists, dtype=np.int64), probs


def sample_composed_batch(cfg: RandomizerConfig, n: int,
                          rng: np.random.Generator,
                          chunk: int = 1 << 16) -> np.ndarray:
    """n independent draws of the composed randomizer on the all-ones vector.

    Vectorized batch equivalent of compose_randomize(ones, cfg, rng);
    returns an (n, k) int8 array of signs.
    """
    k = cfg.k
    # flip threshold quantized at 2^-32: relative error ~2e-10, far below
    # anything the 4-sigma Monte-Carlo checks could resolve
    threshold = np.uint32(round(float(cfg.p) * (1 << 32)))
    out = np.empty((n, k), dtype=np.int8)
    comp_d, comp_p = (None, None)
    if not cfg.annulus_full:
        comp_d, comp_p = _complement_probs_float(cfg)
    done = 0
    while done < n:
        m = min(chunk, n - done)
        flips = rng.integers(0, 1 << 32, size=(m, k), dtype=np.uint32) < threshold
        block = np.where(flips, -1, 1).astype(np.int8)
        if comp_d is not None:
            dist = flips.sum(axis=1)
            outside = (dist < cfg.lb) | (dist > cfg.ub)
            n_out = int(outside.sum())
            if n_out:
                di = rng.choice(comp_d, size=n_out, p=comp_p)
                order = np.argsort(rng.random((n_out, k), dtype=np.float32), axis=1)
                resampled = np.ones((n_out, k), dtype=np.int8)
                rank_mask = np.arange(k)[None, :] < di[:, None]
                rows = np.repeat(np.arange(n_out), di)
                resampled[rows, order[rank_mask]] = -1
                block[outside] = resampled
        out[done:done + m] = block
        done += m
    return out


# ---------------------------------------------------------------------------
# exact enumeration oracle


def _pack_signs(b, k: int) -> int:
    """Bit mask of a length-k sign vector: bit i is set where b[i] = -1."""
    b = _as_sign_array(b)
    if len(b) != k:
        raise ValueError(f"expected length {k}, got {len(b)}")
    return sum(1 << i for i in range(k) if b[i] == -1)


def _unpack_signs(mask: int, k: int) -> tuple[int, ...]:
    return tuple(-1 if (mask >> i) & 1 else 1 for i in range(k))


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

    Probability g(distance) inside the annulus, q* outside; sums to 1
    within 1e-12.
    """
    k = cfg.k
    b_mask = _pack_signs(b, k)
    if k > ENUMERATION_K:
        raise CapacityError(f"k={k} above enumeration bound {ENUMERATION_K}")
    law = distance_law(cfg)
    probs = {}
    for mask in range(1 << k):
        dist = (mask ^ b_mask).bit_count()
        probs[_unpack_signs(mask, k)] = law[dist]
    table = DistributionTable(k=k, input=_unpack_signs(b_mask, k), probs=probs)
    if abs(table.total() - 1) > mpf("1e-12"):
        raise ArithmeticError(f"table mass {table.total()} deviates from 1")
    return table
