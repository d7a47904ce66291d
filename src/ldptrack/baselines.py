"""Algorithm configurations: the composed randomizer and three baselines.

Every algorithm plugs into the same client/server machinery through a
RandomizerConfig; the baselines differ only in how the per-bit budget and
annulus are set (all four in algorithm_config), whether the client first
drops all but one change, and an extra factor in the server's estimator
scale.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import ConfigError
from .randomizer import RandomizerConfig, _build_config, _flip_probability

ALGORITHMS = ("futurerand", "naive", "sample_one", "bns19")

__all__ = [
    "ALGORITHMS",
    "AlgorithmConfig",
    "algo_tag",
    "algorithm_config",
]


@dataclass(frozen=True)
class AlgorithmConfig:
    """An algorithm tag, its change bound k and the randomizer its clients apply
    (one coordinate for sample-one, which reports at most one non-zero sum)."""

    tag: str
    k: int
    randomizer: RandomizerConfig

    def __post_init__(self) -> None:
        if self.tag not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm tag {self.tag!r}")
        if self.randomizer.k != (1 if self.keep_one else self.k):
            raise ConfigError(f"{self.tag} at k={self.k}: randomizer k={self.randomizer.k}")

    @property
    def gap(self) -> mpf:
        return self.randomizer.gap

    @property
    def eps(self) -> float:
        return self.randomizer.eps

    @property
    def keep_one(self) -> bool:
        """The client-side transform that keeps at most one change (sample-one)."""
        return self.tag == "sample_one"

    @property
    def server_factor(self) -> int:
        """Multiplier of the server's estimator scale: k for sample-one, else 1."""
        return self.k if self.keep_one else 1


def algo_tag(text: str) -> str:
    """Algorithm tag with either spelling accepted: "sample-one" is "sample_one"."""
    return text.replace("-", "_")


def algorithm_config(tag: str, k: int, eps: float,
                     L: int | None = None) -> AlgorithmConfig:
    """Config of algorithm ``tag``; with ``L`` set, k must not exceed it.

    k is taken as an int and eps as a float.  One immutable config per (algorithm, k, eps,
    mp.prec) is built per process and shared by all callers; a ConfigError caches nothing.

    Each algorithm is a per-bit budget eps_tilde and a real annulus on the
    Hamming distance, with p = 1 / (e^eps_tilde + 1):

    - futurerand: eps_tilde = eps / (5 sqrt(k)), annulus from kp - 2 sqrt(k)
      to (k/eps_tilde) ln(2 e^eps_tilde / (e^eps_tilde + 1)).  Requires
      eps <= 1; the annulus construction's guarantees are derived under
      that assumption.
    - naive: independent randomized response (annulus [0, k]) at
      eps_tilde = eps / k.
    - sample_one: keep one of k potential changes, perturb it with
      randomized response at eps_tilde = eps / 2: its randomizer has one
      coordinate, the one the client applies.  The slot is drawn
      uniformly from k slots of which the user's actual changes fill the
      first m <= k; an empty slot keeps nothing.  Each real change
      therefore survives with probability exactly 1/k, and the server's
      extra factor k makes the estimator unbiased for every user.
    - bns19: the symmetric annulus kp +- sqrt((k/2) ln(2/lambda)) with
      lambda = eps / (12 (k+1) sqrt(1 + ln(1/eps))) and
      eps_tilde = eps / (6 sqrt(k ln(1/lambda))), so that
      eps = 6 eps_tilde sqrt(k ln(1/lambda)) holds identically.  Requires
      eps <= 1 and lambda < (eps_tilde sqrt(k) / (2(k+1)))^(2/3).
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ConfigError(f"k={k!r} must be an integer")
    if L is not None and k > L:
        raise ConfigError(f"need k <= L, got k={k}, L={L}")
    if not isinstance(eps, numbers.Real):
        raise ConfigError(f"eps={eps!r} must be a real number")
    return _algorithm_config(algo_tag(tag), int(k), float(eps), mp.prec)


@functools.cache
def _algorithm_config(tag: str, k: int, eps: float, prec: int) -> AlgorithmConfig:
    if tag not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {tag!r}; choose from {ALGORITHMS}")
    if k < 1:
        raise ConfigError("k must be >= 1")
    if not eps > 0:
        raise ConfigError(f"eps={eps} must be > 0")
    if eps > 1 and tag in ("futurerand", "bns19"):
        raise ConfigError(f"eps={eps} outside (0, 1] for {tag}")
    if tag == "futurerand":
        et = mpf(eps) / (5 * mp.sqrt(mpf(k)))
        lb_real = k * _flip_probability(et) - 2 * mp.sqrt(mpf(k))
        ub_real = (k / et) * mp.log(2 * mp.exp(et) / (mp.exp(et) + 1))
    elif tag == "bns19":
        eps_mp = mpf(eps)
        lam = eps_mp / (12 * (k + 1) * mp.sqrt(1 + mp.log(1 / eps_mp)))
        et = eps_mp / (6 * mp.sqrt(k * mp.log(1 / lam)))
        limit = (et * mp.sqrt(mpf(k)) / (2 * (k + 1))) ** (mpf(2) / 3)
        if not 0 < lam < limit:
            raise ConfigError(
                f"constraint 0 < lambda < (eps_tilde sqrt(k) / (2(k+1)))^(2/3) violated: "
                f"lambda={float(lam):.6g}, limit={float(limit):.6g} (k={k}, eps={eps})"
            )
        kp = k * _flip_probability(et)
        width = mp.sqrt((mpf(k) / 2) * mp.log(2 / lam))
        lb_real, ub_real = kp - width, kp + width
    elif tag == "naive":
        et, lb_real, ub_real = mpf(eps) / k, mpf(0), mpf(k)
    else:
        return AlgorithmConfig(tag, k, _build_config(eps, 1, mpf(eps) / 2, mpf(0), mpf(1)))
    return AlgorithmConfig(tag, k, _build_config(eps, k, et, lb_real, ub_real))

