"""Algorithm configurations: the composed randomizer and three baselines.

Every algorithm plugs into the same client/server machinery through a
RandomizerConfig; the baselines differ only in how the per-bit budget and
annulus are set, whether the client first drops all but one change, and
an extra factor in the server's estimator scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .errors import ConfigError
from .protocol import ClientState, client_init
from .randomizer import (RandomizerConfig, futurerand_config, rr_config,
                         _build_config)

ALGORITHMS = ("futurerand", "naive", "sample_one", "bns19")

__all__ = [
    "ALGORITHMS",
    "AlgorithmConfig",
    "futurerand_algorithm",
    "naive_config",
    "sample_one_config",
    "bns19_config",
    "algo_tag",
    "algorithm_config",
    "make_client",
]


@dataclass(frozen=True)
class AlgorithmConfig:
    """An algorithm tag with its derived randomizer parameters.

    ``server_factor`` multiplies the server's estimator scale (k for the
    sample-one baseline, 1 otherwise); ``keep_one`` marks the client-side
    transform that keeps at most one change.
    """

    tag: str
    randomizer: RandomizerConfig
    server_factor: int = 1
    keep_one: bool = False
    lam: mpf | None = None

    def __post_init__(self) -> None:
        if self.tag not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm tag {self.tag!r}")
        if not 0 < self.randomizer.gap < 1:
            raise ConfigError("gap outside (0, 1)")

    @property
    def gap(self) -> mpf:
        return self.randomizer.gap

    @property
    def eps(self) -> float:
        return self.randomizer.eps

    @property
    def k(self) -> int:
        return self.randomizer.k


def futurerand_algorithm(k: int, eps: float, L: int | None = None) -> AlgorithmConfig:
    return AlgorithmConfig(tag="futurerand", randomizer=futurerand_config(k, eps, L))


def naive_config(k: int, eps: float, L: int | None = None) -> AlgorithmConfig:
    """Independent randomized response at per-coordinate budget eps / k."""
    if eps <= 0:
        raise ConfigError("eps must be > 0")
    if k < 1:
        raise ConfigError("k must be >= 1")
    rand = rr_config(k, mpf(eps) / k, eps=eps, L=L)
    return AlgorithmConfig(tag="naive", randomizer=rand)


def sample_one_config(k: int, eps: float, L: int | None = None) -> AlgorithmConfig:
    """Keep one of k potential changes, perturb it with RR at eps / 2.

    The slot is drawn uniformly from k slots of which the user's actual
    changes fill the first m <= k; an empty slot keeps nothing.  Each real
    change therefore survives with probability exactly 1/k, and the
    server's extra factor k makes the estimator unbiased for every user.
    """
    if eps <= 0:
        raise ConfigError("eps must be > 0")
    if k < 1:
        raise ConfigError("k must be >= 1")
    rand = rr_config(k, mpf(eps) / 2, eps=eps, L=L)
    return AlgorithmConfig(tag="sample_one", randomizer=rand,
                           server_factor=k, keep_one=True)


def bns19_config(k: int, eps: float, L: int | None = None) -> AlgorithmConfig:
    """Composed randomizer with the symmetric annulus kp +- sqrt((k/2) ln(2/lambda)).

    lambda = eps / (12 (k+1) sqrt(1 + ln(1/eps))) and
    eps_tilde = eps / (6 sqrt(k ln(1/lambda))), so that
    eps = 6 eps_tilde sqrt(k ln(1/lambda)) holds identically.
    """
    if not 0 < eps <= 1:
        raise ConfigError(f"eps={eps} outside (0, 1]")
    if k < 1:
        raise ConfigError("k must be >= 1")
    L = k if L is None else L
    eps_mp = mpf(eps)
    lam = eps_mp / (12 * (k + 1) * mp.sqrt(1 + mp.log(1 / eps_mp)))
    et = eps_mp / (6 * mp.sqrt(k * mp.log(1 / lam)))
    limit = (et * mp.sqrt(mpf(k)) / (2 * (k + 1))) ** (mpf(2) / 3)
    if not 0 < lam < limit:
        raise ConfigError(
            f"constraint 0 < lambda < (eps_tilde sqrt(k) / (2(k+1)))^(2/3) violated: "
            f"lambda={float(lam):.6g}, limit={float(limit):.6g} (k={k}, eps={eps})"
        )
    p = 1 / (mp.exp(et) + 1)
    width = mp.sqrt((mpf(k) / 2) * mp.log(2 / lam))
    lb = max(0, int(mp.ceil(k * p - width)))
    ub = min(k, int(mp.floor(k * p + width)))
    if lb > ub:
        raise ConfigError(f"annulus degenerate after rounding: lb={lb} > ub={ub}")
    rand = _build_config(eps, k, L, et, lb, ub, ub_real=k * p + width)
    return AlgorithmConfig(tag="bns19", randomizer=rand, lam=lam)


def algo_tag(text: str) -> str:
    """Algorithm tag with either spelling accepted: "sample-one" is "sample_one"."""
    return text.replace("-", "_")


def algorithm_config(tag: str, k: int, eps: float,
                     L: int | None = None) -> AlgorithmConfig:
    tag = algo_tag(tag)
    builders = {
        "futurerand": futurerand_algorithm,
        "naive": naive_config,
        "sample_one": sample_one_config,
        "bns19": bns19_config,
    }
    if tag not in builders:
        raise ConfigError(f"unknown algorithm {tag!r}; choose from {ALGORITHMS}")
    return builders[tag](k, eps, L)


def make_client(alg: AlgorithmConfig, d: int, rng: np.random.Generator,
                change_times: tuple[int, ...] | None = None) -> ClientState:
    """Client for the given algorithm; sample-one needs the change times upfront.

    For the sample-one baseline the kept slot is drawn here, once, over
    the user's full derivative; this is the one place a baseline consumes
    offline knowledge.
    """
    state = client_init(alg.k, d, alg.eps, rng, cfg=alg.randomizer)
    if alg.keep_one:
        if change_times is None:
            raise ValueError("sample-one client needs the user's change times at init")
        slot = int(rng.integers(0, alg.k))
        state.keep_time = change_times[slot] if slot < len(change_times) else None
        state.filter_deltas = True
    return state
