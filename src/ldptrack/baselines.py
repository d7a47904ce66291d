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
                         _build_config, _flip_probability)

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
    "client_randomizer",
    "make_client",
]


@dataclass(frozen=True)
class AlgorithmConfig:
    """An algorithm tag with its derived randomizer parameters."""

    tag: str
    randomizer: RandomizerConfig

    def __post_init__(self) -> None:
        if self.tag not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm tag {self.tag!r}")

    @property
    def gap(self) -> mpf:
        return self.randomizer.gap

    @property
    def eps(self) -> float:
        return self.randomizer.eps

    @property
    def k(self) -> int:
        return self.randomizer.k

    @property
    def keep_one(self) -> bool:
        """The client-side transform that keeps at most one change (sample-one)."""
        return self.tag == "sample_one"

    @property
    def server_factor(self) -> int:
        """Multiplier of the server's estimator scale: k for sample-one, else 1."""
        return self.k if self.keep_one else 1


def futurerand_algorithm(k: int, eps: float) -> AlgorithmConfig:
    return AlgorithmConfig(tag="futurerand", randomizer=futurerand_config(k, eps))


def naive_config(k: int, eps: float) -> AlgorithmConfig:
    """Independent randomized response at per-coordinate budget eps / k."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    rand = rr_config(k, mpf(eps) / k, eps=eps)
    return AlgorithmConfig(tag="naive", randomizer=rand)


def sample_one_config(k: int, eps: float) -> AlgorithmConfig:
    """Keep one of k potential changes, perturb it with RR at eps / 2.

    The slot is drawn uniformly from k slots of which the user's actual
    changes fill the first m <= k; an empty slot keeps nothing.  Each real
    change therefore survives with probability exactly 1/k, and the
    server's extra factor k makes the estimator unbiased for every user.
    """
    rand = rr_config(k, mpf(eps) / 2, eps=eps)
    return AlgorithmConfig(tag="sample_one", randomizer=rand)


def bns19_config(k: int, eps: float) -> AlgorithmConfig:
    """Composed randomizer with the symmetric annulus kp +- sqrt((k/2) ln(2/lambda)).

    lambda = eps / (12 (k+1) sqrt(1 + ln(1/eps))) and
    eps_tilde = eps / (6 sqrt(k ln(1/lambda))), so that
    eps = 6 eps_tilde sqrt(k ln(1/lambda)) holds identically.
    """
    if not 0 < eps <= 1:
        raise ConfigError(f"eps={eps} outside (0, 1]")
    if k < 1:
        raise ConfigError("k must be >= 1")
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
    rand = _build_config(eps, k, et, kp - width, kp + width)
    return AlgorithmConfig(tag="bns19", randomizer=rand)


def algo_tag(text: str) -> str:
    """Algorithm tag with either spelling accepted: "sample-one" is "sample_one"."""
    return text.replace("-", "_")


def algorithm_config(tag: str, k: int, eps: float,
                     L: int | None = None) -> AlgorithmConfig:
    """Config of algorithm ``tag``; with ``L`` set, k must not exceed it."""
    tag = algo_tag(tag)
    builders = {
        "futurerand": futurerand_algorithm,
        "naive": naive_config,
        "sample_one": sample_one_config,
        "bns19": bns19_config,
    }
    if tag not in builders:
        raise ConfigError(f"unknown algorithm {tag!r}; choose from {ALGORITHMS}")
    if L is not None and k > L:
        raise ConfigError(f"need k <= L, got k={k}, L={L}")
    return builders[tag](k, eps)


def client_randomizer(alg: AlgorithmConfig) -> RandomizerConfig:
    """The randomizer a client of this algorithm actually applies.

    A keep-one client reports at most one non-zero window sum, through
    coordinate 0 of its noise vector, so what it applies is randomized
    response on one coordinate at the per-coordinate budget; it is audited
    against the algorithm's end-to-end eps.  Other clients use every
    coordinate of the algorithm's randomizer.
    """
    cfg = alg.randomizer
    if not alg.keep_one:
        return cfg
    return rr_config(1, cfg.eps_tilde, eps=cfg.eps)


def make_client(alg: AlgorithmConfig, d: int, rng: np.random.Generator,
                change_times: tuple[int, ...] | None = None) -> ClientState:
    """Client for the given algorithm; sample-one needs the change times upfront.

    For the sample-one baseline the kept slot is drawn here, once, over
    the user's full derivative; this is the one place a baseline consumes
    offline knowledge.
    """
    state = client_init(alg.randomizer, d, rng)
    if alg.keep_one:
        if change_times is None:
            raise ValueError("sample-one client needs the user's change times at init")
        slot = int(rng.integers(0, alg.k))
        state.keep_time = change_times[slot] if slot < len(change_times) else None
        state.filter_deltas = True
    return state
