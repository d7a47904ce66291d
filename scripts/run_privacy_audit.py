#!/usr/bin/env python3
"""Exhaustive privacy audits of the randomizer and the full client.

Sweeps the randomizer audit over a k x eps grid and the client audit over
stream pairs, printing one line per configuration.  Exits non-zero if any
audit fails.
"""

import argparse
import sys

import numpy as np

from ldptrack.audit import audit_client_sweep, audit_randomizer
from ldptrack.baselines import ALGORITHMS, algo_tag, algorithm_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-max", type=int, default=10)
    parser.add_argument("--eps", type=float, nargs="+", default=[0.25, 0.5, 1.0])
    parser.add_argument("--algo", type=algo_tag, choices=ALGORITHMS,
                        default="futurerand")
    parser.add_argument("--client-pairs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ok = True
    for k in range(2, args.k_max + 1):
        for eps in args.eps:
            alg = algorithm_config(args.algo, k, eps)
            report = audit_randomizer(alg.randomizer)
            status = "ok" if report.passed else "FAIL"
            print(f"randomizer k={k:3d} eps={eps:5.2f}: "
                  f"max_ratio={float(report.max_ratio):.6f} {status}")
            ok &= report.passed

    for eps in args.eps:
        report = audit_client_sweep(4, 2, eps, algorithm=args.algo)
        print(f"client d=4 k=2 eps={eps:5.2f} (exhaustive): "
              f"max_ratio={float(report.max_ratio):.6f} "
              f"{'ok' if report.passed else 'FAIL'}")
        ok &= report.passed
        report = audit_client_sweep(8, 3, eps, algorithm=args.algo,
                                    pairs=args.client_pairs,
                                    rng=np.random.default_rng(args.seed))
        print(f"client d=8 k=3 eps={eps:5.2f} ({args.client_pairs} pairs): "
              f"max_ratio={float(report.max_ratio):.6f} "
              f"{'ok' if report.passed else 'FAIL'}")
        ok &= report.passed
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
