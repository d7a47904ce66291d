#!/usr/bin/env python3
"""Empirical coverage of the analytic per-run error bound.

Runs repeated experiments and reports how often the worst-case estimation
error exceeds (1 + log2 d) * gap^-1 * sqrt(2 n ln(2d / beta)); the
exceedance frequency should stay below beta.
"""

import argparse
import json

from ldptrack.baselines import ALGORITHMS, algo_tag
from ldptrack.harness import ExperimentSpec, run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--d", type=int, default=1024)
    parser.add_argument("--k", type=int, default=64)
    parser.add_argument("--eps", type=float, default=1.0)
    parser.add_argument("--beta", type=float, default=0.1)
    parser.add_argument("--reps", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--algo", type=algo_tag, choices=ALGORITHMS,
                        default="futurerand")
    args = parser.parse_args()

    spec = ExperimentSpec(n=args.n, d=args.d, k=args.k, eps=args.eps,
                          beta=args.beta, algo=args.algo,
                          reps=args.reps, seed=args.seed)
    metrics = run_experiment(spec)
    exceed = sum(e > metrics.bound for e in metrics.max_errs)
    print(json.dumps(metrics.to_json(), indent=2))
    print(f"\nbound = {metrics.bound:.4e}, regime_ok = {metrics.regime_ok}")
    print(f"exceedances: {exceed}/{args.reps} "
          f"(target frequency <= beta = {args.beta})")


if __name__ == "__main__":
    main()
