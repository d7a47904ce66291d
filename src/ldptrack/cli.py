"""Command-line interface.

Exit codes: 0 success, 2 configuration error (also argparse usage errors),
3 audit failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .audit import audit_client_sweep, audit_randomizer
from .baselines import ALGORITHMS, algo_tag, algorithm_config
from .errors import ConfigError
from .harness import ExperimentSpec, run_experiment, scaling_study
from .randomizer import gap_lower_bound_expr

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_AUDIT = 3


def _algo_list(text: str) -> list[str]:
    return [algo_tag(a) for a in text.split(",") if a]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldptrack",
        description="Locally private longitudinal frequency estimation: "
                    "simulate, audit and benchmark the protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run repeated end-to-end experiments")
    sim.add_argument("--n", type=int, required=True, help="number of users")
    sim.add_argument("--d", type=int, required=True, help="horizon (power of two)")
    sim.add_argument("--k", type=int, required=True, help="max changes per user")
    sim.add_argument("--eps", type=float, required=True, help="privacy budget")
    sim.add_argument("--beta", type=float, default=0.1, help="failure probability")
    sim.add_argument("--algo", type=algo_tag, choices=ALGORITHMS, default="futurerand")
    sim.add_argument("--reps", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", type=str, default=None,
                     help="write JSON summary here (per-t CSV lands beside it)")
    sim.add_argument("--change-model", choices=("uniform", "exactly_k", "bursty"),
                     default="uniform")
    sim.add_argument("--dump-reports", type=str, default=None,
                     help="write the first repetition's raw report records (NDJSON)")

    aud = sub.add_parser("audit", help="exact privacy audits")
    aud_sub = aud.add_subparsers(dest="target", required=True)

    aud_r = aud_sub.add_parser("randomizer", help="enumerate the randomizer's outputs")
    aud_r.add_argument("--k", type=int, required=True)
    aud_r.add_argument("--eps", type=float, required=True)
    aud_r.add_argument("--algo", type=algo_tag, choices=ALGORITHMS, default="futurerand")
    aud_r.add_argument("--out", type=str, default=None)

    aud_c = aud_sub.add_parser("client", help="enumerate full client outputs")
    aud_c.add_argument("--d", type=int, required=True)
    aud_c.add_argument("--k", type=int, required=True)
    aud_c.add_argument("--eps", type=float, required=True)
    aud_c.add_argument("--algo", type=algo_tag, choices=ALGORITHMS, default="futurerand")
    aud_c.add_argument("--pairs", type=int, default=None,
                       help="random stream pairs to test (default: exhaustive)")
    aud_c.add_argument("--seed", type=int, default=0)
    aud_c.add_argument("--out", type=str, default=None)

    gp = sub.add_parser("gap", help="print the exact preservation gap")
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--eps", type=float, required=True)
    gp.add_argument("--algo", type=algo_tag, choices=ALGORITHMS, default="futurerand")

    sc = sub.add_parser("scaling", help="error-vs-k comparison across algorithms")
    sc.add_argument("--k-grid", type=_int_list, required=True,
                    help="comma-separated, e.g. 16,64,256")
    sc.add_argument("--n", type=int, required=True)
    sc.add_argument("--d", type=int, required=True)
    sc.add_argument("--eps", type=float, required=True)
    sc.add_argument("--beta", type=float, default=0.1)
    sc.add_argument("--reps", type=int, default=10)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--algos", type=_algo_list, default="futurerand,sample-one",
                    help="comma-separated algorithm tags")
    sc.add_argument("--out", type=str, default=None)
    return parser


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out is not None:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text + "\n")
    print(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(n=args.n, d=args.d, k=args.k, eps=args.eps,
                          beta=args.beta, algo=args.algo,
                          reps=args.reps, seed=args.seed, out=args.out,
                          change_model=args.change_model)
    dump = Path(args.dump_reports) if args.dump_reports else None
    metrics = run_experiment(spec, dump_reports_to=dump)
    print(json.dumps(metrics.to_json(), indent=2))
    return EXIT_OK


def _cmd_audit_randomizer(args: argparse.Namespace) -> int:
    alg = algorithm_config(args.algo, args.k, args.eps)
    report = audit_randomizer(alg.randomizer)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_AUDIT


def _cmd_audit_client(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    report = audit_client_sweep(args.d, args.k, args.eps,
                                algorithm=args.algo,
                                pairs=args.pairs, rng=rng)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_AUDIT


def _cmd_gap(args: argparse.Namespace) -> int:
    alg = algorithm_config(args.algo, args.k, args.eps)
    cfg = alg.randomizer
    lower = gap_lower_bound_expr(cfg)
    print(json.dumps({
        "algo": alg.tag,
        "k": cfg.k,
        "eps": cfg.eps,
        "eps_tilde": float(cfg.eps_tilde),
        "p": float(cfg.p),
        "lb": cfg.lb,
        "ub": cfg.ub,
        "gap": float(cfg.gap),
        "gap_lower_bound": None if lower is None else float(lower),
    }, indent=2))
    return EXIT_OK


def _cmd_scaling(args: argparse.Namespace) -> int:
    base = ExperimentSpec(n=args.n, d=args.d, k=max(args.k_grid), eps=args.eps,
                          beta=args.beta, reps=args.reps, seed=args.seed)
    study = scaling_study(base, args.k_grid, args.algos)
    if args.out is not None:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(study.to_json(), indent=2) + "\n")
    print(study.table())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "gap": _cmd_gap,
        "scaling": _cmd_scaling,
    }
    try:
        if args.command == "audit":
            if args.target == "randomizer":
                return _cmd_audit_randomizer(args)
            return _cmd_audit_client(args)
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
