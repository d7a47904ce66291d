"""Command-line interface.

Exit codes: 0 success, 2 configuration, protocol or file error (also
argparse usage errors, malformed report records and a path that cannot be
read or written), 3 audit failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .audit import audit_client_certificate, audit_randomizer
from .baselines import ALGORITHMS, algo_tag, algorithm_config
from .engine import CHANGE_MODELS
from .errors import ConfigError, ProtocolError
from .harness import ExperimentSpec, run_experiment, scaling_study
from .protocol import read_reports, replay
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
    sim.add_argument("--change-model", choices=CHANGE_MODELS, default="uniform")
    sim.add_argument("--dump-reports", type=str, default=None,
                     help="write the first repetition's raw report records (NDJSON); that "
                          "repetition is then drawn in report mode, so its max_err, the summary "
                          "and the --out CSV differ from a run of the same seed without this flag")

    aud = sub.add_parser("audit", help="exact privacy audits")
    aud_sub = aud.add_subparsers(dest="target", required=True)

    aud_r = aud_sub.add_parser(
        "randomizer", help="exact worst input-pair ratio, max(law) / min(law), at any k")
    aud_r.add_argument("--k", type=int, required=True)
    aud_r.add_argument("--eps", type=float, required=True)
    aud_r.add_argument("--algo", type=algo_tag, choices=ALGORITHMS, default="futurerand")
    aud_r.add_argument("--out", type=str, default=None)

    aud_c = aud_sub.add_parser(
        "client", help="worst full-client ratio over all stream pairs, in O(k) at any d, k; "
                       "exact with a witness when 2k <= d, an upper bound otherwise")
    aud_c.add_argument("--d", type=int, required=True)
    aud_c.add_argument("--k", type=int, required=True)
    aud_c.add_argument("--eps", type=float, required=True)
    aud_c.add_argument("--algo", type=algo_tag, choices=ALGORITHMS, default="futurerand")
    aud_c.add_argument("--out", type=str, default=None)

    gp = sub.add_parser("gap", help="print the exact preservation gap")
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--eps", type=float, required=True)
    gp.add_argument("--algo", type=algo_tag, choices=ALGORITHMS, default="futurerand")

    agg = sub.add_parser("aggregate", help="server estimates from dumped report records")
    agg.add_argument("--reports", type=str, required=True, help="NDJSON report records")
    agg.add_argument("--d", type=int, required=True, help="horizon (power of two)")
    agg.add_argument("--k", type=int, required=True, help="max changes per user")
    agg.add_argument("--eps", type=float, required=True, help="privacy budget")
    agg.add_argument("--algo", type=algo_tag, choices=ALGORITHMS, default="futurerand")
    agg.add_argument("--out", type=str, default=None,
                     help="write the t,fhat CSV here instead of stdout")

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


def _write(path: str, text: str) -> None:
    """Write text to path, making its parent directories first."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out is not None:
        _write(out, text + "\n")
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


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.target == "randomizer":
        report = audit_randomizer(algorithm_config(args.algo, args.k, args.eps).randomizer)
    else:
        report = audit_client_certificate(args.d, args.k, args.eps, algorithm=args.algo)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_AUDIT


def _cmd_gap(args: argparse.Namespace) -> int:
    alg = algorithm_config(args.algo, args.k, args.eps)
    cfg = alg.randomizer
    lower = gap_lower_bound_expr(cfg)
    print(json.dumps({
        "algo": alg.tag,
        "k": alg.k,
        "eps": cfg.eps,
        "eps_tilde": float(cfg.eps_tilde),
        "p": float(cfg.p),
        "lb": cfg.lb,
        "ub": cfg.ub,
        "gap": float(cfg.gap),
        "gap_lower_bound": None if lower is None else float(lower),
    }, indent=2))
    return EXIT_OK


def _cmd_aggregate(args: argparse.Namespace) -> int:
    alg = algorithm_config(args.algo, args.k, args.eps, L=args.d)
    with open(args.reports) as fp:
        try:
            records = read_reports(fp)
        except ValueError as exc:
            raise ProtocolError(f"{args.reports}: {exc}") from exc
    estimates = replay(records, alg, args.d)
    lines = ["t,fhat"] + [f"{t},{float(v)!r}" for t, v in enumerate(estimates, 1)]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write(args.out, text)
    return EXIT_OK


def _cmd_scaling(args: argparse.Namespace) -> int:
    # k=1 is valid at any d; scaling_study checks the grid and each cell's k
    base = ExperimentSpec(n=args.n, d=args.d, k=1, eps=args.eps,
                          beta=args.beta, reps=args.reps, seed=args.seed)
    study = scaling_study(base, args.k_grid, args.algos)
    if args.out is not None:
        _write(args.out, json.dumps(study.to_json(), indent=2) + "\n")
    print(study.table())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "audit": _cmd_audit,
        "aggregate": _cmd_aggregate,
        "gap": _cmd_gap,
        "scaling": _cmd_scaling,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
