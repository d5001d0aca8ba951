"""Command-line interface.

Subcommands:
  gen      write a sensing matrix, planted signal, and measurements (JSM1)
  run      run one solver configuration over repeated trials, write a CSV trace
  sweep    rerun a base configuration across a swept parameter
  analyze  contraction coefficients (kappa) and isometry estimation (rip)

Exit codes: 0 success, 1 usage error, 2 numeric/regime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench, matio
from .analysis import (
    ConvexityConstants,
    RegimeError,
    contraction_cstogradmp,
    contraction_cstoiht,
    contraction_mstogradmp,
    contraction_mstoiht,
    rip_constant,
)
from .linalg import RngStream
from .solvers import SOLVERS, DivergenceError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="mmvgreedy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    instance = _Parser(add_help=False)
    instance.add_argument("--n", type=int, default=200)
    instance.add_argument("--m", type=int, default=100)
    instance.add_argument("--L", type=int, default=40)
    instance.add_argument("--k", type=int, default=5)
    instance.add_argument("--sigma", type=float, default=0.0)
    instance.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser(
        "gen", parents=[instance], help="generate an instance and write JSM1 files"
    )
    gen.add_argument("--out-dir", required=True)

    run = sub.add_parser("run", parents=[instance], help="run one solver configuration")
    run.add_argument("--algo", choices=sorted(SOLVERS), required=True)
    run.add_argument("--batch-size", type=int, default=1)
    run.add_argument("--gamma", type=float, default=1.0)
    run.add_argument("--max-iter", type=int, default=1000)
    run.add_argument("--tol", type=float, default=1e-6)
    run.add_argument("--trials", type=int, default=50)
    run.add_argument("--workers", type=positive_int, default=1)
    run.add_argument(
        "--timing",
        choices=("off", "wall"),
        default="off",
        help="'off' writes 0.0 in time_s so outputs are byte-reproducible",
    )
    run.add_argument("--out", required=True)

    sweep = sub.add_parser("sweep", help="sweep one parameter of a base config")
    sweep.add_argument("--param", choices=sorted(bench.SWEEP_FIELDS), required=True)
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.add_argument("--base-config", required=True, help="flat JSON config file")
    sweep.add_argument("--out-dir", required=True)
    sweep.add_argument("--workers", type=positive_int, default=1)
    sweep.add_argument("--timing", choices=("off", "wall"), default="off")

    analyze = sub.add_parser("analyze", help="theory and matrix diagnostics")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    kappa = asub.add_parser("kappa", help="contraction coefficients")
    kappa.add_argument("--family", choices=sorted(SOLVERS), required=True)
    kappa.add_argument("--rho-minus", type=float, required=True)
    kappa.add_argument("--rho-plus", type=float, default=None)
    kappa.add_argument("--rho-plus-bar", type=float, default=None)
    kappa.add_argument("--alpha", type=float, required=True)
    kappa.add_argument("--gamma", type=float, default=1.0)
    kappa.add_argument("--eta", type=float, default=1.0)
    kappa.add_argument("--eta1", type=float, default=1.0)
    kappa.add_argument("--eta2", type=float, default=1.0)
    kappa.add_argument("--p-max", type=float, default=None)
    kappa.add_argument("--components", type=int, default=1, help="component count M")

    rip = asub.add_parser("rip", help="restricted isometry constant")
    rip.add_argument("--matrix", required=True, help="JSM1 file")
    rip.add_argument("--k", type=int, required=True)
    rip.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    rip.add_argument("--samples", type=int, default=1000)
    rip.add_argument("--seed", type=int, default=0)

    return parser


def _spec(args, **fields) -> bench.ExperimentSpec:
    """The spec of the instance flags plus fields; a bad one is a usage error."""
    try:
        return bench.ExperimentSpec(
            n=args.n, m=args.m, L=args.L, k=args.k,
            noise_sigma=args.sigma, seed=args.seed, **fields,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_gen(args) -> int:
    spec = _spec(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    A, X_star, Y = bench.generate_instance(spec, trial=0)
    matio.save_jsm(out_dir / "A.jsm", A)
    matio.save_jsm(out_dir / "X.jsm", X_star)
    matio.save_jsm(out_dir / "Y.jsm", Y)
    print(f"wrote {out_dir}/A.jsm {out_dir}/X.jsm {out_dir}/Y.jsm")
    return 0


def _cmd_run(args) -> int:
    spec = _spec(
        args, algo=args.algo, batch_size=args.batch_size, gamma=args.gamma,
        max_iter=args.max_iter, tol=args.tol, trials=args.trials,
    )
    table = bench.run_experiment(spec, workers=args.workers)
    table.write_csv(args.out, timing=args.timing)
    mean_final = float(table.final_rel_errs().mean())
    print(f"wrote {args.out} trials={spec.trials} mean_final_rel_err={mean_final!r}")
    for trial, msg in sorted(table.divergences.items()):
        print(f"trial {trial} diverged: {msg}", file=sys.stderr)
    return 0


def _load_base_config(path) -> bench.ExperimentSpec:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a flat JSON object")
    try:
        return bench.ExperimentSpec(**raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad config {path}: {exc}") from exc


def _cmd_sweep(args) -> int:
    base = _load_base_config(args.base_config)
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise UsageError("--values must list at least one value")
    try:
        bench.sweep_specs(base, args.param, values)
    except ValueError as exc:
        raise UsageError(f"bad sweep value: {exc}") from exc
    written = bench.run_sweep(
        base, args.param, values, args.out_dir,
        timing=args.timing, workers=args.workers,
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_kappa(args) -> int:
    rho_plus = args.rho_plus if args.rho_plus is not None else args.rho_minus
    constants = ConvexityConstants(
        rho_minus=args.rho_minus,
        rho_plus=rho_plus,
        alpha=args.alpha,
        rho_plus_bar=args.rho_plus_bar,
    )
    if args.family == "mstoiht":
        kappa = contraction_mstoiht(constants, gamma=args.gamma, eta=args.eta)
        print(f"kappa {kappa!r}")
    elif args.family == "cstoiht":
        kappa_hat, kappa_j = contraction_cstoiht(
            [constants], gamma=args.gamma, eta=args.eta
        )
        print(f"kappa {kappa_hat!r}")
        print(f"kappa_per_column {float(kappa_j[0])!r}")
    elif args.family == "mstogradmp":
        kappa = contraction_mstogradmp(
            constants, eta1=args.eta1, eta2=args.eta2,
            p_max=args.p_max, M=args.components,
        )
        print(f"kappa {kappa!r}")
    else:
        result = contraction_cstogradmp(
            constants, eta1=args.eta1, eta2=args.eta2,
            p_max=args.p_max, M=args.components,
        )
        print(f"kappa {result.kappa!r}")
        print(f"beta1 {result.beta1!r}")
        print(f"beta2 {result.beta2!r}")
        print(f"kappa_per_column {result.kappa_j!r}")
    return 0


def _cmd_rip(args) -> int:
    try:
        A = matio.load_jsm(args.matrix)
    except OSError as exc:
        raise UsageError(f"cannot read matrix {args.matrix}: {exc}") from exc
    estimate = rip_constant(
        A, args.k, mode=args.mode,
        samples=args.samples, rng=RngStream(args.seed, (0,)),
    )
    print(f"delta {estimate.delta!r}")
    print(f"mode {args.mode}")
    print(f"exact {str(estimate.exhaustive).lower()}")
    print(f"supports_checked {estimate.supports_checked}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "analyze":
            if args.analysis == "kappa":
                return _cmd_kappa(args)
            return _cmd_rip(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RegimeError, DivergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
