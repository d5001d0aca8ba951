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
import contextlib
import dataclasses
import inspect
import json
import sys
from pathlib import Path

from numpy.linalg import LinAlgError

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
from .solvers import SOLVERS


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _input(context=""):
    """Reading and checking a command's input, output locations included.

    A ValueError, TypeError or OSError raised here is a usage error (exit 1).
    RegimeError and LinAlgError are ValueErrors of a numeric regime, not of
    a bad input, and keep exit 2.
    """
    try:
        yield
    except (RegimeError, LinAlgError):
        raise
    except (ValueError, TypeError, OSError) as exc:
        raise UsageError(f"{context}{exc}") from exc


_BOUNDS = {
    "mstoiht": contraction_mstoiht,
    "cstoiht": contraction_cstoiht,
    "mstogradmp": contraction_mstogradmp,
    "cstogradmp": contraction_cstogradmp,
}

# analyze kappa's flags that set a keyword argument of the family's bound
_BOUND_FLAGS = (
    ("--gamma", "gamma", float),
    ("--eta", "eta", float),
    ("--eta1", "eta1", float),
    ("--eta2", "eta2", float),
    ("--p-max", "p_max", float),
    ("--components", "M", int),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mmvgreedy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # the spec flags declare no defaults: a flag not given takes ExperimentSpec's
    instance = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    instance.add_argument("--n", type=int)
    instance.add_argument("--m", type=int)
    instance.add_argument("--L", type=int)
    instance.add_argument("--k", type=int)
    instance.add_argument("--sigma", type=float, dest="noise_sigma", metavar="SIGMA")
    instance.add_argument("--seed", type=int)

    gen = sub.add_parser(
        "gen", parents=[instance], help="generate an instance and write JSM1 files"
    )
    gen.add_argument("--out-dir", required=True)

    run = sub.add_parser(
        "run", parents=[instance], argument_default=argparse.SUPPRESS,
        help="run one solver configuration",
    )
    run.add_argument("--algo", choices=sorted(SOLVERS), required=True)
    run.add_argument("--batch-size", type=int)
    run.add_argument("--gamma", type=float)
    run.add_argument("--max-iter", type=int)
    run.add_argument("--tol", type=float)
    run.add_argument("--trials", type=int)
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
    sweep.add_argument("--timing", choices=("off", "wall"), default="off")

    analyze = sub.add_parser("analyze", help="theory and matrix diagnostics")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    # the analyze flags declare no defaults: a flag not given takes the
    # default of the analysis function it is passed to
    kappa = asub.add_parser(
        "kappa", argument_default=argparse.SUPPRESS, help="contraction coefficients"
    )
    kappa.add_argument("--family", choices=sorted(_BOUNDS), required=True)
    kappa.add_argument("--rho-minus", type=float, required=True)
    kappa.add_argument("--rho-plus", type=float, help="defaults to --rho-minus")
    kappa.add_argument("--rho-plus-bar", type=float)
    kappa.add_argument("--alpha", type=float, required=True)
    for flag, keyword, kind in _BOUND_FLAGS:
        kappa.add_argument(flag, type=kind, dest=keyword)

    rip = asub.add_parser(
        "rip", argument_default=argparse.SUPPRESS, help="restricted isometry constant"
    )
    rip.add_argument("--matrix", required=True, help="JSM1 file")
    rip.add_argument("--k", type=int, required=True)
    rip.add_argument("--mode", choices=("exhaustive", "sampled"))
    rip.add_argument("--samples", type=int)
    rip.add_argument("--seed", type=int)

    return parser


def _spec(args) -> bench.ExperimentSpec:
    """The spec of the flags given."""
    fields = dataclasses.fields(bench.ExperimentSpec)
    return bench.ExperimentSpec(
        **{f.name: getattr(args, f.name) for f in fields if hasattr(args, f.name)}
    )


def _cmd_gen(args) -> int:
    out_dir = Path(args.out_dir)
    with _input():
        spec = _spec(args)
        out_dir.mkdir(parents=True, exist_ok=True)
    A, X_star, Y = bench.generate_instance(spec, trial=0)
    matio.save_jsm(out_dir / "A.jsm", A)
    matio.save_jsm(out_dir / "X.jsm", X_star)
    matio.save_jsm(out_dir / "Y.jsm", Y)
    print(f"wrote {out_dir}/A.jsm {out_dir}/X.jsm {out_dir}/Y.jsm")
    return 0


def _cmd_run(args) -> int:
    with _input():
        spec = _spec(args)
        out = open(args.out, "w", newline="\n")
    with out:
        table = bench.run_experiment(spec)
        out.write(table.to_csv_text(args.timing))
    mean_final = float(table.final_rel_errs().mean())
    print(f"wrote {args.out} trials={spec.trials} mean_final_rel_err={mean_final!r}")
    for trial, msg in sorted(table.divergences.items()):
        print(f"trial {trial} diverged: {msg}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    with _input(f"config {args.base_config}: "), open(args.base_config) as fh:
        base = bench.ExperimentSpec(**json.load(fh))
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise UsageError("--values must list at least one value")
    with _input("bad sweep value: "):
        bench.sweep_specs(base, args.param, values)
    with _input():
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    written = bench.run_sweep(base, args.param, values, args.out_dir, args.timing)
    for path in written:
        print(f"wrote {path}")
    return 0


# an analyze call checks its values in the one library call it makes, and
# prints only after that call returns, so the whole command is input
@_input()
def _cmd_kappa(args) -> int:
    bound = _BOUNDS[args.family]
    takes = inspect.signature(bound).parameters
    options = {}
    for flag, keyword, _ in _BOUND_FLAGS:
        if hasattr(args, keyword):
            if keyword not in takes:
                raise UsageError(f"{flag} does not apply to --family {args.family}")
            options[keyword] = getattr(args, keyword)
    fields = {f.name for f in dataclasses.fields(ConvexityConstants)}
    given = {name: value for name, value in vars(args).items() if name in fields}
    constants = ConvexityConstants(**{"rho_plus": args.rho_minus, **given})
    result = bound([constants] if args.family == "cstoiht" else constants, **options)
    if args.family == "cstoiht":
        kappa_hat, kappa_j = result
        lines = {"kappa": kappa_hat, "kappa_per_column": float(kappa_j[0])}
    elif args.family == "cstogradmp":
        lines = {"kappa": result.kappa, "beta1": result.beta1,
                 "beta2": result.beta2, "kappa_per_column": result.kappa_j}
    else:
        lines = {"kappa": result}
    for name, value in lines.items():
        print(f"{name} {value!r}")
    return 0


@_input()
def _cmd_rip(args) -> int:
    # only sampled mode reads these
    for flag, name in (("--samples", "samples"), ("--seed", "seed")):
        if hasattr(args, name) and getattr(args, "mode", None) != "sampled":
            raise UsageError(f"{flag} needs --mode sampled")
    options = {name: value for name, value in vars(args).items()
               if name in ("mode", "samples")}
    if hasattr(args, "seed"):
        options["rng"] = RngStream(args.seed, (0,))
    estimate = rip_constant(matio.load_jsm(args.matrix), args.k, **options)
    print(f"delta {estimate.delta!r}")
    print(f"mode {'exhaustive' if estimate.exhaustive else 'sampled'}")
    print(f"exact {str(estimate.exhaustive).lower()}")
    print(f"supports_checked {estimate.supports_checked}")
    return 0


_COMMANDS = {"gen": _cmd_gen, "run": _cmd_run, "sweep": _cmd_sweep,
             "kappa": _cmd_kappa, "rip": _cmd_rip}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[getattr(args, "analysis", args.command)](args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2


if __name__ == "__main__":
    sys.exit(main())
