"""Command line interface.

Subcommands
-----------
detect
    Flag outliers in a CSV dataset and write ``report.json`` plus a tidy
    ``flags.csv`` (and optionally the index tables the flags were read from).
simulate
    Draw a labelled synthetic dataset and write ``data.csv`` / ``truth.csv``.
benchmark
    Repeat simulate/detect/score for model and method combinations.
sweep
    Score a grid of fixed vote-share thresholds on one model.
baselines
    Estimate false-vote baseline rates from outlier-free data.

Exit codes: 0 success, 2 input data could not be parsed, 3 invalid
configuration or usage, 4 any other package error: numeric degeneracy
(constant reference curve, tiny sample, bad direction) or invalid curves.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import benchmark as bench
from . import io as fio
from ._version import __version__
from .errors import FmuodError, InvalidConfig, ParseError
from .indices import LOCATIONS, TYPE_ORDER, VARIANT_STANDARD, VARIANTS
from .multivariate import (
    DEFAULT_VOTE_SHARES,
    REFERENCE_BASELINES,
    SCALE_NONE,
    SCALES,
    Baselines,
    ThresholdTriple,
)
from .simulation import MODEL_IDS, SimulationSpec, generate

EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_DEGENERATE = 4
#: The exit code of each package error; any other one exits with EXIT_DEGENERATE.
_EXIT_CODES = {ParseError: EXIT_PARSE, InvalidConfig: EXIT_CONFIG}

#: The one method whose vote shares the ``--tau-*`` flags set.
TAU_METHOD = bench.METHOD_PROJECTION_FIXED


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _out_dir(raw: str) -> Path:
    path = Path(raw)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidConfig(f"cannot create output directory {raw!r} ({exc.strerror})") from exc
    return path


def _parse_share_grid(raw: str) -> list[ThresholdTriple]:
    """Comma-separated shares; each item is uniform (``0.4``) or ``s:a:m``."""
    triples = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise InvalidConfig(f"bad vote share {item!r}")
        if len(values) == 1:
            triples.append(ThresholdTriple(values[0], values[0], values[0]))
        elif len(values) == 3:
            triples.append(ThresholdTriple(values[0], values[1], values[2]))
        else:
            raise InvalidConfig(f"vote share {item!r} must be one value or s:a:m")
    if not triples:
        raise InvalidConfig("no vote shares given")
    return triples


def _method_config(args) -> tuple[ThresholdTriple, Baselines]:
    """Vote shares and baselines from the tau/baseline flags."""
    taus = (args.tau_shape, args.tau_amplitude, args.tau_magnitude)
    have = [v is not None for v in taus]
    if any(have) and not all(have):
        raise InvalidConfig("pass all of --tau-shape/--tau-amplitude/--tau-magnitude or none")
    if any(have) and args.method != TAU_METHOD:
        raise InvalidConfig(f"--tau-* applies only to {TAU_METHOD}")
    shares = ThresholdTriple(*taus) if all(have) else DEFAULT_VOTE_SHARES
    baselines = fio.read_baselines(args.baselines) if args.baselines else REFERENCE_BASELINES
    return shares, baselines


def _add_common_detection_flags(sub) -> None:
    sub.add_argument("--method", required=True, choices=bench.METHODS)
    sub.add_argument("--directions", type=int, default=bench.DEFAULT_N_DIRECTIONS,
                     help="number of projection directions (default 60)")
    sub.add_argument("--tau-shape", type=float, default=None)
    sub.add_argument("--tau-amplitude", type=float, default=None)
    sub.add_argument("--tau-magnitude", type=float, default=None)
    sub.add_argument("--baselines", default=None, metavar="FILE",
                     help="JSON baseline rates for FST_PRJ (default: bundled values)")
    sub.add_argument("--scale", choices=SCALES, default=SCALE_NONE,
                     help="component rescaling before stringing (default none)")
    sub.add_argument("--variant", choices=VARIANTS, default=VARIANT_STANDARD)
    sub.add_argument("--location", choices=LOCATIONS, default="median",
                     help="pointwise reference location (default median)")
    sub.add_argument("--seed", type=int, default=0)


def cmd_detect(args) -> int:
    data = fio.read_dataset(args.input, args.layout, args.delimiter)
    shares, baselines = _method_config(args)
    config = bench.MethodConfig(
        method=args.method,
        n_directions=args.directions,
        vote_shares=shares,
        baselines=baselines,
        scale=args.scale,
        variant=args.variant,
        location=args.location,
    )
    report = bench.run_method(data, config, args.seed)
    out = _out_dir(args.out)
    echo = {
        "input": str(args.input),
        "layout": args.layout,
        "seed": args.seed,
        "scale": args.scale,
    }
    fio.write_report_json(report, out / "report.json", extra_config=echo)
    fio.write_flags_csv(report, out / "flags.csv")
    if args.emit_indices:
        fio.write_index_tables_csv(report.tables, out / "indices.csv")
    flags = report.flags
    counts = ", ".join(f"{name} {len(f)}" for name, f in zip(TYPE_ORDER, flags.by_type()))
    print(f"{args.method}: flagged {len(flags.union)} of {report.n} curves ({counts})")
    if report.degenerate_projections:
        print(
            f"warning: {report.degenerate_projections} degenerate projections contributed no votes",
            file=sys.stderr,
        )
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_simulate(args) -> int:
    labeled = generate(SimulationSpec(args.model, args.n, args.k, args.alpha, args.seed))
    out = _out_dir(args.out)
    fio.write_long_csv(labeled.data, out / "data.csv")
    fio.write_truth_csv(labeled, out / "truth.csv")
    print(
        f"{args.model}: wrote {labeled.data.n} curves "
        f"({len(labeled.outlier_indices)} outliers) to {out / 'data.csv'}"
    )
    return 0


def cmd_benchmark(args) -> int:
    models = [m.strip() for m in args.model.split(",") if m.strip()]
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not models or not methods:
        raise InvalidConfig("benchmark needs at least one model and one method")
    baselines = fio.read_baselines(args.baselines) if args.baselines else REFERENCE_BASELINES
    # Check every model and method before the first repetition runs.
    for model in models:
        SimulationSpec(model, args.n, args.k, args.alpha, 0)
    configs = [
        bench.MethodConfig(
            method=method,
            report_scope=args.scope,
            n_directions=args.directions,
            baselines=baselines,
            scale=args.scale,
        )
        for method in methods
    ]
    # Models outer, methods inner: the methods of one model share each
    # repetition's data, and the projection methods its votes.
    results = [
        bench.run_benchmark(model, config, args.reps, args.n, args.k, args.alpha, args.seed)
        for model in models
        for config in configs
    ]
    out = _out_dir(args.out)
    fio.write_benchmark_summary_csv(results, out / "summary.csv")
    fio.write_benchmark_reps_csv(results, out / "reps.csv")
    print(bench.format_result_table(results))
    print(f"wrote {out / 'summary.csv'}")
    return 0


def cmd_sweep(args) -> int:
    shares = _parse_share_grid(args.shares)
    results = bench.threshold_sweep(
        args.model,
        shares,
        args.reps,
        args.n,
        args.k,
        args.alpha,
        args.seed,
        args.directions,
        args.scope,
    )
    out = _out_dir(args.out)
    fio.write_sweep_csv(shares, results, out / "sweep.csv")
    print(f"{'shares':>18}  {'f1':>12}  {'fpr':>12}")
    for triple, res in zip(shares, results):
        label = ":".join(f"{share:g}" for share in triple.by_type())
        f1 = bench.format_mean_sd(res.f1_mean, res.f1_sd, digits=3)
        print(f"{label:>18}  {f1:>12}  {bench.format_mean_sd(res.fpr_mean, res.fpr_sd):>12}")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_baselines(args) -> int:
    rates = bench.estimate_null_baselines(
        args.reps, args.n, args.k, args.directions, args.seed
    )
    out = _out_dir(args.out)
    fio.write_baselines(rates, out / "baselines.json")
    listed = ", ".join(f"{name} {rate:.4f}" for name, rate in rates.as_dict().items())
    print(f"baselines over {args.reps} repetitions: {listed}")
    print(f"wrote {out / 'baselines.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fmuod",
        description="Shape, amplitude and magnitude outlier detection for functional data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    detect = subs.add_parser("detect", help="flag outliers in a CSV dataset")
    detect.add_argument("--input", required=True)
    detect.add_argument("--layout", required=True, choices=fio.LAYOUTS)
    detect.add_argument("--delimiter", default=",")
    _add_common_detection_flags(detect)
    detect.add_argument("--emit-indices", action="store_true",
                        help="also write the index tables the flags were read from "
                             "to indices.csv")
    detect.add_argument("--out", required=True)
    detect.set_defaults(func=cmd_detect)

    simulate = subs.add_parser("simulate", help="draw a labelled synthetic dataset")
    simulate.add_argument("--model", required=True, choices=MODEL_IDS)
    simulate.add_argument("--n", type=int, default=100)
    simulate.add_argument("--k", type=int, default=50)
    simulate.add_argument("--alpha", type=float, default=0.1,
                          help="contamination share (default 0.1)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", required=True)
    simulate.set_defaults(func=cmd_simulate)

    run = subs.add_parser("benchmark", help="detection rates on simulation models")
    run.add_argument("--model", required=True,
                     help="model id or comma-separated list (e.g. M0,M1)")
    run.add_argument("--method", required=True,
                     help="method or comma-separated list (e.g. FST_MAR,FST_PRJ1)")
    run.add_argument("--scope", choices=bench.SCOPES, default=bench.SCOPE_UNION)
    run.add_argument("--reps", type=int, default=50)
    run.add_argument("--n", type=int, default=100)
    run.add_argument("--k", type=int, default=50)
    run.add_argument("--alpha", type=float, default=0.1)
    run.add_argument("--directions", type=int, default=bench.DEFAULT_N_DIRECTIONS)
    run.add_argument("--baselines", default=None, metavar="FILE")
    run.add_argument("--scale", choices=SCALES, default=SCALE_NONE)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_benchmark)

    sweep = subs.add_parser("sweep", help="score a grid of vote-share thresholds")
    sweep.add_argument("--model", required=True, choices=MODEL_IDS)
    sweep.add_argument("--shares",
                       default="0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7",
                       help="comma list; each item a uniform share or s:a:m triple")
    sweep.add_argument("--scope", choices=bench.SCOPES, default=bench.SCOPE_UNION)
    sweep.add_argument("--reps", type=int, default=20)
    sweep.add_argument("--n", type=int, default=100)
    sweep.add_argument("--k", type=int, default=50)
    sweep.add_argument("--alpha", type=float, default=0.1)
    sweep.add_argument("--directions", type=int, default=bench.DEFAULT_N_DIRECTIONS)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    base = subs.add_parser("baselines", help="estimate false-vote baseline rates")
    base.add_argument("--reps", type=int, default=50)
    base.add_argument("--n", type=int, default=100)
    base.add_argument("--k", type=int, default=50)
    base.add_argument("--directions", type=int, default=bench.DEFAULT_N_DIRECTIONS)
    base.add_argument("--seed", type=int, default=0)
    base.add_argument("--out", required=True)
    base.set_defaults(func=cmd_baselines)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FmuodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_DEGENERATE)


if __name__ == "__main__":
    sys.exit(main())
