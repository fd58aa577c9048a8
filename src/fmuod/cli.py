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
from .indices import LOCATION_MEDIAN, LOCATIONS, TYPE_ORDER, VARIANT_STANDARD, VARIANTS
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


#: Paper-scale simulation defaults: ``n``, ``k``, ``contamination`` and ``seed``.
_SPEC = SimulationSpec()

#: Every option, declared once: flag -> ``add_argument`` keywords.  A
#: subcommand takes the flags it names.  ``--reps`` has no shared default:
#: each subcommand sets its own.
_OPTIONS = {
    "--input": dict(required=True),
    "--layout": dict(required=True, choices=fio.LAYOUTS),
    "--delimiter": dict(default=fio.DELIMITER),
    "--model": dict(required=True, choices=MODEL_IDS),
    "--method": dict(required=True, choices=bench.METHODS),
    "--shares": dict(default="0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7",
                     help="comma list; each item a uniform share or s:a:m triple"),
    "--scope": dict(choices=bench.SCOPES, default=bench.SCOPE_UNION),
    "--reps": dict(type=int),
    "--n": dict(type=int, default=_SPEC.n),
    "--k": dict(type=int, default=_SPEC.k),
    "--alpha": dict(type=float, default=_SPEC.contamination,
                    help="contamination share (default %(default)s)"),
    "--directions": dict(type=int, default=bench.DEFAULT_N_DIRECTIONS,
                         help="number of projection directions (default %(default)s)"),
    "--tau-shape": dict(type=float),
    "--tau-amplitude": dict(type=float),
    "--tau-magnitude": dict(type=float),
    "--baselines": dict(metavar="FILE",
                        help="JSON baseline rates for FST_PRJ (default: bundled values)"),
    "--scale": dict(choices=SCALES, default=SCALE_NONE,
                    help="component rescaling before stringing (default %(default)s)"),
    "--variant": dict(choices=VARIANTS, default=VARIANT_STANDARD),
    "--location": dict(choices=LOCATIONS, default=LOCATION_MEDIAN,
                       help="pointwise reference location (default %(default)s)"),
    "--seed": dict(type=int, default=_SPEC.seed),
    "--emit-indices": dict(action="store_true",
                           help="also write the index tables the flags were read from "
                                "to indices.csv"),
    "--out": dict(required=True),
}

#: ``benchmark`` takes comma lists where the other subcommands take one choice.
_LIST_OPTIONS = {
    **_OPTIONS,
    "--model": dict(required=True, help="model id or comma-separated list (e.g. M0,M1)"),
    "--method": dict(required=True,
                     help="method or comma-separated list (e.g. FST_MAR,FST_PRJ1)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fmuod",
        description="Shape, amplitude and magnitude outlier detection for functional data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, flags, options=_OPTIONS, **defaults):
        sub = subs.add_parser(name, help=summary)
        for flag in flags:
            sub.add_argument(flag, **options[flag])
        sub.set_defaults(func=func, **defaults)

    command("detect", cmd_detect, "flag outliers in a CSV dataset",
            ("--input", "--layout", "--delimiter", "--method", "--directions", "--tau-shape",
             "--tau-amplitude", "--tau-magnitude", "--baselines", "--scale", "--variant",
             "--location", "--seed", "--emit-indices", "--out"))
    command("simulate", cmd_simulate, "draw a labelled synthetic dataset",
            ("--model", "--n", "--k", "--alpha", "--seed", "--out"))
    command("benchmark", cmd_benchmark, "detection rates on simulation models",
            ("--model", "--method", "--scope", "--reps", "--n", "--k", "--alpha",
             "--directions", "--baselines", "--scale", "--seed", "--out"),
            _LIST_OPTIONS, reps=50)
    command("sweep", cmd_sweep, "score a grid of vote-share thresholds",
            ("--model", "--shares", "--scope", "--reps", "--n", "--k", "--alpha",
             "--directions", "--seed", "--out"), reps=20)
    command("baselines", cmd_baselines, "estimate false-vote baseline rates",
            ("--reps", "--n", "--k", "--directions", "--seed", "--out"), reps=50)
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
