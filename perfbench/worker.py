"""One benchmark run in a fresh process: set up, run the closed loop, report.

``run.py`` starts this script once per run (and once more per extra set-up
round), so each workload's peak resident memory is its own.  The result is
written as JSON to ``--out``; standard output is left to the program.

The set-up time counts the import of fmuod (with numpy) and building the
workload's inputs from the seed.
"""
import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED

#: Output digests recorded from the package for the seeds the benchmark ships:
#: ``{workload: {seed: {label: sha256}}}``.
DIGESTS = HERE / "digests.json"


def expected_digests(workload: str, seed: int) -> dict[str, str]:
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed), {})


def run_loop(workload, state, seconds: float, expected: dict, tracer=None) -> list[dict]:
    """Closed loop with one caller: each operation starts when the last ends.

    Operation 0 is a warm-up: it is checked like the others but marked
    ``warmup`` and left out of the timings, and the clock for ``seconds``
    starts after it.  Timed operations run until ``seconds`` have passed.
    An operation fails when it raises or when its output digest differs from
    ``expected[label]``; for a label with no recorded digest, from the digest
    of the run's first operation with that label.  With a tracer, odd
    operations are traced and even ones run the original functions, which
    gives the tracing overhead; at least two timed operations run then.
    """
    records = []
    first = {}
    started = None
    i = 0
    while True:
        warmup = i == 0
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        error = None
        op_start = time.perf_counter()
        try:
            label, output = workload.run(state, i)
        except Exception as exc:  # a failing operation is counted, not fatal
            label, output = None, None
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        wall = time.perf_counter() - op_start
        if traced:
            tracer.uninstall()
        if error is None:
            digest = workload.digest(output)
            want = expected.get(label) or first.setdefault(label, digest)
            if digest != want:
                error = f"output digest {digest[:12]} != {want[:12]} for {label}"
                print(f"operation {i}: {error}", file=sys.stderr)
        records.append(
            {"op": i, "label": label, "seconds": wall, "warmup": warmup, "traced": traced,
             "ok": error is None, "error": error}
        )
        i += 1
        if warmup:
            started = time.perf_counter()
        elif time.perf_counter() - started >= seconds and (tracer is None or i >= 3):
            return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", required=True, help="directory for the workload's files")
    parser.add_argument("--spans", help="span file written by a traced run")
    parser.add_argument("--out", required=True, help="result JSON")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    fmuod_file = Path(workloads.fmuod.__file__).resolve()
    if SRC.resolve() not in fmuod_file.parents:
        print(f"error: fmuod was imported from {fmuod_file}, not from {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    workdir = Path(args.inputs)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.instrument(tracing.Tracer())
        tracer.install()
    started = time.perf_counter()
    state = workload.setup(args.seed, workdir)
    generate_s = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    result = {"import_s": IMPORT_S, "generate_s": generate_s, "setup_s": IMPORT_S + generate_s}

    if not args.setup_only:
        records = run_loop(
            workload, state, args.seconds, expected_digests(args.workload, args.seed), tracer
        )
        result.update(
            records=records,
            curves_per_op=workload.curves_per_op,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            numpy=np.__version__,
        )
        if tracer is not None:
            traced = {r["op"]: r["seconds"] for r in records if r["traced"]}
            untraced = [r["seconds"] for r in records if not (r["traced"] or r["warmup"])]
            result["per_layer"] = tracing.layer_metrics(tracer, traced, untraced)
            tracer.write_spans(args.spans)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
