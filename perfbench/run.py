"""Run one benchmark workload on the fmuod sources of this checkout.

    python3 perfbench/run.py --workload cli_csv --seed 0 --seconds 55 --trace 0

Workloads (see ``workloads.py``): ``sim_study`` and ``cli_csv``.  Each run
starts ``worker.py`` in a fresh process, which sets up the inputs from the
seed and runs operations in a closed loop for ``--seconds``.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` the per-layer metrics of a traced run (see ``tracing.py``).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it give the
same figures for people, the error rate, and the environment stamp.

Set-up time is the median of five set-ups, each in its own process: four
set-up-only rounds, then the measured run's own.  The first operation of a
run is a checked warm-up; the timings leave it out.  Scratch files live under
``.perfbench_work/`` in the checkout; inputs are removed after the run, the
result and any span file are kept.

Exit codes: 0 a result was printed, 1 a run failed or timed out, 2 the
checkout holds no fmuod sources or the arguments are invalid.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("sim_study", "cli_csv")
SETUP_ROUNDS = 5
#: Subdirectory of a run directory for the workload's own files.
INPUTS = "inputs"
#: Every run must finish within this many seconds, children included.
DEADLINE_S = 170.0
THREAD_VARS = (
    "FMUOD_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("curves_per_s", "curves/s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class RunFailed(Exception):
    pass


def run_dir_for(workload: str, seed: int) -> Path:
    """Per-run directory in the checkout.  It is fixed per workload and seed
    because ``cli_csv`` output echoes its input path and is hashed."""
    return ROOT / ".perfbench_work" / workload / f"seed-{seed}"


def _worker(args, run_dir: Path, deadline: float, setup_only: bool = False) -> dict:
    out = run_dir / ("setup.json" if setup_only else "result.json")
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--inputs", str(run_dir / INPUTS), "--spans", str(run_dir / "spans.csv"),
        "--out", str(out),
    ] + (["--setup-only"] if setup_only else [])
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("no time left for the run")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker did not finish within {DEADLINE_S:g} s")
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    return json.loads(out.read_text())


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit() -> str | None:
    # A checkout without its own .git must not report an enclosing repository.
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fmuod").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, numpy_version: str | None) -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    """Timings come from the timed operations; a failed one counts no curves."""
    timed = [r for r in result["records"] if not r["warmup"]]
    p50 = statistics.median(r["seconds"] for r in timed)
    ok_share = sum(r["ok"] for r in timed) / len(timed)
    return {
        "curves_per_s": result["curves_per_op"] * ok_share / p50,
        "op_p50_s": p50,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups + [result["setup_s"]]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "fmuod" / "__init__.py").is_file():
        print(f"error: no fmuod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run_dir = run_dir_for(args.workload, args.seed)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_ROUNDS - 1):
                setups.append(_worker(args, run_dir, deadline, setup_only=True)["setup_s"])
        result = _worker(args, run_dir, deadline)
    except RunFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir / INPUTS, ignore_errors=True)

    records = result["records"]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    if args.trace:
        values = result["per_layer"]
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        values = end_to_end(result, setups)
        units = dict(END_TO_END)
    env = environment(args, result["numpy"])
    (run_dir / "summary.json").write_text(
        json.dumps({"env": env, "records": records, "metrics": values}, indent=1) + "\n"
    )

    walls = [r["seconds"] for r in records if not r["warmup"]]
    print(f"{args.workload}: seed {args.seed}, {attempted} operations with 1 warm-up "
          f"({result['curves_per_op']} curves each), {len(setups) + 1} set-ups, "
          f"op wall min {min(walls):.4f} s, max {max(walls):.4f} s")
    for name, value in values.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':42s} {failed / attempted:14.6g} ({failed} of {attempted} failed)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
