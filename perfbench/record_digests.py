"""Record the output digests the benchmark checks its runs against.

    python3 perfbench/record_digests.py --seeds 0-19

Runs every workload's set-up and one operation per label for each seed, at
the benchmark's full sizes, and writes ``digests.json``.  Run it only on a
commit whose outputs are known good: a later commit must reproduce these
digests byte for byte.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import worker


def _seed_range(raw: str) -> range:
    low, _, high = raw.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-19"),
                        help="inclusive seed range, e.g. 0-19")
    args = parser.parse_args(argv)
    os.chdir(run.ROOT)
    digests = {}
    for name, cls in worker.workloads.WORKLOADS.items():
        workload = cls()
        for seed in args.seeds:
            inputs = run.run_dir_for(name, seed) / run.INPUTS
            inputs.mkdir(parents=True, exist_ok=True)
            try:
                state = workload.setup(seed, inputs)
                per_label = {}
                for i in range(len(workload.labels)):
                    label, output = workload.run(state, i)
                    per_label[label] = workload.digest(output)
            finally:
                shutil.rmtree(inputs, ignore_errors=True)
            digests.setdefault(name, {})[str(seed)] = per_label
            print(f"{name} seed {seed}: {per_label}", file=sys.stderr)
    worker.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
