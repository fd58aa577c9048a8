"""The benchmark's workloads: inputs built from a seed, one operation, its digest.

Every call into fmuod goes through a module attribute looked up at call time
(``fmuod.benchmark.run_method``, never a name imported once), so a traced run
sees the wrappers the tracer installs.

* ``sim_study``: ``run_benchmark`` at the paper's scale (n=100, k=50,
  alpha=0.1, 60 directions) for all five methods on one model per operation,
  cycling M1, M2_2 and M4.  Many small calls and the repetition thread pool
  as users get it (``FMUOD_THREADS`` untouched).
* ``cli_csv``: ``fmuod detect --emit-indices`` on a 3.3 MB long CSV (M3,
  n=500, k=100) written by ``fmuod simulate`` during set-up.  CSV parsing,
  report writing and the second projection pass of ``--emit-indices``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
from pathlib import Path

import fmuod
import fmuod.benchmark
import fmuod.cli

CONTAMINATION = 0.1
PROJECTION_METHOD = "FST_PRJ"


def _hash_arrays(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


class SimStudy:
    name = "sim_study"
    labels = ("M1", "M2_2", "M4")

    def __init__(self, n: int = 100, k: int = 50, reps: int = 4):
        self.n, self.k, self.reps = n, k, reps
        self.curves_per_op = len(fmuod.benchmark.METHODS) * reps * n

    def setup(self, seed: int, workdir: Path):
        configs = [fmuod.benchmark.MethodConfig(m) for m in fmuod.benchmark.METHODS]
        return configs, seed

    def run(self, state, i: int):
        configs, seed = state
        model = self.labels[i % len(self.labels)]
        results = [
            fmuod.benchmark.run_benchmark(
                model, config, self.reps, self.n, self.k, CONTAMINATION, seed
            )
            for config in configs
        ]
        return model, results

    def digest(self, results) -> str:
        digest = hashlib.sha256()
        for res in results:
            digest.update(res.method.encode())
            digest.update(_hash_arrays(res.tpr, res.fpr).encode())
        return digest.hexdigest()


class CliCsv:
    name = "cli_csv"
    labels = (PROJECTION_METHOD,)
    outputs = ("report.json", "flags.csv", "indices.csv")

    def __init__(self, n: int = 500, k: int = 100):
        self.n, self.k = n, k
        self.curves_per_op = n

    def setup(self, seed: int, workdir: Path):
        # Paths are relative to the checkout root (the working directory),
        # because report.json echoes the input path and is hashed.
        rel = Path(os.path.relpath(workdir))
        _cli(["simulate", "--model", "M3", "--n", str(self.n), "--k", str(self.k),
              "--alpha", str(CONTAMINATION), "--seed", str(seed), "--out", str(rel)])
        return rel / "data.csv", rel / "out", seed

    def run(self, state, i: int):
        data_csv, out, seed = state
        _cli(["detect", "--input", str(data_csv), "--layout", "long_multivariate",
              "--method", PROJECTION_METHOD, "--emit-indices", "--seed", str(seed),
              "--out", str(out)])
        return PROJECTION_METHOD, out

    def digest(self, out: Path) -> str:
        digest = hashlib.sha256()
        for name in self.outputs:
            digest.update((out / name).read_bytes())
        return digest.hexdigest()


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = fmuod.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fmuod {argv[0]} exited with code {code}")


WORKLOADS = {w.name: w for w in (SimStudy, CliCsv)}
