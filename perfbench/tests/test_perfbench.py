"""Tests of the benchmark itself: self time, output checks, seeds, metric names.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""
import dataclasses
import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import fmuod  # noqa: E402
import fmuod.indices  # noqa: E402
import fmuod.multivariate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class StepClock:
    """A clock that reads 0, 1, 2, ... on successive calls."""

    def __init__(self):
        self.now = -1.0
        self.lock = threading.Lock()

    def __call__(self):
        with self.lock:
            self.now += 1.0
            return self.now


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_only_same_thread_children():
    spans = [
        Span(1, "op", 0.0, 10.0, None, 0, 1),
        Span(2, "a", 1.0, 4.0, 1, 0, 1),
        Span(3, "a.child", 2.0, 3.0, 2, 0, 1),
        Span(4, "b", 3.0, 6.0, 1, 0, 1),  # overlaps "a": the union counts once
        Span(5, "rep", 0.0, 9.0, 1, 0, 2),  # worker thread: not subtracted from "op"
        Span(6, "rep.child", 5.0, 8.0, 5, 0, 2),
    ]
    assert self_times(spans) == {1: 5.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 6.0, 6: 3.0}


def test_tracer_links_a_worker_thread_span_to_its_caller():
    tracer = Tracer(clock=StepClock())
    outer = tracer.open()  # t=0

    def work():
        rep = tracer.open(outer[0])  # t=1
        inner = tracer.open()  # t=2
        tracer.close("inner", inner)  # t=3
        tracer.close("rep", rep)  # t=4

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.close("outer", outer)  # t=5
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["rep"].parent == by_name["outer"].sid
    assert by_name["inner"].parent == by_name["rep"].sid
    assert by_name["rep"].tid != by_name["outer"].tid
    selfs = self_times(tracer.spans)
    assert selfs[by_name["outer"].sid] == 5.0
    assert selfs[by_name["rep"].sid] == 2.0
    assert selfs[by_name["inner"].sid] == 1.0


def test_instrumented_benchmark_nests_pool_threads_and_restores_functions(monkeypatch):
    monkeypatch.setenv("FMUOD_THREADS", "2")
    original = fmuod.indices.compute_index_table
    tracer = tracing.instrument(Tracer())
    tracer.install()
    try:
        assert fmuod.multivariate.compute_index_table is not original
        assert fmuod.compute_index_table is fmuod.indices.compute_index_table
        tracer.op = 0
        fmuod.benchmark.run_benchmark("M1", fmuod.MethodConfig("FST_PRJ1", n_directions=5),
                                      reps=2, n=20, k=10, seed=1)
    finally:
        tracer.uninstall()
    assert fmuod.indices.compute_index_table is original
    assert fmuod.multivariate.compute_index_table is original

    spans = {s.sid: s for s in tracer.spans}
    pool = [s for s in spans.values() if s.name == "benchmark.pool"]
    reps = [s for s in spans.values() if s.name == "benchmark.rep"]
    assert len(pool) == 1 and len(reps) == 2
    assert all(r.parent == pool[0].sid and r.tid != pool[0].tid for r in reps)
    for s in spans.values():
        if s.name == "simulation.generate":
            assert spans[s.parent].name == "benchmark.rep"

    metrics = tracing.layer_metrics(tracer, {0: 1.0}, [1.0])
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert metrics["benchmark.pool.workers"] == 2.0
    assert metrics["multivariate.project.calls"] == 10.0
    assert metrics["multivariate.projections_per_direction"] == 1.0
    assert metrics["simulation.generate.calls"] == 2.0


# ---------------------------------------------------------------------------
# output checks


class TamperedStudy(workloads.SimStudy):
    """Alters the false positive rates of operation 1."""

    labels = ("M1",)

    def run(self, state, i):
        label, results = super().run(state, i)
        if i == 1:
            results[0] = dataclasses.replace(results[0], fpr=results[0].fpr + 1.0)
        return label, results


def test_a_tampered_output_counts_as_a_failed_operation():
    workload = TamperedStudy(n=20, k=10, reps=2)
    state = workload.setup(3, None)
    records = worker.run_loop(workload, state, seconds=0.5, expected={})
    assert len(records) >= 2
    assert [r["op"] for r in records if not r["ok"]] == [1]


def test_the_warm_up_is_checked_but_not_timed():
    workload = workloads.SimStudy(n=20, k=10, reps=2)
    state = workload.setup(3, None)
    records = worker.run_loop(workload, state, seconds=0.0, expected={})
    assert [r["warmup"] for r in records] == [True, False]
    assert all(r["ok"] for r in records)

    def rec(seconds, ok=True, warmup=False):
        return {"seconds": seconds, "ok": ok, "warmup": warmup}

    result = {
        "records": [rec(100.0, warmup=True), rec(1.0), rec(2.0), rec(3.0, ok=False), rec(4.0)],
        "curves_per_op": 10,
        "peak_rss_mb": 1.0,
        "setup_s": 0.5,
    }
    metrics = run.end_to_end(result, [0.4, 0.6])
    assert metrics["op_p50_s"] == 2.5
    assert metrics["curves_per_s"] == 10 * 0.75 / 2.5
    assert metrics["setup_s"] == 0.5


def test_a_recorded_digest_that_differs_fails_every_operation():
    workload = workloads.SimStudy(n=20, k=10, reps=2)
    state = workload.setup(3, None)
    expected = {label: "0" * 64 for label in workload.labels}
    records = worker.run_loop(workload, state, seconds=0.0, expected=expected)
    assert records and not any(r["ok"] for r in records)


def test_digests_cover_every_workload_label_for_the_shipped_seeds():
    digests = json.loads(worker.DIGESTS.read_text())
    for name, cls in workloads.WORKLOADS.items():
        for seed in range(20):
            assert set(digests[name][str(seed)]) == set(cls.labels)


# ---------------------------------------------------------------------------
# seeds


def _op_digest(workload, seed, workdir):
    state = workload.setup(seed, workdir)
    return workload.digest(workload.run(state, 0)[1])


def test_the_seed_changes_the_inputs(tmp_path):
    workload = workloads.SimStudy(n=20, k=10, reps=2)
    assert _op_digest(workload, 1, tmp_path) == _op_digest(workload, 1, tmp_path)
    assert _op_digest(workload, 1, tmp_path) != _op_digest(workload, 2, tmp_path)


def test_the_seed_changes_the_csv_input(tmp_path):
    workload = workloads.CliCsv(n=20, k=10)
    csvs = {}
    for run_id, seed in (("a", 1), ("b", 1), ("c", 2)):
        data_csv, _, _ = workload.setup(seed, tmp_path / run_id)
        csvs[run_id] = data_csv.read_bytes()
    assert csvs["a"] == csvs["b"]
    assert csvs["a"] != csvs["c"]


# ---------------------------------------------------------------------------
# metric names and the benchmark definition


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "sim_study", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
