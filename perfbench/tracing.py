"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each fmuod module from outside the
package: every module namespace that binds a function (``fmuod.indices``,
``fmuod.multivariate`` after ``from .indices import ...``, the package
``__init__``) gets the same wrapper, so a call is traced whichever name it
goes through.  Wrappers are built once and swapped in and out with
:meth:`Tracer.install` / :meth:`Tracer.uninstall`, so untraced operations run
the original functions.

Each call becomes a :class:`Span` kept in memory.  A span's parent is the
innermost open span of the same thread; the pool wrapper links each
repetition run on a worker thread to the pool span on the calling thread.
Self time only subtracts children that ran on the span's own thread, so a
pool span that waits on its workers keeps the wait as its self time.

``FunctionalDataset`` and ``MultivariateFunctionalDataset`` construction is
counted (calls, bytes copied, validation time) but is not a span: it runs
inside nearly every layer, and its time stays in the calling layer's self
time so that the layer split matches a plain stage timing.
"""
from __future__ import annotations

import csv
import functools
import importlib
import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

#: The fmuod modules treated as layers.  ``seeding`` and ``errors`` do no
#: measurable work and are left out.
LAYERS = ("io", "simulation", "datasets", "multivariate", "indices", "cutoffs", "benchmark", "cli")

#: Public functions called once per value written, where a span would cost
#: more than the call it measures.
UNTRACED = frozenset({"io.format_float"})

#: Operation id of the set-up phase; timed operations are numbered from 0.
SETUP_OP = "setup"

#: Writers whose self time and output bytes make up ``io.write.*``.
WRITERS = ("write_report_json", "write_flags_csv", "write_index_tables_csv")

#: Spans whose self time should cover nearly all of a large projection detect.
KERNELS = (
    "multivariate.project",
    "indices.reference_from_sample",
    "indices.compute_index_table",
    "cutoffs.boxplot_cutoff",
)

#: Per-layer metrics reported by a traced run: (name, unit, better).
PER_LAYER = (
    ("io.read_long_csv.self_s", "s", "lower"),
    ("io.read_long_csv.mb_per_s", "MB/s", "higher"),
    ("io.write.self_s", "s", "lower"),
    ("io.write.bytes", "bytes", "lower"),
    ("io.write_long_csv.self_s", "s", "lower"),
    ("simulation.generate.self_s", "s", "lower"),
    ("simulation.generate.calls", "count", "lower"),
    ("datasets.constructions", "count", "lower"),
    ("datasets.bytes_copied", "bytes", "lower"),
    ("datasets.validate.self_s", "s", "lower"),
    ("multivariate.project.self_s", "s", "lower"),
    ("multivariate.project.calls", "count", "lower"),
    ("multivariate.project.bytes", "bytes", "lower"),
    ("multivariate.collect_votes.self_s", "s", "lower"),
    ("multivariate.generate_directions.self_s", "s", "lower"),
    ("multivariate.projections_per_direction", "ratio", "lower"),
    ("multivariate.useful_projection_share", "share", "higher"),
    ("indices.reference_from_sample.self_s", "s", "lower"),
    ("indices.reference_from_sample.calls", "count", "lower"),
    ("indices.reference_from_sample.bytes", "bytes", "lower"),
    ("indices.compute_index_table.self_s", "s", "lower"),
    ("cutoffs.boxplot_cutoff.self_s", "s", "lower"),
    ("cutoffs.boxplot_cutoff.calls", "count", "lower"),
    ("cutoffs.classify_outliers.self_s", "s", "lower"),
    ("benchmark.pool.workers", "count", "lower"),
    ("benchmark.pool.busy_share", "share", "higher"),
    ("benchmark.rep_s.p50", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.kernel_share", "share", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: object
    tid: int


def self_times(spans) -> dict[int, float]:
    """Span duration minus the union of its same-thread children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(
            (c.start, c.end) for c in children.get(span.sid, ()) if c.tid == span.tid
        ):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.sid] = (span.end - span.start) - covered
    return result


class Tracer:
    """Spans and counters of one traced run, attributed to operation ids."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[tuple[object, str], float] = defaultdict(float)
        self.op: object = SETUP_OP
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, parent: int | None = None):
        """Start a span; the parent defaults to this thread's innermost span."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        return sid, parent, self.op, self.clock()

    def close(self, name: str, handle) -> float:
        end = self.clock()
        sid, parent, op, start = handle
        self._stack().pop()
        self.spans.append(Span(sid, name, start, end, parent, op, threading.get_ident()))
        return end - start

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[(self.op, name)] += value

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as a span; ``count(args, kwargs, result)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            handle = self.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(name, handle)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.add(key, value)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), replacement))

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sid", "name", "start", "end", "parent", "op", "tid", "self_s"])
            for s in self.spans:
                writer.writerow(
                    [s.sid, s.name, repr(s.start), repr(s.end), s.parent, s.op, s.tid,
                     repr(selfs[s.sid])]
                )


# ---------------------------------------------------------------------------
# instrumenting fmuod


def _path_arg(args, kwargs, index):
    return args[index] if len(args) > index else kwargs["path"]


def _file_bytes(index: int, key: str):
    def count(args, kwargs, result):
        return {key: os.path.getsize(_path_arg(args, kwargs, index))}

    return count


def _projection_counts(args, kwargs, report):
    n_directions = report.config.get("n_directions")
    if not n_directions:
        return {}
    return {
        "multivariate.directions": n_directions,
        "multivariate.degenerate": report.degenerate_projections,
    }


#: Counters recorded when a traced call returns, keyed by span name.
COUNTERS = {
    "io.read_long_csv": _file_bytes(0, "io.read_long_csv.bytes"),
    **{f"io.{name}": _file_bytes(1, "io.write.bytes") for name in WRITERS},
    "multivariate.project": lambda a, k, r: {"multivariate.project.bytes": r.values.nbytes},
    "indices.reference_from_sample": lambda a, k, r: {
        "indices.reference_from_sample.bytes": (a[0] if a else k["data"]).values.nbytes
    },
    "benchmark.run_method": _projection_counts,
}


def _traced_pool(tracer: Tracer, original, worker_count):
    """``benchmark._map_reps`` with a span per call and per repetition."""

    @functools.wraps(original)
    def traced(fn, reps):
        workers = min(worker_count(), reps)
        pool = tracer.open()

        def rep(r):
            handle = tracer.open(pool[0])
            try:
                return fn(r)
            finally:
                tracer.close("benchmark.rep", handle)

        try:
            return original(rep, reps)
        finally:
            wall = tracer.close("benchmark.pool", pool)
            tracer.add("benchmark.pool.maps", 1)
            tracer.add("benchmark.pool.workers", workers)
            tracer.add("benchmark.pool.capacity_s", workers * wall)

    return traced


def _counted_post_init(tracer: Tracer, original):
    def post_init(obj):
        start = tracer.clock()
        original(obj)
        tracer.add("datasets.validate.self_s", tracer.clock() - start)
        tracer.add("datasets.constructions", 1)
        tracer.add("datasets.bytes_copied", obj.values.nbytes)

    return post_init


def instrument(tracer: Tracer, package: str = "fmuod") -> Tracer:
    """Prepare wrappers for every public function of the layer modules.

    Generator functions are skipped: their work runs when the caller
    iterates, so it is attributed to the caller and to the functions the
    generator calls.  Call :meth:`Tracer.install` to put the wrappers in place.
    """
    replacements = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for attr, fn in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or name in UNTRACED
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or inspect.isgeneratorfunction(fn)
            ):
                continue
            replacements[fn] = tracer.wrap(name, fn, COUNTERS.get(name))

    bench = sys.modules[f"{package}.benchmark"]
    pool = getattr(bench, "_map_reps", None)
    if pool is not None:
        replacements[pool] = _traced_pool(tracer, pool, bench.worker_count)

    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacements:
                tracer.patch(module, attr, replacements[value])

    datasets = sys.modules[f"{package}.datasets"]
    for cls in (datasets.FunctionalDataset, datasets.MultivariateFunctionalDataset):
        # The generated __init__ calls __post_init__ only if the class defines it.
        if "__post_init__" in vars(cls):
            tracer.patch(cls, "__post_init__", _counted_post_init(tracer, cls.__post_init__))
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, traced_walls: dict, untraced_walls: list) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of a traced run.

    Times, call counts and byte counts are what one set-up plus one average
    traced operation spent: set-up work (input generation, the CSV write)
    and per-operation work show under the same name.  Ratios are taken
    over the whole run.  ``traced_walls`` maps traced operation ids to their
    wall time; ``untraced_walls`` are the interleaved untraced operations.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    per = defaultdict(float)
    rep_walls = []
    for span in spans:
        per[(span.op, span.name + ".self_s")] += selfs[span.sid]
        per[(span.op, span.name + ".calls")] += 1
        per[(span.op, span.name + ".wall_s")] += span.end - span.start
        if span.name == "benchmark.rep" and span.op != SETUP_OP:
            rep_walls.append(span.end - span.start)
    for key, value in tracer.counters.items():
        per[key] += value
    ops = list(traced_walls)

    def total(key: str) -> float:
        return per.get((SETUP_OP, key), 0.0) + sum(per.get((op, key), 0.0) for op in ops) / len(ops)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    for name in (
        "io.read_long_csv", "io.write_long_csv", "simulation.generate", "multivariate.project",
        "multivariate.collect_votes", "multivariate.generate_directions",
        "indices.reference_from_sample", "indices.compute_index_table",
        "cutoffs.boxplot_cutoff", "cutoffs.classify_outliers", "cli.main",
    ):
        m[name + ".self_s"] = total(name + ".self_s")
    for name in (
        "simulation.generate.calls", "multivariate.project.calls", "multivariate.project.bytes",
        "indices.reference_from_sample.calls", "indices.reference_from_sample.bytes",
        "cutoffs.boxplot_cutoff.calls", "datasets.constructions", "datasets.bytes_copied",
        "datasets.validate.self_s", "io.write.bytes",
    ):
        m[name] = total(name)
    m["io.read_long_csv.mb_per_s"] = ratio(
        total("io.read_long_csv.bytes") / 1e6, m["io.read_long_csv.self_s"]
    )
    m["io.write.self_s"] = sum(total(f"io.{name}.self_s") for name in WRITERS)
    directions = total("multivariate.directions")
    m["multivariate.projections_per_direction"] = ratio(m["multivariate.project.calls"], directions)
    m["multivariate.useful_projection_share"] = (
        1.0 - total("multivariate.degenerate") / directions if directions else 0.0
    )
    m["benchmark.pool.workers"] = ratio(
        total("benchmark.pool.workers"), total("benchmark.pool.maps")
    )
    m["benchmark.pool.busy_share"] = ratio(
        total("benchmark.rep.wall_s"), total("benchmark.pool.capacity_s")
    )
    m["benchmark.rep_s.p50"] = statistics.median(rep_walls) if rep_walls else 0.0
    kernel_s = sum(per.get((op, k + ".self_s"), 0.0) for op in ops for k in KERNELS)
    m["trace.kernel_share"] = ratio(kernel_s, sum(traced_walls.values()))
    m["trace.overhead_ratio"] = ratio(
        statistics.median(traced_walls.values()),
        statistics.median(untraced_walls) if untraced_walls else 0.0,
    )
    return {name: m[name] for name, _, _ in PER_LAYER}
