"""Detection-rate benchmarks on the simulation models.

A benchmark repeats ``generate -> detect -> score`` with per-repetition seeds
derived from a master seed, then aggregates true- and false-positive rates
(percentages) across repetitions.  Repetitions run one after another.

The projection methods differ only in the thresholds they read off one vote
matrix, so the votes of each repetition are collected once
(:func:`_rep_votes`) and shared by the projection methods, the threshold
sweep and the baseline estimate that ask for the same simulation.
"""
from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .datasets import MultivariateFunctionalDataset
from .errors import InvalidConfig
from .indices import LOCATION_MEDIAN, LOCATIONS, VARIANT_STANDARD, VARIANTS
from .multivariate import (
    ANY_VOTE_THRESHOLDS,
    DEFAULT_VOTE_SHARES,
    REFERENCE_BASELINES,
    SCALE_NONE,
    SCALES,
    TYPE_ORDER,
    Baselines,
    OutlierReport,
    ThresholdTriple,
    VoteMatrix,
    _check_count,
    collect_votes,
    detect_marginal,
    detect_projection,
    detect_stringed,
    generate_directions,
    select_thresholds,
)
from .seeding import child_seed
from .simulation import SimulationSpec, generate

METHOD_MARGINAL = "FST_MAR"
METHOD_STRINGING = "FST_STR"
METHOD_PROJECTION_ADAPTIVE = "FST_PRJ"
METHOD_PROJECTION_FIXED = "FST_PRJ1"
METHOD_PROJECTION_ANY = "FST_PRJ2"
METHODS = (
    METHOD_MARGINAL,
    METHOD_STRINGING,
    METHOD_PROJECTION_ADAPTIVE,
    METHOD_PROJECTION_FIXED,
    METHOD_PROJECTION_ANY,
)

SCOPE_UNION = "union"
SCOPE_SHAPE = "shape_only"
SCOPE_AMPLITUDE = "amplitude_only"
SCOPE_MAGNITUDE = "magnitude_only"
SCOPES = (SCOPE_UNION, SCOPE_SHAPE, SCOPE_AMPLITUDE, SCOPE_MAGNITUDE)

#: Default number of projection directions.
DEFAULT_N_DIRECTIONS = 60


@dataclass(frozen=True)
class MethodConfig:
    """A detection method plus everything needed to run it."""

    method: str
    report_scope: str = SCOPE_UNION
    n_directions: int = DEFAULT_N_DIRECTIONS
    vote_shares: ThresholdTriple = DEFAULT_VOTE_SHARES
    baselines: Baselines = REFERENCE_BASELINES
    scale: str = SCALE_NONE
    variant: str = VARIANT_STANDARD
    location: str = LOCATION_MEDIAN

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidConfig(f"unknown method {self.method!r}; use one of {METHODS}")
        if self.report_scope not in SCOPES:
            raise InvalidConfig(f"unknown scope {self.report_scope!r}; use one of {SCOPES}")
        _check_count("n_directions", self.n_directions, "n_directions must be at least 1")
        if self.scale not in SCALES:
            raise InvalidConfig(f"unknown scale {self.scale!r}; use one of {SCALES}")
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"unknown variant {self.variant!r}; use one of {VARIANTS}")
        if self.location not in LOCATIONS:
            raise InvalidConfig(f"unknown location {self.location!r}; use one of {LOCATIONS}")


def run_method(
    data: MultivariateFunctionalDataset, config: MethodConfig, seed: int
) -> OutlierReport:
    """Run one configured method on one dataset.

    ``seed`` feeds direction generation for the projection methods and is
    ignored by the marginal and stringing methods.
    """
    if config.method == METHOD_MARGINAL:
        return detect_marginal(data, config.variant, config.location)
    if config.method == METHOD_STRINGING:
        return detect_stringed(data, config.scale, config.variant, config.location)
    directions = generate_directions(config.n_directions, data.n_dims, seed)
    return detect_projection(
        data,
        directions,
        _threshold_selector(config),
        config.variant,
        config.location,
        method=config.method,
    )


def _threshold_selector(config: MethodConfig) -> Callable[[VoteMatrix], ThresholdTriple]:
    """How a projection method reads its thresholds off a vote matrix."""
    if config.method == METHOD_PROJECTION_ADAPTIVE:
        return functools.partial(select_thresholds, baselines=config.baselines)
    fixed = ANY_VOTE_THRESHOLDS if config.method == METHOD_PROJECTION_ANY else config.vote_shares
    return lambda votes: fixed


def scoped_flags(report: OutlierReport, scope: str) -> frozenset[int]:
    """The flag set a benchmark scores under the given reporting scope."""
    if scope == SCOPE_UNION:
        return report.flags.union
    if scope == SCOPE_SHAPE:
        return report.flags.shape_outliers
    if scope == SCOPE_AMPLITUDE:
        return report.flags.amplitude_outliers
    if scope == SCOPE_MAGNITUDE:
        return report.flags.magnitude_outliers
    raise InvalidConfig(f"unknown scope {scope!r}; use one of {SCOPES}")


def score_flags(
    flagged: frozenset[int], truth: tuple[int, ...], n: int
) -> tuple[float, float]:
    """True- and false-positive rates in percent; TPR is NaN without truth."""
    truth_set = frozenset(truth)
    if not truth_set.issubset(range(n)):
        raise InvalidConfig("truth indices out of range")
    n_true = len(truth_set)
    false_pos = len(flagged - truth_set)
    tpr = 100.0 * len(flagged & truth_set) / n_true if n_true else float("nan")
    fpr = 100.0 * false_pos / (n - n_true) if n > n_true else float("nan")
    return tpr, fpr


def f1_score(flagged: frozenset[int], truth: frozenset[int]) -> float:
    """Harmonic mean of precision and recall; zero when both are zero."""
    tp = len(flagged & truth)
    precision = tp / len(flagged) if flagged else 0.0
    recall = tp / len(truth) if truth else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class BenchmarkResult:
    """Per-repetition detection rates of one model/method pair."""

    model: str
    method: str
    report_scope: str
    n: int
    k: int
    contamination: float
    seed: int
    tpr: np.ndarray | None
    fpr: np.ndarray
    runtime_seconds: float = 0.0

    @property
    def reps(self) -> int:
        return self.fpr.size

    @property
    def tpr_mean(self) -> float:
        return float("nan") if self.tpr is None else float(self.tpr.mean())

    @property
    def tpr_sd(self) -> float:
        return float("nan") if self.tpr is None else _sd(self.tpr)

    @property
    def fpr_mean(self) -> float:
        return float(self.fpr.mean())

    @property
    def fpr_sd(self) -> float:
        return _sd(self.fpr)


def _sd(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) if values.size > 1 else 0.0


def _rep_seeds(master_seed: int, rep: int) -> tuple[int, int]:
    return child_seed(master_seed, rep, 0), child_seed(master_seed, rep, 1)


@dataclass(frozen=True)
class _RepVotes:
    """Truth indices and projection votes of each repetition of one simulation.

    ``seconds`` is the time it took to build them.
    """

    truths: tuple[tuple[int, ...], ...]
    votes: tuple[VoteMatrix, ...]
    seconds: float


@functools.lru_cache(maxsize=1)
def _rep_votes(
    model: str,
    n: int,
    k: int,
    contamination: float,
    seed: int,
    reps: int,
    n_directions: int,
    variant: str,
    location: str,
) -> _RepVotes:
    """Generate, draw directions and collect the votes of every repetition.

    Repetition ``r`` generates with seed ``(seed, r, 0)`` and draws its
    directions with seed ``(seed, r, 1)``.  The vote matrices keep no index
    tables.  One entry is cached: ``fmuod benchmark`` runs every method of a
    model before the next model, so its projection methods share the entry,
    and a larger cache would only pay off for callers that repeat a seed.
    """
    started = time.monotonic()
    truths = []
    votes = []
    for r in range(reps):
        data_seed, method_seed = _rep_seeds(seed, r)
        labeled = generate(SimulationSpec(model, n, k, contamination, data_seed))
        directions = generate_directions(n_directions, labeled.data.n_dims, method_seed)
        collected = collect_votes(labeled.data, directions, variant, location)
        truths.append(labeled.outlier_indices)
        votes.append(VoteMatrix(collected.votes, collected.degenerate_projections))
    return _RepVotes(tuple(truths), tuple(votes), time.monotonic() - started)


def run_benchmark(
    model: str,
    config: MethodConfig,
    reps: int,
    n: int = 100,
    k: int = 50,
    contamination: float = 0.1,
    seed: int = 0,
) -> BenchmarkResult:
    """Repeat generate/detect/score and collect the rates.

    Repetition ``r`` generates with seed ``(seed, r, 0)`` and detects with
    direction seed ``(seed, r, 1)``, so its rates do not depend on how many
    repetitions run.  The projection methods read their flags off each
    repetition's votes, which are reused when the previous call asked for
    the same simulation, directions, variant and location;
    ``runtime_seconds`` includes the time those votes took to collect either
    way.
    """
    _check_count("reps", reps, "benchmark needs at least one repetition")
    has_truth = SimulationSpec(model, n, k, contamination, 0).n_outliers > 0

    def score(report: OutlierReport, truth: tuple[int, ...]) -> tuple[float, float]:
        return score_flags(scoped_flags(report, config.report_scope), truth, n)

    started = time.monotonic()
    if config.method in (METHOD_MARGINAL, METHOD_STRINGING):
        pairs = []
        for r in range(reps):
            data_seed, method_seed = _rep_seeds(seed, r)
            labeled = generate(SimulationSpec(model, n, k, contamination, data_seed))
            report = run_method(labeled.data, config, method_seed)
            pairs.append(score(report, labeled.outlier_indices))
    else:
        shared = _rep_votes(
            model, n, k, contamination, seed, reps,
            config.n_directions, config.variant, config.location,
        )
        # Charge every method the votes' build time, whether it built or reused them.
        started = time.monotonic() - shared.seconds
        choose = _threshold_selector(config)
        pairs = [
            score(OutlierReport(config.method, n, votes.flags_at(choose(votes))), truth)
            for truth, votes in zip(shared.truths, shared.votes)
        ]
    tpr = np.array([p[0] for p in pairs])
    fpr = np.array([p[1] for p in pairs])
    return BenchmarkResult(
        model=model,
        method=config.method,
        report_scope=config.report_scope,
        n=n,
        k=k,
        contamination=contamination,
        seed=seed,
        tpr=tpr if has_truth else None,
        fpr=fpr,
        runtime_seconds=time.monotonic() - started,
    )


@dataclass(frozen=True)
class SweepPoint:
    """Score of one vote-share triple in a threshold sweep."""

    shares: ThresholdTriple
    f1: np.ndarray | None
    fpr: np.ndarray

    @property
    def f1_mean(self) -> float:
        return float("nan") if self.f1 is None else float(self.f1.mean())

    @property
    def f1_sd(self) -> float:
        return float("nan") if self.f1 is None else _sd(self.f1)

    @property
    def fpr_mean(self) -> float:
        return float(self.fpr.mean())

    @property
    def fpr_sd(self) -> float:
        return _sd(self.fpr)


def threshold_sweep(
    model: str,
    shares_grid,
    reps: int,
    n: int = 100,
    k: int = 50,
    contamination: float = 0.1,
    seed: int = 0,
    n_directions: int = DEFAULT_N_DIRECTIONS,
    report_scope: str = SCOPE_UNION,
) -> list[SweepPoint]:
    """Score a grid of fixed vote-share triples on one model.

    Votes are collected once per repetition, by the helper that collects
    them for :func:`run_benchmark`'s projection methods (default variant and
    location), and rescored at every triple.  Models without outliers are
    scored by false-positive rate alone (``f1`` is None); otherwise each
    point carries per-repetition F1 scores.
    """
    shares_grid = list(shares_grid)
    if not shares_grid:
        raise InvalidConfig("sweep needs at least one vote-share triple")
    _check_count("reps", reps, "sweep needs at least one repetition")
    _check_count("n_directions", n_directions, "n_directions must be at least 1")
    has_truth = SimulationSpec(model, n, k, contamination, 0).n_outliers > 0
    shared = _rep_votes(
        model, n, k, contamination, seed, reps, n_directions, VARIANT_STANDARD, LOCATION_MEDIAN
    )
    f1 = np.empty((reps, len(shares_grid)))
    fpr = np.empty((reps, len(shares_grid)))
    for r, (truth, votes) in enumerate(zip(shared.truths, shared.votes)):
        truth_set = frozenset(truth)
        for s, shares in enumerate(shares_grid):
            flagged = scoped_flags(OutlierReport("sweep", n, votes.flags_at(shares)), report_scope)
            f1[r, s] = f1_score(flagged, truth_set)
            fpr[r, s] = score_flags(flagged, truth, n)[1]
    return [
        SweepPoint(shares, f1[:, s] if has_truth else None, fpr[:, s])
        for s, shares in enumerate(shares_grid)
    ]


def estimate_null_baselines(
    reps: int,
    n: int = 100,
    k: int = 50,
    n_directions: int = DEFAULT_N_DIRECTIONS,
    seed: int = 0,
) -> Baselines:
    """Average false-vote shares over repeated samples of the outlier-free model.

    Repetition ``r`` draws M0 data with seed ``(seed, r, 0)`` and directions
    with seed ``(seed, r, 1)``; the votes are collected once per repetition
    by the helper :func:`run_benchmark` uses, with contamination 0.
    """
    _check_count("reps", reps, "baseline estimation needs at least one repetition")
    _check_count("n_directions", n_directions, "n_directions must be at least 1")
    shared = _rep_votes(
        "M0", n, k, 0.0, seed, reps, n_directions, VARIANT_STANDARD, LOCATION_MEDIAN
    )
    type_sums = np.zeros(len(TYPE_ORDER))
    union_sum = 0.0
    for votes in shared.votes:
        type_sums += np.asarray(votes.type_shares())
        union_sum += votes.union_share()
    type_means = type_sums / reps
    return Baselines(
        shape=float(type_means[0]),
        amplitude=float(type_means[1]),
        magnitude=float(type_means[2]),
        union=union_sum / reps,
    )


def format_result_table(results) -> str:
    """Aligned text table of benchmark results."""
    header = ("model", "method", "scope", "reps", "tpr", "fpr", "seconds")
    rows = [header]
    for res in results:
        tpr = "-" if res.tpr is None else f"{res.tpr_mean:.1f} ({res.tpr_sd:.1f})"
        rows.append(
            (
                res.model,
                res.method,
                res.report_scope,
                str(res.reps),
                tpr,
                f"{res.fpr_mean:.1f} ({res.fpr_sd:.1f})",
                f"{res.runtime_seconds:.2f}",
            )
        )
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
