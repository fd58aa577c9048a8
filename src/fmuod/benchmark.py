"""Detection-rate benchmarks on the simulation models.

A benchmark repeats ``generate -> detect -> score`` with per-repetition seeds
derived from a master seed, then aggregates true- and false-positive rates
(percentages) and F1 scores across repetitions.  Repetitions run one after
another.  A threshold sweep is FST_PRJ1's benchmark at each triple of a grid.

Every method of one model reads the same repetitions, so each simulation
has one record (:func:`_simulation`, one held at a time): it generates each
repetition once, reps x n x k x d x 8 bytes, and collects the votes of each
projection setting (directions, variant, location) once, on first request.
All five methods, every triple of the threshold sweep and the baseline
estimate that ask for the same simulation read the one record.  A method's
``runtime_seconds`` is the generation seconds, plus the vote seconds for a
projection method, plus its own scoring time, whichever call built the
shared work.
"""
from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .cutoffs import FlagSet
from .datasets import MultivariateFunctionalDataset, _array_eq, _check_choice, _check_dataset
from .datasets import _freeze
from .errors import InvalidConfig
from .indices import LOCATION_MEDIAN, LOCATIONS, TYPE_ORDER, VARIANT_STANDARD, VARIANTS
from .multivariate import (
    ANY_VOTE_THRESHOLDS,
    DEFAULT_VOTE_SHARES,
    REFERENCE_BASELINES,
    SCALE_NONE,
    SCALES,
    Baselines,
    OutlierReport,
    ThresholdTriple,
    VoteMatrix,
    _check_count,
    _check_instance,
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
SCOPE_SHAPE, SCOPE_AMPLITUDE, SCOPE_MAGNITUDE = (f"{name}_only" for name in TYPE_ORDER)
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
        _check_choice("method", self.method, METHODS)
        _check_choice("scope", self.report_scope, SCOPES)
        _check_count("n_directions", self.n_directions, "n_directions must be at least 1")
        _check_instance("vote_shares", self.vote_shares, ThresholdTriple)
        _check_instance("baselines", self.baselines, Baselines)
        _check_choice("scale", self.scale, SCALES)
        _check_choice("variant", self.variant, VARIANTS)
        _check_choice("location", self.location, LOCATIONS)


def run_method(
    data: MultivariateFunctionalDataset, config: MethodConfig, seed: int
) -> OutlierReport:
    """Run one configured method on one dataset.

    ``seed`` feeds direction generation for the projection methods and is
    ignored by the marginal and stringing methods.
    """
    _check_dataset(data, MultivariateFunctionalDataset)
    _check_instance("config", config, MethodConfig)
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


def scoped_flags(flags: FlagSet, scope: str) -> frozenset[int]:
    """The flag set a benchmark scores under the given reporting scope."""
    _check_choice("scope", scope, SCOPES)
    # The per-type scopes follow TYPE_ORDER after the union.
    return flags.union if scope == SCOPE_UNION else flags.by_type()[SCOPES.index(scope) - 1]


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


@dataclass(frozen=True, eq=False)
class BenchmarkResult:
    """Per-repetition detection rates of one model/method pair.

    ``tpr`` and ``fpr`` are percentages and ``f1`` is in [0, 1]; ``tpr`` and
    ``f1`` are None for a model without outliers.  Equality ignores
    ``runtime_seconds``, so two runs of one seeded benchmark compare equal.
    """

    model: str
    method: str
    report_scope: str
    n: int
    k: int
    contamination: float
    seed: int
    tpr: np.ndarray | None
    fpr: np.ndarray
    f1: np.ndarray | None
    runtime_seconds: float = field(default=0.0, compare=False)

    __eq__ = _array_eq

    def __post_init__(self):
        _freeze(self, "fpr", float)
        for name in ("tpr", "f1"):
            if getattr(self, name) is not None:
                _freeze(self, name, float)

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

    @property
    def f1_mean(self) -> float:
        return float("nan") if self.f1 is None else float(self.f1.mean())

    @property
    def f1_sd(self) -> float:
        return float("nan") if self.f1 is None else _sd(self.f1)


def _sd(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) if values.size > 1 else 0.0


class _Simulation:
    """The repetitions of one simulation and the votes collected on them.

    Repetition ``r`` generates with seed ``(seed, r, 0)`` and draws its
    directions with seed ``(seed, r, 1)``.  ``seconds`` is the time the
    repetitions took to generate.
    """

    def __init__(self, model: str, n: int, k: int, contamination: float, seed: int, reps: int):
        started = time.monotonic()
        self.datasets = tuple(
            generate(SimulationSpec(model, n, k, contamination, child_seed(seed, r, 0)))
            for r in range(reps)
        )
        self.seconds = time.monotonic() - started
        self._seed = seed
        self._votes = {}

    def votes(self, n_directions: int, variant: str, location: str):
        """Each repetition's votes under one projection setting, and the seconds they took.

        The votes are collected on the first request for the setting, then kept.
        """
        setting = (n_directions, variant, location)
        if setting not in self._votes:
            started = time.monotonic()
            votes = []
            for r, labeled in enumerate(self.datasets):
                seed = child_seed(self._seed, r, 1)
                directions = generate_directions(n_directions, labeled.data.n_dims, seed)
                votes.append(collect_votes(labeled.data, directions, variant, location))
            self._votes[setting] = tuple(votes), time.monotonic() - started
        return self._votes[setting]


#: The record of one simulation, keyed on the arguments of :class:`_Simulation`.
#: One is held: ``fmuod benchmark`` runs every method of a model before the
#: next model, so all five methods read one record.
_simulation = functools.lru_cache(maxsize=1)(_Simulation)


def run_benchmark(
    model: str,
    config: MethodConfig,
    reps: int,
    n: int = 100,
    k: int = 50,
    contamination: float = 0.1,
    seed: int = 0,
) -> BenchmarkResult:
    """Repeat generate/detect/score and collect the rates and F1 scores.

    Repetition ``r`` generates with seed ``(seed, r, 0)`` and detects with
    direction seed ``(seed, r, 1)``, so its rates do not depend on how many
    repetitions run.  The repetitions come from a record of the simulation
    that is reused when the previous call asked for the same simulation, so
    every method of one model reads the same data.  The projection methods
    read their flags off each repetition's votes, which the record collects
    once per number of directions, variant and location.
    ``runtime_seconds`` is the sum of the time the data took to generate,
    for a projection method the time the votes took to collect, whether
    this call built them or reused them, and this call's own scoring time.
    """
    _check_instance("config", config, MethodConfig)
    _check_count("reps", reps, "benchmark needs at least one repetition")
    has_truth = SimulationSpec(model, n, k, contamination, 0).n_outliers > 0
    simulation = _simulation(model, n, k, contamination, seed, reps)
    if config.method in (METHOD_MARGINAL, METHOD_STRINGING):
        vote_seconds = 0.0
        started = time.monotonic()
        flags = [
            run_method(labeled.data, config, child_seed(seed, r, 1)).flags
            for r, labeled in enumerate(simulation.datasets)
        ]
    else:
        votes, vote_seconds = simulation.votes(
            config.n_directions, config.variant, config.location
        )
        started = time.monotonic()
        choose = _threshold_selector(config)
        flags = [rep_votes.flags_at(choose(rep_votes)) for rep_votes in votes]
    scores = []
    for rep_flags, labeled in zip(flags, simulation.datasets):
        flagged = scoped_flags(rep_flags, config.report_scope)
        truth = labeled.outlier_indices
        scores.append((*score_flags(flagged, truth, n), f1_score(flagged, frozenset(truth))))
    tpr, fpr, f1 = np.array(scores).T
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
        f1=f1 if has_truth else None,
        runtime_seconds=simulation.seconds + vote_seconds + (time.monotonic() - started),
    )


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
) -> list[BenchmarkResult]:
    """FST_PRJ1's :func:`run_benchmark` result at each vote-share triple of a grid.

    Result ``i`` scores ``shares_grid[i]`` and carries its per-repetition
    ``tpr``, ``fpr`` and ``f1``, so triples can be compared at a matched
    false-positive rate.  Every triple reads the votes of one simulation
    record (default variant and location), so the votes are collected once
    per repetition and rescored at every triple.  Each triple's config is
    checked before any vote is collected.
    """
    shares_grid = list(shares_grid)
    if not shares_grid:
        raise InvalidConfig("sweep needs at least one vote-share triple")
    for s, shares in enumerate(shares_grid):
        _check_instance(f"shares_grid[{s}]", shares, ThresholdTriple)
    configs = [
        MethodConfig(METHOD_PROJECTION_FIXED, report_scope, n_directions, vote_shares=shares)
        for shares in shares_grid
    ]
    return [run_benchmark(model, config, reps, n, k, contamination, seed) for config in configs]


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
    by the simulation record :func:`run_benchmark` reads, with contamination 0.
    """
    _check_count("reps", reps, "baseline estimation needs at least one repetition")
    _check_count("n_directions", n_directions, "n_directions must be at least 1")
    votes, _ = _simulation("M0", n, k, 0.0, seed, reps).votes(
        n_directions, VARIANT_STANDARD, LOCATION_MEDIAN
    )
    type_sums = np.zeros(len(TYPE_ORDER))
    union_sum = 0.0
    for rep_votes in votes:
        type_sums += np.asarray(rep_votes.type_shares())
        union_sum += rep_votes.union_share()
    return Baselines(*(float(mean) for mean in type_sums / reps), union_sum / reps)


def format_mean_sd(mean: float, sd: float, digits: int = 1) -> str:
    """``mean (sd)`` to ``digits`` decimals, or ``-`` when the mean is undefined (NaN)."""
    return "-" if math.isnan(mean) else f"{mean:.{digits}f} ({sd:.{digits}f})"


def format_result_table(results) -> str:
    """Aligned text table of benchmark results."""
    header = ("model", "method", "scope", "reps", "tpr", "fpr", "seconds")
    rows = [header]
    for res in results:
        rows.append(
            (
                res.model,
                res.method,
                res.report_scope,
                str(res.reps),
                format_mean_sd(res.tpr_mean, res.tpr_sd),
                format_mean_sd(res.fpr_mean, res.fpr_sd),
                f"{res.runtime_seconds:.2f}",
            )
        )
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
