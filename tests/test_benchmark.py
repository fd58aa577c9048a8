import math

import numpy as np
import pytest

import fmuod.benchmark
from fmuod import (
    InvalidConfig,
    MethodConfig,
    MultivariateFunctionalDataset,
    ThresholdTriple,
    collect_votes,
    detect_projection,
    generate_directions,
    run_benchmark,
    run_method,
    threshold_sweep,
)
from fmuod.benchmark import (
    METHOD_MARGINAL,
    METHOD_PROJECTION_ADAPTIVE,
    METHOD_PROJECTION_ANY,
    METHOD_PROJECTION_FIXED,
    METHOD_STRINGING,
    METHODS,
    SCOPE_AMPLITUDE,
    SCOPE_MAGNITUDE,
    SCOPE_SHAPE,
    SCOPE_UNION,
    BenchmarkResult,
    _simulation,
    estimate_null_baselines,
    f1_score,
    format_result_table,
    score_flags,
    scoped_flags,
)
from fmuod.multivariate import ANY_VOTE_THRESHOLDS, Baselines, DirectionSet
from fmuod.cutoffs import FlagSet
from fmuod.indices import IndexTable
from fmuod.seeding import child_seed
from fmuod.simulation import SimulationSpec, generate


# ---------------------------------------------------------------------------
# scoring


def flags(n, shape=(), amplitude=(), magnitude=()):
    return FlagSet(n, frozenset(shape), frozenset(amplitude), frozenset(magnitude))


def test_score_flags_percentages():
    tpr, fpr = score_flags(frozenset({0, 1, 5}), (0, 1, 2, 3), n=20)
    assert tpr == pytest.approx(50.0)
    assert fpr == pytest.approx(100.0 / 16.0)


def test_score_flags_without_truth_has_nan_tpr():
    tpr, fpr = score_flags(frozenset({2}), (), n=10)
    assert math.isnan(tpr)
    assert fpr == pytest.approx(10.0)


def test_score_flags_everything_true_has_nan_fpr():
    tpr, fpr = score_flags(frozenset({0, 1}), (0, 1), n=2)
    assert tpr == pytest.approx(100.0)
    assert math.isnan(fpr)


def test_score_flags_rejects_out_of_range_truth():
    with pytest.raises(InvalidConfig):
        score_flags(frozenset(), (10,), n=5)


def test_f1_score_edges():
    assert f1_score(frozenset(), frozenset({1})) == 0.0
    assert f1_score(frozenset({1}), frozenset()) == 0.0
    assert f1_score(frozenset({1, 2}), frozenset({1, 2})) == 1.0
    # precision 1/2, recall 1/3 -> f1 = 0.4
    assert f1_score(frozenset({1, 9}), frozenset({1, 2, 3})) == pytest.approx(0.4)


def test_scoped_flags_selects_the_right_set():
    flagged = flags(10, shape={1}, amplitude={2}, magnitude={3})
    assert scoped_flags(flagged, SCOPE_UNION) == {1, 2, 3}
    assert scoped_flags(flagged, SCOPE_MAGNITUDE) == {3}
    assert scoped_flags(flagged, SCOPE_SHAPE) == {1}
    assert scoped_flags(flagged, SCOPE_AMPLITUDE) == {2}
    with pytest.raises(InvalidConfig):
        scoped_flags(flagged, "everything")


# ---------------------------------------------------------------------------
# configuration and dispatch


def test_method_config_validation():
    with pytest.raises(InvalidConfig):
        MethodConfig(method="FST_XXX")
    with pytest.raises(InvalidConfig):
        MethodConfig(method="FST_MAR", report_scope="nope")
    with pytest.raises(InvalidConfig):
        MethodConfig(method="FST_PRJ1", n_directions=0)
    with pytest.raises(InvalidConfig):
        MethodConfig(method="FST_STR", scale="zscore")
    with pytest.raises(InvalidConfig):
        MethodConfig(method="FST_MAR", variant="bogus")
    with pytest.raises(InvalidConfig):
        MethodConfig(method="FST_MAR", location="bogus")
    with pytest.raises(InvalidConfig, match="vote_shares must be a ThresholdTriple"):
        MethodConfig("FST_PRJ1", vote_shares=(0.4, 0.3, 0.3))
    with pytest.raises(InvalidConfig, match="baselines must be a Baselines"):
        MethodConfig("FST_PRJ", baselines={"shape": 0.1})


@pytest.mark.parametrize("value", [2.5, True, "3", None])
def test_method_config_rejects_non_integer_direction_counts(value):
    with pytest.raises(InvalidConfig, match="n_directions must be an integer"):
        MethodConfig(method="FST_PRJ", n_directions=value)


def test_method_config_accepts_numpy_integer_direction_counts():
    assert MethodConfig(method="FST_PRJ", n_directions=np.int64(3)).n_directions == 3


SHARES = [ThresholdTriple(0.4, 0.3, 0.3)]


@pytest.mark.parametrize(
    "call",
    [
        lambda reps: run_benchmark("M1", MethodConfig("FST_MAR"), reps, n=20, k=10),
        lambda reps: run_benchmark("M1", MethodConfig("FST_PRJ", n_directions=3), reps, n=20, k=10),
        lambda reps: threshold_sweep("M1", SHARES, reps, n=20, k=10, n_directions=3),
        lambda reps: estimate_null_baselines(reps, n=20, k=10, n_directions=3),
    ],
    ids=["benchmark_marginal", "benchmark_projection", "sweep", "baselines"],
)
@pytest.mark.parametrize("reps", [2.5, True, 2.0])
def test_entry_points_reject_non_integer_reps(call, reps):
    with pytest.raises(InvalidConfig, match="reps must be an integer"):
        call(reps)


@pytest.mark.parametrize(
    "call",
    [
        lambda n_dirs: threshold_sweep("M1", SHARES, 2, n=20, k=10, n_directions=n_dirs),
        lambda n_dirs: estimate_null_baselines(2, n=20, k=10, n_directions=n_dirs),
    ],
    ids=["sweep", "baselines"],
)
def test_vote_entry_points_reject_non_integer_direction_counts(call):
    with pytest.raises(InvalidConfig, match="n_directions must be an integer"):
        call(2.5)


def test_run_method_dispatches_every_method():
    data = generate(SimulationSpec("M1", n=40, k=25, contamination=0.1, seed=11)).data
    for method in METHODS:
        report = run_method(data, MethodConfig(method=method, n_directions=12), seed=5)
        assert report.method == method
        assert report.n == 40


def test_projection_any_uses_single_vote_thresholds():
    data = generate(SimulationSpec("M0", n=30, k=20, contamination=0.0, seed=2)).data
    report = run_method(data, MethodConfig(method="FST_PRJ2", n_directions=10), seed=1)
    assert report.thresholds == ANY_VOTE_THRESHOLDS
    # every curve with any vote is flagged
    voted = {
        int(i)
        for i in np.nonzero((report.proportions > 0.0).any(axis=1))[0]
    }
    assert report.flags.union == voted


# ---------------------------------------------------------------------------
# benchmark loop


def test_run_benchmark_is_reproducible():
    config = MethodConfig(method="FST_PRJ1", n_directions=12)
    a = run_benchmark("M1", config, reps=4, n=40, k=20, seed=17)
    b = run_benchmark("M1", config, reps=4, n=40, k=20, seed=17)
    np.testing.assert_array_equal(a.tpr, b.tpr)
    np.testing.assert_array_equal(a.fpr, b.fpr)
    assert a.reps == 4


def test_run_benchmark_reps_do_not_depend_on_rep_count():
    config = MethodConfig(method="FST_PRJ1", n_directions=12)
    short = run_benchmark("M3", config, reps=2, n=40, k=20, seed=23)
    long = run_benchmark("M3", config, reps=4, n=40, k=20, seed=23)
    np.testing.assert_array_equal(short.tpr, long.tpr[:2])
    np.testing.assert_array_equal(short.fpr, long.fpr[:2])


@pytest.mark.parametrize("seed", [3.0, True])
def test_run_benchmark_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(InvalidConfig, match="seed key parts"):
        run_benchmark("M1", MethodConfig(method="FST_MAR"), reps=1, n=20, k=10, seed=seed)


def test_run_benchmark_null_model_has_no_tpr():
    config = MethodConfig(method="FST_MAR")
    res = run_benchmark("M0", config, reps=3, n=30, k=15, seed=1)
    assert res.tpr is None and res.f1 is None
    assert math.isnan(res.tpr_mean) and math.isnan(res.f1_mean) and math.isnan(res.f1_sd)
    assert res.fpr.shape == (3,)
    assert res.fpr_mean >= 0.0


def test_run_benchmark_statistics():
    config = MethodConfig(method="FST_PRJ1", n_directions=12)
    res = run_benchmark("M1", config, reps=5, n=40, k=20, seed=3)
    assert res.tpr_mean == pytest.approx(float(res.tpr.mean()))
    assert res.tpr_sd == pytest.approx(float(res.tpr.std(ddof=1)))
    assert res.f1_mean == pytest.approx(float(res.f1.mean()))
    assert res.f1_sd == pytest.approx(float(res.f1.std(ddof=1)))
    assert res.runtime_seconds > 0.0
    with pytest.raises(InvalidConfig):
        run_benchmark("M1", config, reps=0)


def bench_result(**change):
    fields = dict(
        model="M1", method="FST_MAR", report_scope="union", n=40, k=20, contamination=0.1,
        seed=3, tpr=np.array([100.0, 50.0]), fpr=np.array([2.5, 0.0]), f1=np.array([0.8, 0.5]),
    )
    return BenchmarkResult(**{**fields, **change})


def test_benchmark_results_compare_by_value():
    assert bench_result() == bench_result(runtime_seconds=1.5)
    assert bench_result(tpr=None, f1=None) == bench_result(tpr=None, f1=None)
    assert bench_result() != bench_result(fpr=np.array([2.5, 1.0]))
    assert bench_result() != bench_result(f1=np.array([0.8, 0.4]))
    assert bench_result() != bench_result(tpr=None)
    assert bench_result() != bench_result(f1=None)
    assert bench_result() != bench_result(seed=4)
    config = MethodConfig(method="FST_PRJ1", n_directions=12)
    runs = [run_benchmark("M1", config, reps=2, n=40, k=20, seed=17) for _ in range(2)]
    assert runs[0] == runs[1]


def test_benchmark_results_hold_read_only_copies():
    tpr, fpr, f1 = np.array([100.0, 50.0]), np.array([2.5, 0.0]), np.array([0.8, 0.5])
    res = bench_result(tpr=tpr, fpr=fpr, f1=f1)
    tpr[0] = fpr[0] = f1[0] = -1.0
    assert (res.tpr[0], res.fpr[0], res.f1[0]) == (100.0, 2.5, 0.8)
    for rates in (res.tpr, res.fpr, res.f1):
        with pytest.raises(ValueError):
            rates[0] = 0.0


def test_benchmark_seeds_differ_between_reps():
    config = MethodConfig(method="FST_PRJ1", n_directions=12)
    res = run_benchmark("M1", config, reps=6, n=40, k=20, seed=5)
    # with six different datasets the FPR draws are essentially never all equal
    assert len({float(v) for v in res.fpr}) > 1 or len({float(v) for v in res.tpr}) > 1


# ---------------------------------------------------------------------------
# the simulation record: votes shared by the projection methods

PROJECTION_METHODS = (METHOD_PROJECTION_ADAPTIVE, METHOD_PROJECTION_FIXED, METHOD_PROJECTION_ANY)

#: One small simulation: run_benchmark's arguments after the config.
SIM = dict(model="M1", reps=3, n=40, k=20, contamination=0.1, seed=17)


def sim_args(sim=SIM):
    """The key of the simulation record."""
    return sim["model"], sim["n"], sim["k"], sim["contamination"], sim["seed"], sim["reps"]


def clear_record():
    _simulation.cache_clear()


def count_calls(monkeypatch, name):
    """Count the calls of ``fmuod.benchmark.<name>``, with their arguments."""
    calls = []
    original = getattr(fmuod.benchmark, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fmuod.benchmark, name, counting)
    return calls


@pytest.fixture
def vote_collections(monkeypatch):
    """Drop the simulation record and count the collect_votes calls after it."""
    clear_record()
    yield count_calls(monkeypatch, "collect_votes")
    clear_record()


@pytest.fixture
def generations(monkeypatch):
    """Drop the simulation record and count the generate calls after it."""
    clear_record()
    yield count_calls(monkeypatch, "generate")
    clear_record()


def run_sim(method, sim=SIM, **config):
    config.setdefault("n_directions", 12)
    return run_benchmark(
        sim["model"], MethodConfig(method=method, **config),
        sim["reps"], sim["n"], sim["k"], sim["contamination"], sim["seed"],
    )


def rate_bytes(res):
    return res.tpr.tobytes(), res.fpr.tobytes()


@pytest.mark.parametrize("order", [PROJECTION_METHODS, PROJECTION_METHODS[::-1]],
                         ids=["forward", "reverse"])
def test_projection_rates_equal_with_cold_and_warm_votes(vote_collections, order):
    cold = {}
    for method in order:
        clear_record()
        cold[method] = rate_bytes(run_sim(method))
    clear_record()
    warm = {method: rate_bytes(run_sim(method)) for method in order}
    assert warm == cold
    assert len(vote_collections) == (len(order) + 1) * SIM["reps"]


def test_projection_methods_collect_votes_once_per_rep(vote_collections):
    for method in PROJECTION_METHODS:
        run_sim(method)
    assert len(vote_collections) == SIM["reps"]


def test_marginal_and_stringed_methods_leave_the_votes_alone(vote_collections):
    run_sim(METHOD_PROJECTION_FIXED)
    run_sim("FST_MAR")
    run_sim("FST_STR")
    run_sim(METHOD_PROJECTION_ADAPTIVE)
    assert len(vote_collections) == SIM["reps"]


@pytest.mark.parametrize(
    "change",
    [
        {"model": "M2"},
        {"n": 41},
        {"k": 21},
        {"contamination": 0.2},
        {"seed": 18},
        {"reps": 2},
        {"n_directions": 13},
        {"variant": "original_absolute"},
        {"location": "mean"},
    ],
    ids=lambda change: next(iter(change)),
)
def test_each_key_field_collects_the_votes_again(vote_collections, change):
    run_sim(METHOD_PROJECTION_FIXED)
    del vote_collections[:]
    sim = {**SIM, **{f: v for f, v in change.items() if f in SIM}}
    config = {f: v for f, v in change.items() if f not in SIM}
    res = run_sim(METHOD_PROJECTION_FIXED, sim, **config)
    assert len(vote_collections) == sim["reps"] == res.reps


@pytest.mark.parametrize(
    "config",
    [
        {"report_scope": SCOPE_MAGNITUDE},
        {"baselines": Baselines(0.05, 0.02, 0.02, 0.07)},
        {"vote_shares": ThresholdTriple(0.5, 0.5, 0.5)},
    ],
    ids=["report_scope", "baselines", "vote_shares"],
)
def test_scoring_fields_reuse_the_votes(vote_collections, config):
    run_sim(METHOD_PROJECTION_FIXED)
    del vote_collections[:]
    for method in PROJECTION_METHODS:
        run_sim(method, **config)
    assert vote_collections == []


def test_shared_votes_keep_one_entry(vote_collections):
    # a repeated seed is computed again once another simulation came between
    other = {**SIM, "seed": 18}
    for sim in (SIM, other, SIM):
        run_sim(METHOD_PROJECTION_FIXED, sim)
    assert len(vote_collections) == 3 * SIM["reps"]
    assert _simulation.cache_info().currsize == 1


def test_a_projection_setting_used_before_reuses_its_votes(vote_collections):
    for n_directions in (12, 13, 12):
        run_sim(METHOD_PROJECTION_FIXED, n_directions=n_directions)
    assert len(vote_collections) == 2 * SIM["reps"]


def test_sweep_and_fixed_benchmark_share_the_votes(vote_collections):
    threshold_sweep(
        SIM["model"], [ThresholdTriple(0.4, 0.3, 0.3)], SIM["reps"], SIM["n"], SIM["k"],
        SIM["contamination"], SIM["seed"], n_directions=12,
    )
    run_sim(METHOD_PROJECTION_FIXED)
    assert len(vote_collections) == SIM["reps"]


def test_sweep_rejects_an_unknown_scope_before_collecting_votes(vote_collections):
    with pytest.raises(InvalidConfig, match="unknown scope 'bogus'"):
        threshold_sweep(
            SIM["model"], [ThresholdTriple(0.4, 0.3, 0.3)], SIM["reps"], SIM["n"], SIM["k"],
            SIM["contamination"], SIM["seed"], n_directions=12, report_scope="bogus",
        )
    assert vote_collections == []


def test_shared_votes_are_read_only(vote_collections):
    run_sim(METHOD_PROJECTION_FIXED)
    shared, _ = _simulation(*sim_args()).votes(12, "standard", "median")
    assert len(vote_collections) == SIM["reps"]
    assert isinstance(shared, tuple) and len(shared) == SIM["reps"]
    for votes in shared:
        assert not votes.votes.flags.writeable
        with pytest.raises(ValueError):
            votes.votes[0, 0, 0] = not votes.votes[0, 0, 0]


def test_reusing_call_is_charged_the_build_time(vote_collections):
    run_sim(METHOD_PROJECTION_ADAPTIVE)
    reused = run_sim(METHOD_PROJECTION_ANY)
    record = _simulation(*sim_args())
    _, vote_seconds = record.votes(12, "standard", "median")
    assert len(vote_collections) == SIM["reps"]
    assert vote_seconds > 0.0
    assert reused.runtime_seconds >= record.seconds + vote_seconds


# ---------------------------------------------------------------------------
# repetitions shared by all five methods


@pytest.mark.parametrize("order", [METHODS, METHODS[::-1]], ids=["forward", "reverse"])
def test_five_methods_generate_each_rep_once(generations, vote_collections, order):
    for method in order:
        run_sim(method)
    assert len(generations) == len(vote_collections) == SIM["reps"]


@pytest.mark.parametrize("order", [METHODS, METHODS[::-1]], ids=["forward", "reverse"])
def test_rates_equal_with_cold_and_warm_repetitions(generations, order):
    cold = {}
    for method in order:
        clear_record()
        cold[method] = rate_bytes(run_sim(method))
    clear_record()
    warm = {method: rate_bytes(run_sim(method)) for method in order}
    assert warm == cold
    assert len(generations) == (len(order) + 1) * SIM["reps"]


@pytest.mark.parametrize(
    "change",
    [
        {"model": "M2"},
        {"n": 41},
        {"k": 21},
        {"contamination": 0.2},
        {"seed": 18},
        {"reps": 2},
    ],
    ids=lambda change: next(iter(change)),
)
def test_each_simulation_key_field_generates_again(generations, change):
    run_sim(METHOD_MARGINAL)
    del generations[:]
    sim = {**SIM, **change}
    res = run_sim(METHOD_STRINGING, sim)
    assert len(generations) == sim["reps"] == res.reps


@pytest.mark.parametrize(
    "method, config",
    [
        (METHOD_PROJECTION_FIXED, {"n_directions": 13}),
        (METHOD_PROJECTION_FIXED, {"variant": "original_absolute"}),
        (METHOD_PROJECTION_FIXED, {"location": "mean"}),
        (METHOD_STRINGING, {"scale": "minmax"}),
        (METHOD_MARGINAL, {"report_scope": SCOPE_SHAPE}),
    ],
    ids=lambda value: next(iter(value)) if isinstance(value, dict) else value,
)
def test_method_fields_reuse_the_repetitions(generations, method, config):
    run_sim(METHOD_PROJECTION_ADAPTIVE)
    del generations[:]
    run_sim(method, **config)
    assert generations == []


def test_shared_repetitions_keep_one_entry_and_are_read_only(generations):
    other = {**SIM, "seed": 18}
    for sim in (SIM, other, SIM):
        run_sim(METHOD_MARGINAL, sim)
    assert len(generations) == 3 * SIM["reps"]
    assert _simulation.cache_info().currsize == 1
    entry = _simulation(*sim_args())
    assert len(generations) == 3 * SIM["reps"]
    assert len(entry.datasets) == SIM["reps"]
    for labeled in entry.datasets:
        assert not labeled.data.values.flags.writeable
        assert isinstance(labeled.outlier_indices, tuple)
        with pytest.raises(ValueError):
            labeled.data.values[0, 0, 0] = 1.0
        with pytest.raises(AttributeError):
            labeled.outlier_indices = ()


def test_reusing_stringed_call_is_charged_the_generation_time(generations):
    run_sim(METHOD_MARGINAL)
    reused = run_sim(METHOD_STRINGING)
    entry = _simulation(*sim_args())
    assert len(generations) == SIM["reps"]
    assert entry.seconds > 0.0
    assert reused.runtime_seconds >= entry.seconds


def test_projection_call_is_charged_the_generation_and_vote_time(generations):
    run_sim(METHOD_MARGINAL)
    built = run_sim(METHOD_PROJECTION_ADAPTIVE)
    record = _simulation(*sim_args())
    _, vote_seconds = record.votes(12, "standard", "median")
    assert built.runtime_seconds >= record.seconds + vote_seconds
    assert len(generations) == SIM["reps"]


# ---------------------------------------------------------------------------
# sweeps and baselines


def test_threshold_sweep_matches_fixed_benchmark():
    grid = [ThresholdTriple(0.4, 0.3, 0.3), ThresholdTriple(0.2, 0.5, 0.5)]
    for scope in (SCOPE_UNION, SCOPE_SHAPE):
        points = threshold_sweep(
            "M1", grid, reps=3, n=40, k=20, seed=29, n_directions=12, report_scope=scope
        )
        assert points == [
            run_benchmark(
                "M1",
                MethodConfig("FST_PRJ1", scope, n_directions=12, vote_shares=shares),
                reps=3,
                n=40,
                k=20,
                seed=29,
            )
            for shares in grid
        ]


@pytest.mark.parametrize("method", METHODS)
def test_run_benchmark_f1_scores_each_repetition(method):
    res = run_sim(method, report_scope=SCOPE_SHAPE)
    for r, labeled in enumerate(_simulation(*sim_args()).datasets):
        config = MethodConfig(method, n_directions=12)
        report = run_method(labeled.data, config, child_seed(SIM["seed"], r, 1))
        flagged = scoped_flags(report.flags, SCOPE_SHAPE)
        assert res.f1[r] == f1_score(flagged, frozenset(labeled.outlier_indices))


def test_threshold_sweep_null_model_has_no_f1():
    points = threshold_sweep(
        "M0", [ThresholdTriple(0.4, 0.3, 0.3)], reps=2, n=30, k=15, seed=7, n_directions=10
    )
    assert points[0].f1 is None and points[0].tpr is None
    assert math.isnan(points[0].f1_mean)
    assert points[0].fpr.shape == (2,)


def test_threshold_sweep_f1_decreases_with_absurd_threshold():
    grid = [ThresholdTriple(0.3, 0.3, 0.3), ThresholdTriple(1.0, 1.0, 1.0)]
    points = threshold_sweep("M1", grid, reps=3, n=40, k=20, seed=31, n_directions=12)
    assert points[0].f1_mean >= points[1].f1_mean


def test_threshold_sweep_reps_do_not_depend_on_rep_count():
    grid = [ThresholdTriple(0.3, 0.3, 0.3), ThresholdTriple(0.5, 0.4, 0.4)]
    short = threshold_sweep("M3", grid, reps=2, n=40, k=20, seed=23, n_directions=12)
    long = threshold_sweep("M3", grid, reps=4, n=40, k=20, seed=23, n_directions=12)
    assert len(short) == len(long) == len(grid)
    for a, b in zip(short, long):
        assert (a.reps, b.reps) == (2, 4)
        for rates in ("tpr", "fpr", "f1"):
            np.testing.assert_array_equal(getattr(a, rates), getattr(b, rates)[:2])


def test_sweep_points_compare_by_value_and_hold_read_only_copies():
    # a sweep point is FST_PRJ1's BenchmarkResult; its f1 is a read-only copy
    f1, fpr = np.array([0.5, 1.0]), np.array([2.5, 0.0])
    point = bench_result(method="FST_PRJ1", fpr=fpr, f1=f1)
    assert point == bench_result(method="FST_PRJ1", fpr=fpr.copy(), f1=f1.copy())
    assert point != bench_result(method="FST_PRJ1", fpr=fpr, f1=np.array([0.5, 0.9]))
    assert point != bench_result(method="FST_PRJ1", fpr=np.array([2.5, 1.0]), f1=f1)
    grid = [ThresholdTriple(0.3, 0.3, 0.3), ThresholdTriple(1.0, 1.0, 1.0)]
    low, high = threshold_sweep("M1", grid, reps=3, n=40, k=20, seed=31, n_directions=12)
    assert low != high
    f1[0] = fpr[0] = -1.0
    assert (point.f1[0], point.fpr[0]) == (0.5, 2.5)
    with pytest.raises(ValueError):
        point.f1[0] = 0.0


def test_threshold_sweep_points_own_their_rates():
    grid = [ThresholdTriple(0.3, 0.3, 0.3), ThresholdTriple(0.5, 0.4, 0.4)]
    points = threshold_sweep("M3", grid, reps=2, n=40, k=20, seed=23, n_directions=12)
    assert points == threshold_sweep("M3", grid, reps=2, n=40, k=20, seed=23, n_directions=12)
    assert not np.shares_memory(points[0].fpr, points[1].fpr)
    assert not np.shares_memory(points[0].f1, points[1].f1)
    assert not np.shares_memory(points[0].tpr, points[1].tpr)
    with pytest.raises(ValueError):
        points[0].fpr[0] = 0.0


def test_threshold_sweep_validation():
    with pytest.raises(InvalidConfig):
        threshold_sweep("M1", [], reps=2)
    with pytest.raises(InvalidConfig):
        threshold_sweep("M1", [ThresholdTriple(0.4, 0.3, 0.3)], reps=0)
    with pytest.raises(InvalidConfig, match=r"shares_grid\[0\] must be a ThresholdTriple"):
        threshold_sweep("M1", [(0.4, 0.3, 0.3)], 1)
    with pytest.raises(InvalidConfig, match=r"shares_grid\[1\] must be a ThresholdTriple"):
        threshold_sweep("M1", [ThresholdTriple(0.4, 0.3, 0.3), 0.3], 1)


def test_estimate_null_baselines_deterministic():
    a = estimate_null_baselines(reps=2, n=30, k=15, n_directions=10, seed=13)
    b = estimate_null_baselines(reps=2, n=30, k=15, n_directions=10, seed=13)
    assert a == b
    for rate in (a.shape, a.amplitude, a.magnitude, a.union):
        assert 0.0 <= rate < 1.0
    with pytest.raises(InvalidConfig):
        estimate_null_baselines(reps=0)


def test_estimate_null_baselines_golden_values():
    rates = estimate_null_baselines(reps=3, n=30, k=15, n_directions=10, seed=13)
    assert (rates.shape, rates.amplitude, rates.magnitude, rates.union) == (
        0.07555555555555556,
        0.023333333333333334,
        0.02111111111111111,
        0.10222222222222221,
    )


# ---------------------------------------------------------------------------
# index tables are built by the detector that reports them, and only there


@pytest.fixture
def table_count(monkeypatch):
    """Count IndexTable constructions."""
    count = [0]
    original = IndexTable.__post_init__

    def counting(self):
        count[0] += 1
        original(self)

    monkeypatch.setattr(IndexTable, "__post_init__", counting)
    return count


def sim_data(model="M1", seed=17):
    return generate(SimulationSpec(model, 40, 20, 0.1, seed)).data


def test_collect_votes_builds_no_index_tables(table_count):
    data = sim_data()
    collect_votes(data, generate_directions(12, data.n_dims, seed=1))
    assert table_count[0] == 0


@pytest.mark.parametrize("method", PROJECTION_METHODS)
def test_run_benchmark_projection_methods_build_no_index_tables(
    vote_collections, table_count, method
):
    run_sim(method)
    assert len(vote_collections) == SIM["reps"]
    assert table_count[0] == 0


def test_sweep_and_baselines_build_no_index_tables(vote_collections, table_count):
    threshold_sweep("M1", [ThresholdTriple(0.4, 0.3, 0.3)], reps=2, n=40, k=20, n_directions=12)
    estimate_null_baselines(reps=2, n=30, k=15, n_directions=10, seed=13)
    assert len(vote_collections) == 4
    assert table_count[0] == 0


def test_detect_projection_builds_one_table_per_kept_direction(table_count):
    first = np.random.default_rng(10).standard_normal((12, 8))
    data = MultivariateFunctionalDataset(np.stack([first, -first], axis=2))
    s = np.sqrt(0.5)
    directions = DirectionSet(np.array([[s, s], [1.0, 0.0], [0.0, 1.0], [-s, -s], [s, -s]]))
    report = detect_projection(data, directions)
    assert report.degenerate_projections == 2
    assert table_count[0] == len(report.tables) == 5 - 2


@pytest.mark.parametrize(
    "method, expected",
    [(METHOD_MARGINAL, 3), (METHOD_STRINGING, 1)] + [(m, 12) for m in PROJECTION_METHODS],
)
def test_each_detector_builds_its_tables_once(table_count, method, expected):
    report = run_method(sim_data(), MethodConfig(method=method, n_directions=12), seed=5)
    assert table_count[0] == len(report.tables) == expected


def test_format_result_table_lists_rows():
    config = MethodConfig(method="FST_MAR")
    res = run_benchmark("M0", config, reps=2, n=30, k=15, seed=1)
    text = format_result_table([res])
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["model", "method"]
    assert "M0" in lines[1] and "FST_MAR" in lines[1]
    assert "-" in lines[1]  # no TPR on the null model


def test_format_result_table_shows_an_undefined_fpr_as_a_dash():
    # at contamination 1 every curve is an outlier, so FPR has no inliers to count
    res = run_benchmark("M1", MethodConfig(method="FST_MAR"), reps=2, n=20, k=10,
                        contamination=1.0, seed=1)
    assert np.isnan(res.fpr).all()
    text = format_result_table([res])
    assert text.splitlines()[1].split()[-2] == "-"
    assert "nan" not in text
