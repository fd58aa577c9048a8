import numpy as np
import pytest

from fmuod import (
    FunctionalDataset,
    InsufficientData,
    InvalidConfig,
    InvalidCurve,
    MethodConfig,
    MultivariateFunctionalDataset,
    classify_outliers,
    run_benchmark,
    run_method,
    select_thresholds,
)
from fmuod.cutoffs import FlagSet, boxplot_cutoff
from fmuod.indices import IndexTable, compute_index_table, reference_from_sample
from fmuod.io import read_dataset, write_long_csv, write_wide_csv
from fmuod.multivariate import (
    DirectionSet,
    OutlierReport,
    VoteMatrix,
    collect_votes,
    detect_marginal,
    detect_projection,
    detect_stringed,
    generate_directions,
)
from fmuod.simulation import SimulationSpec, generate


def test_dataset_shape_and_accessors():
    values = np.arange(12.0).reshape(3, 4)
    data = FunctionalDataset(values)
    assert data.n == 3
    assert data.k == 4


def test_dataset_copies_and_freezes_values():
    values = np.zeros((2, 3))
    data = FunctionalDataset(values)
    values[0, 0] = 5.0
    assert data.values[0, 0] == 0.0
    with pytest.raises(ValueError):
        data.values[0, 0] = 1.0


def test_grid_rejects_too_short():
    # a dataset's grid is its k points, and k must be at least 2
    for build, shape in [(FunctionalDataset, (2, 1)), (FunctionalDataset, (2, 0)),
                         (MultivariateFunctionalDataset, (2, 1, 3)),
                         (MultivariateFunctionalDataset, (0, 1, 3))]:
        with pytest.raises(InvalidCurve, match="curves need at least 2 points"):
            build(np.zeros(shape))


def test_dataset_rejects_bad_values():
    with pytest.raises(InvalidCurve):
        FunctionalDataset(np.zeros(3))
    with pytest.raises(InvalidCurve):
        FunctionalDataset(np.full((2, 3), np.nan))
    with pytest.raises(InvalidCurve):
        FunctionalDataset(np.zeros((0, 3)))


def test_multivariate_accessors():
    values = np.arange(24.0).reshape(2, 4, 3)
    data = MultivariateFunctionalDataset(values)
    assert (data.n, data.k, data.n_dims) == (2, 4, 3)
    margin = data.margin(2)
    assert isinstance(margin, FunctionalDataset)
    np.testing.assert_array_equal(margin.values, values[:, :, 2])


def test_multivariate_rejects_bad_shapes():
    with pytest.raises(InvalidCurve):
        MultivariateFunctionalDataset(np.zeros((2, 4)))
    with pytest.raises(InvalidCurve):
        MultivariateFunctionalDataset(np.zeros((2, 1, 2)))
    with pytest.raises(InvalidCurve):
        MultivariateFunctionalDataset(np.zeros((2, 4, 0)))


def test_dataset_rejects_non_numeric_values():
    with pytest.raises(InvalidCurve, match="values must be a regular array of numbers"):
        FunctionalDataset([["a", "b"]])


def test_multivariate_rejects_non_numeric_values():
    with pytest.raises(InvalidCurve, match="values must be a regular array of numbers"):
        MultivariateFunctionalDataset([[["a"], ["b"]]])


@pytest.mark.parametrize("m", [3, -1, 1.0, True], ids=["past_end", "negative", "float", "bool"])
def test_margin_rejects_a_component_outside_the_data(m):
    data = MultivariateFunctionalDataset(np.zeros((10, 5, 3)))
    with pytest.raises(InvalidCurve, match=r"component must be an integer in \[0, 3\)"):
        data.margin(m)


def test_margin_accepts_numpy_integers():
    values = np.arange(24.0).reshape(2, 4, 3)
    data = MultivariateFunctionalDataset(values)
    np.testing.assert_array_equal(data.margin(np.int64(1)).values, values[:, :, 1])


def test_from_univariate_round_trip():
    uni = FunctionalDataset(np.random.default_rng(0).normal(size=(5, 6)))
    mv = MultivariateFunctionalDataset.from_univariate(uni)
    assert mv.n_dims == 1
    np.testing.assert_array_equal(mv.margin(0).values, uni.values)


# ---------------------------------------------------------------------------
# every container of arrays holds read-only copies and compares by value


def _report(proportions):
    no_flags = FlagSet(2, frozenset(), frozenset(), frozenset())
    return OutlierReport("FST_PRJ", 2, no_flags, proportions=proportions)


# name: (build an instance from the caller's array, that array, a different one)
CONTAINERS = {
    "FunctionalDataset": (
        lambda a: FunctionalDataset(a),
        np.arange(6.0).reshape(2, 3),
        -np.arange(6.0).reshape(2, 3),
    ),
    "MultivariateFunctionalDataset": (
        lambda a: MultivariateFunctionalDataset(a),
        np.arange(12.0).reshape(2, 3, 2),
        np.ones((2, 3, 2)),
    ),
    "DirectionSet": (
        lambda a: DirectionSet(a, seed=1), np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    ),
    "VoteMatrix": (VoteMatrix, np.zeros((2, 3, 3), dtype=bool), np.ones((2, 3, 3), dtype=bool)),
    "IndexTable": (
        lambda a: IndexTable(a, a + 1.0, a + 2.0), np.arange(5.0), np.arange(5.0) + 10.0
    ),
    "OutlierReport": (_report, np.zeros((2, 3)), np.full((2, 3), 0.5)),
}


@pytest.mark.parametrize("name", CONTAINERS)
def test_containers_compare_by_value(name):
    build, array, other = CONTAINERS[name]
    assert build(array) == build(array.copy())
    assert build(array) != build(other)
    assert build(array) != "something else"


@pytest.mark.parametrize("name", CONTAINERS)
def test_containers_copy_and_freeze_their_arrays(name):
    build, array, other = CONTAINERS[name]
    before = build(array.copy())
    held = build(array)
    array[...] = other
    assert held == before
    arrays = [v for v in vars(held).values() if isinstance(v, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("name", CONTAINERS)
def test_containers_are_unhashable(name):
    build, array, _ = CONTAINERS[name]
    with pytest.raises(TypeError):
        hash(build(array))


def test_index_table_does_not_alias_its_columns():
    a = np.arange(5.0)
    table = IndexTable(a, a.copy(), a.copy())
    a[0] = 99.0
    assert table.shape[0] == 0.0


def test_report_without_proportions_compares_by_value():
    assert _report(None) == _report(None)
    assert _report(None) != _report(np.zeros((2, 3)))
    assert _report(np.zeros((2, 3))) != _report(None)


#: Calls that take a dataset of one kind, each given a dataset and an output path.
WRONG_KIND_CALLS = {
    "reference_from_sample": (FunctionalDataset, lambda data, path: reference_from_sample(data)),
    "compute_index_table": (
        FunctionalDataset, lambda data, path: compute_index_table(data, np.arange(10.0))
    ),
    "write_wide_csv": (FunctionalDataset, write_wide_csv),
    "detect_marginal": (MultivariateFunctionalDataset, lambda data, path: detect_marginal(data)),
    "detect_stringed": (MultivariateFunctionalDataset, lambda data, path: detect_stringed(data)),
    "collect_votes": (
        MultivariateFunctionalDataset,
        lambda data, path: collect_votes(data, generate_directions(4, 3, seed=0)),
    ),
    "detect_projection": (
        MultivariateFunctionalDataset,
        lambda data, path: detect_projection(data, generate_directions(4, 3, seed=0)),
    ),
    "write_long_csv": (MultivariateFunctionalDataset, write_long_csv),
    "run_method": (
        MultivariateFunctionalDataset,
        lambda data, path: run_method(data, MethodConfig("FST_PRJ"), 0),
    ),
}


@pytest.mark.parametrize("name", WRONG_KIND_CALLS)
def test_a_dataset_of_the_wrong_kind_is_rejected(tmp_path, name):
    needed, call = WRONG_KIND_CALLS[name]
    multivariate = generate(SimulationSpec("M1", 20, 10, 0.1, 1)).data
    wrong = multivariate.margin(0) if needed is MultivariateFunctionalDataset else multivariate
    path = tmp_path / "out.csv"
    with pytest.raises(InvalidCurve, match=f"expected a {needed.__name__}, got a "):
        call(wrong, path)
    assert not path.exists()


#: Calls given an argument of the wrong kind: (the error, the call on an M1 dataset).
WRONG_ARGUMENT_CALLS = {
    "collect_votes_directions": (
        InvalidConfig, lambda data: collect_votes(data, [[1.0, 0.0, 0.0]])
    ),
    "detect_projection_directions": (
        InvalidConfig, lambda data: detect_projection(data, np.eye(3))
    ),
    "select_thresholds_votes": (
        InvalidConfig, lambda data: select_thresholds(np.zeros((3, 2, 3), bool))
    ),
    "classify_outliers_table": (InvalidCurve, lambda data: classify_outliers(np.zeros((3, 5)))),
    "run_method_config": (InvalidConfig, lambda data: run_method(data, "FST_MAR", 0)),
    "run_benchmark_config": (
        InvalidConfig, lambda data: run_benchmark("M1", "FST_MAR", 2, 20, 10)
    ),
}


@pytest.mark.parametrize("name", WRONG_ARGUMENT_CALLS)
def test_an_argument_of_the_wrong_kind_is_rejected(name):
    error, call = WRONG_ARGUMENT_CALLS[name]
    data = generate(SimulationSpec("M1", 20, 10, 0.1, 1)).data
    with pytest.raises(error, match="must be a|expected a"):
        call(data)


#: Calls naming an unknown option: (the error, its full message, the call on an M1 dataset).
UNKNOWN_OPTION_CALLS = {
    "scope": (
        InvalidConfig,
        "unknown scope 'x'; use one of ('union', 'shape_only', 'amplitude_only', 'magnitude_only')",
        lambda data, path: MethodConfig("FST_MAR", report_scope="x"),
    ),
    "method": (
        InvalidConfig,
        "unknown method 'x'; use one of ('FST_MAR', 'FST_STR', 'FST_PRJ', 'FST_PRJ1', 'FST_PRJ2')",
        lambda data, path: MethodConfig("x"),
    ),
    "config_scale": (
        InvalidConfig,
        "unknown scale 'x'; use one of ('minmax', 'none')",
        lambda data, path: MethodConfig("FST_MAR", scale="x"),
    ),
    "config_variant": (
        InvalidConfig,
        "unknown variant 'x'; use one of ('standard', 'original_absolute')",
        lambda data, path: MethodConfig("FST_MAR", variant="x"),
    ),
    "config_location": (
        InvalidConfig,
        "unknown location 'x'; use one of ('median', 'mean')",
        lambda data, path: MethodConfig("FST_MAR", location="x"),
    ),
    "cutoff_rule": (
        InvalidConfig,
        "unknown cutoff rule 'x'; use one of ('upper_only', 'two_sided')",
        lambda data, path: boxplot_cutoff([1.0, 2.0, 3.0], rule="x"),
    ),
    "index_variant": (
        InvalidCurve,
        "unknown variant 'x'; use one of ('standard', 'original_absolute')",
        lambda data, path: detect_marginal(data, variant="x"),
    ),
    "reference_location": (
        InvalidCurve,
        "unknown location 'x'; use one of ('median', 'mean')",
        lambda data, path: reference_from_sample(data.margin(0), "x"),
    ),
    "layout": (
        InvalidConfig,
        "unknown layout 'x'; use one of ('wide_univariate', 'long_multivariate')",
        lambda data, path: read_dataset(path, "x"),
    ),
    "stringing_scale": (
        InvalidConfig,
        "unknown scale 'x'; use one of ('minmax', 'none')",
        lambda data, path: detect_stringed(data, scale="x"),
    ),
    "model": (
        InvalidConfig,
        "unknown model 'M9'; use one of ('M0', 'M1', 'M2', 'M3', 'M4', 'M5', 'M6', "
        "'M1_2', 'M2_2', 'M2_3', 'M3_2', 'M3_3', 'M5_2')",
        lambda data, path: SimulationSpec("M9"),
    ),
}


@pytest.mark.parametrize("name", UNKNOWN_OPTION_CALLS)
def test_an_unknown_option_names_the_choices(tmp_path, name):
    error, message, call = UNKNOWN_OPTION_CALLS[name]
    data = generate(SimulationSpec("M1", 20, 10, 0.1, 1)).data
    path = tmp_path / "data.csv"
    write_long_csv(data, path)
    with pytest.raises(error) as caught:
        call(data, path)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_the_first_fault_of_two_is_reported():
    data = generate(SimulationSpec("M1", 20, 10, 0.1, 1)).data
    with pytest.raises(InvalidCurve, match="unknown variant 'x'"):
        detect_marginal(data, variant="x", location="y")
    with pytest.raises(InsufficientData, match="at least 2 curves"):
        reference_from_sample(FunctionalDataset(data.values[:1, :, 0]), "y")
