import numpy as np
import pytest

from fmuod import (
    FunctionalDataset,
    Grid,
    InvalidCurve,
    MultivariateFunctionalDataset,
)
from fmuod.cutoffs import FlagSet
from fmuod.indices import IndexTable, compute_index_table, reference_from_sample
from fmuod.io import write_long_csv, write_wide_csv
from fmuod.multivariate import (
    DirectionSet,
    OutlierReport,
    VoteMatrix,
    collect_votes,
    detect_marginal,
    detect_projection,
    detect_stringed,
    generate_directions,
    project,
)
from fmuod.simulation import SimulationSpec, generate


def test_regular_grid_basic():
    grid = Grid.regular(5)
    np.testing.assert_allclose(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.k == 5
    assert grid.spacing == pytest.approx(0.25)


def test_regular_grid_custom_span():
    grid = Grid(np.linspace(1.0, 7.0, 4))
    np.testing.assert_allclose(grid.points, [1.0, 3.0, 5.0, 7.0])
    assert grid.spacing == pytest.approx(2.0)


def test_grid_rejects_too_short():
    with pytest.raises(InvalidCurve):
        Grid(np.array([0.0]))
    with pytest.raises(InvalidCurve):
        Grid.regular(1)


@pytest.mark.parametrize("k", [2.5, 4.0, "3", None, True])
def test_regular_grid_rejects_non_integer_sizes(k):
    with pytest.raises(InvalidCurve, match="grid size must be an integer"):
        Grid.regular(k)


def test_regular_grid_accepts_numpy_integers():
    np.testing.assert_array_equal(Grid.regular(np.int64(4)).points, Grid.regular(4).points)


def test_grids_compare_by_value():
    assert Grid.regular(4) == Grid.regular(4)
    assert Grid.regular(4) != Grid.regular(5)
    assert Grid(np.array([0.0, 0.5, 1.0])) != Grid(np.array([0.0, 0.25, 0.5]))
    assert Grid.regular(4) != "grid"


def test_grid_rejects_non_increasing():
    with pytest.raises(InvalidCurve):
        Grid(np.array([0.0, 0.5, 0.4]))
    with pytest.raises(InvalidCurve):
        Grid(np.array([0.0, 0.0, 1.0]))


def test_grid_rejects_unequal_spacing():
    with pytest.raises(InvalidCurve):
        Grid(np.array([0.0, 0.1, 1.0]))
    uneven = np.linspace(0.0, 1e4, 301)
    uneven[150] += 1e-6  # beyond the scaled tolerance of 1e-8
    with pytest.raises(InvalidCurve):
        Grid(uneven)


@pytest.mark.parametrize(
    "points",
    [np.linspace(0.0, 1e4, 301), np.linspace(1e6, 1e6 + 1.0, 11), np.linspace(0.0, 3600.0, 50)],
    ids=["wide", "far-offset", "seconds"],
)
def test_grid_spacing_tolerance_scales_with_the_points(points):
    np.testing.assert_array_equal(Grid(points).points, points)


def test_grid_rejects_non_finite():
    with pytest.raises(InvalidCurve):
        Grid(np.array([0.0, np.nan, 1.0]))
    with pytest.raises(InvalidCurve):
        Grid(np.array([0.0, 1.0, np.inf]))


def test_grid_rejects_two_dimensional():
    with pytest.raises(InvalidCurve):
        Grid(np.zeros((2, 2)))


def test_grid_points_are_read_only():
    grid = Grid.regular(3)
    with pytest.raises(ValueError):
        grid.points[0] = 9.0


def test_dataset_shape_and_accessors():
    values = np.arange(12.0).reshape(3, 4)
    data = FunctionalDataset(values, Grid.regular(4))
    assert data.n == 3
    assert data.k == 4


def test_dataset_copies_and_freezes_values():
    values = np.zeros((2, 3))
    data = FunctionalDataset(values, Grid.regular(3))
    values[0, 0] = 5.0
    assert data.values[0, 0] == 0.0
    with pytest.raises(ValueError):
        data.values[0, 0] = 1.0


def test_dataset_rejects_grid_mismatch():
    with pytest.raises(InvalidCurve):
        FunctionalDataset(np.zeros((2, 3)), Grid.regular(4))


def test_dataset_rejects_bad_values():
    with pytest.raises(InvalidCurve):
        FunctionalDataset(np.zeros(3), Grid.regular(3))
    with pytest.raises(InvalidCurve):
        FunctionalDataset(np.full((2, 3), np.nan), Grid.regular(3))
    with pytest.raises(InvalidCurve):
        FunctionalDataset(np.zeros((0, 3)), Grid.regular(3))


def test_multivariate_accessors():
    values = np.arange(24.0).reshape(2, 4, 3)
    data = MultivariateFunctionalDataset(values, Grid.regular(4))
    assert (data.n, data.k, data.n_dims) == (2, 4, 3)
    margin = data.margin(2)
    assert isinstance(margin, FunctionalDataset)
    np.testing.assert_array_equal(margin.values, values[:, :, 2])


def test_multivariate_rejects_bad_shapes():
    with pytest.raises(InvalidCurve):
        MultivariateFunctionalDataset(np.zeros((2, 4)), Grid.regular(4))
    with pytest.raises(InvalidCurve):
        MultivariateFunctionalDataset(np.zeros((2, 3, 2)), Grid.regular(4))
    with pytest.raises(InvalidCurve):
        MultivariateFunctionalDataset(np.zeros((2, 4, 0)), Grid.regular(4))


@pytest.mark.parametrize("points", [["a", "b"], [object(), 1.0], [[0.0, 1.0], [2.0]]],
                         ids=["strings", "objects", "ragged"])
def test_grid_rejects_non_numeric_points(points):
    with pytest.raises(InvalidCurve, match="points must be a regular array of numbers"):
        Grid(points)


def test_dataset_rejects_non_numeric_values():
    with pytest.raises(InvalidCurve, match="values must be a regular array of numbers"):
        FunctionalDataset([["a", "b"]], Grid.regular(2))


def test_multivariate_rejects_non_numeric_values():
    with pytest.raises(InvalidCurve, match="values must be a regular array of numbers"):
        MultivariateFunctionalDataset([[["a"], ["b"]]], Grid.regular(2))


@pytest.mark.parametrize("m", [3, -1, 1.0, True], ids=["past_end", "negative", "float", "bool"])
def test_margin_rejects_a_component_outside_the_data(m):
    data = MultivariateFunctionalDataset(np.zeros((10, 5, 3)), Grid.regular(5))
    with pytest.raises(InvalidCurve, match=r"component must be an integer in \[0, 3\)"):
        data.margin(m)


def test_margin_accepts_numpy_integers():
    values = np.arange(24.0).reshape(2, 4, 3)
    data = MultivariateFunctionalDataset(values, Grid.regular(4))
    np.testing.assert_array_equal(data.margin(np.int64(1)).values, values[:, :, 1])


def test_from_univariate_round_trip():
    uni = FunctionalDataset(np.random.default_rng(0).normal(size=(5, 6)), Grid.regular(6))
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
    "Grid": (Grid, np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 5)),
    "FunctionalDataset": (
        lambda a: FunctionalDataset(a, Grid.regular(3)),
        np.arange(6.0).reshape(2, 3),
        -np.arange(6.0).reshape(2, 3),
    ),
    "MultivariateFunctionalDataset": (
        lambda a: MultivariateFunctionalDataset(a, Grid.regular(3)),
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
    "project": (MultivariateFunctionalDataset, lambda data, path: project(data, [1.0, 0.0, 0.0])),
    "write_long_csv": (MultivariateFunctionalDataset, write_long_csv),
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
