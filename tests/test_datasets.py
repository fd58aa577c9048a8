import numpy as np
import pytest

from fmuod import (
    FunctionalDataset,
    Grid,
    InvalidCurve,
    MultivariateFunctionalDataset,
)


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


def test_grid_rejects_non_increasing():
    with pytest.raises(InvalidCurve):
        Grid(np.array([0.0, 0.5, 0.4]))
    with pytest.raises(InvalidCurve):
        Grid(np.array([0.0, 0.0, 1.0]))


def test_grid_rejects_unequal_spacing():
    with pytest.raises(InvalidCurve):
        Grid(np.array([0.0, 0.1, 1.0]))


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


def test_from_univariate_round_trip():
    uni = FunctionalDataset(np.random.default_rng(0).normal(size=(5, 6)), Grid.regular(6))
    mv = MultivariateFunctionalDataset.from_univariate(uni)
    assert mv.n_dims == 1
    np.testing.assert_array_equal(mv.margin(0).values, uni.values)
