"""Containers for discretised functional data.

Curves are observed on a common equidistant grid.  All index computations
weight every grid point equally, so the grid abscissae only matter for
simulation (where curves are evaluated from closed forms) and for plotting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCurve

#: Maximum absolute deviation between grid steps before a grid is rejected.
SPACING_TOL = 1e-12


def _freeze(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Equidistant evaluation points ``t_1 < t_2 < ... < t_k``.

    Parameters
    ----------
    points : array_like
        One-dimensional, strictly increasing, finite, with at least two
        entries.  Steps must agree within :data:`SPACING_TOL`.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise InvalidCurve("grid must be one-dimensional with at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise InvalidCurve("grid points must be finite")
        steps = np.diff(pts)
        if not np.all(steps > 0):
            raise InvalidCurve("grid points must be strictly increasing")
        spacing = (pts[-1] - pts[0]) / (pts.size - 1)
        if np.max(np.abs(steps - spacing)) > SPACING_TOL:
            raise InvalidCurve(f"grid is not equidistant within {SPACING_TOL:g}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def regular(cls, k: int) -> "Grid":
        """Build the k-point equidistant grid on [0, 1]."""
        if k < 2:
            raise InvalidCurve("grid needs at least 2 points")
        return cls(np.linspace(0.0, 1.0, k))

    @property
    def k(self) -> int:
        return self.points.size

    @property
    def spacing(self) -> float:
        return float((self.points[-1] - self.points[0]) / (self.points.size - 1))


def _check_values(values: np.ndarray, ndim: int, what: str) -> None:
    if values.ndim != ndim:
        raise InvalidCurve(f"{what} must be {ndim}-dimensional, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidCurve(f"{what} contains NaN or infinite entries")


@dataclass(frozen=True)
class FunctionalDataset:
    """A sample of ``n`` univariate curves on a shared grid.

    ``values[i, j]`` is curve ``i`` evaluated at ``grid.points[j]``.
    """

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        _check_values(vals, 2, "curve matrix")
        if vals.shape[1] != self.grid.k:
            raise InvalidCurve(
                f"curves have {vals.shape[1]} points but the grid has {self.grid.k}"
            )
        if vals.shape[0] < 1:
            raise InvalidCurve("dataset needs at least one curve")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MultivariateFunctionalDataset:
    """A sample of ``n`` curves with ``d`` components on a shared grid.

    ``values[i, j, m]`` is component ``m`` of curve ``i`` at grid point ``j``.
    """

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        _check_values(vals, 3, "curve tensor")
        if vals.shape[1] != self.grid.k:
            raise InvalidCurve(
                f"curves have {vals.shape[1]} points but the grid has {self.grid.k}"
            )
        if vals.shape[0] < 1 or vals.shape[2] < 1:
            raise InvalidCurve("dataset needs at least one curve and one dimension")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]

    @property
    def n_dims(self) -> int:
        return self.values.shape[2]

    def margin(self, m: int) -> FunctionalDataset:
        """The univariate dataset of component ``m``."""
        return FunctionalDataset(self.values[:, :, m], self.grid)

    @classmethod
    def from_univariate(cls, data: FunctionalDataset) -> "MultivariateFunctionalDataset":
        """Wrap a univariate dataset as a d=1 multivariate one."""
        return cls(data.values[:, :, None], data.grid)
