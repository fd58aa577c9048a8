"""Containers for discretised functional data.

Curves are observed on a common equidistant grid.  All index computations
weight every grid point equally, so the grid abscissae only matter for
simulation (where curves are evaluated from closed forms) and for plotting.

The containers of arrays, here and in the other modules, hold read-only
copies (:func:`_freeze`) and compare by value (:func:`_array_eq`).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import FmuodError, InvalidCurve

#: Maximum deviation between grid steps before a grid is rejected, relative to
#: the grid's largest absolute point when that exceeds one.
SPACING_TOL = 1e-12


def _is_integer(value) -> bool:
    """True for an integer other than ``bool``."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for a real number other than ``bool``."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _array(values, what: str, dtype=None, error: type[FmuodError] = InvalidCurve) -> np.ndarray:
    """A copy of ``values`` as an array; input numpy cannot convert raises ``error``."""
    try:
        return np.array(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be a regular array of numbers ({exc})") from None


def _freeze(obj, name: str, dtype=None, error: type[FmuodError] = InvalidCurve) -> np.ndarray:
    """Replace field ``name`` of the frozen ``obj`` by a read-only copy and return it."""
    arr = _array(getattr(obj, name), name, dtype, error)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


def _check_dataset(data, cls: type) -> None:
    """Reject a ``data`` argument that is not a ``cls`` dataset."""
    if not isinstance(data, cls):
        raise InvalidCurve(f"expected a {cls.__name__}, got a {type(data).__name__}")


def _array_eq(self, other):
    """``__eq__`` for a dataclass declared with ``eq=False`` that holds arrays.

    Equal when the classes match and so does every compared field, arrays by
    ``np.array_equal``.  A class that sets ``__eq__`` in its body is unhashable.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
    return all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a == b
        for a, b in pairs
    )


@dataclass(frozen=True, eq=False)
class Grid:
    """Equidistant evaluation points ``t_1 < t_2 < ... < t_k``.

    Parameters
    ----------
    points : array_like
        One-dimensional, strictly increasing, finite, with at least two
        entries.  Steps must agree within :data:`SPACING_TOL` times
        ``max(1, max|t|)``.
    """

    points: np.ndarray

    __eq__ = _array_eq

    def __post_init__(self):
        pts = _freeze(self, "points", float)
        if pts.ndim != 1 or pts.size < 2:
            raise InvalidCurve("grid must be one-dimensional with at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise InvalidCurve("grid points must be finite")
        steps = np.diff(pts)
        if not np.all(steps > 0):
            raise InvalidCurve("grid points must be strictly increasing")
        spacing = (pts[-1] - pts[0]) / (pts.size - 1)
        tol = SPACING_TOL * max(1.0, float(np.abs(pts).max()))
        if np.max(np.abs(steps - spacing)) > tol:
            raise InvalidCurve(f"grid is not equidistant within {tol:g}")

    @classmethod
    def regular(cls, k: int) -> "Grid":
        """Build the k-point equidistant grid on [0, 1]."""
        if not _is_integer(k):
            raise InvalidCurve(f"grid size must be an integer, got {k!r}")
        if k < 2:
            raise InvalidCurve("grid needs at least 2 points")
        return cls(np.linspace(0.0, 1.0, k))

    @property
    def k(self) -> int:
        return self.points.size

    @property
    def spacing(self) -> float:
        return float((self.points[-1] - self.points[0]) / (self.points.size - 1))


def _check_values(values: np.ndarray, ndim: int, what: str, grid: Grid) -> None:
    if values.ndim != ndim:
        raise InvalidCurve(f"{what} must be {ndim}-dimensional, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidCurve(f"{what} contains NaN or infinite entries")
    if values.shape[1] != grid.k:
        raise InvalidCurve(f"curves have {values.shape[1]} points but the grid has {grid.k}")


@dataclass(frozen=True, eq=False)
class FunctionalDataset:
    """A sample of ``n`` univariate curves on a shared grid.

    ``values[i, j]`` is curve ``i`` evaluated at ``grid.points[j]``.
    """

    values: np.ndarray
    grid: Grid

    __eq__ = _array_eq

    def __post_init__(self):
        vals = _freeze(self, "values", float)
        _check_values(vals, 2, "curve matrix", self.grid)
        if vals.shape[0] < 1:
            raise InvalidCurve("dataset needs at least one curve")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class MultivariateFunctionalDataset:
    """A sample of ``n`` curves with ``d`` components on a shared grid.

    ``values[i, j, m]`` is component ``m`` of curve ``i`` at grid point ``j``.
    """

    values: np.ndarray
    grid: Grid

    __eq__ = _array_eq

    def __post_init__(self):
        vals = _freeze(self, "values", float)
        _check_values(vals, 3, "curve tensor", self.grid)
        if vals.shape[0] < 1 or vals.shape[2] < 1:
            raise InvalidCurve("dataset needs at least one curve and one dimension")

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
        """The univariate dataset of component ``m``, for ``0 <= m < n_dims``."""
        if not _is_integer(m) or not 0 <= m < self.n_dims:
            raise InvalidCurve(f"component must be an integer in [0, {self.n_dims}), got {m!r}")
        return FunctionalDataset(self.values[:, :, m], self.grid)

    @classmethod
    def from_univariate(cls, data: FunctionalDataset) -> "MultivariateFunctionalDataset":
        """Wrap a univariate dataset as a d=1 multivariate one."""
        return cls(data.values[:, :, None], data.grid)
