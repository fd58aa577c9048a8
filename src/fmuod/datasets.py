"""Containers for discretised functional data.

A dataset is its ``(n, k)`` or ``(n, k, d)`` array of values: ``n`` curves,
each observed at the same ``k`` points.  The grid is the ``k`` equidistant
points on [0, 1].  All index computations weight every grid point equally, so
they depend on the grid only through ``k``, and only the simulation evaluates
curves at the points themselves.  Written files keep the point's position
(``t_index``) only.

The containers of arrays, here and in the other modules, hold read-only
copies (:func:`_freeze`) and compare by value (:func:`_array_eq`).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import FmuodError, InvalidConfig, InvalidCurve


def _is_integer(value) -> bool:
    """True for an integer other than ``bool``."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for a real number other than ``bool``."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_choice(name: str, value, choices: tuple, error: type[FmuodError] = InvalidConfig) -> None:
    """Reject a ``value`` of option ``name`` that is not one of ``choices``."""
    if value not in choices:
        raise error(f"unknown {name} {value!r}; use one of {choices}")


def _check_size(what: str, size: int) -> None:
    """Reject ``size`` elements, counted from user input, past numpy's index range."""
    if size > np.iinfo(np.intp).max:
        raise InvalidConfig(f"{what} values exceed what a numpy array can index")


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


def _check_values(values: np.ndarray, ndim: int, what: str) -> None:
    if values.ndim != ndim:
        raise InvalidCurve(f"{what} must be {ndim}-dimensional, got shape {values.shape}")
    if values.shape[1] < 2:
        raise InvalidCurve(f"curves need at least 2 points, got {values.shape[1]}")
    if not np.all(np.isfinite(values)):
        raise InvalidCurve(f"{what} contains NaN or infinite entries")


@dataclass(frozen=True, eq=False)
class FunctionalDataset:
    """A sample of ``n`` univariate curves on a shared grid.

    ``values[i, j]`` is curve ``i`` at grid point ``j``.
    """

    values: np.ndarray

    __eq__ = _array_eq

    def __post_init__(self):
        vals = _freeze(self, "values", float)
        _check_values(vals, 2, "curve matrix")
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

    __eq__ = _array_eq

    def __post_init__(self):
        vals = _freeze(self, "values", float)
        _check_values(vals, 3, "curve tensor")
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
        return FunctionalDataset(self.values[:, :, m])

    @classmethod
    def from_univariate(cls, data: FunctionalDataset) -> "MultivariateFunctionalDataset":
        """Wrap a univariate dataset as a d=1 multivariate one."""
        return cls(data.values[:, :, None])
