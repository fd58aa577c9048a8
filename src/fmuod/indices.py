"""Shape, amplitude and magnitude outlyingness indices.

Each curve ``y`` is compared against a reference curve ``r`` on the shared
grid.  With ``~`` denoting centering by the curve's own grid mean, the three
indices are

* shape: ``I_S = 1 - <y~, r~> / (||y~|| ||r~||)``, i.e. one minus the sample
  Pearson correlation between curve and reference, in ``[0, 2]``;
* amplitude: ``I_A = <y~, r~> / ||r~||^2 - 1``, the least-squares slope of
  ``y`` on ``r`` minus one;
* magnitude: ``I_M = mean(y) - (I_A + 1) * mean(r)``, the least-squares
  intercept of ``y`` on ``r``.

All inner products and means weight every grid point equally, so the indices
depend on the grid only through the number of points.  Values near zero mean
the curve resembles the reference; large values point at the corresponding
kind of outlyingness.

The reference is the pointwise median (default) or mean of the sample.  The
median is selected at the one rank ``n // 2`` by ``np.partition``; for even
``n`` it is averaged with the largest value below that rank.  It equals
numpy's median in value, and in every byte unless ``+0.0`` and ``-0.0`` tie
at the middle ranks, where the sign of the zero may differ.  Curves so large
that a grid mean, a sum of squares or an index value overflows raise
:class:`InvalidCurve`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .datasets import FunctionalDataset, _array, _array_eq, _check_choice, _check_dataset, _freeze
from .errors import DegenerateReference, InsufficientData, InvalidCurve

#: Index table variants.  ``standard`` keeps the signed amplitude and
#: magnitude values; ``original_absolute`` stores their absolute values, in
#: which case outlier classification uses upper-tail cutoffs for all three
#: indices.
VARIANT_STANDARD = "standard"
VARIANT_ORIGINAL_ABSOLUTE = "original_absolute"
VARIANTS = (VARIANT_STANDARD, VARIANT_ORIGINAL_ABSOLUTE)

#: Supported reference locations for :func:`reference_from_sample`.
LOCATION_MEDIAN = "median"
LOCATION_MEAN = "mean"
LOCATIONS = (LOCATION_MEDIAN, LOCATION_MEAN)

#: Order of the three index types in every per-type result: the columns of an
#: :class:`IndexTable`, the type axis of vote matrices and vote proportions,
#: and the ``by_type()`` tuples of flags, thresholds and baselines.
TYPE_ORDER = ("shape", "amplitude", "magnitude")


def center_curve(values) -> np.ndarray:
    """Subtract the grid mean of ``values`` from every entry."""
    vals = _array(values, "curve values", float)
    if vals.ndim != 1:
        raise InvalidCurve("expected a single curve (one-dimensional array)")
    if not np.all(np.isfinite(vals)):
        raise InvalidCurve("curve contains NaN or infinite entries")
    return vals - vals.mean()


class _ReferenceStack(NamedTuple):
    """The references of a stack of samples, one row per sample.

    ``values`` and ``centered`` are read-only ``(c, k)`` arrays, ``means``
    holds the grid mean of each reference and ``degenerate`` marks the
    constant ones.
    """

    values: np.ndarray
    centered: np.ndarray
    means: np.ndarray
    degenerate: np.ndarray

    def take(self, rows) -> "_ReferenceStack":
        return _ReferenceStack(*(a[rows] for a in self))


def _constant_rows(curves: np.ndarray) -> np.ndarray:
    """Mask of the curves (along the last axis) whose points all equal the first.

    ``+0.0`` equals ``-0.0``.  On finite curves this marks the same curves as
    a zero range, without a subtraction that can overflow.
    """
    return (curves == curves[..., :1]).all(axis=-1)


def _center_references(refs: np.ndarray) -> _ReferenceStack:
    """Centre a ``(c, k)`` stack of reference curves in one pass.

    Every reduction runs per row, so row ``j`` equals centring ``refs[j]`` on
    its own bit for bit.  Takes ownership of ``refs`` and makes it read-only.
    """
    if not np.all(np.isfinite(refs)):
        raise InvalidCurve("curve contains NaN or infinite entries")
    with np.errstate(over="ignore"):
        means = refs.mean(axis=1)
    centered = refs - means[:, None]
    # A mathematically constant curve centers to exactly zero; rounding in the
    # mean must not leave noise behind that would later divide away.
    centered[_constant_rows(refs)] = 0.0
    if not np.all(np.isfinite(centered)):
        raise InvalidCurve("the grid mean of a reference curve overflows")
    refs.setflags(write=False)
    centered.setflags(write=False)
    return _ReferenceStack(refs, centered, means, ~centered.any(axis=1))


def reference_from_sample(data: FunctionalDataset, location: str = LOCATION_MEDIAN) -> np.ndarray:
    """Pointwise location estimate of a sample of curves, a read-only ``(k,)`` array.

    Parameters
    ----------
    data : FunctionalDataset
        At least two curves.
    location : str
        ``"median"`` (default, robust) or ``"mean"``.
    """
    _check_dataset(data, FunctionalDataset)
    return _references(data.values[None], location).values[0]


def _references(samples: np.ndarray, location: str) -> _ReferenceStack:
    """Pointwise location of each sample in a ``(c, n, k)`` stack of curves.

    The location is taken along the curve axis of the whole stack at once,
    and the references are centred together.  The median is one selection at
    rank ``h = n // 2``: for odd ``n`` it is that order statistic, for even
    ``n`` the mean ``(a + b) / 2`` of it and the largest value below it, as
    numpy's median computes it.  The values equal numpy's; only the sign of
    an exact zero may differ, when ``+0.0`` and ``-0.0`` tie at the middle
    ranks.  The curves must be finite, so no rank is spent on NaNs.
    """
    n = samples.shape[1]
    if n < 2:
        raise InsufficientData("reference estimation needs at least 2 curves")
    _check_choice("location", location, LOCATIONS, InvalidCurve)
    with np.errstate(over="ignore"):
        if location == LOCATION_MEDIAN:
            h = n // 2
            part = np.partition(samples, h, axis=1)
            if n % 2:
                refs = part[:, h].copy()
            else:
                refs = (part[:, :h].max(axis=1) + part[:, h]) / 2
        else:
            refs = samples.mean(axis=1)
    return _center_references(refs)


@dataclass(frozen=True, eq=False)
class IndexTable:
    """Per-curve indices for a whole sample, stored column-wise."""

    shape: np.ndarray
    amplitude: np.ndarray
    magnitude: np.ndarray
    variant: str = VARIANT_STANDARD

    __eq__ = _array_eq

    def __post_init__(self):
        for name in TYPE_ORDER:
            arr = _freeze(self, name)
            if arr.shape != self.shape.shape or arr.ndim != 1:
                raise InvalidCurve("index columns must be one-dimensional and equally long")
        _check_choice("variant", self.variant, VARIANTS, InvalidCurve)

    def __len__(self) -> int:
        return self.shape.size

    def by_type(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The index columns in :data:`TYPE_ORDER`."""
        return (self.shape, self.amplitude, self.magnitude)


def compute_index_table(
    data: FunctionalDataset,
    ref,
    variant: str = VARIANT_STANDARD,
) -> IndexTable:
    """Indices of every curve in ``data`` against the reference curve ``ref``.

    ``ref`` is any one-dimensional array-like of ``data.k`` finite values,
    such as the result of :func:`reference_from_sample`; it is copied, so
    changing it afterwards changes no table.  Every reduction runs
    independently per curve, so row ``i`` equals the one-row table of curve
    ``i`` alone bit for bit; the indices of a single curve are row 0 of its
    one-row table.

    Raises
    ------
    DegenerateReference
        If the reference curve is constant.
    """
    _check_dataset(data, FunctionalDataset)
    _check_choice("variant", variant, VARIANTS, InvalidCurve)
    vals = _array(ref, "reference values", float)
    if vals.ndim != 1:
        raise InvalidCurve("expected a single curve (one-dimensional array)")
    if vals.size != data.k:
        raise InvalidCurve(f"reference has {vals.size} points but the data has {data.k}")
    refs = _center_references(vals[None])
    if refs.degenerate[0]:
        raise DegenerateReference("reference curve is constant")

    columns = _index_columns(data.values[None], refs.centered, refs.means, variant)
    return IndexTable(*columns[:, 0], variant=variant)


def _index_columns(
    samples: np.ndarray, ref_centered: np.ndarray, ref_means: np.ndarray, variant: str
) -> np.ndarray:
    """Indices of a ``(c, n, k)`` stack of samples, sample ``j`` against reference ``j``.

    The references are given by their ``(c, k)`` centred rows and ``(c,)``
    grid means.  Returns a read-only ``(3, c, n)`` array holding the shape,
    amplitude and magnitude columns of every sample.  Every reduction runs per
    curve, so the columns of one sample do not depend on the others in the
    stack.  The references must not be degenerate.

    Raises
    ------
    InvalidCurve
        If a sum of squares or an index value overflows.
    """
    mu_c = ref_centered[:, None, :]
    # One BLAS dot per reference: a batched sum of squares can differ from
    # it in the last bit.
    ref_ss = np.array([np.dot(ref, ref) for ref in ref_centered])[:, None]

    # Overflow shows up below as a non-finite sum of squares or index value.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        row_means = samples.mean(axis=2)
        Xc = samples - row_means[:, :, None]
        # Constant curves (every point equal to the first, tested without a
        # range that could overflow) center to exactly zero mathematically;
        # clear any rounding noise so their inner products vanish and
        # amplitude is -1.
        const = _constant_rows(samples)
        if np.any(const):
            Xc[const] = 0.0

        inner = (Xc * mu_c).sum(axis=2)
        norm_sq = (Xc * Xc).sum(axis=2)
        corr = inner / np.sqrt(norm_sq * ref_ss)
        # The squares of a varying curve this small lose precision or
        # underflow; take its correlation on a copy scaled to unit maximum
        # magnitude.
        tiny = ~const & (norm_sq < 2.0**-900)
        if np.any(tiny):
            ys = samples[tiny] / np.abs(samples[tiny]).max(axis=1, keepdims=True)
            ys -= ys.mean(axis=1, keepdims=True)
            mu = np.broadcast_to(mu_c, samples.shape)[tiny]
            ss = np.broadcast_to(ref_ss, tiny.shape)[tiny]
            corr[tiny] = (ys * mu).sum(axis=1) / np.sqrt((ys * ys).sum(axis=1) * ss)
        beta = inner / ref_ss
        columns = np.stack([1.0 - corr, beta - 1.0, row_means - beta * ref_means[:, None]])
    # Constant curves have no shape to compare; pin their index at 1 (the
    # value of zero correlation).
    columns[0][const] = 1.0
    # A non-finite row mean leaves the magnitude column non-finite; an
    # infinite sum of squares would only zero the correlation or the slope.
    if not (np.all(np.isfinite(columns)) and np.all(np.isfinite(norm_sq))
            and np.all(np.isfinite(ref_ss))):
        raise InvalidCurve("index values overflow; the curves are too large to index")

    if variant == VARIANT_ORIGINAL_ABSOLUTE:
        columns[1:] = np.abs(columns[1:])

    columns.setflags(write=False)
    return columns
