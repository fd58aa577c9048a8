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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import FunctionalDataset, Grid
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


def center_curve(values) -> np.ndarray:
    """Subtract the grid mean of ``values`` from every entry."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise InvalidCurve("expected a single curve (one-dimensional array)")
    if not np.all(np.isfinite(vals)):
        raise InvalidCurve("curve contains NaN or infinite entries")
    return vals - vals.mean()


@dataclass(frozen=True)
class ReferenceCurve:
    """Reference curve with its centered version precomputed."""

    values: np.ndarray
    centered: np.ndarray

    @classmethod
    def from_values(cls, values) -> "ReferenceCurve":
        vals = np.array(values, dtype=float)
        centered = center_curve(vals)
        # A mathematically constant curve centers to exactly zero; rounding in
        # the mean must not leave noise behind that would later divide away.
        if _is_constant(vals):
            centered = np.zeros_like(vals)
        vals.setflags(write=False)
        centered.setflags(write=False)
        return cls(vals, centered)

    @property
    def k(self) -> int:
        return self.values.size

    @property
    def is_degenerate(self) -> bool:
        """True when the reference is constant and defines no shape/amplitude."""
        return not np.any(self.centered)


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise InvalidCurve(f"unknown variant {variant!r}; use one of {VARIANTS}")


def _is_constant(values: np.ndarray) -> bool:
    return bool(np.all(values == values.flat[0]))


def reference_from_sample(data: FunctionalDataset, location: str = LOCATION_MEDIAN) -> ReferenceCurve:
    """Pointwise location estimate of a sample of curves.

    Parameters
    ----------
    data : FunctionalDataset
        At least two curves.
    location : str
        ``"median"`` (default, robust) or ``"mean"``.
    """
    return _references(data.values[None], location)[0]


def _references(samples: np.ndarray, location: str) -> list[ReferenceCurve]:
    """Pointwise location of each sample in a ``(c, n, k)`` stack of curves.

    The location is taken along the curve axis of the whole stack at once;
    each reference is then centred and tested for degeneracy on its own.
    """
    if samples.shape[1] < 2:
        raise InsufficientData("reference estimation needs at least 2 curves")
    if location == LOCATION_MEDIAN:
        refs = np.median(samples, axis=1)
    elif location == LOCATION_MEAN:
        refs = samples.mean(axis=1)
    else:
        raise InvalidCurve(f"unknown location {location!r}; use one of {LOCATIONS}")
    return [ReferenceCurve.from_values(ref) for ref in refs]


@dataclass(frozen=True)
class IndexTriple:
    """Shape, amplitude and magnitude indices of one curve."""

    shape: float
    amplitude: float
    magnitude: float

    @property
    def beta(self) -> float:
        """Least-squares slope of the curve on the reference; ``amplitude + 1``."""
        return self.amplitude + 1.0


@dataclass(frozen=True)
class IndexTable:
    """Per-curve indices for a whole sample, stored column-wise."""

    shape: np.ndarray
    amplitude: np.ndarray
    magnitude: np.ndarray
    variant: str = VARIANT_STANDARD

    def __post_init__(self):
        for arr in (self.shape, self.amplitude, self.magnitude):
            if arr.shape != self.shape.shape or arr.ndim != 1:
                raise InvalidCurve("index columns must be one-dimensional and equally long")
        _check_variant(self.variant)

    def __len__(self) -> int:
        return self.shape.size

    def row(self, i: int) -> IndexTriple:
        return IndexTriple(
            float(self.shape[i]), float(self.amplitude[i]), float(self.magnitude[i])
        )

    @property
    def rows(self) -> list[IndexTriple]:
        return [self.row(i) for i in range(len(self))]


def compute_index_table(
    data: FunctionalDataset,
    ref: ReferenceCurve,
    variant: str = VARIANT_STANDARD,
) -> IndexTable:
    """Indices of every curve in ``data`` against ``ref``.

    Row ``i`` of the result equals ``compute_indices(data.values[i], ref)``
    bit for bit: every reduction runs independently per curve.

    Raises
    ------
    DegenerateReference
        If the reference curve is constant.
    """
    _check_variant(variant)
    if ref.k != data.k:
        raise InvalidCurve(f"reference has {ref.k} points but the data has {data.k}")
    if ref.is_degenerate:
        raise DegenerateReference("reference curve is constant")

    shape, amplitude, magnitude = _index_columns(data.values[None], [ref], variant)[:, 0]
    return IndexTable(shape, amplitude, magnitude, variant)


def _index_columns(samples: np.ndarray, refs: list[ReferenceCurve], variant: str) -> np.ndarray:
    """Indices of a ``(c, n, k)`` stack of samples, sample ``j`` against ``refs[j]``.

    Returns a read-only ``(3, c, n)`` array holding the shape, amplitude and
    magnitude columns of every sample.  Every reduction runs per curve, so
    the columns of one sample do not depend on the others in the stack.
    The references must not be degenerate.
    """
    mu_c = np.stack([ref.centered for ref in refs])[:, None, :]
    # One BLAS dot per reference: a batched sum of squares can differ from
    # it in the last bit.
    ref_ss = np.array([np.dot(ref.centered, ref.centered) for ref in refs])[:, None]
    ref_mean = np.array([ref.values.mean() for ref in refs])[:, None]

    row_means = samples.mean(axis=2)
    Xc = samples - row_means[:, :, None]
    # Constant curves center to exactly zero mathematically; clear any
    # rounding noise so their inner products vanish and amplitude is -1.
    const = np.ptp(samples, axis=2) == 0.0
    if np.any(const):
        Xc[const] = 0.0

    inner = (Xc * mu_c).sum(axis=2)
    norm_sq = (Xc * Xc).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = inner / np.sqrt(norm_sq * ref_ss)
    # The squares of a varying curve this small lose precision or underflow;
    # take its correlation on a copy scaled to unit maximum magnitude.
    tiny = ~const & (norm_sq < 2.0**-900)
    if np.any(tiny):
        ys = samples[tiny] / np.abs(samples[tiny]).max(axis=1, keepdims=True)
        ys -= ys.mean(axis=1, keepdims=True)
        mu = np.broadcast_to(mu_c, samples.shape)[tiny]
        ss = np.broadcast_to(ref_ss, tiny.shape)[tiny]
        corr[tiny] = (ys * mu).sum(axis=1) / np.sqrt((ys * ys).sum(axis=1) * ss)
    beta = inner / ref_ss
    columns = np.stack([1.0 - corr, beta - 1.0, row_means - beta * ref_mean])
    # Constant curves have no shape to compare; pin their index at 1 (the
    # value of zero correlation).
    columns[0][const] = 1.0

    if variant == VARIANT_ORIGINAL_ABSOLUTE:
        columns[1:] = np.abs(columns[1:])

    columns.setflags(write=False)
    return columns


def compute_indices(values, ref: ReferenceCurve, variant: str = VARIANT_STANDARD) -> IndexTriple:
    """Indices of a single curve against ``ref``.

    ``values`` must be one-dimensional with ``ref.k`` entries.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise InvalidCurve("expected a single curve (one-dimensional array)")
    data = FunctionalDataset(vals[None, :], Grid.regular(vals.size))
    return compute_index_table(data, ref, variant).row(0)
