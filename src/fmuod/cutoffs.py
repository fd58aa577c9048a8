"""Boxplot-style cutoffs turning index values into outlier flags.

A value is flagged when it falls strictly beyond a whisker placed
:data:`WHISKER_FACTOR` (1.5) times the interquartile range outside the
quartiles.  The table variant picks the tails (:func:`rules_for`): shape
indices are right-skewed by construction, so only their upper tail is
tested; amplitude and magnitude are signed and tested on both tails, except
in ``original_absolute`` tables, which hold their absolute values and are
tested on the upper tail only.

The quartiles are numpy's default linear quartiles, read at the virtual rank
``(n - 1) q`` for ``q`` = 0.25 and 0.75 and taken from one selection of the
ranks around both.  They have the same values as numpy's ``percentile``; only
the sign of a zero quartile may differ, which no fence comparison can see.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidConfig, InvalidCurve
from .indices import VARIANT_ORIGINAL_ABSOLUTE, IndexTable

RULE_UPPER_ONLY = "upper_only"
RULE_TWO_SIDED = "two_sided"
RULES = (RULE_UPPER_ONLY, RULE_TWO_SIDED)

#: Multiple of the interquartile range placed beyond the quartiles.
WHISKER_FACTOR = 1.5

#: Minimum sample size for quartile-based cutoffs.
MIN_CUTOFF_SAMPLE = 4


def rules_for(variant: str) -> tuple[str, str, str]:
    """Rules of the shape, amplitude and magnitude columns of a table variant.

    Absolute-value tables carry no sign information, so every column is
    tested on the upper tail only; any other variant gets the standard rules.
    """
    if variant == VARIANT_ORIGINAL_ABSOLUTE:
        return (RULE_UPPER_ONLY, RULE_UPPER_ONLY, RULE_UPPER_ONLY)
    return (RULE_UPPER_ONLY, RULE_TWO_SIDED, RULE_TWO_SIDED)


@dataclass(frozen=True)
class FlagSet:
    """Outlier index sets per index type for a sample of ``n`` curves."""

    n: int
    shape_outliers: frozenset[int]
    amplitude_outliers: frozenset[int]
    magnitude_outliers: frozenset[int]

    def __post_init__(self):
        for flagged in (self.shape_outliers, self.amplitude_outliers, self.magnitude_outliers):
            if flagged and (min(flagged) < 0 or max(flagged) >= self.n):
                raise InvalidConfig("flagged indices out of range")

    @property
    def union(self) -> frozenset[int]:
        return self.shape_outliers | self.amplitude_outliers | self.magnitude_outliers


def boxplot_cutoff(values, rule: str = RULE_TWO_SIDED) -> frozenset[int]:
    """Indices of entries strictly beyond the boxplot whiskers.

    Parameters
    ----------
    values : array_like
        One-dimensional sample, at least :data:`MIN_CUTOFF_SAMPLE` entries.
    rule : str
        ``"two_sided"`` flags both tails, ``"upper_only"`` just the right one.

    Raises
    ------
    InvalidCurve
        If a value is NaN or infinite.

    Notes
    -----
    The quartiles are numpy's default linear quartiles at the virtual rank
    ``(n - 1) q``, taken from one selection; they equal numpy's
    ``percentile`` in value, and only the sign of a zero quartile may differ.
    The fences sit :data:`WHISKER_FACTOR` interquartile ranges beyond them;
    values exactly on a fence are not flagged.

    No minimum spread is applied.  When ties make the interquartile range
    zero, both fences sit on the common quartile, so any value that differs
    from it at all is flagged (a lone ``1e-300`` among zeros is), while a
    sample whose values are all equal flags nothing.
    """
    if rule not in RULES:
        raise InvalidConfig(f"unknown cutoff rule {rule!r}; use one of {RULES}")
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise InvalidConfig("cutoff expects a one-dimensional value array")
    if not np.all(np.isfinite(vals)):
        raise InvalidCurve("cutoff values contain NaN or infinite entries")
    mask = _fence_masks(vals[None], (rule,))[0]
    return frozenset(np.nonzero(mask)[0].tolist())


def _quartiles(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and third quartiles along the last axis, with that axis kept.

    One selection places the ranks ``floor((n - 1) q)`` and the one above it
    for both quartiles; each quartile interpolates between them by numpy's
    linear rule.  The columns must be finite, so no rank is spent on NaNs.
    """
    n = columns.shape[-1]
    virtual = [(n - 1) * q for q in (0.25, 0.75)]
    below = [int(v) for v in virtual]
    # A set of Python ints, not np.unique: that one imports numpy.ma.
    part = np.partition(columns, sorted({r + s for r in below for s in (0, 1)}), axis=-1)
    quartiles = []
    for v, r in zip(virtual, below):
        a, b = part[..., r:r + 1], part[..., r + 1:r + 2]
        g = v - r
        # numpy's _lerp: interpolate from the nearer end.
        quartiles.append(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)
    return quartiles[0], quartiles[1]


def _fence_masks(columns: np.ndarray, rules) -> np.ndarray:
    """Boolean masks of the entries strictly beyond the boxplot whiskers.

    ``columns`` has shape ``(len(rules), ..., n)``: ``columns[t]`` is tested
    under ``rules[t]``, and every sample along the last axis gets its own
    quartiles.
    """
    n = columns.shape[-1]
    if n < MIN_CUTOFF_SAMPLE:
        raise InsufficientData(
            f"boxplot cutoff needs at least {MIN_CUTOFF_SAMPLE} values, got {n}"
        )
    q1, q3 = _quartiles(columns)
    iqr = q3 - q1
    masks = columns > q3 + WHISKER_FACTOR * iqr
    for t, rule in enumerate(rules):
        if rule == RULE_TWO_SIDED:
            masks[t] |= columns[t] < q1[t] - WHISKER_FACTOR * iqr[t]
    return masks


def classify_outliers(table: IndexTable) -> FlagSet:
    """Apply boxplot cutoffs to each column of an index table.

    The rules of each column follow the table's variant (:func:`rules_for`).

    Raises
    ------
    InvalidCurve
        If a column holds NaN or infinite values.
    """
    columns = np.stack([table.shape, table.amplitude, table.magnitude])
    if not np.all(np.isfinite(columns)):
        raise InvalidCurve("index values contain NaN or infinite entries")
    masks = _fence_masks(columns, rules_for(table.variant))
    return FlagSet(len(table), *(frozenset(np.nonzero(mask)[0].tolist()) for mask in masks))
