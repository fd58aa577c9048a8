"""Boxplot-style cutoffs turning index values into outlier flags.

A value is flagged when it falls strictly beyond a whisker placed at
``whisker_factor`` times the interquartile range outside the quartiles.
Shape indices are right-skewed by construction, so only their upper tail is
tested; amplitude and magnitude are signed and tested on both tails.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidConfig
from .indices import VARIANT_ORIGINAL_ABSOLUTE, IndexTable

RULE_UPPER_ONLY = "upper_only"
RULE_TWO_SIDED = "two_sided"
RULES = (RULE_UPPER_ONLY, RULE_TWO_SIDED)

#: Minimum sample size for quartile-based cutoffs.
MIN_CUTOFF_SAMPLE = 4


@dataclass(frozen=True)
class CutoffSpec:
    """Cutoff rules applied to the three index columns."""

    whisker_factor: float = 1.5
    shape_rule: str = RULE_UPPER_ONLY
    amplitude_rule: str = RULE_TWO_SIDED
    magnitude_rule: str = RULE_TWO_SIDED

    def __post_init__(self):
        if not (np.isfinite(self.whisker_factor) and self.whisker_factor > 0):
            raise InvalidConfig("whisker_factor must be finite and positive")
        for rule in (self.shape_rule, self.amplitude_rule, self.magnitude_rule):
            if rule not in RULES:
                raise InvalidConfig(f"unknown cutoff rule {rule!r}; use one of {RULES}")

    @property
    def rules(self) -> tuple[str, str, str]:
        """Rules of the shape, amplitude and magnitude columns, in that order."""
        return (self.shape_rule, self.amplitude_rule, self.magnitude_rule)

    @classmethod
    def for_variant(cls, variant: str) -> "CutoffSpec":
        """Default rules for an index-table variant.

        Absolute-value tables carry no sign information, so every column is
        tested on the upper tail only.
        """
        if variant == VARIANT_ORIGINAL_ABSOLUTE:
            return cls(amplitude_rule=RULE_UPPER_ONLY, magnitude_rule=RULE_UPPER_ONLY)
        return cls()


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

    @classmethod
    def empty(cls, n: int) -> "FlagSet":
        e = frozenset()
        return cls(n, e, e, e)


def boxplot_cutoff(values, rule: str = RULE_TWO_SIDED, whisker_factor: float = 1.5) -> frozenset[int]:
    """Indices of entries strictly beyond the boxplot whiskers.

    Parameters
    ----------
    values : array_like
        One-dimensional sample, at least :data:`MIN_CUTOFF_SAMPLE` entries.
    rule : str
        ``"two_sided"`` flags both tails, ``"upper_only"`` just the right one.
    whisker_factor : float
        Multiple of the interquartile range added beyond the quartiles.

    Notes
    -----
    Quartiles use linear interpolation.  Values exactly on a fence are not
    flagged.

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
    mask = _fence_masks(vals[None], (rule,), whisker_factor)[0]
    return frozenset(np.nonzero(mask)[0].tolist())


def _fence_masks(columns: np.ndarray, rules, whisker_factor: float) -> np.ndarray:
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
    q1, q3 = np.percentile(columns, [25.0, 75.0], axis=-1, keepdims=True)
    iqr = q3 - q1
    masks = columns > q3 + whisker_factor * iqr
    for t, rule in enumerate(rules):
        if rule == RULE_TWO_SIDED:
            masks[t] |= columns[t] < q1[t] - whisker_factor * iqr[t]
    return masks


def classify_outliers(table: IndexTable, spec: CutoffSpec | None = None) -> FlagSet:
    """Apply boxplot cutoffs to each column of an index table.

    When ``spec`` is omitted the rules default to
    :meth:`CutoffSpec.for_variant` of the table's variant.
    """
    if spec is None:
        spec = CutoffSpec.for_variant(table.variant)
    columns = np.stack([table.shape, table.amplitude, table.magnitude])
    masks = _fence_masks(columns, spec.rules, spec.whisker_factor)
    return FlagSet(len(table), *(frozenset(np.nonzero(mask)[0].tolist()) for mask in masks))
