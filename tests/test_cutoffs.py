import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmuod import (
    CutoffSpec,
    FlagSet,
    FunctionalDataset,
    Grid,
    InsufficientData,
    InvalidConfig,
    ReferenceCurve,
    boxplot_cutoff,
    classify_outliers,
    compute_index_table,
)
from fmuod.cutoffs import RULE_TWO_SIDED, RULE_UPPER_ONLY
from fmuod.indices import VARIANT_ORIGINAL_ABSOLUTE


def test_boxplot_flags_single_spike():
    # values 1..9 plus 100: q1=3.25, q3=7.75, fence 7.75 + 1.5*4.5 = 14.5
    values = list(range(1, 10)) + [100]
    assert boxplot_cutoff(values) == {9}
    assert boxplot_cutoff(values, RULE_UPPER_ONLY) == {9}


def test_boxplot_two_sided_catches_both_tails():
    values = [-100.0] + list(range(1, 10)) + [100.0]
    assert boxplot_cutoff(values, RULE_TWO_SIDED) == {0, 10}
    assert boxplot_cutoff(values, RULE_UPPER_ONLY) == {10}


def test_boxplot_fence_is_strict():
    # 0,1,2,3,4: q1=1, q3=3, upper fence = 6, lower fence = -2
    values = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0]
    # recompute fences for the 6-point sample and place points exactly on them
    q1, q3 = np.percentile(values, [25, 75])
    hi = q3 + 1.5 * (q3 - q1)
    lo = q1 - 1.5 * (q3 - q1)
    sample = [lo, 1.0, 2.0, 3.0, 4.0, hi]
    assert boxplot_cutoff(sample, RULE_TWO_SIDED) == frozenset()


def test_boxplot_zero_iqr_flags_any_departure_and_no_ties():
    # ties make q1 == q3, so both fences sit on the tied value
    spike = [0.0] * 9 + [1e-300]
    assert boxplot_cutoff(spike, RULE_TWO_SIDED) == {9}
    assert boxplot_cutoff(spike, RULE_UPPER_ONLY) == {9}
    assert boxplot_cutoff([2.5] * 10, RULE_TWO_SIDED) == frozenset()


def test_boxplot_needs_four_values():
    with pytest.raises(InsufficientData):
        boxplot_cutoff([1.0, 2.0, 3.0])
    assert boxplot_cutoff([1.0, 2.0, 3.0, 4.0]) == frozenset()


def test_boxplot_rejects_bad_config():
    with pytest.raises(InvalidConfig):
        boxplot_cutoff([1.0, 2.0, 3.0, 4.0], rule="sideways")
    with pytest.raises(InvalidConfig):
        boxplot_cutoff(np.zeros((2, 2)))


def test_whisker_factor_widens_fences():
    values = list(range(1, 10)) + [16.0]
    assert boxplot_cutoff(values, whisker_factor=1.5) == {9}
    assert boxplot_cutoff(values, whisker_factor=3.0) == frozenset()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=4,
        max_size=60,
    )
)
def test_two_sided_contains_upper_only(values):
    upper = boxplot_cutoff(values, RULE_UPPER_ONLY)
    both = boxplot_cutoff(values, RULE_TWO_SIDED)
    assert upper <= both


def test_cutoff_spec_validation():
    with pytest.raises(InvalidConfig):
        CutoffSpec(whisker_factor=0.0)
    with pytest.raises(InvalidConfig):
        CutoffSpec(whisker_factor=np.inf)
    with pytest.raises(InvalidConfig):
        CutoffSpec(shape_rule="bogus")


def test_cutoff_spec_for_variant():
    default = CutoffSpec.for_variant("standard")
    assert default.amplitude_rule == RULE_TWO_SIDED
    assert default.magnitude_rule == RULE_TWO_SIDED
    assert default.shape_rule == RULE_UPPER_ONLY
    absolute = CutoffSpec.for_variant(VARIANT_ORIGINAL_ABSOLUTE)
    assert absolute.amplitude_rule == RULE_UPPER_ONLY
    assert absolute.magnitude_rule == RULE_UPPER_ONLY


def test_flag_set_union_and_validation():
    flags = FlagSet(5, frozenset({0}), frozenset({1, 2}), frozenset({2, 4}))
    assert flags.union == {0, 1, 2, 4}
    assert FlagSet.empty(3).union == frozenset()
    with pytest.raises(InvalidConfig):
        FlagSet(3, frozenset({3}), frozenset(), frozenset())
    with pytest.raises(InvalidConfig):
        FlagSet(3, frozenset({-1}), frozenset(), frozenset())


def _magnitude_outlier_table(shift):
    rng = np.random.default_rng(7)
    values = rng.standard_normal((30, 20)) * 0.2 + np.linspace(0.0, 1.0, 20)
    values[4] += shift
    data = FunctionalDataset(values, Grid.regular(20))
    ref = ReferenceCurve.from_values(np.median(values, axis=0))
    return compute_index_table(data, ref)


def test_classify_flags_shifted_curve_as_magnitude_outlier():
    flags = classify_outliers(_magnitude_outlier_table(8.0))
    assert 4 in flags.magnitude_outliers
    assert flags.n == 30


def test_classify_two_sided_sees_downward_shift_upper_only_does_not():
    table = _magnitude_outlier_table(-8.0)
    two_sided = classify_outliers(table)
    assert 4 in two_sided.magnitude_outliers
    upper = classify_outliers(
        table, CutoffSpec(magnitude_rule=RULE_UPPER_ONLY, amplitude_rule=RULE_UPPER_ONLY)
    )
    assert 4 not in upper.magnitude_outliers


def test_classify_defaults_follow_table_variant():
    """original_absolute tables get upper-only rules, catching |shift| again."""
    rng = np.random.default_rng(7)
    values = rng.standard_normal((30, 20)) * 0.2 + np.linspace(0.0, 1.0, 20)
    values[4] -= 8.0
    data = FunctionalDataset(values, Grid.regular(20))
    ref = ReferenceCurve.from_values(np.median(values, axis=0))
    table = compute_index_table(data, ref, VARIANT_ORIGINAL_ABSOLUTE)
    flags = classify_outliers(table)
    assert 4 in flags.magnitude_outliers
