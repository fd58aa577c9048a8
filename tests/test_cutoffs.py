import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmuod import (
    FlagSet,
    FunctionalDataset,
    Grid,
    IndexTable,
    InsufficientData,
    InvalidConfig,
    InvalidCurve,
    ReferenceCurve,
    boxplot_cutoff,
    classify_outliers,
    compute_index_table,
)
from fmuod.cutoffs import (
    RULE_TWO_SIDED,
    RULE_UPPER_ONLY,
    WHISKER_FACTOR,
    _fence_masks,
    _quartiles,
    rules_for,
)
from fmuod.indices import VARIANT_ORIGINAL_ABSOLUTE, VARIANT_STANDARD


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fences_reject_non_finite_values(bad):
    with pytest.raises(InvalidCurve, match="NaN or infinite"):
        boxplot_cutoff([1.0, 2.0, 3.0, bad, 5.0])
    column = np.arange(6.0)
    for t in range(3):
        columns = [column.copy() for _ in range(3)]
        columns[t][2] = bad
        with pytest.raises(InvalidCurve, match="NaN or infinite"):
            classify_outliers(IndexTable(*columns))


def test_whisker_factor_widens_fences():
    # 1..9 plus one larger value: q1=3.25, q3=7.75, so the fence sits at
    # 7.75 + 1.5*4.5 = 14.5, and a value on it is not flagged
    assert WHISKER_FACTOR == 1.5
    assert boxplot_cutoff(list(range(1, 10)) + [14.6], RULE_UPPER_ONLY) == {9}
    assert boxplot_cutoff(list(range(1, 10)) + [14.5], RULE_UPPER_ONLY) == frozenset()


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


def test_cutoff_spec_for_variant():
    standard = (RULE_UPPER_ONLY, RULE_TWO_SIDED, RULE_TWO_SIDED)
    assert rules_for("standard") == standard
    assert rules_for(VARIANT_ORIGINAL_ABSOLUTE) == (RULE_UPPER_ONLY,) * 3
    # unknown variants get the standard rules; IndexTable rejects them
    assert rules_for("bogus") == standard


def test_flag_set_union_and_validation():
    flags = FlagSet(5, frozenset({0}), frozenset({1, 2}), frozenset({2, 4}))
    assert flags.union == {0, 1, 2, 4}
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
    assert 4 not in boxplot_cutoff(table.magnitude, RULE_UPPER_ONLY)


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


# ---------------------------------------------------------------------------
# the quartiles against np.percentile

# A small pool makes ties, signed zeros and extreme magnitudes common.
TIE_POOL = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300])


@st.composite
def fence_columns(draw):
    """A ``(3, c, n)`` stack of index columns, n from 4 to 300, mostly tied."""
    c = draw(st.integers(1, 2))
    n = draw(st.integers(4, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.choice(TIE_POOL, draw(st.integers(1, TIE_POOL.size)), replace=False)
    pool = np.concatenate([pool, rng.standard_normal(draw(st.integers(0, 3)))])
    return rng.choice(pool, (3, c, n))


def percentile_fence_masks(columns, rules):
    """The fences as ``np.percentile`` quartiles give them."""
    q1, q3 = np.percentile(columns, [25.0, 75.0], axis=-1, keepdims=True)
    iqr = q3 - q1
    masks = columns > q3 + WHISKER_FACTOR * iqr
    for t, rule in enumerate(rules):
        if rule == RULE_TWO_SIDED:
            masks[t] |= columns[t] < q1[t] - WHISKER_FACTOR * iqr[t]
    return masks


FENCE_EXAMPLES = [
    np.array([[[3.0, -1.0, 0.0, 2.0]]] * 3),  # n = 4: (n - 1) q = 0.75 and 2.25
    np.array([[[0.0, 7.0, -0.0, 1.0, 5.0]]] * 3),  # n = 5: integer virtual ranks
    np.full((3, 2, 9), 2.5),  # all equal
    np.array([[[0.0, -0.0, -0.0, 0.0, 0.0, -0.0]]] * 3),  # all equal, mixed zero signs
]


@settings(max_examples=300, deadline=None)
@given(fence_columns())
@example(FENCE_EXAMPLES[0])
@example(FENCE_EXAMPLES[1])
@example(FENCE_EXAMPLES[2])
@example(FENCE_EXAMPLES[3])
# The quartile neighbours differ by more than the largest float, so numpy's
# rule yields NaN at an integer virtual rank; the selection must too.
@example(np.array([[[1.7e308, -1.7e308, 1.7e308, -1.7e308, 1.7e308]]]))
def test_quartiles_equal_np_percentile(columns):
    with np.errstate(over="ignore", invalid="ignore"):
        quartiles = _quartiles(columns)
        expected = np.percentile(columns, [25.0, 75.0], axis=-1, keepdims=True)
    for got, want in zip(quartiles, expected):
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        # The bytes may differ only in the sign of a zero quartile.
        nonzero = want != 0.0
        assert np.array_equal(got.view(np.int64)[nonzero], want.view(np.int64)[nonzero])


@settings(max_examples=300, deadline=None)
@given(
    fence_columns(),
    st.sampled_from([rules_for(VARIANT_STANDARD), rules_for(VARIANT_ORIGINAL_ABSOLUTE)]),
)
@example(FENCE_EXAMPLES[0], rules_for(VARIANT_STANDARD))
@example(FENCE_EXAMPLES[1], rules_for(VARIANT_STANDARD))
@example(FENCE_EXAMPLES[2], rules_for(VARIANT_ORIGINAL_ABSOLUTE))
@example(FENCE_EXAMPLES[3], rules_for(VARIANT_STANDARD))
def test_fence_masks_equal_percentile_fences(columns, rules):
    masks = _fence_masks(columns, rules)
    assert masks.tobytes() == percentile_fence_masks(columns, rules).tobytes()
