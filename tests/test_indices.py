import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fmuod import (
    DegenerateReference,
    FunctionalDataset,
    Grid,
    InsufficientData,
    InvalidCurve,
    ReferenceCurve,
    center_curve,
    compute_index_table,
    reference_from_sample,
)
from fmuod.indices import (
    LOCATION_MEAN,
    LOCATION_MEDIAN,
    VARIANT_ORIGINAL_ABSOLUTE,
    VARIANT_STANDARD,
    _center_references,
    _constant_rows,
    _references,
)


def make_ref(values):
    return ReferenceCurve.from_values(np.asarray(values, dtype=float))


def index_rows(curves, ref, variant=VARIANT_STANDARD):
    """Index table of ``curves`` stacked into one sample, one row per curve."""
    values = np.array(curves, dtype=float, ndmin=2)
    return compute_index_table(FunctionalDataset(values, Grid.regular(values.shape[1])), ref, variant)


def random_curves(seed, n, k, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((n, k)) + rng.uniform(-2.0, 2.0)


# ---------------------------------------------------------------------------
# worked examples


def test_candidate_equal_to_reference_is_all_zero():
    ref = make_ref([0.3, 1.7, -0.2, 0.9])
    table = index_rows(ref.values, ref)
    assert table.shape[0] == pytest.approx(0.0, abs=1e-12)
    assert table.amplitude[0] == pytest.approx(0.0, abs=1e-12)
    assert table.magnitude[0] == pytest.approx(0.0, abs=1e-12)


def test_double_slope_worked_example():
    # ref (0,1,2), y (0,2,4): centered y=(-2,0,2), centered ref=(-1,0,1),
    # slope 4/2 = 2, intercept mean(y) - 2*mean(ref) = 0.
    ref = make_ref([0.0, 1.0, 2.0])
    table = index_rows([0.0, 2.0, 4.0], ref)
    assert table.shape[0] == pytest.approx(0.0, abs=1e-12)
    assert table.amplitude[0] == pytest.approx(1.0)
    assert table.magnitude[0] == pytest.approx(0.0, abs=1e-12)


def test_vertical_shift_worked_example():
    ref = make_ref([0.1, 0.5, 0.9, 0.4])
    table = index_rows(ref.values + 5.0, ref)
    assert table.shape[0] == pytest.approx(0.0, abs=1e-12)
    assert table.amplitude[0] == pytest.approx(0.0, abs=1e-12)
    assert table.magnitude[0] == pytest.approx(5.0)


def test_constant_candidate_has_no_shape():
    ref = make_ref([0.0, 1.0, 2.0, 3.0])
    table = index_rows([4.0, 4.0, 4.0, 4.0], ref)
    assert table.shape[0] == 1.0
    assert table.amplitude[0] == -1.0
    assert table.magnitude[0] == pytest.approx(4.0)


def test_constant_reference_is_degenerate():
    ref = make_ref([2.0, 2.0, 2.0])
    assert ref.is_degenerate
    with pytest.raises(DegenerateReference):
        index_rows([1.0, 2.0, 3.0], ref)


def test_near_constant_reference_is_not_silently_zeroed():
    ref = make_ref([2.0, 2.0, 2.0 + 1e-9])
    assert not ref.is_degenerate


def test_shape_range_on_random_data():
    ref = make_ref(np.sin(np.linspace(0.0, 3.0, 40)))
    values = random_curves(1, 200, 40, scale=3.0)
    table = compute_index_table(FunctionalDataset(values, Grid.regular(40)), ref)
    assert np.all(table.shape >= 0.0)
    assert np.all(table.shape <= 2.0)


# ---------------------------------------------------------------------------
# table semantics


def test_table_matches_per_row_computation_exactly():
    """Vectorized table rows must equal one-row tables bit for bit."""
    ref = make_ref(np.cos(np.linspace(0.0, 2.0, 25)))
    values = random_curves(2, 100, 25, scale=2.0)
    # include a constant row and a non-contiguous layout
    values[17] = 0.25
    data = FunctionalDataset(values, Grid.regular(25))
    table = compute_index_table(data, ref)
    for i in range(data.n):
        alone = index_rows(data.values[i], ref)
        assert table.shape[i].tobytes() == alone.shape[0].tobytes()
        assert table.amplitude[i].tobytes() == alone.amplitude[0].tobytes()
        assert table.magnitude[i].tobytes() == alone.magnitude[0].tobytes()


def test_original_absolute_takes_absolute_values():
    ref = make_ref([0.0, 1.0, 2.0, 3.0])
    values = np.array([[3.0, 2.0, 1.0, 0.0], [-5.0, -4.0, -3.0, -2.0]])
    data = FunctionalDataset(values, Grid.regular(4))
    std = compute_index_table(data, ref, VARIANT_STANDARD)
    origin = compute_index_table(data, ref, VARIANT_ORIGINAL_ABSOLUTE)
    np.testing.assert_array_equal(origin.shape, std.shape)
    np.testing.assert_array_equal(origin.amplitude, np.abs(std.amplitude))
    np.testing.assert_array_equal(origin.magnitude, np.abs(std.magnitude))
    assert origin.variant == VARIANT_ORIGINAL_ABSOLUTE


def test_table_rejects_unknown_variant_and_grid_mismatch():
    ref = make_ref([0.0, 1.0, 2.0])
    data = FunctionalDataset(np.zeros((2, 4)) + [0, 1, 2, 3], Grid.regular(4))
    with pytest.raises(InvalidCurve):
        compute_index_table(data, ref)
    with pytest.raises(InvalidCurve):
        compute_index_table(
            FunctionalDataset([[0.0, 1.0, 2.0]], Grid.regular(3)), ref, "bogus"
        )


def test_table_row_accessors():
    ref = make_ref([0.0, 1.0, 2.0])
    data = FunctionalDataset([[0.0, 2.0, 4.0], [5.1, 6.1, 7.1]], Grid.regular(3))
    table = compute_index_table(data, ref)
    assert len(table) == 2


def test_compute_indices_rejects_bad_input():
    ref = make_ref([0.0, 1.0, 2.0])
    with pytest.raises(InvalidCurve):
        index_rows([0.0, np.nan, 1.0], ref)


def test_center_curve():
    np.testing.assert_allclose(center_curve([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])
    with pytest.raises(InvalidCurve):
        center_curve(np.zeros((2, 2)))
    with pytest.raises(InvalidCurve):
        center_curve([0.0, np.inf])


# ---------------------------------------------------------------------------
# reference estimation


def test_reference_from_sample_median_and_mean():
    values = np.array([[0.0, 0.0], [1.0, 2.0], [10.0, 4.0]])
    data = FunctionalDataset(values, Grid.regular(2))
    med = reference_from_sample(data, LOCATION_MEDIAN)
    np.testing.assert_allclose(med.values, [1.0, 2.0])
    mean = reference_from_sample(data, LOCATION_MEAN)
    np.testing.assert_allclose(mean.values, [11.0 / 3.0, 2.0])


def test_reference_from_sample_needs_two_curves():
    data = FunctionalDataset([[0.0, 1.0]], Grid.regular(2))
    with pytest.raises(InsufficientData):
        reference_from_sample(data)


def test_reference_from_sample_rejects_unknown_location():
    data = FunctionalDataset(np.random.default_rng(0).normal(size=(3, 4)), Grid.regular(4))
    with pytest.raises(InvalidCurve):
        reference_from_sample(data, "mode")


# A small pool makes ties, signed zeros and extreme magnitudes common.
tie_heavy_elements = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda c: st.integers(2, 13).flatmap(
            lambda n: st.integers(1, 5).flatmap(
                lambda k: arrays(float, (c, n, k), elements=tie_heavy_elements)
            )
        )
    )
)
@example(np.array([[[1.0], [3.0]]]))
@example(np.array([[[3.0], [1.0], [2.0]]]))
def test_selection_median_equals_np_median(samples):
    median = _references(samples, LOCATION_MEDIAN).values
    expected = np.median(samples, axis=1)
    assert np.array_equal(median, expected)
    # The bytes may differ only in the sign of a zero at a middle rank.
    n = samples.shape[1]
    ordered = np.sort(samples, axis=1)
    middle = ordered[:, (n - 1) // 2 : n // 2 + 1]
    exact = ~np.any(middle == 0.0, axis=1)
    assert np.array_equal(median.view(np.int64)[exact], expected.view(np.int64)[exact])


@st.composite
def reference_rows(draw):
    """A ``(c, k)`` stack mixing varying, constant and mean-overflowing rows."""
    c = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    rows = []
    for _ in range(c):
        kind = draw(st.sampled_from(["varying", "constant", "overflow"]))
        if kind == "constant":
            rows.append(np.full(k, draw(st.sampled_from([0.0, -3.5, 1e300, 1.7e308]))))
        elif kind == "overflow" and k > 1:
            rows.append(np.r_[np.full(k - 1, 1.7e308), 1.0])
        else:
            rows.append(draw(arrays(float, k, elements=tie_heavy_elements)))
    return np.array(rows)


@settings(max_examples=200, deadline=None)
@given(reference_rows())
def test_bulk_references_equal_from_values(stack):
    singles = []
    for row in stack:
        try:
            singles.append(ReferenceCurve.from_values(row))
        except InvalidCurve:
            with pytest.raises(InvalidCurve, match="overflow"):
                _center_references(stack.copy())
            return
    refs = _center_references(stack.copy())
    for j, ref in enumerate(singles):
        assert refs.values[j].tobytes() == ref.values.tobytes()
        assert refs.centered[j].tobytes() == ref.centered.tobytes()
        assert refs.degenerate[j] == ref.is_degenerate
        if not ref.is_degenerate:
            assert refs.means[j].tobytes() == stack[j].mean().tobytes()
            assert refs.centered[j].tobytes() == center_curve(stack[j]).tobytes()


@st.composite
def curve_stacks(draw):
    """A ``(c, n, k)`` stack of finite curves, many constant or with tiny or huge ranges."""
    c = draw(st.integers(1, 2))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 8))
    curves = []
    for _ in range(c * n):
        kind = draw(st.sampled_from(["constant", "signed_zeros", "subnormal", "huge", "tied"]))
        if kind == "constant":
            curves.append(np.full(k, draw(st.sampled_from([0.0, -3.5, 5e-324, 1.7e308]))))
        elif kind == "signed_zeros":
            curves.append(draw(arrays(float, k, elements=st.sampled_from([0.0, -0.0]))))
        elif kind == "subnormal":
            low = draw(st.sampled_from([0.0, -5e-324, 1e-310]))
            curves.append(draw(arrays(float, k, elements=st.sampled_from([low, low + 5e-324]))))
        elif kind == "huge":
            curves.append(draw(arrays(float, k, elements=st.sampled_from([1.7e308, -1.7e308]))))
        else:
            curves.append(draw(arrays(float, k, elements=tie_heavy_elements)))
    return np.array(curves).reshape(c, n, k)


@settings(max_examples=300, deadline=None)
@given(curve_stacks())
@example(np.array([[[0.0, -0.0, 0.0]]]))
@example(np.array([[[0.0, 5e-324]]]))
@example(np.array([[[1.7e308, -1.7e308]]]))
def test_constant_rows_equal_zero_range(samples):
    with np.errstate(over="ignore"):
        expected = np.ptp(samples, axis=-1) == 0.0
    assert np.array_equal(_constant_rows(samples), expected)


def test_reference_whose_mean_overflows_is_rejected():
    with pytest.raises(InvalidCurve, match="overflow"):
        make_ref([1.7e308, 1.7e308, 1.0])
    assert make_ref([1.7e308, 1.7e308, 1.7e308]).is_degenerate


# ---------------------------------------------------------------------------
# transformation laws


curve_elements = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@st.composite
def curve_and_ref(draw, k_min=5, k_max=24):
    k = draw(st.integers(min_value=k_min, max_value=k_max))
    y = np.array(draw(st.lists(curve_elements, min_size=k, max_size=k)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    ref_vals = rng.standard_normal(k) + np.linspace(0.0, 1.0, k)
    return y, make_ref(ref_vals)


SPIKE_BELOW_ROUNDING = np.array([0.0, 0.0, 0.0, 0.0, 3.06e-77])
SPIKE_UNDERFLOWING = np.array([0.0, 0.0, 0.0, 0.0, 3.8159e-160])
SPIKE_UNDERFLOWING_TO_ZERO = np.array([0.0, 0.0, 0.0, 0.0, 1e-162])
SPIKE_REF = make_ref(np.random.default_rng(0).standard_normal(5) + np.linspace(0.0, 1.0, 5))


def close(a, b, rel=1e-9):
    return np.isclose(a, b, rtol=rel, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    data=curve_and_ref(),
    a=st.floats(min_value=-10.0, max_value=10.0).filter(lambda v: abs(v) > 1e-3),
    b=st.floats(min_value=-10.0, max_value=10.0),
)
# a*y + b rounds to a constant curve, whose shape index is pinned at 1
@example(data=(SPIKE_BELOW_ROUNDING, SPIKE_REF), a=1.0, b=1.0)
@example(data=(SPIKE_BELOW_ROUNDING, SPIKE_REF), a=-1.0, b=1.0)
# the squared centred norm of y underflows into subnormals (or to zero for
# the smaller spike), so the shape index must not depend on the scale
@example(data=(SPIKE_UNDERFLOWING, SPIKE_REF), a=2.0, b=0.0)
@example(data=(SPIKE_UNDERFLOWING_TO_ZERO, SPIKE_REF), a=10.0, b=0.0)
def test_affine_transform_laws(data, a, b):
    """ay+b maps magnitude to a*I_M+b, amplitude to a*I_A+a-1, keeps shape.

    The shape law holds only where the moved curve still varies: when its
    spread is lost to rounding against the offset ``b``, it becomes constant.
    """
    y, ref = data
    rows = index_rows([y, a * y + b], ref)  # base, moved
    assert close(rows.magnitude[1], a * rows.magnitude[0] + b)
    assert close(rows.amplitude[1], a * rows.amplitude[0] + a - 1.0)
    scaled = a * y
    if np.ptp(scaled) > 1e-6 * (abs(b) + np.max(np.abs(scaled))):
        if a > 0:
            assert close(rows.shape[1], rows.shape[0])
        else:
            assert close(rows.shape[1], 2.0 - rows.shape[0])


@settings(max_examples=150, deadline=None)
@given(data=curve_and_ref(), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_magnitude_is_additive(data, seed):
    y, ref = data
    z = np.random.default_rng(seed).standard_normal(y.size)
    magnitude = index_rows([y + z, y, z], ref).magnitude
    assert close(magnitude[0], magnitude[1] + magnitude[2])


@settings(max_examples=150, deadline=None)
@given(data=curve_and_ref(), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_amplitude_ignores_additions_orthogonal_to_reference(data, seed):
    y, ref = data
    z = np.random.default_rng(seed).standard_normal(y.size)
    mu_c = ref.centered
    z = z - (z @ mu_c) / (mu_c @ mu_c) * mu_c  # <z, centered ref> = 0
    amplitude = index_rows([y + z, y], ref).amplitude
    assert close(amplitude[0], amplitude[1])


@settings(max_examples=150, deadline=None)
@given(
    data=curve_and_ref(),
    a=st.floats(min_value=-5.0, max_value=5.0).filter(lambda v: abs(v) > 1e-3),
    plus=st.booleans(),
)
def test_absolute_magnitude_invariant_at_constructed_offset(data, a, plus):
    """|I_M| survives ay+b exactly when b = (-a +- 1) * I_M."""
    y, ref = data
    base = index_rows(y, ref).magnitude[0]
    b = (-a + (1.0 if plus else -1.0)) * base
    moved = index_rows(a * y + b, ref, VARIANT_ORIGINAL_ABSOLUTE)
    assert close(moved.magnitude[0], abs(base))


@settings(max_examples=150, deadline=None)
@given(data=curve_and_ref(), b=st.floats(min_value=-10.0, max_value=10.0))
def test_absolute_amplitude_invariant_at_constructed_scale(data, b):
    """|I_A| survives ay+b exactly when a = (1 - I_A) / (1 + I_A)."""
    y, ref = data
    base = index_rows(y, ref).amplitude[0]
    if abs(1.0 + base) < 1e-3:
        return
    a = (1.0 - base) / (1.0 + base)
    if abs(a) < 1e-6:
        return
    moved = index_rows(a * y + b, ref, VARIANT_ORIGINAL_ABSOLUTE)
    assert close(moved.amplitude[0], abs(base), rel=1e-8)
