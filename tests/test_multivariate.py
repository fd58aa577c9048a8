import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmuod import (
    Baselines,
    DegenerateReference,
    FunctionalDataset,
    InsufficientData,
    InvalidConfig,
    InvalidCurve,
    InvalidDirection,
    MultivariateFunctionalDataset,
    ThresholdTriple,
    classify_outliers,
    collect_votes,
    compute_index_table,
    detect_marginal,
    detect_projection,
    detect_stringed,
    generate_directions,
    reference_from_sample,
    select_thresholds,
)
import fmuod.multivariate
from fmuod.indices import LOCATIONS, VARIANTS
from fmuod.multivariate import (
    ANY_VOTE_THRESHOLDS,
    DEFAULT_ETA,
    DEFAULT_GAMMA,
    SCALE_MINMAX,
    SCALE_NONE,
    TYPE_ORDER,
    DirectionSet,
    VoteMatrix,
    _string_values,
)


def random_mv(seed, n=30, k=20, d=3):
    rng = np.random.default_rng(seed)
    base = np.sin(2.0 * np.pi * np.linspace(0.0, 1.0, k))
    values = rng.standard_normal((n, k, d)) * 0.3 + base[None, :, None]
    return MultivariateFunctionalDataset(values)


def mirrored_mv(n=12, k=8):
    # the second component mirrors the first, so (1,1)/sqrt(2) projects to zero
    first = np.random.default_rng(10).standard_normal((n, k))
    return MultivariateFunctionalDataset(np.stack([first, -first], axis=2))


# ---------------------------------------------------------------------------
# directions and projection


def test_generate_directions_unit_rows():
    dirs = generate_directions(25, 4, seed=9)
    assert dirs.vectors.shape == (25, 4)
    norms = np.sqrt((dirs.vectors**2).sum(axis=1))
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)
    assert dirs.seed == 9


def test_direction_streams_do_not_depend_on_count():
    few = generate_directions(10, 3, seed=4)
    many = generate_directions(20, 3, seed=4)
    np.testing.assert_array_equal(many.vectors[:10], few.vectors)


def test_generate_directions_validation():
    with pytest.raises(InvalidConfig):
        generate_directions(0, 3, seed=0)
    with pytest.raises(InvalidConfig):
        generate_directions(5, 0, seed=0)


@pytest.mark.parametrize(
    "n_directions, n_dims, field",
    [(2.5, 3, "n_directions"), (True, 3, "n_directions"), (3.0, 3, "n_directions"),
     ("3", 3, "n_directions"), (3, 2.0, "n_dims"), (3, False, "n_dims"), (3, None, "n_dims")],
)
def test_generate_directions_rejects_non_integer_counts(n_directions, n_dims, field):
    with pytest.raises(InvalidConfig, match=f"{field} must be an integer"):
        generate_directions(n_directions, n_dims, 0)


@pytest.mark.parametrize(
    "n_directions, n_dims",
    [(10**19, 3), (2**62, 3), (np.int64(2**62), np.int64(3)), (3, 10**400), (2**60, 3)],
    ids=["n_1e19", "n_2_62", "numpy_n_2_62", "huge_dims", "n_2_60_bytes"],
)
def test_generate_directions_rejects_sizes_numpy_cannot_index(n_directions, n_dims):
    # every size here fails in validation; none is ever allocated
    with pytest.raises(
        InvalidConfig, match=r"^n_directions \* n_dims values exceed what a numpy array can index$"
    ):
        generate_directions(n_directions, n_dims, 0)


def test_generate_directions_accepts_numpy_integers():
    directions = generate_directions(np.int64(4), np.int32(3), 0)
    assert directions.vectors.tobytes() == generate_directions(4, 3, 0).vectors.tobytes()


def test_direction_sets_compare_by_value():
    assert generate_directions(5, 3, 0) == generate_directions(5, 3, 0)
    assert generate_directions(5, 3, 0) != generate_directions(5, 3, 1)
    assert generate_directions(5, 3, 0) != generate_directions(4, 3, 0)
    vectors = generate_directions(5, 3, 0).vectors
    assert DirectionSet(vectors, seed=0) != DirectionSet(vectors, seed=None)
    assert DirectionSet(vectors) != "directions"


def test_direction_set_requires_unit_norm():
    with pytest.raises(InvalidDirection):
        DirectionSet(np.array([[1.0, 1.0]]))
    with pytest.raises(InvalidDirection):
        DirectionSet(np.array([[np.nan, 1.0]]))
    with pytest.raises(InvalidDirection):
        DirectionSet(np.zeros((0, 2)))


@pytest.mark.parametrize("vectors", [[["x", "y"]], [[object(), 1.0]]], ids=["strings", "objects"])
def test_direction_set_rejects_non_numeric_vectors(vectors):
    with pytest.raises(InvalidDirection, match="vectors must be a regular array of numbers"):
        DirectionSet(vectors)


def projected(data, direction):
    """The univariate sample of ``data`` projected onto one direction."""
    vectors = np.asarray([direction], float)
    return FunctionalDataset(fmuod.multivariate._project_rows(data.values, vectors)[0])


def test_project_extracts_margins_with_axis_directions():
    data = random_mv(0, d=2)
    along_first = projected(data, [1.0, 0.0])
    np.testing.assert_array_equal(along_first.values, data.values[:, :, 0])
    combo = projected(data, [0.5, 0.5])
    np.testing.assert_allclose(
        combo.values, 0.5 * data.values[:, :, 0] + 0.5 * data.values[:, :, 1]
    )


# ---------------------------------------------------------------------------
# stringing


def test_string_single_dimension_without_scaling_is_identity():
    data = random_mv(1, d=1)
    strung = _string_values(data, SCALE_NONE)
    np.testing.assert_array_equal(strung, data.values[:, :, 0])


def test_string_minmax_worked_example():
    # pooled ranges [1, 2] and [10, 20] map the rows onto (0,1,0,1) / (1,0,1,0)
    values = np.array([[[1.0, 10.0], [2.0, 20.0]], [[2.0, 20.0], [1.0, 10.0]]])
    data = MultivariateFunctionalDataset(values)
    strung = _string_values(data, SCALE_MINMAX)
    np.testing.assert_allclose(strung, [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]])


def test_string_zero_range_dimension_maps_to_zero():
    values = np.stack(
        [np.random.default_rng(2).normal(size=(4, 5)), np.full((4, 5), 3.0)], axis=2
    )
    data = MultivariateFunctionalDataset(values)
    strung = _string_values(data, SCALE_MINMAX)
    np.testing.assert_array_equal(strung[:, 5:], np.zeros((4, 5)))


@pytest.mark.filterwarnings("error")
def test_string_minmax_rejects_overflowing_range():
    values = np.random.default_rng(0).standard_normal((20, 10, 2))
    values[5, :, 1] = 1.7e308
    values[6, :, 1] = -1.7e308
    data = MultivariateFunctionalDataset(values)
    with pytest.raises(InvalidCurve, match="component 1 "):
        _string_values(data, SCALE_MINMAX)


def test_string_dimension_order_matters():
    data = random_mv(4, d=2)
    reordered = MultivariateFunctionalDataset(data.values[:, :, ::-1])
    a = _string_values(data, SCALE_NONE)
    b = _string_values(reordered, SCALE_NONE)
    np.testing.assert_array_equal(a[:, :20], b[:, 20:])


def test_string_rejects_unknown_scale():
    with pytest.raises(InvalidConfig):
        _string_values(random_mv(0), "zscore")


def test_detect_stringed_finds_single_margin_shift():
    data = random_mv(5)
    values = data.values.copy()
    values[7, :, 2] += 9.0
    shifted = MultivariateFunctionalDataset(values)
    report = detect_stringed(shifted, SCALE_NONE)
    assert 7 in report.flags.union
    assert report.method == "FST_STR"
    assert report.config["scale"] == SCALE_NONE


# ---------------------------------------------------------------------------
# marginal detection


def test_marginal_single_dimension_matches_univariate():
    data = random_mv(6, d=1)
    margin = data.margin(0)
    table = compute_index_table(margin, reference_from_sample(margin))
    direct = classify_outliers(table)
    report = detect_marginal(data)
    assert report.flags.shape_outliers == direct.shape_outliers
    assert report.flags.amplitude_outliers == direct.amplitude_outliers
    assert report.flags.magnitude_outliers == direct.magnitude_outliers


def test_marginal_union_over_margins():
    data = random_mv(7)
    values = data.values.copy()
    values[11, :, 1] += 9.0  # outlying only in the second component
    shifted = MultivariateFunctionalDataset(values)
    report = detect_marginal(shifted)
    assert 11 in report.flags.union

    per_margin = [
        classify_outliers(
            compute_index_table(shifted.margin(m), reference_from_sample(shifted.margin(m)))
        )
        for m in range(3)
    ]
    for attr in ("shape_outliers", "amplitude_outliers", "magnitude_outliers"):
        expected = frozenset().union(*(getattr(f, attr) for f in per_margin))
        assert getattr(report.flags, attr) == expected


def test_marginal_tables_match_margin_computation():
    data = random_mv(8)
    for variant in VARIANTS:
        for location in LOCATIONS:
            tables = detect_marginal(data, variant, location).tables
            assert [label for label, _ in tables] == [0, 1, 2]
            for m, table in tables:
                margin = data.margin(m)
                expected = compute_index_table(
                    margin, reference_from_sample(margin, location), variant
                )
                for name in TYPE_ORDER:
                    got, want = getattr(table, name), getattr(expected, name)
                    assert got.tobytes() == want.tobytes(), (variant, location, m, name)


def test_marginal_with_constant_component_raises_degenerate_reference():
    data = random_mv(9)
    values = data.values.copy()
    values[:, :, 1] = 2.5
    with pytest.raises(DegenerateReference, match="reference curve is constant"):
        detect_marginal(MultivariateFunctionalDataset(values))


def test_stringed_constant_curves_raise_degenerate_reference():
    data = MultivariateFunctionalDataset(np.full((8, 6, 2), -1.25))
    with pytest.raises(DegenerateReference, match="reference curve is constant"):
        detect_stringed(data)


# ---------------------------------------------------------------------------
# vote matrices


def votes_matrix(n=10, L=10, cells=()):
    votes = np.zeros((n, L, 3), dtype=bool)
    for i, l, t in cells:
        votes[i, l, t] = True
    return VoteMatrix(votes)


def test_vote_matrix_validation():
    with pytest.raises(InvalidConfig):
        VoteMatrix(np.zeros((3, 4, 2), dtype=bool))
    with pytest.raises(InvalidConfig):
        VoteMatrix(np.zeros((3, 4, 3), dtype=float))
    for empty in ((5, 0, 3), (0, 4, 3)):
        with pytest.raises(InvalidConfig, match="at least one curve and one projection"):
            VoteMatrix(np.zeros(empty, dtype=bool))


def test_vote_proportions_are_exact_counts():
    votes = votes_matrix(cells=[(0, l, 2) for l in range(6)])
    assert votes.proportions[0, 2] == 0.6
    assert votes.proportions[0, 0] == 0.0
    assert votes.n == 10
    assert votes.n_projections == 10


def test_type_and_union_shares():
    # distinct cells: shares add up; shared cells: union counts once
    votes = votes_matrix(cells=[(0, 0, 0), (1, 1, 1), (2, 2, 2)])
    assert votes.type_shares() == (0.01, 0.01, 0.01)
    assert votes.union_share() == 0.03
    overlap = votes_matrix(cells=[(0, 0, 0), (0, 0, 1), (0, 0, 2)])
    assert overlap.union_share() == 0.01


def test_flags_at_threshold_is_inclusive():
    votes = votes_matrix(cells=[(3, l, 1) for l in range(6)])
    flags = votes.flags_at(ThresholdTriple(0.6, 0.6, 0.6))
    assert flags.amplitude_outliers == {3}
    assert flags.shape_outliers == frozenset()
    just_above = votes.flags_at(ThresholdTriple(0.61, 0.61, 0.61))
    assert just_above.amplitude_outliers == frozenset()
    # Curve i has i + 1 votes of every type out of 10; each type reads its own threshold.
    ladder = votes_matrix(
        cells=[(i, l, t) for i in range(10) for l in range(i + 1) for t in range(3)]
    )
    flags = ladder.flags_at(ThresholdTriple(0.2, 0.5, 0.8))
    assert flags.shape_outliers == set(range(1, 10))
    assert flags.amplitude_outliers == set(range(4, 10))
    assert flags.magnitude_outliers == set(range(7, 10))


def test_any_vote_sentinel_flags_single_votes_only():
    votes = votes_matrix(cells=[(4, 0, 0)])
    flags = votes.flags_at(ANY_VOTE_THRESHOLDS)
    assert flags.shape_outliers == {4}
    assert flags.amplitude_outliers == frozenset()
    assert flags.magnitude_outliers == frozenset()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    low=st.floats(min_value=0.05, max_value=0.9),
    bump=st.floats(min_value=0.0, max_value=0.5),
)
def test_raising_thresholds_never_adds_flags(seed, low, bump):
    rng = np.random.default_rng(seed)
    votes = VoteMatrix(rng.random((15, 12, 3)) < 0.3)
    high = min(1.0, low + bump)
    a = votes.flags_at(ThresholdTriple(low, low, low))
    b = votes.flags_at(ThresholdTriple(high, high, high))
    assert b.shape_outliers <= a.shape_outliers
    assert b.amplitude_outliers <= a.amplitude_outliers
    assert b.magnitude_outliers <= a.magnitude_outliers


# ---------------------------------------------------------------------------
# vote collection


def per_direction_votes(data, directions, variant="standard", location="median"):
    """Reference for collect_votes: the public pipeline, one direction at a time."""
    votes = np.zeros((data.n, directions.n_directions, len(TYPE_ORDER)), dtype=bool)
    tables = []
    for l, vec in enumerate(directions.vectors):
        proj = projected(data, vec)
        try:
            table = compute_index_table(proj, reference_from_sample(proj, location), variant)
        except DegenerateReference:
            continue
        tables.append((l, table))
        flags = classify_outliers(table)
        by_type = (flags.shape_outliers, flags.amplitude_outliers, flags.magnitude_outliers)
        for t, flagged in enumerate(by_type):
            votes[sorted(flagged), l, t] = True
    return votes, directions.n_directions - len(tables), tables


def assert_votes_match_pipeline(data, directions, **options):
    """collect_votes' votes and detect_projection's tables against the reference."""
    got = collect_votes(data, directions, **options)
    report = detect_projection(data, directions, **options)
    votes, degenerate, tables = per_direction_votes(data, directions, **options)
    np.testing.assert_array_equal(got.votes, votes)
    assert got.degenerate_projections == report.degenerate_projections == degenerate
    assert [l for l, _ in report.tables] == [l for l, _ in tables]
    for (_, a), (_, b) in zip(report.tables, tables):
        assert a.variant == b.variant
        for column in ("shape", "amplitude", "magnitude"):
            assert getattr(a, column).tobytes() == getattr(b, column).tobytes()
    return got, report


@pytest.fixture
def chunk_rows(monkeypatch):
    """Record how many directions each projection chunk of collect_votes holds."""
    rows = []
    original = fmuod.multivariate._project_rows

    def recording(values, vectors):
        rows.append(len(vectors))
        return original(values, vectors)

    monkeypatch.setattr(fmuod.multivariate, "_project_rows", recording)
    return rows


def test_collect_votes_matches_per_projection_classification():
    data = random_mv(9)
    directions = generate_directions(8, 3, seed=1)
    votes, _ = assert_votes_match_pipeline(data, directions)
    assert votes.votes.shape == (30, 8, 3)


@pytest.mark.parametrize("location", ["median", "mean"])
@pytest.mark.parametrize("variant", ["standard", "original_absolute"])
@pytest.mark.parametrize(
    "per_chunk, expected_rows",
    [(None, [10]), (4, [4, 4, 2]), (0, [1] * 10)],
    ids=["one-chunk", "uneven-chunks", "over-budget"],
)
def test_collect_votes_equals_per_direction_pipeline(
    monkeypatch, chunk_rows, variant, location, per_chunk, expected_rows
):
    data, _ = contaminated_mv(seed=21, n=40, k=20)
    if per_chunk is not None:
        # n*k*8 bytes per direction; a budget of 0 is below one direction.
        monkeypatch.setattr(fmuod.multivariate, "CHUNK_BYTES", per_chunk * 40 * 20 * 8)
    directions = generate_directions(10, 3, seed=2)
    votes, _ = assert_votes_match_pipeline(data, directions, variant=variant, location=location)
    assert votes.votes.any()
    chunk_rows.clear()
    collect_votes(data, directions, variant=variant, location=location)
    assert chunk_rows == expected_rows


def test_collect_votes_equals_pipeline_around_degenerate_direction(monkeypatch, chunk_rows):
    # second component mirrors the first, so (1,1,0)/sqrt(2) projects to zero
    rng = np.random.default_rng(23)
    first = rng.standard_normal((12, 8))
    values = np.stack([first, -first, rng.standard_normal((12, 8))], axis=2)
    data = MultivariateFunctionalDataset(values)
    s = np.sqrt(0.5)
    directions = DirectionSet(
        np.array([[1.0, 0.0, 0.0], [s, s, 0.0], [0.0, 0.0, 1.0], [0.0, s, s], [0.0, 1.0, 0.0]])
    )
    monkeypatch.setattr(fmuod.multivariate, "CHUNK_BYTES", 3 * 12 * 8 * 8)
    votes, report = assert_votes_match_pipeline(data, directions)
    # two chunks each in collect_votes and detect_projection, then one row
    # per direction in the reference
    assert chunk_rows == [3, 2] * 2 + [1] * 5
    assert votes.degenerate_projections == 1
    assert [l for l, _ in report.tables] == [0, 2, 3, 4]


def test_collect_votes_equals_pipeline_with_constant_curve_in_one_dimension():
    rng = np.random.default_rng(24)
    values = rng.standard_normal((15, 10, 1))
    values[3] = 2.0
    data = MultivariateFunctionalDataset(values)
    directions = DirectionSet(np.array([[1.0], [-1.0]]))
    _, report = assert_votes_match_pipeline(data, directions)
    table = report.tables[0][1]
    assert (table.shape[3], table.amplitude[3]) == (1.0, -1.0)


def test_collect_votes_errors():
    data = random_mv(25, n=6, k=10, d=2)
    directions = generate_directions(4, 2, seed=5)
    one = MultivariateFunctionalDataset(data.values[:1])
    with pytest.raises(InsufficientData, match="reference estimation needs at least 2 curves"):
        collect_votes(one, directions)
    three = MultivariateFunctionalDataset(data.values[:3])
    with pytest.raises(InsufficientData, match="boxplot cutoff needs at least 4 values, got 3"):
        collect_votes(three, directions)
    with pytest.raises(InvalidCurve, match="unknown location"):
        collect_votes(data, directions, location="mode")
    with pytest.raises(InvalidDirection, match="components"):
        collect_votes(data, generate_directions(4, 3, seed=5))
    huge = MultivariateFunctionalDataset(np.full((6, 10, 2), 1.5e308))
    with np.errstate(over="ignore"), pytest.raises(InvalidCurve, match="infinite"):
        collect_votes(huge, DirectionSet(np.array([[np.sqrt(0.5), np.sqrt(0.5)]])))


@pytest.mark.filterwarnings("error")
def test_detect_marginal_rejects_overflowing_index_values():
    values = np.random.default_rng(0).standard_normal((20, 10, 2))
    values[5] = 1.7e308
    data = MultivariateFunctionalDataset(values)
    with pytest.raises(InvalidCurve, match="overflow"):
        detect_marginal(data)


def default_mv():
    return random_mv(27)


def constant_component_mv():
    values = random_mv(27).values.copy()
    values[:, :, 0] = 1.0
    return MultivariateFunctionalDataset(values)


DIAGONAL = DirectionSet(np.array([[np.sqrt(0.5), np.sqrt(0.5)]]))


@pytest.mark.parametrize(
    "detect, make_data",
    [
        (lambda data: collect_votes(data, generate_directions(4, 3, seed=5), variant="bogus"),
         default_mv),
        (lambda data: detect_marginal(data, variant="bogus"), default_mv),
        (lambda data: detect_stringed(data, variant="bogus"), default_mv),
        (lambda data: collect_votes(data, DIAGONAL, variant="bogus"), mirrored_mv),
        (lambda data: detect_projection(data, DIAGONAL, variant="bogus"), mirrored_mv),
        (lambda data: collect_votes(data, DIAGONAL, variant="bogus"), default_mv),
        (lambda data: detect_marginal(data, variant="bogus"), constant_component_mv),
        (lambda data: detect_stringed(data, "bogus", variant="bogus"), default_mv),
        (lambda data: detect_marginal(data, variant="bogus", location="mode"), default_mv),
        (lambda data: detect_marginal(data, variant="bogus"), lambda: random_mv(27, n=3)),
        (lambda data: detect_stringed(data, variant="bogus"), lambda: random_mv(27, n=3)),
        (lambda data: detect_marginal(data, variant="bogus"), lambda: random_mv(27, n=1)),
    ],
    ids=[
        "collect_votes", "detect_marginal", "detect_stringed",
        "collect_votes-degenerate-directions", "detect_projection-degenerate-directions",
        "collect_votes-dimension-mismatch", "detect_marginal-constant-component",
        "detect_stringed-unknown-scale", "detect_marginal-unknown-location",
        "detect_marginal-three-curves", "detect_stringed-three-curves",
        "detect_marginal-one-curve",
    ],
)
def test_unknown_variant_raises_invalid_curve(detect, make_data):
    with pytest.raises(InvalidCurve, match="unknown variant"):
        detect(make_data())


def test_collect_votes_with_only_degenerate_directions_raises_nothing():
    # three curves are too few for cutoffs, but no direction reaches them
    first = np.random.default_rng(26).standard_normal((3, 8))
    data = MultivariateFunctionalDataset(np.stack([first, -first], axis=2))
    s = np.sqrt(0.5)
    directions = DirectionSet(np.array([[s, s], [-s, -s]]))
    votes = collect_votes(data, directions)
    assert votes.degenerate_projections == 2
    assert detect_projection(data, directions).tables == ()
    assert not votes.votes.any()


def test_degenerate_projections_are_counted_not_voted():
    data = mirrored_mv()
    s = np.sqrt(0.5)
    directions = DirectionSet(np.array([[s, s], [1.0, 0.0]]))
    votes = collect_votes(data, directions)
    assert votes.degenerate_projections == 1
    assert not votes.votes[:, 0, :].any()
    report = detect_projection(data, directions)
    assert report.degenerate_projections == 1


def _flags_along(data, direction):
    proj = projected(data, direction)
    table = compute_index_table(proj, reference_from_sample(proj))
    return classify_outliers(table)


def test_direction_negation_keeps_two_sided_votes():
    """Flipping a direction flips the indices' signs, not the two-sided flags."""
    data = random_mv(11)
    vec = generate_directions(1, 3, seed=3).vectors[0]
    forward = _flags_along(data, vec)
    backward = _flags_along(data, -vec)
    assert backward.amplitude_outliers == forward.amplitude_outliers
    assert backward.magnitude_outliers == forward.magnitude_outliers


# ---------------------------------------------------------------------------
# threshold selection


REF = Baselines(shape=0.075, amplitude=0.009, magnitude=0.009, union=0.09)


def test_select_thresholds_scaled_branch():
    # disjoint cells: shares (0.2, 0.05, 0.05), union 0.30
    cells = (
        [(i, l, 0) for i in range(2) for l in range(10)]
        + [(2, l, 1) for l in range(5)]
        + [(3, l, 2) for l in range(5)]
    )
    votes = votes_matrix(cells=cells)
    taus = select_thresholds(votes, REF)
    # deltas: shape 0.125, amplitude 0.041, magnitude 0.041, union 0.21
    assert taus.shape == pytest.approx(0.7 - 0.3 * (0.125 / 0.21))
    assert taus.amplitude == pytest.approx(0.7 - 0.4 * (0.041 / 0.21))
    assert taus.magnitude == pytest.approx(0.7 - 0.4 * (0.041 / 0.21))
    assert taus.selection.branches == ("scaled", "scaled", "scaled")
    assert taus.selection.delta_union == pytest.approx(0.21)


def test_select_thresholds_caps_ratio_above_one():
    # all three types vote the same 30 cells: every delta exceeds the union delta
    cells = [(i, l, t) for i in range(3) for l in range(10) for t in range(3)]
    taus = select_thresholds(votes_matrix(cells=cells), REF)
    assert taus.shape == pytest.approx(0.4)
    assert taus.amplitude == pytest.approx(0.3)
    assert taus.magnitude == pytest.approx(0.3)
    assert taus.selection.branches == ("capped", "capped", "capped")


def test_select_thresholds_ratio_exactly_one_hits_floor():
    flat = Baselines(shape=0.05, amplitude=0.009, magnitude=0.009, union=0.05)
    cells = [(i, l, 0) for i in range(3) for l in range(10)]  # shape-only, share 0.3
    taus = select_thresholds(votes_matrix(cells=cells), flat)
    assert taus.selection.ratios[0] == pytest.approx(1.0)
    assert taus.selection.branches[0] == "scaled"
    assert taus.shape == pytest.approx(0.4)


def test_select_thresholds_fallback_without_votes():
    taus = select_thresholds(votes_matrix(), REF)
    assert taus.by_type() == (0.7, 0.7, 0.7)
    assert taus.selection.branches == ("fallback", "fallback", "fallback")
    assert all(np.isnan(r) for r in taus.selection.ratios)


def test_select_thresholds_negative_ratio_falls_back_per_type():
    cells = [(i, l, 0) for i in range(3) for l in range(10)]  # shape votes only
    taus = select_thresholds(votes_matrix(cells=cells), REF)
    # amplitude/magnitude shares are below their baselines -> stay at gamma
    assert taus.amplitude == pytest.approx(0.7)
    assert taus.magnitude == pytest.approx(0.7)
    assert taus.selection.branches[1] == "fallback"
    # shape excess exceeds the union excess -> capped at gamma - eta
    assert taus.shape == pytest.approx(0.4)


def test_threshold_anchors_keep_every_threshold_in_range():
    # tau_T ranges over [gamma_T - eta_T, gamma_T], which must lie in (0, 1]
    assert len(DEFAULT_GAMMA) == len(DEFAULT_ETA) == len(TYPE_ORDER)
    for gamma, eta in zip(DEFAULT_GAMMA, DEFAULT_ETA):
        assert 0.0 < gamma <= 1.0
        assert 0.0 <= eta < gamma


# ---------------------------------------------------------------------------
# end-to-end detectors and baselines


def contaminated_mv(seed=12, n=40, k=25):
    # enough outliers that vote shares clear the null baselines
    data = random_mv(seed, n=n, k=k)
    values = data.values.copy()
    truth = {5, 9, 14, 20, 27, 33}
    values[sorted(truth)] += 8.0
    return MultivariateFunctionalDataset(values), truth


def test_detect_projection_flags_clear_shifts():
    data, truth = contaminated_mv()
    directions = generate_directions(30, 3, seed=0)
    report = detect_projection(data, directions)
    assert truth <= report.flags.union
    assert report.method == "FST_PRJ1"
    assert report.proportions.shape == (40, 3)
    assert report.thresholds.by_type() == (0.4, 0.3, 0.3)
    assert report.config["n_directions"] == 30


def test_detect_projection_selector_selects_and_flags():
    data, truth = contaminated_mv()
    directions = generate_directions(30, 3, seed=0)
    report = detect_projection(data, directions, select_thresholds, method="FST_PRJ")
    assert truth <= report.flags.union
    assert report.method == "FST_PRJ"
    assert report.thresholds.selection is not None
    # clear magnitude contamination pulls the magnitude threshold down
    assert report.thresholds.magnitude < 0.7


def test_detect_projection_fixed_and_selected_thresholds_share_votes_and_tables():
    data, _ = contaminated_mv()
    directions = generate_directions(30, 3, seed=0)
    fixed = detect_projection(data, directions, ThresholdTriple(0.7, 0.7, 0.7))
    selected = detect_projection(data, directions, select_thresholds)
    np.testing.assert_array_equal(fixed.proportions, selected.proportions)
    assert [l for l, _ in fixed.tables] == [l for l, _ in selected.tables] == list(range(30))
    for (_, a), (_, b) in zip(fixed.tables, selected.tables):
        for column in ("shape", "amplitude", "magnitude"):
            np.testing.assert_array_equal(getattr(a, column), getattr(b, column))
    assert fixed.thresholds.selection is None
    assert fixed.thresholds.by_type() != selected.thresholds.by_type()


def test_wrongly_typed_thresholds_and_baselines_raise_before_voting(monkeypatch):
    data = random_mv(0)
    directions = generate_directions(5, data.n_dims, 0)
    votes = collect_votes(data, directions)
    with pytest.raises(InvalidConfig, match=r"thresholds\(votes\) must be a ThresholdTriple"):
        detect_projection(data, directions, lambda v: (0.4, 0.3, 0.3))

    def no_votes(*args):
        raise AssertionError("votes collected before the arguments were checked")

    monkeypatch.setattr(fmuod.multivariate, "collect_votes", no_votes)
    with pytest.raises(InvalidConfig, match="thresholds must be a ThresholdTriple"):
        detect_projection(data, directions, (0.4, 0.3, 0.3))
    with pytest.raises(InvalidConfig, match="baselines must be a Baselines"):
        select_thresholds(votes, baselines={"shape": 0.1})


# ---------------------------------------------------------------------------
# config containers


def test_baselines_validation_and_round_trip():
    with pytest.raises(InvalidConfig):
        Baselines(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidConfig):
        Baselines(-0.1, 0.0, 0.0, 0.0)
    for bad in ("a", None, False):
        with pytest.raises(InvalidConfig, match="baseline rates must be numbers"):
            Baselines(0.1, bad, 0.1, 0.1)
    assert Baselines(np.float32(0.5), 0, 0.0, 0.0).union == 0.0
    rates = Baselines(0.1, 0.02, 0.03, 0.12)
    assert Baselines.from_dict(rates.as_dict()) == rates
    with pytest.raises(InvalidConfig):
        Baselines.from_dict({"shape": 0.1})


@pytest.mark.parametrize("rate", [10**400, -(10**400), float("nan"), float("inf")],
                         ids=["huge", "huge_negative", "nan", "inf"])
def test_baseline_and_share_values_out_of_range_raise_config_errors(rate):
    with pytest.raises(InvalidConfig, match=r"baseline rates must lie in \[0, 1\)"):
        Baselines(rate, 0.01, 0.01, 0.09)
    with pytest.raises(InvalidConfig, match=r"baseline rates must lie in \[0, 1\)"):
        Baselines.from_dict({"shape": 0.07, "amplitude": rate, "magnitude": 0.01, "union": 0.09})
    with pytest.raises(InvalidConfig, match=r"vote-share thresholds must lie in \(0, 1\]"):
        ThresholdTriple(0.4, 0.3, rate)


def test_baselines_hold_their_rates_as_floats():
    rates = Baselines(0, np.float32(0.5), 0.25, 0)
    assert [type(rate) for rate in rates.as_dict().values()] == [float] * 4
    assert Baselines.from_dict({"shape": 0, "amplitude": 0, "magnitude": 0, "union": 0}) == (
        Baselines(0.0, 0.0, 0.0, 0.0)
    )


def test_threshold_triple_validation():
    with pytest.raises(InvalidConfig):
        ThresholdTriple(0.0, 0.5, 0.5)
    with pytest.raises(InvalidConfig):
        ThresholdTriple(0.5, 1.5, 0.5)
    for bad in ("a", None, True):
        with pytest.raises(InvalidConfig, match="vote-share thresholds must be numbers"):
            ThresholdTriple(bad, 0.3, 0.3)
    assert ThresholdTriple(1.0, 1.0, 1.0).by_type() == (1.0, 1.0, 1.0)


def test_type_order_is_stable():
    assert TYPE_ORDER == ("shape", "amplitude", "magnitude")
