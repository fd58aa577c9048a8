"""Symmetries of the detectors: curve order and component order.

Every reduction of the detectors runs within one curve or is a selection over
curves (the pointwise median, the fence quartiles), so with the median
reference the results follow any reordering of the curves exactly.  The mean
reference sums in curve order, so only the votes are pinned for it.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fmuod import (
    MethodConfig,
    MultivariateFunctionalDataset,
    SimulationSpec,
    collect_votes,
    generate,
    generate_directions,
    run_method,
)

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def sample(seed):
    return generate(SimulationSpec("M2_2", n=40, k=20, contamination=0.1, seed=seed)).data


def reordered(data, order):
    return MultivariateFunctionalDataset(data.values[order])


def moved_flags(flags, order):
    """Flag sets of the reordered sample, named by the original curve numbers."""
    return [frozenset(int(order[i]) for i in flagged) for flagged in flags.by_type()]


@settings(max_examples=10, deadline=None)
@given(data_seed=SEEDS, order_seed=SEEDS)
def test_reordering_curves_reorders_every_report_byte_for_byte(data_seed, order_seed):
    data = sample(data_seed)
    order = np.random.default_rng(order_seed).permutation(data.n)
    moved = reordered(data, order)
    for method in ("FST_PRJ", "FST_MAR", "FST_STR"):
        config = MethodConfig(method=method, n_directions=20)
        base, got = run_method(data, config, seed=3), run_method(moved, config, seed=3)
        assert moved_flags(got.flags, order) == list(base.flags.by_type())
        assert [l for l, _ in got.tables] == [l for l, _ in base.tables]
        for (_, a), (_, b) in zip(got.tables, base.tables):
            for column_a, column_b in zip(a.by_type(), b.by_type()):
                assert column_a.tobytes() == column_b[order].tobytes()
        if base.proportions is not None:
            assert got.proportions.tobytes() == base.proportions[order].tobytes()
            # a fallback selection holds NaN ratios, so compare its parts
            assert got.thresholds.by_type() == base.thresholds.by_type()
            assert got.thresholds.selection.branches == base.thresholds.selection.branches


@settings(max_examples=10, deadline=None)
@given(data_seed=SEEDS, order_seed=SEEDS)
def test_projection_votes_follow_curve_order_under_the_mean_reference(data_seed, order_seed):
    data = sample(data_seed)
    order = np.random.default_rng(order_seed).permutation(data.n)
    directions = generate_directions(20, data.n_dims, seed=3)
    base = collect_votes(data, directions, location="mean")
    got = collect_votes(reordered(data, order), directions, location="mean")
    np.testing.assert_array_equal(got.votes, base.votes[order])
    assert got.degenerate_projections == base.degenerate_projections


@settings(max_examples=10, deadline=None)
@given(data_seed=SEEDS, order=st.permutations(range(3)))
def test_permuting_components_leaves_marginal_flags_unchanged(data_seed, order):
    data = sample(data_seed)
    moved = MultivariateFunctionalDataset(data.values[:, :, order])
    config = MethodConfig(method="FST_MAR")
    assert run_method(moved, config, seed=0).flags == run_method(data, config, seed=0).flags
