import numpy as np
import pytest

from fmuod import (
    Grid,
    InvalidConfig,
    SimulationSpec,
    generate,
    multivariate_eigenfunctions,
    score_variances,
)
from fmuod.simulation import (
    MODEL_IDS,
    N_COMPONENTS,
    N_DIMS,
    VARIANT_DIMS,
    _eigenfunctions,
    main_mean,
)


def twin(spec):
    """Same seed, zero contamination: shares every uncontaminated draw."""
    return generate(
        SimulationSpec(spec.model, spec.n, spec.k, 0.0, spec.seed)
    )


def outlier_diff(model, seed=3, n=60, k=40, alpha=0.1):
    spec = SimulationSpec(model, n, k, alpha, seed)
    labeled = generate(spec)
    base = twin(spec)
    return labeled, labeled.data.values - base.data.values


# ---------------------------------------------------------------------------
# building blocks


def test_score_variances_closed_form():
    nu = score_variances()
    assert nu.shape == (N_COMPONENTS,)
    np.testing.assert_allclose(nu, (N_COMPONENTS + 1 - np.arange(1, 10)) / N_COMPONENTS)
    assert nu[0] == 1.0
    assert nu[-1] == pytest.approx(1.0 / 9.0)


def test_eigenfunctions_closed_forms():
    grid = Grid.regular(17)
    t = grid.points
    psi = multivariate_eigenfunctions(grid)
    assert psi.shape == (N_COMPONENTS, N_DIMS, 17)
    for j in range(N_DIMS):
        x = t + j
        np.testing.assert_allclose(psi[0, j], np.full(17, 1.0 / np.sqrt(3.0)), atol=1e-12)
        np.testing.assert_allclose(
            psi[1, j], np.sqrt(2.0 / 3.0) * np.sin(2.0 * np.pi * x / 3.0), atol=1e-12
        )
        np.testing.assert_allclose(
            psi[2, j], np.sqrt(2.0 / 3.0) * np.cos(2.0 * np.pi * x / 3.0), atol=1e-12
        )
        np.testing.assert_allclose(
            psi[7, j], np.sqrt(2.0 / 3.0) * np.sin(2.0 * np.pi * 4.0 * x / 3.0), atol=1e-12
        )


def test_eigenfunctions_near_orthonormal():
    """Trapezoid Gram of the family is the identity to rounding error."""
    grid = Grid.regular(50)
    psi = multivariate_eigenfunctions(grid)
    w = np.ones(grid.k)
    w[0] = w[-1] = 0.5
    gram = np.einsum("adk,bdk,k->ab", psi, psi, w * grid.spacing)
    np.testing.assert_allclose(gram, np.eye(N_COMPONENTS), atol=1e-12)


def test_plain_sum_gram_error_shrinks_with_refinement():
    errors = []
    for k in (25, 50, 100, 200):
        grid = Grid.regular(k)
        psi = multivariate_eigenfunctions(grid)
        gram = np.einsum("adk,bdk->ab", psi, psi) * grid.spacing
        errors.append(np.max(np.abs(gram - np.eye(N_COMPONENTS))))
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_generate_reuses_one_read_only_family_per_k():
    psi = _eigenfunctions(50)
    assert psi is _eigenfunctions(50)
    assert not psi.flags.writeable
    assert psi.tobytes() == multivariate_eigenfunctions(Grid.regular(50)).tobytes()


def test_main_mean_closed_forms():
    t = np.array([0.0, 0.5, 1.0])
    m0 = main_mean("M0", t)
    np.testing.assert_allclose(m0[:, 0], 4.0 * t)
    np.testing.assert_allclose(m0[:, 2], 5.0 * (t - 1.0) ** 2)
    m2 = main_mean("M2", t)
    np.testing.assert_allclose(m2[:, 0], 5.0 * np.sin(2.0 * np.pi * t), atol=1e-12)
    np.testing.assert_allclose(m2[:, 1], 5.0 * np.cos(2.0 * np.pi * t), atol=1e-12)
    # variants inherit their base model's mean
    np.testing.assert_allclose(main_mean("M1_2", t), main_mean("M1", t))


# ---------------------------------------------------------------------------
# spec handling


def test_spec_validation():
    with pytest.raises(InvalidConfig):
        SimulationSpec(model="M9")
    with pytest.raises(InvalidConfig):
        SimulationSpec(n=0)
    with pytest.raises(InvalidConfig):
        SimulationSpec(k=1)
    with pytest.raises(InvalidConfig):
        SimulationSpec(contamination=1.5)
    with pytest.raises(InvalidConfig):
        SimulationSpec(seed=-1)


@pytest.mark.parametrize(
    "field, value",
    [("n", 10.0), ("k", 20.0), ("seed", 3.0), ("seed", "3"), ("n", None), ("n", True)],
)
def test_spec_rejects_non_integer_sizes_and_seed(field, value):
    with pytest.raises(InvalidConfig, match=f"{field} must be an integer"):
        SimulationSpec("M1", **{field: value})


def test_spec_accepts_numpy_integers():
    spec = SimulationSpec("M1", n=np.int64(10), k=np.int32(20), seed=np.uint64(3))
    assert generate(spec).data.values.shape == (10, 20, N_DIMS)


@pytest.mark.parametrize("value", ["0.1", None, True, False, [0.1]])
def test_spec_rejects_non_numeric_contamination(value):
    with pytest.raises(InvalidConfig, match="contamination must be a number"):
        SimulationSpec("M1", 10, 5, value, 0)


@pytest.mark.parametrize("value", [0, 1, 0.25, np.float64(0.25), np.float32(0.25), np.int64(1)])
def test_spec_accepts_real_contamination(value):
    assert SimulationSpec("M1", 20, 5, value, 0).contamination == value


def test_outlier_count_uses_floor():
    assert SimulationSpec("M1", n=105, contamination=0.1).n_outliers == 10
    assert SimulationSpec("M1", n=100, contamination=0.099).n_outliers == 9
    assert SimulationSpec("M0", n=100, contamination=0.5).n_outliers == 0


def test_generate_shapes_and_labels():
    labeled = generate(SimulationSpec("M1", n=50, k=30, contamination=0.1, seed=1))
    assert labeled.data.values.shape == (50, 30, 3)
    assert labeled.data.grid.k == 30
    assert len(labeled.outlier_indices) == 5
    assert list(labeled.outlier_indices) == sorted(set(labeled.outlier_indices))
    assert set(labeled.outlier_info) == set(labeled.outlier_indices)


def test_generate_is_deterministic():
    spec = SimulationSpec("M5", n=20, k=25, contamination=0.2, seed=9)
    a = generate(spec)
    b = generate(spec)
    np.testing.assert_array_equal(a.data.values, b.data.values)
    assert a.outlier_indices == b.outlier_indices
    assert a.outlier_info == b.outlier_info


def test_all_models_generate():
    for model in MODEL_IDS:
        labeled = generate(SimulationSpec(model, n=12, k=15, contamination=0.25, seed=2))
        assert labeled.data.values.shape == (12, 15, 3)
        expected = 0 if model == "M0" else 3
        assert len(labeled.outlier_indices) == expected


# ---------------------------------------------------------------------------
# per-model contamination against the zero-contamination twin


def test_clean_rows_match_twin_bit_for_bit():
    for model in ("M1", "M2", "M3", "M4", "M5", "M6"):
        labeled, diff = outlier_diff(model)
        clean = [i for i in range(60) if i not in labeled.outlier_indices]
        assert (diff[clean] == 0.0).all(), model


def test_m0_has_no_contamination():
    labeled, diff = outlier_diff("M0")
    assert labeled.outlier_indices == ()
    assert (diff == 0.0).all()


def test_m1_outliers_shift_by_eight_per_component():
    labeled, diff = outlier_diff("M1")
    for i in labeled.outlier_indices:
        signs = np.asarray(labeled.outlier_info[i]["signs"])
        assert set(np.abs(signs)) == {1.0}
        assert np.allclose(diff[i], 8.0 * signs[None, :], atol=1e-9)


def test_m2_shift_lives_only_inside_window():
    labeled, diff = outlier_diff("M2")
    t = np.linspace(0.0, 1.0, 40)
    for i in labeled.outlier_indices:
        start = labeled.outlier_info[i]["window_start"]
        assert 0.0 <= start <= 0.9
        inside = (t >= start) & (t <= start + 0.1)
        assert (diff[i][~inside] == 0.0).all()
        assert inside.any()
        signs = np.asarray(labeled.outlier_info[i]["signs"])
        assert np.allclose(diff[i][inside], 8.0 * signs[None, :], atol=1e-9)


def test_m3_outliers_swap_to_phase_shifted_mean():
    labeled, diff = outlier_diff("M3")
    t = np.linspace(0.0, 1.0, 40)
    expected = np.stack(
        [
            5.0 * np.sin(2.0 * np.pi * (t - 0.3)) - 5.0 * np.sin(2.0 * np.pi * t),
            5.0 * np.cos(2.0 * np.pi * (t - 0.2)) - 5.0 * np.cos(2.0 * np.pi * t),
            5.0 * (0.1 - t) ** 2 - 5.0 * (t - 1.0) ** 2,
        ],
        axis=-1,
    )
    for i in labeled.outlier_indices:
        np.testing.assert_allclose(diff[i], expected, atol=1e-9)


def test_m4_outliers_oscillate_while_bulk_shifts_flat():
    labeled, diff = outlier_diff("M4")
    t = np.linspace(0.0, 1.0, 40)
    oscillation = np.stack(
        [
            2.0 * np.sin(4.0 * np.pi * t),
            2.0 * np.cos(4.0 * np.pi * t),
            2.0 * np.cos(8.0 * np.pi * t),
        ],
        axis=-1,
    )
    for i in labeled.outlier_indices:
        # outliers replace their flat per-curve shift with the oscillation,
        # so diff - oscillation is the negated flat shift: constant, in range
        residue = diff[i] - oscillation
        assert np.allclose(residue, residue[:1, :], atol=1e-9)
        assert (np.abs(residue) <= 2.1 + 1e-9).all()


def test_m5_outliers_add_scaled_mean():
    labeled, diff = outlier_diff("M5")
    t = np.linspace(0.0, 1.0, 40)
    mean = np.stack(
        [
            5.0 * np.sin(2.0 * np.pi * t),
            5.0 * np.cos(2.0 * np.pi * t),
            5.0 * (t - 1.0) ** 2,
        ],
        axis=-1,
    )
    for i in labeled.outlier_indices:
        scales = np.asarray(labeled.outlier_info[i]["scales"])
        assert (scales > 0.0).all()
        expected = (2.0 + scales)[None, :] * mean
        expected[:, 2] -= 6.0
        np.testing.assert_allclose(diff[i], expected, atol=1e-9)


def test_m6_outliers_swap_oscillation_component():
    labeled, diff = outlier_diff("M6")
    t = np.linspace(0.0, 1.0, 40)
    expected = np.stack(
        [
            10.0 * t * np.sin(np.pi * t) - 8.0 * t * np.sin(np.pi * t),
            11.0 * t * np.cos(np.pi * t) - t * np.cos(np.pi * t),
            (10.0 * np.sin(2.0 * np.pi * t) - 6.0) - (6.0 * np.sin(2.0 * np.pi * t) - 3.0),
        ],
        axis=-1,
    )
    for i in labeled.outlier_indices:
        np.testing.assert_allclose(diff[i], expected, atol=1e-9)


def test_m6_bulk_carries_main_oscillation():
    spec = SimulationSpec("M6", n=30, k=20, contamination=0.1, seed=4)
    with_term = generate(spec).data.values
    t = np.linspace(0.0, 1.0, 20)
    trend = 8.0 * t * np.sin(np.pi * t)
    clean = [i for i in range(30) if i not in generate(spec).outlier_indices]
    # removing the main oscillation from a clean row recovers an M2-style curve
    m2 = generate(SimulationSpec("M2", n=30, k=20, contamination=0.0, seed=4)).data.values
    np.testing.assert_allclose(with_term[clean][:, :, 0] - trend, m2[clean][:, :, 0], atol=1e-9)


# ---------------------------------------------------------------------------
# variants restrict contamination to a component subset


@pytest.mark.parametrize("model", sorted(VARIANT_DIMS))
def test_variants_touch_only_their_components(model):
    base, affected = VARIANT_DIMS[model]
    labeled, diff = outlier_diff(model)
    unaffected = [j for j in range(N_DIMS) if j not in affected]
    for i in labeled.outlier_indices:
        assert (diff[i][:, unaffected] == 0.0).all()
        for j in affected:
            assert np.abs(diff[i][:, j]).max() > 0.0


def test_variant_shares_base_model_draws():
    spec = SimulationSpec("M1_2", n=40, k=25, contamination=0.1, seed=6)
    variant = generate(spec)
    full = generate(SimulationSpec("M1", n=40, k=25, contamination=0.1, seed=6))
    assert variant.outlier_indices == full.outlier_indices
    # the contaminated component gets the same shift as under the base model
    for i in variant.outlier_indices:
        np.testing.assert_array_equal(
            variant.data.values[i][:, 0], full.data.values[i][:, 0]
        )
        np.testing.assert_array_equal(
            variant.data.values[i][:, 1:],
            generate(SimulationSpec("M1", 40, 25, 0.0, 6)).data.values[i][:, 1:],
        )


def test_m5_variant_skips_third_component_offset():
    labeled, diff = outlier_diff("M5_2")
    for i in labeled.outlier_indices:
        assert (diff[i][:, 2] == 0.0).all()
