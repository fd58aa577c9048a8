"""End-to-end checks pinning the package to its documented behavior.

Heavier than the unit modules: benchmark rate windows, 1000-case analytic
property sweeps, convergence trends, generator fidelity, and byte-level
determinism of the CLI.  Everything is seeded; a failure here is a real
regression, not noise.
"""

import json
import math
import time

import numpy as np
import pytest

from fmuod import (
    ANY_VOTE_THRESHOLDS,
    REFERENCE_BASELINES,
    FunctionalDataset,
    Grid,
    MethodConfig,
    MultivariateFunctionalDataset,
    SimulationSpec,
    ThresholdTriple,
    VoteMatrix,
    boxplot_cutoff,
    classify_outliers,
    compute_index_table,
    detect_projection,
    estimate_null_baselines,
    generate,
    generate_directions,
    reference_from_sample,
    run_benchmark,
)
from fmuod.cli import main
from fmuod.cutoffs import RULE_TWO_SIDED, RULE_UPPER_ONLY
from fmuod.indices import LOCATION_MEAN, ReferenceCurve
from fmuod.simulation import main_mean, multivariate_eigenfunctions, score_variances

SEED = 20250816
REPS = 50
BENCH = dict(reps=REPS, n=100, k=50, contamination=0.1, seed=SEED)


def close(a, b, rel=1e-9):
    return np.isclose(a, b, rtol=rel, atol=1e-12)


def index_rows(curves, ref):
    """Index table of ``curves`` stacked into one sample, one row per curve."""
    values = np.array(curves, dtype=float, ndmin=2)
    return compute_index_table(FunctionalDataset(values, Grid.regular(values.shape[1])), ref)


@pytest.fixture(scope="module")
def bench():
    """All desk-scale benchmark runs, shared across the rate tests."""
    started = time.monotonic()
    prj1 = MethodConfig("FST_PRJ1")
    # M0's projection methods run back to back, so they share its votes.
    runs = {
        ("M0", "FST_PRJ1"): run_benchmark("M0", prj1, **BENCH),
        ("M0", "FST_PRJ2"): run_benchmark("M0", MethodConfig("FST_PRJ2"), **BENCH),
        ("M0", "FST_MAR"): run_benchmark("M0", MethodConfig("FST_MAR"), **BENCH),
        ("M1", "FST_PRJ1"): run_benchmark("M1", prj1, **BENCH),
        ("M3", "FST_PRJ1"): run_benchmark("M3", prj1, **BENCH),
        ("M4", "FST_PRJ1"): run_benchmark("M4", prj1, **BENCH),
        ("M5", "FST_PRJ1"): run_benchmark("M5", prj1, **BENCH),
    }
    runs["seconds"] = time.monotonic() - started
    return runs


# ---------------------------------------------------------------------------
# benchmark rate windows


def test_projection_vote_rates_on_shift_models(bench):
    m1 = bench[("M1", "FST_PRJ1")]
    assert m1.tpr_mean >= 99.0
    assert m1.fpr_mean <= 6.0
    m3 = bench[("M3", "FST_PRJ1")]
    assert m3.tpr_mean >= 98.0
    assert m3.fpr_mean <= 3.0
    assert bench[("M5", "FST_PRJ1")].tpr_mean >= 99.0


def test_projection_vote_false_positives_on_null_model(bench):
    fpr = bench[("M0", "FST_PRJ1")].fpr_mean
    assert 1.5 <= fpr <= 6.5


def test_benchmark_suite_runs_quickly(bench):
    assert bench["seconds"] < 300.0


def test_marginal_union_overflags_null_data(bench):
    fpr = bench[("M0", "FST_MAR")].fpr_mean
    assert 20.0 <= fpr <= 32.0


def test_single_vote_rule_overflags_null_data(bench):
    assert bench[("M0", "FST_PRJ2")].fpr_mean >= 40.0


def test_flat_shift_model_stays_hard_for_projection_votes(bench):
    assert bench[("M4", "FST_PRJ1")].tpr_mean <= 70.0


def test_null_vote_baselines_recovered():
    est = estimate_null_baselines(REPS, seed=SEED)
    assert abs(est.shape - REFERENCE_BASELINES.shape) <= 0.01
    assert abs(est.amplitude - REFERENCE_BASELINES.amplitude) <= 0.01
    assert abs(est.magnitude - REFERENCE_BASELINES.magnitude) <= 0.01
    assert abs(est.union - REFERENCE_BASELINES.union) <= 0.01


# ---------------------------------------------------------------------------
# analytic index laws, 1000 randomized cases each


def random_pair(rng):
    k = int(rng.integers(8, 40))
    ref = rng.standard_normal(k) + np.linspace(0.0, 2.0, k)
    y = rng.standard_normal(k) * rng.uniform(0.5, 3.0) + rng.uniform(-4.0, 4.0)
    return y, ReferenceCurve.from_values(ref)


def nonzero_scale(rng):
    a = rng.uniform(-3.0, 3.0)
    return a if abs(a) > 1e-3 else 1.5


def test_scale_and_shift_transform_laws():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        y, ref = random_pair(rng)
        a, b = nonzero_scale(rng), rng.uniform(-5.0, 5.0)
        rows = index_rows([y, a * y + b], ref)  # base, moved
        assert close(rows.magnitude[1], a * rows.magnitude[0] + b)
        assert close(rows.amplitude[1], a * rows.amplitude[0] + a - 1.0)
        if a > 0:
            assert close(rows.shape[1], rows.shape[0])
        else:
            assert close(rows.shape[1], 2.0 - rows.shape[0])


def test_magnitude_is_additive():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        y, ref = random_pair(rng)
        z = rng.standard_normal(y.size) * rng.uniform(0.5, 2.0)
        magnitude = index_rows([y + z, y, z], ref).magnitude
        assert close(magnitude[0], magnitude[1] + magnitude[2])


def test_amplitude_ignores_orthogonal_additions():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        y, ref = random_pair(rng)
        mu_c = ref.centered
        z = rng.standard_normal(y.size)
        z = z - (z @ mu_c) / (mu_c @ mu_c) * mu_c
        amplitude = index_rows([y + z, y], ref).amplitude
        assert close(amplitude[0], amplitude[1])


def test_absolute_index_invariance_constructions():
    rng = np.random.default_rng(104)
    checked_amplitude = 0
    for _ in range(1000):
        y, ref = random_pair(rng)
        base = index_rows(y, ref)
        base_magnitude, base_amplitude = base.magnitude[0], base.amplitude[0]
        a = nonzero_scale(rng)
        for sign in (1.0, -1.0):
            b = (-a + sign) * base_magnitude
            moved = index_rows(a * y + b, ref)
            assert close(abs(moved.magnitude[0]), abs(base_magnitude), rel=1e-8)
        if abs(1.0 + base_amplitude) > 1e-3:
            a_star = (1.0 - base_amplitude) / (1.0 + base_amplitude)
            if abs(a_star) > 1e-6:
                moved = index_rows(a_star * y, ref)
                assert close(abs(moved.amplitude[0]), abs(base_amplitude), rel=1e-8)
                checked_amplitude += 1
    assert checked_amplitude > 900


def test_two_sided_fences_contain_upper_only_flags():
    rng = np.random.default_rng(105)
    for _ in range(1000):
        values = rng.standard_normal(int(rng.integers(4, 60))) * rng.uniform(0.5, 50.0)
        upper = boxplot_cutoff(values, RULE_UPPER_ONLY)
        both = boxplot_cutoff(values, RULE_TWO_SIDED)
        assert upper <= both


def test_lower_vote_shares_flag_supersets():
    rng = np.random.default_rng(106)
    for _ in range(1000):
        n = int(rng.integers(3, 12))
        n_dir = int(rng.integers(1, 8))
        votes = VoteMatrix(rng.random((n, n_dir, 3)) < 0.35)
        lo, hi = sorted(rng.uniform(0.05, 1.0, size=2))
        low_flags = votes.flags_at(ThresholdTriple(lo, lo, lo))
        high_flags = votes.flags_at(ThresholdTriple(hi, hi, hi))
        assert high_flags.shape_outliers <= low_flags.shape_outliers
        assert high_flags.amplitude_outliers <= low_flags.amplitude_outliers
        assert high_flags.magnitude_outliers <= low_flags.magnitude_outliers


def test_single_component_projection_matches_univariate():
    rng = np.random.default_rng(107)
    for case in range(1000):
        n = int(rng.integers(10, 25))
        k = int(rng.integers(6, 15))
        grid = Grid.regular(k)
        values = rng.standard_normal((n, k)) * rng.uniform(0.5, 2.0)
        uni = FunctionalDataset(values, grid)
        table = compute_index_table(uni, reference_from_sample(uni))
        direct = classify_outliers(table)

        data = MultivariateFunctionalDataset.from_univariate(uni)
        directions = generate_directions(int(rng.integers(1, 6)), 1, seed=case)
        report = detect_projection(data, directions, ANY_VOTE_THRESHOLDS)
        assert report.flags.shape_outliers == direct.shape_outliers
        assert report.flags.amplitude_outliers == direct.amplitude_outliers
        assert report.flags.magnitude_outliers == direct.magnitude_outliers


# ---------------------------------------------------------------------------
# convergence


def smooth_pair(k):
    t = Grid.regular(k).points
    mu = np.sin(2 * np.pi * t) + 0.5 * t**2
    y = 2.0 * np.sin(2 * np.pi * t + 0.4) + np.exp(t) - 1.7
    return y, mu


def test_indices_stabilize_under_grid_doubling():
    sizes = [16, 32, 64, 128, 256, 512]
    triples = []
    for k in sizes:
        y, mu = smooth_pair(k)
        idx = index_rows(y, ReferenceCurve.from_values(mu))
        triples.append((idx.shape[0], idx.amplitude[0], idx.magnitude[0]))
    for c in range(3):
        gaps = [abs(triples[i + 1][c] - triples[i][c]) for i in range(len(sizes) - 1)]
        assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1)), gaps


def trend_p_decreasing(series):
    """One-sided trend p-value: small means the series is heading down."""
    m = len(series)
    s_stat = 0
    for i in range(m):
        for j in range(i + 1, m):
            if series[j] > series[i]:
                s_stat += 1
            elif series[j] < series[i]:
                s_stat -= 1
    var = m * (m - 1) * (2 * m + 5) / 18.0
    z = (s_stat + 1) / math.sqrt(var)
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def test_indices_approach_population_values_with_sample_size():
    grid = Grid.regular(101)
    t = grid.points
    y, mu = smooth_pair(101)
    phi = np.stack(
        [
            np.sin(2 * np.pi * t),
            np.cos(2 * np.pi * t),
            np.sin(4 * np.pi * t),
            np.cos(4 * np.pi * t),
        ]
    )
    lam = np.array([1.0, 0.5, 0.25, 0.125])
    pop = index_rows(y, ReferenceCurve.from_values(mu))
    pop_vals = np.array([pop.shape[0], pop.amplitude[0], pop.magnitude[0]])

    sizes = [50, 100, 200, 500, 1000, 2000, 5000]
    medians = np.empty((len(sizes), 3))
    for s, n in enumerate(sizes):
        errs = np.empty((100, 3))
        for r in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([424242, r, s]))
            xi = rng.standard_normal((n, 4)) * np.sqrt(lam)
            sample = FunctionalDataset(mu[None, :] + xi @ phi, grid)
            ref = reference_from_sample(sample, location=LOCATION_MEAN)
            est = index_rows(y, ref)
            errs[r] = np.abs(
                np.array([est.shape[0], est.amplitude[0], est.magnitude[0]]) - pop_vals
            )
        medians[s] = np.median(errs, axis=0)

    for c in range(3):
        assert trend_p_decreasing(medians[:, c]) < 0.05


# ---------------------------------------------------------------------------
# generator fidelity


def trapezoid_weights(grid):
    w = np.ones(grid.k)
    w[0] = w[-1] = 0.5
    return w * grid.spacing


def test_eigenfunctions_orthonormal_on_grid():
    grid = Grid.regular(50)
    psi = multivariate_eigenfunctions(grid)
    gram = np.einsum("adk,bdk,k->ab", psi, psi, trapezoid_weights(grid))
    assert np.max(np.abs(gram - np.eye(psi.shape[0]))) <= 2e-2


def test_generated_scores_have_declared_variances():
    labeled = generate(SimulationSpec("M0", 10000, 50, 0.0, 777))
    grid = labeled.data.grid
    psi = multivariate_eigenfunctions(grid)
    mu = main_mean("M0", grid.points)
    dev = labeled.data.values - mu[None, :, :]
    scores = np.einsum("nkj,mjk,k->nm", dev, psi, trapezoid_weights(grid))
    empirical = scores.var(axis=0, ddof=1)
    rel = np.abs(empirical - score_variances()) / score_variances()
    assert rel.max() <= 0.05, rel


def test_windowed_shifts_vanish_outside_window():
    spec = SimulationSpec("M2", 60, 40, 0.1, 12345)
    labeled = generate(spec)
    twin = generate(SimulationSpec("M2", 60, 40, 0.0, 12345))
    diff = labeled.data.values - twin.data.values
    t = labeled.data.grid.points
    assert labeled.outlier_indices
    for i in labeled.outlier_indices:
        start = labeled.outlier_info[i]["window_start"]
        inside = (t >= start) & (t <= start + 0.1)
        assert np.all(diff[i][~inside] == 0.0)
        assert np.any(diff[i][inside] != 0.0)
    clean = np.ones(60, dtype=bool)
    clean[list(labeled.outlier_indices)] = False
    assert np.all(diff[clean] == 0.0)


# ---------------------------------------------------------------------------
# determinism of the command line


def run_cli(*argv):
    assert main(list(argv)) == 0


def read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_cli_outputs_byte_identical_across_runs(tmp_path):
    sim_args = ("simulate", "--model", "M2", "--n", "30", "--k", "15", "--seed", "4")
    det_args = (
        "detect", "--layout", "long_multivariate", "--method", "FST_PRJ",
        "--directions", "12", "--seed", "6", "--emit-indices",
    )
    bench_args = (
        "benchmark", "--model", "M0,M1", "--method", "FST_PRJ1,FST_MAR",
        "--reps", "2", "--n", "25", "--k", "12", "--directions", "8", "--seed", "3",
    )
    sweep_args = (
        "sweep", "--model", "M1", "--shares", "0.3,0.5", "--reps", "2",
        "--n", "25", "--k", "12", "--directions", "8", "--seed", "3",
    )
    base_args = (
        "baselines", "--reps", "2", "--n", "25", "--k", "12",
        "--directions", "8", "--seed", "3",
    )
    shared = tmp_path / "shared"
    run_cli(*sim_args, "--out", str(shared))
    snapshots = []
    for tag in ("first", "second"):
        root = tmp_path / tag
        run_cli(*sim_args, "--out", str(root / "sim"))
        run_cli(
            *det_args, "--input", str(shared / "data.csv"),
            "--out", str(root / "det"),
        )
        run_cli(*bench_args, "--out", str(root / "bench"))
        run_cli(*sweep_args, "--out", str(root / "sweep"))
        run_cli(*base_args, "--out", str(root / "base"))
        snapshots.append(
            {
                sub: read_all(root / sub)
                for sub in ("sim", "det", "bench", "sweep", "base")
            }
        )
    assert snapshots[0] == snapshots[1]
    report = json.loads(snapshots[0]["det"]["report.json"].decode())
    assert report["method"] == "FST_PRJ"
