import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmuod import (
    Baselines,
    FunctionalDataset,
    Grid,
    InvalidConfig,
    MethodConfig,
    MultivariateFunctionalDataset,
    ParseError,
    ThresholdTriple,
    run_benchmark,
    run_method,
    threshold_sweep,
)
from fmuod.io import (
    LAYOUT_LONG,
    LAYOUT_WIDE,
    REPORT_SCHEMA_VERSION,
    format_float,
    read_baselines,
    read_dataset,
    read_long_csv,
    read_wide_csv,
    report_payload,
    write_baselines,
    write_benchmark_reps_csv,
    write_benchmark_summary_csv,
    write_flags_csv,
    write_index_tables_csv,
    write_long_csv,
    write_report_json,
    write_sweep_csv,
    write_truth_csv,
    write_wide_csv,
)
from fmuod.multivariate import marginal_tables
from fmuod.simulation import SimulationSpec, generate


def random_uni(seed=0, n=6, k=9):
    rng = np.random.default_rng(seed)
    return FunctionalDataset(rng.standard_normal((n, k)), Grid.regular(k))


def random_mv(seed=0, n=4, k=7, d=2):
    rng = np.random.default_rng(seed)
    return MultivariateFunctionalDataset(rng.standard_normal((n, k, d)), Grid.regular(k))


# ---------------------------------------------------------------------------
# float formatting


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_exactly(x):
    assert float(format_float(x)) == x


# ---------------------------------------------------------------------------
# wide layout


def test_wide_round_trip_is_exact(tmp_path):
    data = random_uni()
    path = tmp_path / "wide.csv"
    write_wide_csv(data, path)
    back = read_wide_csv(path)
    np.testing.assert_array_equal(back.values, data.values)
    assert back.k == data.k


def test_wide_skips_single_header_row(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("t1,t2,t3\n1,2,3\n4,5,6\n")
    data = read_wide_csv(path)
    np.testing.assert_array_equal(data.values, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_wide_header_without_rows_fails(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("t1,t2,t3\n")
    with pytest.raises(ParseError):
        read_wide_csv(path)


def test_wide_ragged_rows_report_line_number(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ParseError, match="line 2"):
        read_wide_csv(path)


def test_wide_non_numeric_cell_reports_line_number(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1,2,3\n4,x,6\n")
    with pytest.raises(ParseError, match="line 2"):
        read_wide_csv(path)


def test_wide_rejects_non_finite_values(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1,2,inf\n")
    with pytest.raises(ParseError):
        read_wide_csv(path)


def test_wide_rejects_single_column(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1\n2\n")
    with pytest.raises(ParseError):
        read_wide_csv(path)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        read_wide_csv(tmp_path / "nope.csv")


def test_empty_file_is_a_parse_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(ParseError):
        read_wide_csv(path)


# ---------------------------------------------------------------------------
# long layout


def test_long_round_trip_is_exact(tmp_path):
    data = random_mv()
    path = tmp_path / "long.csv"
    write_long_csv(data, path)
    back = read_long_csv(path)
    np.testing.assert_array_equal(back.values, data.values)
    assert back.n_dims == 2


def test_long_rows_may_arrive_in_any_order(tmp_path):
    path = tmp_path / "long.csv"
    write_long_csv(random_mv(n=2, k=2, d=1), path)
    lines = path.read_text().strip().splitlines()
    shuffled = [lines[0]] + lines[:0:-1]
    path.write_text("\n".join(shuffled) + "\n")
    back = read_long_csv(path)
    np.testing.assert_array_equal(back.values, random_mv(n=2, k=2, d=1).values)


def test_long_requires_exact_header(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("curve,t,dim_1\n0,0,1\n")
    with pytest.raises(ParseError, match="header"):
        read_long_csv(path)
    path.write_text("curve_id,t_index,value\n0,0,1\n")
    with pytest.raises(ParseError, match="dim_1"):
        read_long_csv(path)


def test_long_rejects_duplicates(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("curve_id,t_index,dim_1\n0,0,1\n0,0,2\n0,1,3\n")
    with pytest.raises(ParseError, match="duplicate"):
        read_long_csv(path)


def test_long_rejects_incomplete_lattice(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("curve_id,t_index,dim_1\n0,0,1\n0,1,2\n1,0,3\n")
    with pytest.raises(ParseError, match="missing curve 1"):
        read_long_csv(path)


def test_long_rejects_negative_indices_and_bad_ints(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("curve_id,t_index,dim_1\n-1,0,1\n")
    with pytest.raises(ParseError):
        read_long_csv(path)
    path.write_text("curve_id,t_index,dim_1\nzero,0,1\n")
    with pytest.raises(ParseError, match="line 2"):
        read_long_csv(path)


def test_long_rejects_short_grid(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("curve_id,t_index,dim_1\n0,0,1\n1,0,2\n")
    with pytest.raises(ParseError, match="grid points"):
        read_long_csv(path)


def test_read_dataset_dispatch(tmp_path):
    uni = random_uni()
    wide = tmp_path / "wide.csv"
    write_wide_csv(uni, wide)
    as_mv = read_dataset(wide, LAYOUT_WIDE)
    assert as_mv.n_dims == 1
    np.testing.assert_array_equal(as_mv.margin(0).values, uni.values)

    mv = random_mv()
    longp = tmp_path / "long.csv"
    write_long_csv(mv, longp)
    np.testing.assert_array_equal(read_dataset(longp, LAYOUT_LONG).values, mv.values)

    with pytest.raises(InvalidConfig):
        read_dataset(wide, "sideways")


# ---------------------------------------------------------------------------
# truth, baselines


def test_truth_csv_lists_outliers_with_parameters(tmp_path):
    labeled = generate(SimulationSpec("M2", n=30, k=20, contamination=0.1, seed=5))
    path = tmp_path / "truth.csv"
    write_truth_csv(labeled, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "curve_id,info"
    assert len(lines) == 1 + len(labeled.outlier_indices)
    first = lines[1].split(",", 1)
    assert int(first[0]) == labeled.outlier_indices[0]
    info = json.loads(first[1].strip('"').replace('""', '"'))
    assert "window_start" in info


def test_baselines_round_trip(tmp_path):
    rates = Baselines(0.07, 0.01, 0.012, 0.088)
    path = tmp_path / "baselines.json"
    write_baselines(rates, path)
    assert read_baselines(path) == rates


def test_baselines_bad_json(tmp_path):
    path = tmp_path / "baselines.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        read_baselines(path)
    path.write_text("[1, 2]")
    with pytest.raises(ParseError):
        read_baselines(path)
    with pytest.raises(ParseError):
        read_baselines(tmp_path / "absent.json")


def test_baselines_missing_rate_is_config_error(tmp_path):
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps({"shape": 0.1, "amplitude": 0.01, "magnitude": 0.01}))
    with pytest.raises(InvalidConfig):
        read_baselines(path)


@pytest.mark.parametrize("rate", ["abc", None, [0.1]], ids=["text", "null", "list"])
def test_baselines_non_numeric_rate_is_config_error(tmp_path, rate):
    path = tmp_path / "baselines.json"
    path.write_text(
        json.dumps({"shape": rate, "amplitude": 0.01, "magnitude": 0.01, "union": 0.09})
    )
    with pytest.raises(InvalidConfig, match="must be numbers"):
        read_baselines(path)


# ---------------------------------------------------------------------------
# reports


def projection_report(seed=3):
    data = generate(SimulationSpec("M1", n=30, k=20, contamination=0.1, seed=seed)).data
    return run_method(data, MethodConfig(method="FST_PRJ", n_directions=10), seed=seed)


def test_report_payload_structure():
    report = projection_report()
    payload = report_payload(report, extra_config={"input": "x.csv"})
    assert payload["schema_version"] == REPORT_SCHEMA_VERSION
    assert payload["generator"]["name"] == "fmuod"
    assert payload["method"] == "FST_PRJ"
    assert payload["config"]["input"] == "x.csv"
    flags = payload["flags"]
    assert flags["union"] == sorted(set(flags["union"]))
    sel = payload["thresholds"]["selection"]
    assert set(sel["baselines"]) == {"shape", "amplitude", "magnitude", "union"}
    assert len(payload["proportions"]) == report.n


def test_report_json_is_valid_and_deterministic(tmp_path):
    report = projection_report()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report_json(report, a)
    write_report_json(report, b)
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["degenerate_projections"] == 0


def test_report_payload_maps_nan_ratios_to_null(tmp_path):
    # a null dataset keeps vote shares below baseline -> fallback, NaN ratios
    data = generate(SimulationSpec("M0", n=30, k=20, contamination=0.0, seed=8)).data
    report = run_method(data, MethodConfig(method="FST_PRJ", n_directions=10), seed=8)
    payload = report_payload(report)
    ratios = payload["thresholds"]["selection"]["ratios"]
    assert all(r is None or isinstance(r, float) for r in ratios)
    path = tmp_path / "r.json"
    write_report_json(report, path)  # allow_nan=False must not raise
    json.loads(path.read_text())


def test_flags_csv_shape(tmp_path):
    report = projection_report()
    path = tmp_path / "flags.csv"
    write_flags_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "curve_id,type,vote_share,flagged"
    assert len(lines) == 1 + 3 * report.n
    cells = [line.split(",") for line in lines[1:]]
    assert {c[1] for c in cells} == {"shape", "amplitude", "magnitude"}
    assert {c[3] for c in cells} <= {"0", "1"}


def test_flags_csv_blank_share_without_proportions(tmp_path):
    data = generate(SimulationSpec("M1", n=20, k=15, contamination=0.1, seed=4)).data
    report = run_method(data, MethodConfig(method="FST_MAR"), seed=0)
    path = tmp_path / "flags.csv"
    write_flags_csv(report, path)
    first = path.read_text().strip().splitlines()[1].split(",")
    assert first[2] == ""


def test_index_tables_csv(tmp_path):
    data = random_mv(d=3, n=8, k=10)
    tables = list(enumerate(marginal_tables(data)))
    path = tmp_path / "indices.csv"
    write_index_tables_csv(tables, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "component,curve_id,shape,amplitude,magnitude"
    assert len(lines) == 1 + 3 * 8
    value = float(lines[1].split(",")[2])
    assert value == tables[0][1].shape[0]


# ---------------------------------------------------------------------------
# benchmark outputs


def test_benchmark_csvs(tmp_path):
    res = run_benchmark(
        "M1", MethodConfig(method="FST_PRJ1", n_directions=10), reps=2, n=30, k=15, seed=6
    )
    null = run_benchmark("M0", MethodConfig(method="FST_MAR"), reps=2, n=30, k=15, seed=6)
    summary = tmp_path / "summary.csv"
    write_benchmark_summary_csv([res, null], summary)
    lines = summary.read_text().strip().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert "runtime" not in ",".join(header)
    null_row = lines[2].split(",")
    assert null_row[header.index("tpr_mean")] == ""
    assert float(null_row[header.index("fpr_mean")]) == null.fpr_mean

    reps_path = tmp_path / "reps.csv"
    write_benchmark_reps_csv([res, null], reps_path)
    rep_lines = reps_path.read_text().strip().splitlines()
    assert rep_lines[0] == "model,method,scope,rep,tpr,fpr"
    assert len(rep_lines) == 1 + 4


def test_sweep_csv(tmp_path):
    points = threshold_sweep(
        "M1",
        [ThresholdTriple(0.4, 0.3, 0.3), ThresholdTriple(0.6, 0.6, 0.6)],
        reps=2,
        n=30,
        k=15,
        seed=2,
        n_directions=10,
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(points, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("share_shape,share_amplitude,share_magnitude")
    assert float(lines[1].split(",")[0]) == 0.4
