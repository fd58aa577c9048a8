import csv
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fmuod import (
    Baselines,
    FunctionalDataset,
    Grid,
    InvalidConfig,
    MethodConfig,
    MultivariateFunctionalDataset,
    ParseError,
    ThresholdTriple,
    detect_marginal,
    run_benchmark,
    run_method,
    threshold_sweep,
)
from fmuod.indices import IndexTable
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
from fmuod.io import _long_values_bulk, _read_long_lines
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


def test_wide_mixed_first_row_is_data_with_a_bad_cell(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1.0,2.0,abc\n4,5,6\n7,8,9\n")
    with pytest.raises(ParseError, match="line 1: value 'abc' is not a number"):
        read_wide_csv(path)


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


def test_long_plain_file_takes_the_bulk_path(tmp_path, monkeypatch):
    data = random_mv(n=5, k=6, d=3)
    path = tmp_path / "long.csv"
    write_long_csv(data, path)

    def refuse(path, delimiter):
        raise AssertionError("the line-by-line reader ran on a plain file")

    monkeypatch.setattr("fmuod.io._read_long_lines", refuse)
    assert read_long_csv(path).values.tobytes() == data.values.tobytes()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("trailing", [True, False], ids=["ended", "unended"])
def test_long_line_endings_read_alike(tmp_path, newline, trailing):
    # the bulk path takes "\n" and "\r\n" files; a bare "\r" file may go line by line
    lines = ["curve_id,t_index,dim_1,dim_2", "0,0,1,2", "0,1,3,4", "1,0,5,6", "1,1,7,8"]
    path = tmp_path / "long.csv"
    path.write_bytes((newline.join(lines) + (newline if trailing else "")).encode())
    expected = np.arange(1.0, 9.0).reshape(2, 2, 2)
    bulk = _long_values_bulk(path, ",")
    if bulk is not None or newline != "\r":
        assert bulk.tobytes() == expected.tobytes()
    assert read_long_csv(path).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "body, message",
    [
        ("0,0,1\n0,1\n", "line 3: expected 3 columns, found 2"),
        ("0,0,1,9\n0,1,2,9\n", "line 2: expected 3 columns, found 4"),
        ("0,0,1\n0,1,3#x\n", "line 3: dim_1 '3#x' is not a number"),
        ("0,0,1\n# note\n0,1,2\n", "line 3: expected 3 columns, found 1"),
        ("0,0,1\n0,1.0,2\n", "line 3: t_index '1.0' is not an integer"),
        ("0,0,1\n0,1,1e400\n", "line 3: dim_1 '1e400' is not finite"),
        ("0,0,1\n1,-1,2\n1,0,3\n1,1,4\n", "line 3: curve_id and t_index must be >= 0"),
        ("\n", "{path}: header but no data rows"),
    ],
    ids=[
        "short-row", "long-rows", "hash-in-cell", "hash-line", "float-id", "overflow",
        "negative-id", "no-rows",
    ],
)
def test_long_bulk_parse_leniencies_still_raise(tmp_path, body, message):
    # usecols would let ragged rows through, comments='#' would cut cells, and
    # (1, -1) lands on the free cell (0, 1) of a 2 x 2 lattice
    path = tmp_path / "long.csv"
    path.write_text("curve_id,t_index,dim_1\n" + body)
    with pytest.raises(ParseError) as err:
        read_long_csv(path)
    assert str(err.value) == message.format(path=path)


@pytest.mark.parametrize(
    "text",
    [
        "curve_id,t_index,dim_1\n0,0,1_0\n0,1,2\n",
        "curve_id,t_index,dim_1\n\u0660,0,10\n0,\u0661,2\n",
        'curve_id,t_index,dim_1\n"0",0,"10"\n0,1,2\n',
        "curve_id,t_index,dim_1\n0,0,10\n  \n0,1,2\n",
        "\n\ncurve_id,t_index,dim_1\n0,0,10\n0,1,2\n",
    ],
    ids=["underscore", "unicode-digits", "quoted", "whitespace-line", "header-on-line-3"],
)
def test_long_forms_only_python_parses_still_read(tmp_path, text):
    path = tmp_path / "long.csv"
    path.write_text(text, encoding="utf-8")
    np.testing.assert_array_equal(read_long_csv(path).values, [[[10.0], [2.0]]])


@pytest.mark.parametrize("reader", [read_long_csv, _read_long_lines])
def test_long_reads_utf8_bom_like_plain_file(tmp_path, reader):
    data = random_mv()
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_long_csv(data, plain)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert reader(bom, ",").values.tobytes() == reader(plain, ",").values.tobytes()


def test_wide_reads_utf8_bom_like_plain_file(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_bytes(b"\xef\xbb\xbft1,t2\n1,2\n")
    np.testing.assert_array_equal(read_wide_csv(path).values, [[1.0, 2.0]])


#: Settings for examples that each write a file under one ``tmp_path``.
PER_FILE = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

#: Cells the bulk parse must not read differently from Python's int and float.
AWKWARD_CELLS = [
    "3#x", "#", "1_0", "\u0661", "\u0663.5", "3.0", "+3", " 3", "3 ", "-0", "-1", "nan",
    "inf", "-inf", "1e400", "", "abc", "0x1", ".5", "1e5",
]


@st.composite
def long_csv_files(draw):
    """A long CSV text and its delimiter, with a few edits that may break it."""
    n, k, d = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = [
        [str(i), str(j)] + draw(st.lists(finite, min_size=d, max_size=d))
        for i in range(n)
        for j in range(k)
    ]
    rows = draw(st.permutations(rows))
    edits = ["short", "long", "cell", "quote", "nonfinite", "duplicate", "rekey", "drop"]
    for edit in draw(st.lists(st.sampled_from(edits), max_size=3)):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, max(len(rows[r]) - 1, 0)))
        if len(rows[r]) < 3 and edit in ("cell", "quote", "nonfinite", "rekey"):
            continue
        if edit == "short":
            rows[r] = rows[r][:c]
        elif edit == "long":
            rows[r] = rows[r] + [draw(finite)]
        elif edit == "cell":
            rows[r][c] = draw(st.sampled_from(AWKWARD_CELLS))
        elif edit == "quote":
            rows[r][c] = f'"{rows[r][c]}"'
        elif edit == "nonfinite":
            rows[r][max(c, 2)] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400"]))
        elif edit == "rekey":  # a duplicate key and a missing cell, same row count
            rows[r][:2] = draw(st.sampled_from(rows))[:2]
        elif edit == "duplicate":
            rows.insert(r, list(rows[r]))
        elif edit == "drop":
            del rows[r]
    lines = [delimiter.join(row) for row in rows]
    header = delimiter.join(["curve_id", "t_index"] + [f"dim_{m + 1}" for m in range(d)])
    lines.insert(0, header)
    for filler in draw(st.lists(st.sampled_from(["", "  ", "\t", "# note"]), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), filler)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return delimiter, newline.join(lines) + newline


def read_outcome(reader, path, delimiter):
    """The values a reader returns, or the message of its ParseError."""
    try:
        return reader(path, delimiter).values
    except ParseError as exc:
        return str(exc)


@settings(max_examples=400, **PER_FILE)
@given(long_csv_files())
def test_long_bulk_path_agrees_with_line_reader(tmp_path, case):
    delimiter, text = case
    path = tmp_path / "long.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = read_outcome(_read_long_lines, path, delimiter)
    bulk = _long_values_bulk(path, delimiter)
    if bulk is not None:
        assert not isinstance(expected, str), f"bulk path accepted a file rejected with {expected}"
        assert bulk.shape == expected.shape and bulk.tobytes() == expected.tobytes()
    got = read_outcome(read_long_csv, path, delimiter)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def csv_writer_bytes(header, rows) -> bytes:
    """What ``csv.writer`` writes for these rows: the writers' former loop."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


@settings(max_examples=100, **PER_FILE)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(2, 4), st.integers(1, 3)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_long_writer_matches_csv_writer(tmp_path, values):
    data = MultivariateFunctionalDataset(values, Grid.regular(values.shape[1]))
    path = tmp_path / "long.csv"
    write_long_csv(data, path)
    n, k, d = values.shape
    rows = (
        [str(i), str(j)] + [format_float(v) for v in values[i, j]]
        for i in range(n)
        for j in range(k)
    )
    header = ["curve_id", "t_index"] + [f"dim_{m + 1}" for m in range(d)]
    assert path.read_bytes() == csv_writer_bytes(header, rows)


@settings(max_examples=100, **PER_FILE)
@given(arrays(np.float64, st.tuples(st.just(3), st.integers(1, 5)), elements=st.floats()))
def test_index_tables_writer_matches_csv_writer(tmp_path, columns):
    tables = [(label, IndexTable(*columns)) for label in (0, 1, "stringed")]
    path = tmp_path / "indices.csv"
    write_index_tables_csv(tables, path)
    rows = (
        [str(label), str(i)] + [format_float(col[i]) for col in columns]
        for label, _ in tables
        for i in range(columns.shape[1])
    )
    header = ["component", "curve_id", "shape", "amplitude", "magnitude"]
    assert path.read_bytes() == csv_writer_bytes(header, rows)


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


def test_baselines_read_utf8_bom_like_plain_file(tmp_path):
    rates = Baselines(0.07, 0.01, 0.012, 0.088)
    plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
    write_baselines(rates, plain)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_baselines(bom) == read_baselines(plain) == rates


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
    tables = list(detect_marginal(data).tables)
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
