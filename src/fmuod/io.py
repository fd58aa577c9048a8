"""File formats for datasets, reports and benchmark outputs.

Every file is written under one set of rules, so written files re-ingest
exactly and identical runs produce byte-identical files.  CSV files are UTF-8
with ``\r\n`` line ends; a float cell holds the shortest decimal that
round-trips to the same binary value and a missing or undefined (NaN) value
is an empty cell.
JSON files are UTF-8, indented by two spaces, with sorted keys, no NaN or
infinity, and a trailing newline.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np

from ._version import __version__
from .datasets import FunctionalDataset, MultivariateFunctionalDataset
from .datasets import _check_choice, _check_dataset
from .errors import InvalidConfig, ParseError
from .indices import TYPE_ORDER
from .multivariate import Baselines, OutlierReport
from .simulation import LabeledDataset

LAYOUT_WIDE = "wide_univariate"
LAYOUT_LONG = "long_multivariate"
LAYOUTS = (LAYOUT_WIDE, LAYOUT_LONG)
DELIMITER = ","

REPORT_SCHEMA_VERSION = 1
BASELINES_SCHEMA_VERSION = 1


def format_float(value) -> str:
    """Shortest decimal string that parses back to the same float."""
    return repr(float(value))


@contextlib.contextmanager
def _csv_file(path, header):
    """Open ``path`` for writing a CSV and write its ``header`` line, if any."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(header) + "\r\n")
        yield fh


def _write_csv(path, header, rows) -> None:
    """Write ``rows`` under ``header``.

    Floats go through :func:`format_float`, NaN as ``None``; ``csv`` writes
    ``None`` as an empty cell and any other value as ``str(value)``.
    """
    with _csv_file(path, header) as fh:
        csv.writer(fh).writerows(
            [_float_cell(v) if isinstance(v, float) else v for v in row] for row in rows
        )


def _float_cell(value: float) -> str | None:
    return None if math.isnan(value) else format_float(value)


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _parse_float(cell: str, line_no: int, what: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"line {line_no}: {what} {cell!r} is not a number")
    if not math.isfinite(value):
        raise ParseError(f"line {line_no}: {what} {cell!r} is not finite")
    return value


def _parse_int(cell: str, line_no: int, what: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ParseError(f"line {line_no}: {what} {cell!r} is not an integer")


def _read_rows(path, delimiter: str) -> list[tuple[int, list[str]]]:
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise InvalidConfig(f"delimiter must be a single character, got {delimiter!r}")
    rows = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for line_no, row in enumerate(csv.reader(fh, delimiter=delimiter), start=1):
                if not row or all(cell.strip() == "" for cell in row):
                    continue
                rows.append((line_no, row))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: file contains no data")
    return rows


# ---------------------------------------------------------------------------
# wide layout: one row per curve


def read_wide_csv(path, delimiter: str = DELIMITER) -> FunctionalDataset:
    """Read curves from a CSV with one row per curve.

    All cells must be finite numbers.  A leading row none of whose cells
    parses as a number is treated as a header and skipped; a leading row
    mixing numbers and text is data, so its first bad cell is an error.
    """
    rows = _read_rows(path, delimiter)

    def is_number(cell: str) -> bool:
        try:
            float(cell)
        except ValueError:
            return False
        return True

    start = 0 if any(is_number(cell) for cell in rows[0][1]) else 1
    if start == len(rows):
        raise ParseError(f"{path}: header but no data rows")

    k = len(rows[start][1])
    if k < 2:
        raise ParseError(f"line {rows[start][0]}: curves need at least 2 grid points")
    values = np.empty((len(rows) - start, k))
    for r, (line_no, row) in enumerate(rows[start:]):
        if len(row) != k:
            raise ParseError(f"line {line_no}: expected {k} columns, found {len(row)}")
        for c, cell in enumerate(row):
            values[r, c] = _parse_float(cell, line_no, "value")
    return FunctionalDataset(values)


def write_wide_csv(data: FunctionalDataset, path) -> None:
    """Write one row of grid values per curve (no header)."""
    _check_dataset(data, FunctionalDataset)
    _write_csv(path, (), data.values.tolist())


# ---------------------------------------------------------------------------
# long layout: one row per (curve, grid point)


def _long_header(n_dims: int) -> list[str]:
    return ["curve_id", "t_index"] + [f"dim_{m + 1}" for m in range(n_dims)]


def read_long_csv(path, delimiter: str = DELIMITER) -> MultivariateFunctionalDataset:
    """Read a complete (curve, grid point, component) lattice.

    The header must be ``curve_id,t_index,dim_1,...,dim_d``; curve and grid
    indices must be 0-based and every combination must appear exactly once.

    The body is parsed in one ``np.loadtxt`` pass and checked in bulk.  A file
    that pass does not take as it stands is read again line by line: a
    malformed file then raises a :class:`ParseError` naming its first bad
    line, and forms only Python's ``int`` and ``float`` accept (``1_0``,
    Unicode digits, quoted cells, blank lines before the header) still read.
    """
    values = _long_values_bulk(path, delimiter)
    if values is None:
        return _read_long_lines(path, delimiter)
    return MultivariateFunctionalDataset(values)


def _long_values_bulk(path, delimiter: str) -> np.ndarray | None:
    """The ``(n, k, d)`` values of a plain long CSV, or None to read it line by line.

    Only a file the line-by-line reader accepts with the same values may pass:
    every cell is parsed (no ``usecols``, which lets ragged rows through), ``#``
    is data (no ``comments``), and numpy's warnings, such as a float read as an
    integer, count as failures.

    ``np.loadtxt`` gets the number of body lines as ``max_rows``, so it sizes
    its result once instead of growing it and cutting it to size, which made
    peak memory differ by some 2 MB from run to run.  A file with content
    left after ``max_rows`` rows (bare ``\\r`` line ends) is read line by line.
    """
    try:
        max_rows = _count_lines(path) - 1
        with open(path, encoding="utf-8-sig") as fh:
            header = next(csv.reader([fh.readline()], delimiter=delimiter), [])
            n_dims = len(header) - 2
            if n_dims < 1 or header != _long_header(n_dims):
                return None
            dtype = [("c", "i8"), ("t", "i8"), ("v", "f8", (n_dims,))]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(
                    fh, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1,
                    max_rows=max_rows,
                )
            if fh.read(1):
                return None
    except Exception:  # whatever failed, the line-by-line reader reports it
        return None
    curve, t_idx, vecs = rows["c"], rows["t"], rows["v"]
    if curve.min() < 0 or t_idx.min() < 0 or not np.isfinite(vecs).all():
        return None
    n, k = int(curve.max()) + 1, int(t_idx.max()) + 1
    if k < 2 or n * k != len(rows):
        return None
    cell = curve * k + t_idx
    if np.bincount(cell, minlength=n * k).max() > 1:
        return None
    values = np.empty((n * k, n_dims))
    values[cell] = vecs
    return values.reshape(n, k, n_dims)


def _count_lines(path) -> int:
    """Number of lines in a file as ``\\n`` ends them, a last unended one included."""
    count, last = 0, b"\n"
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            count += block.count(b"\n")
            last = block[-1:]
    return count + (last != b"\n")


def _read_long_lines(path, delimiter: str) -> MultivariateFunctionalDataset:
    """The line-by-line long reader: the error reporter and the reference."""
    rows = _read_rows(path, delimiter)
    header_line, header = rows[0]
    if len(header) < 3 or header[:2] != ["curve_id", "t_index"]:
        raise ParseError(
            f"line {header_line}: expected header curve_id,t_index,dim_1,..."
        )
    n_dims = len(header) - 2
    if header[2:] != _long_header(n_dims)[2:]:
        raise ParseError(
            f"line {header_line}: dimension columns must be named dim_1..dim_{n_dims}"
        )

    cells: dict[tuple[int, int], list[float]] = {}
    max_curve = -1
    max_t = -1
    for line_no, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(
                f"line {line_no}: expected {len(header)} columns, found {len(row)}"
            )
        curve = _parse_int(row[0], line_no, "curve_id")
        t_idx = _parse_int(row[1], line_no, "t_index")
        if curve < 0 or t_idx < 0:
            raise ParseError(f"line {line_no}: curve_id and t_index must be >= 0")
        key = (curve, t_idx)
        if key in cells:
            raise ParseError(
                f"line {line_no}: duplicate entry for curve {curve}, t_index {t_idx}"
            )
        cells[key] = [
            _parse_float(row[2 + m], line_no, f"dim_{m + 1}") for m in range(n_dims)
        ]
        max_curve = max(max_curve, curve)
        max_t = max(max_t, t_idx)

    if max_curve < 0:
        raise ParseError(f"{path}: header but no data rows")
    n, k = max_curve + 1, max_t + 1
    if k < 2:
        raise ParseError(f"{path}: curves need at least 2 grid points")
    if len(cells) != n * k:
        for i in range(n):
            for j in range(k):
                if (i, j) not in cells:
                    raise ParseError(
                        f"{path}: incomplete lattice, missing curve {i}, t_index {j}"
                    )
    values = np.empty((n, k, n_dims))
    for (i, j), vec in cells.items():
        values[i, j] = vec
    return MultivariateFunctionalDataset(values)


def write_long_csv(data: MultivariateFunctionalDataset, path) -> None:
    """Write the dataset as a complete 0-indexed lattice with a header."""
    _check_dataset(data, MultivariateFunctionalDataset)
    # This writer and write_index_tables_csv build their rows as f-strings of
    # repr(float), which is format_float, rather than through _write_csv: for
    # a 30 000-row index table csv.writer took about 165 ms against 110 ms
    # (2 vCPUs, Python 3.11).
    with _csv_file(path, _long_header(data.n_dims)) as fh:
        for i, curve in enumerate(data.values):
            fh.writelines(
                f"{i},{j},{','.join(map(repr, vec))}\r\n"
                for j, vec in enumerate(curve.tolist())
            )


def read_dataset(path, layout: str, delimiter: str = DELIMITER) -> MultivariateFunctionalDataset:
    """Read either layout, returning a multivariate dataset (d=1 for wide)."""
    _check_choice("layout", layout, LAYOUTS)
    if layout == LAYOUT_WIDE:
        return MultivariateFunctionalDataset.from_univariate(read_wide_csv(path, delimiter))
    return read_long_csv(path, delimiter)


# ---------------------------------------------------------------------------
# simulation truth


def write_truth_csv(labeled: LabeledDataset, path) -> None:
    """Write the outlier indices and their per-outlier parameters."""
    info = labeled.outlier_info
    rows = ((i, json.dumps(info.get(i, {}), sort_keys=True)) for i in labeled.outlier_indices)
    _write_csv(path, ("curve_id", "info"), rows)


# ---------------------------------------------------------------------------
# baselines


def write_baselines(baselines: Baselines, path) -> None:
    _write_json(path, {"schema_version": BASELINES_SCHEMA_VERSION, **baselines.as_dict()})


def read_baselines(path) -> Baselines:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object with baseline rates")
    return Baselines.from_dict(payload)


# ---------------------------------------------------------------------------
# reports


def report_payload(report: OutlierReport, extra_config: dict | None = None) -> dict:
    """JSON-ready dictionary describing a detection report."""
    flags = report.flags
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "generator": {"name": "fmuod", "version": __version__},
        "method": report.method,
        "n_curves": report.n,
        "flags": {
            **{name: sorted(flagged) for name, flagged in zip(TYPE_ORDER, flags.by_type())},
            "union": sorted(flags.union),
        },
        "degenerate_projections": report.degenerate_projections,
        "config": {**report.config, **(extra_config or {})},
        "thresholds": None,
        "proportions": None if report.proportions is None else report.proportions.tolist(),
    }
    if report.thresholds is not None:
        thresholds = dict(zip(TYPE_ORDER, report.thresholds.by_type()))
        selection = report.thresholds.selection
        if selection is not None:
            thresholds["selection"] = {
                **dataclasses.asdict(selection),
                "ratios": [None if math.isnan(r) else r for r in selection.ratios],
            }
        payload["thresholds"] = thresholds
    return payload


def write_report_json(report: OutlierReport, path, extra_config: dict | None = None) -> None:
    _write_json(path, report_payload(report, extra_config))


def write_flags_csv(report: OutlierReport, path) -> None:
    """Tidy per-curve table: one row per curve and index type, plot-ready."""
    per_type = report.flags.by_type()
    shares = report.proportions
    rows = (
        (i, name, None if shares is None else shares[i, t], int(i in per_type[t]))
        for i in range(report.n)
        for t, name in enumerate(TYPE_ORDER)
    )
    _write_csv(path, ("curve_id", "type", "vote_share", "flagged"), rows)


def write_index_tables_csv(tables, path) -> None:
    """Write ``(component, IndexTable)`` pairs as one tidy CSV.

    Labels (component or direction numbers, ``stringed``) are written as
    ``str(label)``, unquoted.
    """
    with _csv_file(path, ("component", "curve_id", *TYPE_ORDER)) as fh:
        for label, table in tables:
            columns = zip(*(column.tolist() for column in table.by_type()))
            fh.writelines(
                f"{label},{i},{s!r},{a!r},{m!r}\r\n" for i, (s, a, m) in enumerate(columns)
            )


# ---------------------------------------------------------------------------
# benchmark outputs


def write_benchmark_summary_csv(results, path) -> None:
    header = (
        "model", "method", "scope", "reps", "n", "k", "contamination", "seed",
        "tpr_mean", "tpr_sd", "fpr_mean", "fpr_sd",
    )
    rows = (
        (res.model, res.method, res.report_scope, res.reps, res.n, res.k, float(res.contamination),
         res.seed, res.tpr_mean, res.tpr_sd, res.fpr_mean, res.fpr_sd)
        for res in results
    )
    _write_csv(path, header, rows)


def write_benchmark_reps_csv(results, path) -> None:
    rows = (
        (res.model, res.method, res.report_scope, r,
         None if res.tpr is None else res.tpr[r], res.fpr[r])
        for res in results
        for r in range(res.reps)
    )
    _write_csv(path, ("model", "method", "scope", "rep", "tpr", "fpr"), rows)


def write_sweep_csv(shares_grid, results, path) -> None:
    """One row per vote-share triple and its :func:`~fmuod.benchmark.threshold_sweep` result."""
    header = (*(f"share_{name}" for name in TYPE_ORDER), "f1_mean", "f1_sd", "fpr_mean", "fpr_sd")
    rows = (
        (*map(float, shares.by_type()), res.f1_mean, res.f1_sd, res.fpr_mean, res.fpr_sd)
        for shares, res in zip(shares_grid, results, strict=True)
    )
    _write_csv(path, header, rows)
