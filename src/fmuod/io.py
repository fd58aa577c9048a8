"""File formats for datasets, reports and benchmark outputs.

All floating-point output uses the shortest decimal representation that
round-trips to the same binary value, so written files re-ingest exactly and
identical runs produce byte-identical files.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np

from ._version import __version__
from .datasets import FunctionalDataset, Grid, MultivariateFunctionalDataset
from .errors import InvalidConfig, ParseError
from .multivariate import TYPE_ORDER, Baselines, OutlierReport
from .simulation import LabeledDataset

LAYOUT_WIDE = "wide_univariate"
LAYOUT_LONG = "long_multivariate"
LAYOUTS = (LAYOUT_WIDE, LAYOUT_LONG)

REPORT_SCHEMA_VERSION = 1
BASELINES_SCHEMA_VERSION = 1


def format_float(value) -> str:
    """Shortest decimal string that parses back to the same float."""
    return repr(float(value))


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


def read_wide_csv(path, delimiter: str = ",") -> FunctionalDataset:
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
    return FunctionalDataset(values, Grid.regular(k))


def write_wide_csv(data: FunctionalDataset, path) -> None:
    """Write one row of grid values per curve (no header)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for i in range(data.n):
            writer.writerow([format_float(v) for v in data.values[i]])


# ---------------------------------------------------------------------------
# long layout: one row per (curve, grid point)


def _long_header(n_dims: int) -> list[str]:
    return ["curve_id", "t_index"] + [f"dim_{m + 1}" for m in range(n_dims)]


def read_long_csv(path, delimiter: str = ",") -> MultivariateFunctionalDataset:
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
    return MultivariateFunctionalDataset(values, Grid.regular(values.shape[1]))


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
    return MultivariateFunctionalDataset(values, Grid.regular(k))


def write_long_csv(data: MultivariateFunctionalDataset, path) -> None:
    """Write the dataset as a complete 0-indexed lattice with a header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_long_header(data.n_dims)) + "\r\n")
        for i, curve in enumerate(data.values):
            fh.writelines(
                f"{i},{j},{','.join(map(repr, vec))}\r\n"
                for j, vec in enumerate(curve.tolist())
            )


def read_dataset(path, layout: str, delimiter: str = ",") -> MultivariateFunctionalDataset:
    """Read either layout, returning a multivariate dataset (d=1 for wide)."""
    if layout == LAYOUT_WIDE:
        return MultivariateFunctionalDataset.from_univariate(read_wide_csv(path, delimiter))
    if layout == LAYOUT_LONG:
        return read_long_csv(path, delimiter)
    raise InvalidConfig(f"unknown layout {layout!r}; use one of {LAYOUTS}")


# ---------------------------------------------------------------------------
# simulation truth


def write_truth_csv(labeled: LabeledDataset, path) -> None:
    """Write the outlier indices and their per-outlier parameters."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve_id", "info"])
        for i in labeled.outlier_indices:
            writer.writerow([str(i), json.dumps(labeled.outlier_info.get(i, {}), sort_keys=True)])


# ---------------------------------------------------------------------------
# baselines


def write_baselines(baselines: Baselines, path) -> None:
    payload = {"schema_version": BASELINES_SCHEMA_VERSION}
    payload.update(baselines.as_dict())
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


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


def _nan_to_none(value: float):
    return None if math.isnan(value) else value


def report_payload(report: OutlierReport, extra_config: dict | None = None) -> dict:
    """JSON-ready dictionary describing a detection report."""
    flags = report.flags
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "generator": {"name": "fmuod", "version": __version__},
        "method": report.method,
        "n_curves": report.n,
        "flags": {
            "shape": sorted(flags.shape_outliers),
            "amplitude": sorted(flags.amplitude_outliers),
            "magnitude": sorted(flags.magnitude_outliers),
            "union": sorted(flags.union),
        },
        "degenerate_projections": report.degenerate_projections,
        "config": dict(report.config),
    }
    if extra_config:
        payload["config"].update(extra_config)
    if report.thresholds is not None:
        thresholds = {
            "shape": report.thresholds.shape,
            "amplitude": report.thresholds.amplitude,
            "magnitude": report.thresholds.magnitude,
        }
        selection = report.thresholds.selection
        if selection is not None:
            thresholds["selection"] = {
                "baselines": selection.baselines.as_dict(),
                "gamma": list(selection.gamma),
                "eta": list(selection.eta),
                "delta_types": list(selection.delta_types),
                "delta_union": selection.delta_union,
                "ratios": [_nan_to_none(r) for r in selection.ratios],
                "branches": list(selection.branches),
            }
        payload["thresholds"] = thresholds
    else:
        payload["thresholds"] = None
    if report.proportions is not None:
        payload["proportions"] = [[float(v) for v in row] for row in report.proportions]
    else:
        payload["proportions"] = None
    return payload


def write_report_json(report: OutlierReport, path, extra_config: dict | None = None) -> None:
    payload = report_payload(report, extra_config)
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def write_flags_csv(report: OutlierReport, path) -> None:
    """Tidy per-curve table: one row per curve and index type, plot-ready."""
    per_type = {
        "shape": report.flags.shape_outliers,
        "amplitude": report.flags.amplitude_outliers,
        "magnitude": report.flags.magnitude_outliers,
    }
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve_id", "type", "vote_share", "flagged"])
        for i in range(report.n):
            for t, name in enumerate(TYPE_ORDER):
                share = "" if report.proportions is None else format_float(report.proportions[i, t])
                writer.writerow([str(i), name, share, str(int(i in per_type[name]))])


def write_index_tables_csv(tables, path) -> None:
    """Write ``(component, IndexTable)`` pairs as one tidy CSV.

    Labels (component or direction numbers, ``stringed``) are written as
    ``str(label)``, unquoted.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("component,curve_id,shape,amplitude,magnitude\r\n")
        for label, table in tables:
            columns = zip(table.shape.tolist(), table.amplitude.tolist(), table.magnitude.tolist())
            fh.writelines(
                f"{label},{i},{s!r},{a!r},{m!r}\r\n" for i, (s, a, m) in enumerate(columns)
            )


# ---------------------------------------------------------------------------
# benchmark outputs


def write_benchmark_summary_csv(results, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "model",
                "method",
                "scope",
                "reps",
                "n",
                "k",
                "contamination",
                "seed",
                "tpr_mean",
                "tpr_sd",
                "fpr_mean",
                "fpr_sd",
            ]
        )
        for res in results:
            writer.writerow(
                [
                    res.model,
                    res.method,
                    res.report_scope,
                    str(res.reps),
                    str(res.n),
                    str(res.k),
                    format_float(res.contamination),
                    str(res.seed),
                    "" if res.tpr is None else format_float(res.tpr_mean),
                    "" if res.tpr is None else format_float(res.tpr_sd),
                    format_float(res.fpr_mean),
                    format_float(res.fpr_sd),
                ]
            )


def write_benchmark_reps_csv(results, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "method", "scope", "rep", "tpr", "fpr"])
        for res in results:
            for r in range(res.reps):
                writer.writerow(
                    [
                        res.model,
                        res.method,
                        res.report_scope,
                        str(r),
                        "" if res.tpr is None else format_float(res.tpr[r]),
                        format_float(res.fpr[r]),
                    ]
                )


def write_sweep_csv(points, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "share_shape",
                "share_amplitude",
                "share_magnitude",
                "f1_mean",
                "f1_sd",
                "fpr_mean",
                "fpr_sd",
            ]
        )
        for point in points:
            writer.writerow(
                [
                    format_float(point.shares.shape),
                    format_float(point.shares.amplitude),
                    format_float(point.shares.magnitude),
                    "" if point.f1 is None else format_float(point.f1_mean),
                    "" if point.f1 is None else format_float(point.f1_sd),
                    format_float(point.fpr_mean),
                    format_float(point.fpr_sd),
                ]
            )
