"""Core domain types: time series, seeded RNG configuration, CSV ingestion."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def validate_rho(rho: int) -> int:
    if not isinstance(rho, (int, np.integer)) or isinstance(rho, bool):
        raise TypeError(f"rho must be an integer, got {type(rho).__name__}")
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    return int(rho)


@dataclass(frozen=True)
class TimeSeries:
    """An ordered sequence of finite real samples, optionally labelled.

    Values are stored as a read-only float64 array. Instances are immutable
    and safe to share across threads.
    """

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"values must be one-dimensional, got shape {arr.shape}")
        if arr.size < 1:
            raise ValueError("series must contain at least one value")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"non-finite value at index {bad}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != arr.size:
                raise ValueError(
                    f"labels length {len(labels)} != values length {arr.size}"
                )
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class RngConfig:
    """Seeded random stream id; identical (seed, stream_id) reproduce bit-identically."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.stream_id < 0:
            raise ValueError("stream_id must be >= 0")

    def generator(self, *subkeys: int) -> np.random.Generator:
        """PCG64 generator for this stream; extra subkeys derive child streams."""
        seq = np.random.SeedSequence((int(self.seed), int(self.stream_id), *map(int, subkeys)))
        return np.random.Generator(np.random.PCG64(seq))


def as_values(series) -> np.ndarray:
    """Accept a TimeSeries or any 1-d array-like and return float64 values."""
    if isinstance(series, TimeSeries):
        return series.values
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series contains non-finite values")
    return arr


def _parse_cell(cell: str, line_no: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"row {line_no}: cannot parse {cell!r} as a real number") from None


def load_series(path, column: str | int = 0, has_header: bool = False) -> TimeSeries:
    """Read one numeric column of a CSV file into a TimeSeries.

    `column` selects by zero-based index or, when `has_header` is set, by
    header name. For two-column files the other column is kept as labels.
    Row numbers in errors are 1-based physical line numbers.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))

    header: list[str] | None = None
    start = 0
    if has_header:
        if not rows:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = [c.strip() for c in rows[0]]
        start = 1

    if isinstance(column, str) and column.lstrip("-").isdigit():
        column = int(column)
    if isinstance(column, str):
        if header is None:
            raise ValueError(f"column selected by name {column!r} requires has_header")
        if column not in header:
            raise ValueError(f"{path}: no column named {column!r} in header {header}")
        col_idx = header.index(column)
    else:
        col_idx = int(column)
        if col_idx < 0:
            raise ValueError(f"column index must be >= 0, got {col_idx}")

    values: list[float] = []
    labels: list[str] = []
    ncols = None
    for i in range(start, len(rows)):
        row = rows[i]
        line_no = i + 1
        if not row:
            raise ValueError(f"row {line_no}: blank line")
        if ncols is None:
            ncols = len(row)
        if col_idx >= len(row):
            raise ValueError(f"row {line_no}: only {len(row)} columns, need index {col_idx}")
        values.append(_parse_cell(row[col_idx].strip(), line_no))
        if len(row) == 2:
            labels.append(row[1 - col_idx].strip())

    if not values:
        raise ValueError(f"{path}: no data rows")
    use_labels = ncols == 2
    return TimeSeries(np.array(values), tuple(labels) if use_labels else None)


def write_series(series: TimeSeries, path, value_header: str = "value") -> None:
    """Write a series as CSV with 17-significant-digit decimals (exact round-trip)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        if series.labels is not None:
            w.writerow(["label", value_header])
            for lab, v in zip(series.labels, series.values):
                w.writerow([lab, format(v, ".17g")])
        else:
            w.writerow([value_header])
            for v in series.values:
                w.writerow([format(v, ".17g")])


def affine_transform(series: TimeSeries, a: float, b: float) -> TimeSeries:
    """Map every value to a*x + b; requires a > 0 (order must be preserved)."""
    if not a > 0:
        raise ValueError(f"a must be > 0, got {a}")
    return TimeSeries(a * series.values + b, series.labels)
