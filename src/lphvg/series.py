"""Core domain types: the immutable record base, time series and seeded RNG configuration; CSV
ingestion by one numpy parse, with a csv.reader walk for what numpy does not read in full."""
from __future__ import annotations

import csv
import inspect
import io
import typing
import warnings
from pathlib import Path

import numpy as np


def validate_int(name: str, value, low: int = 0) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


@getattr(typing, "dataclass_transform", lambda **_: lambda c: c)(frozen_default=True)  # 3.11+
class Record:
    """Immutable record: a subclass's own annotated names are its fields, in order, each defaulting
    to a class attribute of the same name. __init__ binds them as a call would, then runs the
    class's __post_init__ if it has one. Its state, which copy and pickle carry, is its fields
    alone, ndarrays read-only and numpy integers stored as int; it compares (ndarrays by value),
    hashes and prints by them."""

    def __init_subclass__(cls):
        P = inspect.Parameter
        cls.__signature__ = inspect.Signature(
            [P(name, P.POSITIONAL_OR_KEYWORD, annotation=ann, default=vars(cls).get(name, P.empty))
             for name, ann in inspect.get_annotations(cls).items()])

    def __init__(self, *args, **kwargs):
        bound = self.__signature__.bind(*args, **kwargs)
        bound.apply_defaults()
        self.__dict__.update(bound.arguments)
        getattr(self, "__post_init__", lambda: None)()
        self.__setstate__({})  # locks the ndarray fields, stores numpy integers as int

    def __getstate__(self) -> dict:
        return {name: self.__dict__[name] for name in self.__signature__.parameters}

    def __setstate__(self, state: dict):
        self.__dict__.update(state)
        for name, value in self.__getstate__().items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            elif isinstance(value, np.integer):
                self.__dict__[name] = int(value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b)
                   for a, b in zip(self.__getstate__().values(), other.__getstate__().values()))

    def __hash__(self):
        return hash(tuple(self.__getstate__().values()))

    def __repr__(self):
        fields = (f"{name}={value!r}" for name, value in self.__getstate__().items())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class TimeSeries(Record):
    """An ordered sequence of finite real samples.

    Values are stored as a read-only float64 array. Instances are immutable
    and safe to share across threads.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"values must be one-dimensional, got shape {arr.shape}")
        if arr.size < 1:
            raise ValueError("series must contain at least one value")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"non-finite value at index {bad}")
        object.__setattr__(self, "values", arr.copy())

    def __len__(self) -> int:
        return int(self.values.size)


class RngConfig(Record):
    """Seeded random stream id; identical (seed, stream_id) reproduce bit-identically."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if validate_int("seed", self.seed) >= 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        validate_int("stream_id", self.stream_id)

    def generator(self, *subkeys: int) -> np.random.Generator:
        """PCG64 generator for this stream; extra subkeys derive child streams."""
        subkeys = (validate_int("subkey", k) for k in subkeys)
        seq = np.random.SeedSequence((self.seed, self.stream_id, *subkeys))
        return np.random.Generator(np.random.PCG64(seq))


def as_values(series) -> np.ndarray:
    """The float64 values of a TimeSeries, or of TimeSeries(series) for anything else."""
    return (series if isinstance(series, TimeSeries) else TimeSeries(series)).values


def _read_text(path: Path) -> str:
    """The file's UTF-8 text less one leading BOM; an undecodable byte names its row."""
    data = path.read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise ValueError(f"row {row}: {exc}") from None


def _csv_rows(buf: io.StringIO):
    """Each csv.reader row of `buf` with the number of its last physical line; a
    csv.Error (a field past csv's size limit, say) becomes a ValueError naming its row."""
    reader = csv.reader(buf)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"row {reader.line_num}: {exc}") from None


def load_series(path, column: str | int = 0, has_header: bool = False) -> TimeSeries:
    """Read one numeric column of a CSV file into a TimeSeries.

    `column` selects by zero-based index or, when `has_header` is set, by
    header name; other columns are ignored and a leading UTF-8 BOM is dropped.
    csv.reader reads the header and numpy the data rows. numpy's values stand
    when there is one per physical line; otherwise (a blank line, a quoted
    field spanning lines, a cell numpy cannot read) a csv.reader walk gives
    each cell's `float(cell.strip())` or names the first bad row. Row numbers
    in errors are 1-based physical line numbers; a record whose quoted field
    spans lines is named by its last line.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    text = _read_text(path)
    buf = io.StringIO(text, newline="")

    header: list[str] | None = None
    start = 0  # the header's physical lines
    if has_header:
        start, first = next(_csv_rows(buf), (0, None))
        if first is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = [c.strip() for c in first]

    if isinstance(column, str) and column.removeprefix("-").isdecimal():
        column = int(column)
    if isinstance(column, str):
        if header is None:
            raise ValueError(f"column selected by name {column!r} requires has_header")
        if column not in header:
            raise ValueError(f"{path}: no column named {column!r} in header {header}")
        col_idx = header.index(column)
    else:
        col_idx = validate_int("column index", column)

    # physical lines as csv.reader ends them: at LF, CRLF, a lone CR or the end of text
    ends = text.count("\n") + ("\r" in text and text.count("\r") - text.count("\r\n"))
    lines = ends + (text[-1:] not in ("\n", "\r", ""))
    if lines <= start:
        raise ValueError(f"{path}: no data rows")
    try:
        with warnings.catch_warnings():  # all data rows blank: the walk names the first
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(buf, delimiter=",", quotechar='"', usecols=col_idx,
                                comments=None, ndmin=1)
    except (ValueError, OverflowError):  # OverflowError: an index past a C ssize_t
        values = []
    if len(values) == lines - start:
        return TimeSeries(values)

    buf.seek(0)
    rows = _csv_rows(buf)
    if has_header:
        next(rows)
    values = []
    for line_no, row in rows:
        if not row:
            raise ValueError(f"row {line_no}: blank line")
        if col_idx >= len(row):
            raise ValueError(f"row {line_no}: only {len(row)} columns, need index {col_idx}")
        cell = row[col_idx].strip()
        try:
            values.append(float(cell))
        except ValueError:
            raise ValueError(f"row {line_no}: cannot parse {cell!r} as a real number") from None
    return TimeSeries(values)


def write_series(series: TimeSeries, path) -> None:
    """Write a series as a `value` column of 17-significant-digit decimals (exact round-trip)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["value"])
        w.writerows([format(v, ".17g")] for v in series.values)
