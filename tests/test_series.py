import math

import numpy as np
import pytest

from lphvg import RngConfig, TimeSeries, affine_transform, load_series, write_series


def test_load_single_column(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("v\n1.0\n2.0\n3.0\n")
    ts = load_series(p, column="v", has_header=True)
    assert list(ts.values) == [1.0, 2.0, 3.0]


def test_load_two_columns_by_column(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text('date,value\n2020-01-01,1.5\n"2020,01,02",2.5\n')
    assert list(load_series(p, column="value", has_header=True).values) == [1.5, 2.5]
    assert list(load_series(p, column=1, has_header=True).values) == [1.5, 2.5]
    with pytest.raises(ValueError, match="row 2: cannot parse '2020-01-01'"):
        load_series(p, column=0, has_header=True)


def test_load_mixed_column_counts(tmp_path):
    # rows need only the selected column; the others may come and go
    p = tmp_path / "s.csv"
    p.write_text("1.5,10\n2.5\n3.5,30,c\n")
    assert list(load_series(p).values) == [1.5, 2.5, 3.5]
    with pytest.raises(ValueError, match="row 2: only 1 columns, need index 1"):
        load_series(p, column=1)


@pytest.mark.parametrize("has_header", [True, False])
def test_load_utf8_bom(tmp_path, has_header):
    # spreadsheet "CSV UTF-8" exports start with a byte order mark
    p = tmp_path / "s.csv"
    p.write_bytes(b"\xef\xbb\xbf" + (b"value\n" if has_header else b"") + b"1.5\n2.5\n")
    column = "value" if has_header else 0
    assert list(load_series(p, column=column, has_header=has_header).values) == [1.5, 2.5]


def test_first_error_in_row_order(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("1.0,x\nozone,y\n\n4.0\n")
    with pytest.raises(ValueError, match="row 2: cannot parse 'ozone'"):
        load_series(p)
    with pytest.raises(ValueError, match="row 1: cannot parse 'x'"):
        load_series(p, column=1)
    p.write_text("1.0,x\n\nozone,y\n")
    with pytest.raises(ValueError, match="row 2: blank line"):
        load_series(p)


def test_load_by_index_without_header(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("1.0\n2.0\n")
    ts = load_series(p, column=0, has_header=False)
    assert list(ts.values) == [1.0, 2.0]


def test_blank_line_names_row(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("v\n1.0\n\n3.0\n", newline="")
    with pytest.raises(ValueError, match="row 3"):
        load_series(p, column="v", has_header=True)


def test_bad_cell_names_row(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("v\n1.0\nozone\n")
    with pytest.raises(ValueError, match="row 3"):
        load_series(p, column="v", has_header=True)


def test_bad_cell_names_its_physical_line(tmp_path):
    # the first record's quoted field spans lines 1 and 2, so `bad` is on line 3
    p = tmp_path / "s.csv"
    p.write_text('1.0,"multi\nline"\nbad\n', newline="")
    with pytest.raises(ValueError, match="row 3: cannot parse 'bad'"):
        load_series(p)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_series(tmp_path / "nope.csv")


def test_empty_result(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("v\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_series(p, column="v", has_header=True)


def test_unknown_column_name(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="no column named"):
        load_series(p, column="c", has_header=True)


@pytest.mark.parametrize("column", [-1, "-1"], ids=["int", "str"])
def test_negative_column_index_rejected(tmp_path, column):
    p = tmp_path / "s.csv"
    p.write_text("a,1.0\nb,2.0\n")
    with pytest.raises(ValueError, match="column index must be >= 0"):
        load_series(p, column=column)


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(5)
    vals = np.concatenate([rng.random(50), [0.1, 1 / 3, math.pi, 1e-300, 1e300]])
    ts = TimeSeries(vals)
    p = tmp_path / "rt.csv"
    write_series(ts, p)
    back = load_series(p, column="value", has_header=True)
    assert np.array_equal(back.values, ts.values)


@pytest.mark.parametrize(
    "values,a,b,expected",
    [
        ([1, 2, 3], 1.0, 0.0, [1, 2, 3]),
        ([1, 2, 3], 2.0, 1.0, [3, 5, 7]),
        ([0.5, -0.5], 10.0, 0.0, [5, -5]),
    ],
)
def test_affine_values(values, a, b, expected):
    out = affine_transform(TimeSeries(values), a, b)
    assert list(out.values) == expected


@pytest.mark.parametrize("a", [0.0, -1.0])
def test_affine_rejects_nonpositive_scale(a):
    with pytest.raises(ValueError):
        affine_transform(TimeSeries([1, 2]), a, 0.0)


def test_timeseries_rejects_nonfinite():
    with pytest.raises(ValueError, match="index 1"):
        TimeSeries([1.0, float("nan"), 2.0])
    with pytest.raises(ValueError):
        TimeSeries([float("inf")])


def test_timeseries_values_read_only():
    ts = TimeSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        ts.values[0] = 9.0


def test_rng_determinism():
    a = RngConfig(42, 3).generator().random(10)
    b = RngConfig(42, 3).generator().random(10)
    c = RngConfig(42, 4).generator().random(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_subkeys_are_distinct_streams():
    cfg = RngConfig(7)
    a = cfg.generator(1).random(5)
    b = cfg.generator(2).random(5)
    assert not np.array_equal(a, b)


def test_rng_validation():
    with pytest.raises(ValueError):
        RngConfig(-1)
    with pytest.raises(ValueError):
        RngConfig(0, -2)
