import copy
import csv
import inspect
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lphvg.series
from lphvg.series import Record, write_table
from lphvg import (
    DegreeDistribution, FlowSpec, IidSpec, RngConfig, TimeSeries, VisibilityGraph, WindowConfig,
    build_lphvg, clustering_max, clustering_min, degree_distribution, degree_pmf, discriminate,
    evolve, gen_flow, gen_henon, gen_iid, gen_logistic, gen_periodic, link_frequency_by_separation,
    load_series, long_visibility_prob, make_windows, mean_degree_periodic,
    mean_degree_periodic_exact, threshold_from_random, verify_ensemble, write_series,
)
from lphvg.evolution import WindowMetrics
from lphvg.theory import clustering_max_is_extrapolated, degree_table
from oracles import affine_transform, load_series_reference
from shapes import monotone_values, plateau_values, sawtooth_values, series_values


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


@pytest.mark.parametrize("column, expected", [("²", [1.0]), ("--1", [1.0]), ("١", [2.0])],
                         ids=["superscript-two-name", "double-minus-name", "arabic-one-index"])
def test_column_of_digits_not_decimal_is_a_name(tmp_path, column, expected):
    # "١" is a decimal digit, so it selects index 1; "²" and "--1" are header names
    p = tmp_path / "s.csv"
    p.write_text(f"{column},x\n1,2\n")
    assert load_series(p, column=column, has_header=True).values.tolist() == expected


@pytest.mark.parametrize("column", [-1, "-1"], ids=["int", "str"])
def test_negative_column_index_rejected(tmp_path, column):
    p = tmp_path / "s.csv"
    p.write_text("a,1.0\nb,2.0\n")
    with pytest.raises(ValueError, match="column index must be >= 0"):
        load_series(p, column=column)


@pytest.mark.parametrize("column", [2**63, "99999999999999999999"], ids=["int", "str"])
def test_column_past_ssize_t_is_a_missing_column(tmp_path, column):
    # numpy's usecols raises OverflowError past a C ssize_t; the walk names the row
    p = tmp_path / "s.csv"
    p.write_text("1.0\n2.0\n")
    with pytest.raises(ValueError, match=f"row 1: only 1 columns, need index {column}"):
        load_series(p, column=column)


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(5)
    vals = np.concatenate([rng.random(50), [0.1, 1 / 3, math.pi, 1e-300, 1e300]])
    ts = TimeSeries(vals)
    p = tmp_path / "rt.csv"
    write_series(ts, p)
    back = load_series(p, column="value", has_header=True)
    assert np.array_equal(back.values, ts.values)


_PAYLOAD_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]


@pytest.mark.parametrize("header, rows, expected", [
    # each distinct bit pattern is formatted once, so -0.0 keeps its sign
    (None, np.array([[0.0, -0.0, np.nan, np.inf], [-np.inf, 5e-324, -5e-324, 0.1],
                     [1 / 3, _PAYLOAD_NAN, 1e16, -0.0]]),
     b"0,-0,nan,inf\n-inf,4.9406564584124654e-324,-4.9406564584124654e-324,0.10000000000000001\n"
     b"0.33333333333333331,nan,10000000000000000,-0\n"),
    (None, np.array([[1, 0, -1], [127, -128, 0]], dtype=np.int8), b"1,0,-1\n127,-128,0\n"),
    (["k", "count", "pmf"], [(4, 120, 0.25), (5, 7, 1 / 3), (6, 10**16, -0.0)],
     b"k,count,pmf\n4,120,0.25\n5,7,0.33333333333333331\n6,10000000000000000,-0\n"),
    (None, [], b""),
    (["k"], [], b"k\n"),
    (None, np.zeros((0, 0)), b""),
    (None, np.zeros((2, 0), dtype=np.int8), b"\n\n"),
], ids=["floats", "int8", "rows", "empty", "header-only", "0x0", "2x0"])
def test_write_table_bytes(tmp_path, header, rows, expected):
    write_table(tmp_path / "t.csv", header, rows, "\n")
    assert (tmp_path / "t.csv").read_bytes() == expected


def test_write_series_bytes(tmp_path):
    write_series(TimeSeries([0.1, -2.0, 1e300, 3.0]), tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == (
        b"value\r\n0.10000000000000001\r\n-2\r\n1.0000000000000001e+300\r\n3\r\n")


def load_and_trace(path, column=0, has_header=False) -> tuple[np.ndarray, bool]:
    """load_series' values, and whether numpy's parse gave them (no csv.reader walk ran)."""
    calls = []
    rows = lphvg.series._csv_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lphvg.series, "_csv_rows", lambda buf: calls.append(buf) or rows(buf))
        values = load_series(path, column=column, has_header=has_header).values
    return values, len(calls) == has_header  # the header's record alone


def csv_reader_error(path, **kwargs) -> str:
    """The message load_series raises for `path` when numpy reads no file, so the walk runs."""
    def refuse(*args, **options):
        raise ValueError("numpy reads no file")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lphvg.series.np, "loadtxt", refuse)
        with pytest.raises(ValueError) as exc:
            load_series(path, **kwargs)
    return str(exc.value)


_pad = st.sampled_from(["", " ", "\t", "  "])
_number = st.builds(lambda a, x, b: a + x + b, _pad, st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format),
    st.integers(-999, 999).map(str)), _pad)
_cells = st.one_of(
    _number, _number, _number,
    _number.map(lambda x: f'"{x}"'),
    st.sampled_from(["", " ", "\t ", "ab", 'x"y']),  # blank, whitespace-only, text, a bare quote
    st.text(alphabet=' ,"\r\nab1.', max_size=6).map(lambda t: '"' + t.replace('"', '""') + '"'),
)


@st.composite
def csv_files(draw):
    """CSV text, its header flag and a column selector: quoted cells holding "", commas,
    CR, LF or CRLF; blank, whitespace-only and ragged rows; LF, CRLF, lone-CR or mixed
    line ends; a header, perhaps spanning lines."""
    width = draw(st.integers(1, 3))
    col = draw(st.integers(0, width))  # `width` is past every full row
    clean = draw(st.booleans())  # the selected column then holds only numbers
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if not clean and draw(st.integers(0, 9)) == 0:
            rows.append([])  # a blank line
            continue
        size = draw(st.integers(col + 1 if clean else 1, max(width, col + 1)))
        rows.append([draw(_number if clean and i == col else _cells) for i in range(size)])
    header = draw(st.booleans())
    if header:
        names = [draw(st.sampled_from(["t", '"multi\nline"', '"a,b"', ""])) for _ in range(width)]
        if col < width:
            names[col] = "value"
        rows.insert(0, names)
    end = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    ends = [end] if end != "mixed" else draw(
        st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1))
    lines = [",".join(row) + ends[i % len(ends)] for i, row in enumerate(rows)]
    if lines and draw(st.booleans()):  # no final line end
        lines[-1] = ",".join(rows[-1])
    text = "".join(lines)
    by_name = header and col < width and draw(st.booleans())
    return text, ("value" if by_name else col), header


class TestTwoParses:
    """numpy reads every file and the csv.reader walk what numpy does not read in full;
    both give the reference's bytes, and the walk alone names a bad row."""

    @pytest.mark.parametrize(
        "values", [series_values, monotone_values, plateau_values, sawtooth_values],
        ids=["floats", "monotone", "plateau", "sawtooth"],
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), layout=st.sampled_from(["v", "t,v", "v,t"]), crlf=st.booleans(),
           header=st.booleans(), bom=st.booleans(), by_name=st.booleans(),
           fmt=st.sampled_from(["{:.17g}", "{!r}"]))
    def test_plain_files_read_by_numpy(self, tmp_path_factory, values, data, layout, crlf,
                                       header, bom, by_name, fmt):
        xs = data.draw(values)
        end = "\r\n" if crlf else "\n"
        rows = [layout.replace("t", str(i)).replace("v", fmt.format(x)) for i, x in enumerate(xs)]
        text = end.join(([layout.replace("v", "value")] if header else []) + rows) + end
        p = tmp_path_factory.mktemp("plain") / "s.csv"
        p.write_bytes(b"\xef\xbb\xbf" * bom + text.encode())
        column = "value" if header and by_name else layout.split(",").index("v")
        values, by_numpy = load_and_trace(p, column, header)
        assert by_numpy
        assert values.tobytes() == load_series_reference(p, column, header).tobytes()

    def test_generate_file_read_by_numpy(self, tmp_path):
        # csv.writer ends lines with CRLF
        p = tmp_path / "s.csv"
        write_series(TimeSeries(np.random.default_rng(9).normal(size=300)), p)
        assert p.read_bytes().count(b"\r\n") == 301
        values, by_numpy = load_and_trace(p, "value", True)
        assert by_numpy
        assert values.tobytes() == load_series_reference(p, "value", True).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(file=csv_files(), bom=st.booleans())
    def test_one_parse_matches_the_reference_or_the_walk(self, tmp_path_factory, file, bom):
        text, column, header = file
        p = tmp_path_factory.mktemp("csv") / "s.csv"
        p.write_bytes(b"\xef\xbb\xbf" * bom + text.encode())
        try:
            values = load_series(p, column=column, has_header=header).values
        except ValueError as exc:
            assert str(exc) == csv_reader_error(p, column=column, has_header=header)
        else:
            assert values.tobytes() == load_series_reference(p, column, header).tobytes()

    @pytest.mark.parametrize("text, kwargs, message", [
        ("\n", {}, "row 1: blank line"),
        ("\n\r\n\r", {}, "row 1: blank line"),
        ("v\n\n", {"column": "v", "has_header": True}, "row 2: blank line"),
        ("v\n", {"column": "v", "has_header": True}, "{path}: no data rows"),
        ("v", {"column": "v", "has_header": True}, "{path}: no data rows"),
        ("", {}, "{path}: no data rows"),
        ("", {"has_header": True}, "{path}: empty file, expected a header row"),
    ])
    def test_no_data_leaves_stderr_empty(self, tmp_path, capfd, text, kwargs, message):
        # numpy warns "input contained no data" when every data row is blank
        p = tmp_path / "s.csv"
        p.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                load_series(p, **kwargs)
        assert str(exc.value) == message.format(path=p) == csv_reader_error(p, **kwargs)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "text, column",
        [
            ("0.30000000000000004\n-1.7976931348623157e+308\n2.2250738585072014e-308\n", 0),
            ("0.1\n1.0000000000000002\n9007199254740993\n123456789012345678901234567890\n", 0),
            ("-0\n0\n-0.0\n+0\n", 0),
            ("1e-320\n4.9406564584124654e-324\n2.4703282292062328e-324\n", 0),
            ("1_0\n2\n", 0),  # float() reads underscores, numpy does not: csv.reader's parse
            ("  1.5 ,a\n\t2.5\t,b\n\u00a03.5\u2003,c\n", 0),
            ("a,  1.5 \nb,\t2.5\t\n", 1),
            ("1.5,10\n2.5\n3.5,30,c\n", 0),  # ragged rows
            ("x,1.5,y\nx,2.5\n", 1),
            ('"1.5",x\n2.5,"y,z"\n', 0),  # quoted cells
            ('a,"1.5"\n"b,c",2.5\n', 1),
            ('"1,2,3",4,5\n"6,7,8",9,10\n', 1),  # split at every ",", column 1 would read 2 and 7
            ("1.5\n2.5", 0),  # no final line ending
        ],
    )
    def test_cells_parse_to_the_reference_bytes(self, tmp_path, text, column, crlf):
        p = tmp_path / "s.csv"
        p.write_bytes(text.replace("\n", "\r\n" if crlf else "\n").encode())
        values, _ = load_and_trace(p, column)
        assert values.tobytes() == load_series_reference(p, column).tobytes()

    @pytest.mark.parametrize("text", ["1.5\r\n2.5\n", "1.5\n2.5\r\n", "1.5\r2.5\r", "1.5\r\n2.5\r"])
    def test_mixed_or_lone_line_ends_read_by_numpy(self, tmp_path, text):
        p = tmp_path / "s.csv"
        p.write_bytes(text.encode())
        values, by_numpy = load_and_trace(p)
        assert by_numpy
        assert values.tobytes() == load_series_reference(p).tobytes()

    @pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
    @pytest.mark.parametrize(
        "text, kwargs, message",
        [
            ("date,value\n2020-01-01,1.5\n2020-01-02,2.5\n", {"column": 0, "has_header": True},
             "row 2: cannot parse '2020-01-01' as a real number"),
            ("1.5,10\n2.5\n3.5,30,c\n", {"column": 1}, "row 2: only 1 columns, need index 1"),
            ("1.0,x\nozone,y\n4.0\n", {}, "row 2: cannot parse 'ozone' as a real number"),
            ("1.0,x\nozone,y\n4.0\n", {"column": 1}, "row 1: cannot parse 'x' as a real number"),
            ("v\n1.0\nozone\n", {"column": "v", "has_header": True},
             "row 3: cannot parse 'ozone' as a real number"),
            # numpy skips an empty line; a line of spaces holds one empty cell
            ("v\n1.0\n \n3.0\n", {"column": "v", "has_header": True},
             "row 3: cannot parse '' as a real number"),
            ("1_0\n1__0\n", {}, "row 2: cannot parse '1__0' as a real number"),
            ("v\n", {"column": "v", "has_header": True}, "{path}: no data rows"),
            ("a,b\n1,2\n", {"column": "c", "has_header": True},
             "{path}: no column named 'c' in header ['a', 'b']"),
            ("a,1.0\nb,2.0\n", {"column": -1}, "column index must be >= 0, got -1"),
            ("a,1.0\nb,2.0\n", {"column": "-1"}, "column index must be >= 0, got -1"),
            ("1.0\n2.0\n", {"column": "value"}, "column selected by name 'value' requires has_header"),
            ("1.0\ninf\n", {}, "non-finite value at index 1"),
        ],
    )
    def test_plain_errors_match_csv_reader(self, tmp_path, text, kwargs, message, crlf):
        text = text.replace("\n", "\r\n" if crlf else "\n")
        p = tmp_path / "s.csv"
        p.write_bytes(text.encode())
        with pytest.raises(ValueError) as exc:
            load_series(p, **kwargs)
        assert str(exc.value) == message.format(path=p) == csv_reader_error(p, **kwargs)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_byte_names_its_row(self, tmp_path, bom, end):
        # the position counts from the file's first byte after the BOM, as utf-8-sig's does
        p = tmp_path / "s.csv"
        data = b"1.0" + end + b"\xc3\xa9" * 5000 + end + b"3.0\xff" + end
        p.write_bytes(bom + data)
        with pytest.raises(UnicodeDecodeError) as ref:
            (bom + data).decode("utf-8-sig")
        with pytest.raises(ValueError) as exc:
            load_series(p)
        assert str(exc.value) == f"row 3: {ref.value}"
        assert f"position {len(data) - 1 - len(end)}:" in str(exc.value)

    def test_field_past_csv_limit_goes_to_csv_reader(self, tmp_path):
        # numpy cannot read the long cell in the selected column; csv.reader refuses it
        p = tmp_path / "s.csv"
        p.write_text("1.0,note\n" + "x" * (csv.field_size_limit() + 1) + ",2.0\n3.0,\n")
        limit = csv.field_size_limit()
        with pytest.raises(ValueError, match=rf"^row 2: field larger than field limit \({limit}\)$"):
            load_series(p)

    def test_field_past_csv_limit_in_another_column_loads(self, tmp_path):
        # numpy reads column 0 in full, so csv.reader never meets the long note in column 1
        p = tmp_path / "s.csv"
        p.write_text("1.0,note\n2.0," + "x" * (csv.field_size_limit() + 1) + "\n3.0,\n")
        values, by_numpy = load_and_trace(p)
        assert by_numpy
        assert values.tolist() == [1.0, 2.0, 3.0]


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


@pytest.mark.parametrize(
    "call",
    [lambda x: build_lphvg(x, 1), lambda x: discriminate(x, 1),
     lambda x: evolve(x, 1, WindowConfig(4, 2), RngConfig(0))],
    ids=["build_lphvg", "discriminate", "evolve"],
)
@pytest.mark.parametrize(
    "raw, message",
    [(np.zeros((2, 3)), r"values must be one-dimensional, got shape \(2, 3\)"),
     ([1.0, math.nan, 2.0], "non-finite value at index 1"),
     ([], "series must contain at least one value")],
    ids=["2-d", "nan", "empty"],
)
def test_raw_series_meets_timeseries_checks(call, raw, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # each fails before discriminate's soft-floor warning
        with pytest.raises(ValueError, match=message):
            call(raw)


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
    with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
        RngConfig(2**64)


_CSV = object()  # stands for a two-row, two-column CSV file
_G = build_lphvg([1.0, 3.0, 2.0, 4.0], 0)
_FLOW = ("lorenz", 10, None, 0.01)  # FlowSpec's system, n, init and dt
_DIST = DegreeDistribution(np.array([0, 0, 3, 1]), 4)


def _integer_cases():
    """(callable, arguments, name): a float or a bool in each integer argument."""
    cases = [
        (RngConfig, (1.5,), "seed"), (RngConfig, (-0.5,), "seed"), (RngConfig, (True,), "seed"),
        (RngConfig, (1, 0.5), "stream_id"), (RngConfig, (1, False), "stream_id"),
        (RngConfig, (np.float64(1),), "seed"), (WindowConfig, (10.5, 3), "window_len"),
        (WindowConfig, (10, 3.0), "step"), (WindowConfig, (True, 1), "window_len"),
        (WindowConfig, (10, True), "step"),
    ]
    for bad in (1.5, True):
        cases += [
            (load_series, (_CSV, bad), "column index"),
            (IidSpec, ("uniform", bad, RngConfig(0)), "n"),
            (gen_periodic, (bad, 20, RngConfig(0)), "period"),
            (gen_periodic, (1, bad, RngConfig(0)), "n"), (gen_logistic, (bad,), "n"),
            (gen_henon, (bad,), "n"), (FlowSpec, ("lorenz", bad), "n"),
            (FlowSpec, (*_FLOW, bad), "transient"), (FlowSpec, (*_FLOW, 0, bad), "stride"),
            (FlowSpec, (*_FLOW, 0, 1, bad), "component"), (degree_pmf, (1, bad), "k"),
            (clustering_min, (1, bad), "k"), (clustering_max, (1, bad), "k"),
            (clustering_max_is_extrapolated, (1, bad), "k"),
            (mean_degree_periodic, (1, bad), "period"),
            (mean_degree_periodic_exact, (1, bad), "period"),
            (long_visibility_prob, (1, bad), "sep"), (degree_table, (1, bad), "k_max"),
            (verify_ensemble, (0, 100, bad), "seeds"),
            (link_frequency_by_separation, (_G, bad), "max_sep"),
            (threshold_from_random, (WindowConfig(10, 5), 30, 0, RngConfig(0), bad), "ensemble"),
            (make_windows, (bad, WindowConfig(2, 1)), "n"), (_DIST.pmf, (bad,), "k"),
            (RngConfig(1).generator, (bad,), "subkey"),
        ]
    return cases


@pytest.mark.parametrize("call, args, name", _integer_cases())
def test_configs_take_integers_only(tmp_path, call, args, name):
    path = tmp_path / "s.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got (float|bool)"):
        call(*(path if a is _CSV else a for a in args))


def test_configs_take_numpy_integers(tmp_path):
    rng = RngConfig(np.uint64(2**64 - 1), np.int8(2))
    assert np.array_equal(rng.generator().random(3), RngConfig(2**64 - 1, 2).generator().random(3))
    assert make_windows(12, WindowConfig(np.int64(10), np.int32(2))) == [(0, 10), (2, 12)]
    path = tmp_path / "s.csv"
    path.write_text("1,2\n3,4\n")
    assert list(load_series(path, np.int64(1)).values) == [2.0, 4.0]
    assert degree_pmf(np.int64(1), np.int32(4)) == 1 / 5
    assert _DIST.pmf(np.int64(3)) == 1 / 4
    assert long_visibility_prob(np.int64(1), np.int16(3)) == 1 / 2
    assert mean_degree_periodic(np.int64(0), np.int64(3)) == mean_degree_periodic(0, 3)
    assert mean_degree_periodic_exact(2, np.int8(2)) == mean_degree_periodic_exact(2, 2)
    assert clustering_min(1, np.int64(4)) == clustering_min(1, 4)
    assert clustering_max(1, np.int64(5)) == clustering_max(1, 5)
    assert degree_table(1, np.int64(8)) == degree_table(1, 8)
    rng = RngConfig(3)
    assert gen_periodic(np.int64(7), np.int64(100), rng) == gen_periodic(7, 100, rng)
    assert gen_logistic(np.int64(5)) == gen_logistic(5)
    assert gen_henon(np.int64(5)) == gen_henon(5)
    assert gen_iid(IidSpec("uniform", np.int64(5), rng)) == gen_iid(IidSpec("uniform", 5, rng))
    spec = FlowSpec("lorenz", np.int64(5), None, 0.01, np.int64(3), np.int8(2), np.int64(1))
    assert gen_flow(spec) == gen_flow(FlowSpec("lorenz", 5, None, 0.01, 3, 2, 1))
    freq = link_frequency_by_separation(_G, np.int64(2))
    assert np.array_equal(freq, link_frequency_by_separation(_G, 2))
    cfg = WindowConfig(10, 5)
    theta = threshold_from_random(cfg, 30, 0, RngConfig(0), np.int64(2))
    assert theta == threshold_from_random(cfg, 30, 0, RngConfig(0), 2)


def _int_fields(record) -> dict:
    """Each integer field of a record and of the records it holds, by dotted name."""
    fields = {}
    for name, value in vars(record).items():
        if isinstance(value, Record):
            fields.update({f"{name}.{k}": v for k, v in _int_fields(value).items()})
        elif isinstance(value, (int, np.integer)):
            fields[name] = value
    return fields


def _integer_records(t) -> list:
    return [
        RngConfig(t(5), t(2)), WindowConfig(t(10), t(3)), IidSpec("uniform", t(5), RngConfig(t(1))),
        FlowSpec("lorenz", t(5), None, 0.01, t(3), t(2), t(1)),
        WindowMetrics(t(0), t(10), 2.0, 0.5, 1.5),
    ]


@pytest.mark.parametrize("t", [np.int8, np.int32, np.int64, np.uint64])
def test_records_store_numpy_integers_as_int(t):
    for record, twin in zip(_integer_records(t), _integer_records(int)):
        for again in (record, copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            fields = _int_fields(again)
            assert fields == _int_fields(twin) and fields
            assert all(type(v) is int for v in fields.values()), fields


class _Point(Record):
    x: int
    y: int = 5
    label: str = "p"


class _OtherPoint(Record):
    x: int
    y: int = 5
    label: str = "p"


class _Total(Record):
    x: int
    total: int = 5

    def __post_init__(self):  # reads a default and rewrites a field, as FlowSpec does
        object.__setattr__(self, "total", self.x + self.total)


def test_record_binds_positional_keyword_and_default_arguments():
    assert vars(_Point(1, 2, "q")) == {"x": 1, "y": 2, "label": "q"}
    assert vars(_Point(label="q", x=1)) == {"x": 1, "y": 5, "label": "q"}
    assert vars(_Point(1, label="q")) == {"x": 1, "y": 5, "label": "q"}
    assert [p.name for p in inspect.signature(_Point).parameters.values()] == ["x", "y", "label"]
    assert inspect.signature(_Point).parameters["y"].default == 5


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                          # missing
    ((1,), {"z": 2}),                  # unknown
    ((1,), {"x": 2}),                  # repeated
    ((1, 2, "q", 4), {}),              # surplus
])
def test_record_refuses_bad_arguments(args, kwargs):
    with pytest.raises(TypeError):
        _Point(*args, **kwargs)


def test_record_is_read_only():
    p = _Point(1)
    with pytest.raises(AttributeError):
        p.x = 2
    with pytest.raises(AttributeError):
        p.extra = 2
    with pytest.raises(AttributeError):
        del p.x
    assert vars(p) == {"x": 1, "y": 5, "label": "p"}


def test_record_equality_hash_and_repr_go_by_fields():
    assert _Point(1, 2) == _Point(1, y=2)
    assert hash(_Point(1, 2)) == hash(_Point(1, 2)) == hash((1, 2, "p"))
    assert _Point(1, 2) != _Point(1, 3)
    assert _Point(1, 2) != _OtherPoint(1, 2)
    assert _Point(1) != (1, 5, "p")
    assert repr(_Point(1, label="q")) == "_Point(x=1, y=5, label='q')"
    assert len({_Point(1), _Point(1), _Point(2)}) == 2


def test_record_vars_lists_fields_in_order():
    assert list(vars(_Point(label="q", y=3, x=1))) == ["x", "y", "label"]
    assert list(vars(RngConfig(3, 4))) == ["seed", "stream_id"]


def test_record_post_init_sees_every_field():
    assert vars(_Total(2)) == {"x": 2, "total": 7}
    assert vars(_Total(2, total=1)) == {"x": 2, "total": 3}
    with pytest.raises(ValueError, match="stream_id"):  # RngConfig's own check sees the default
        RngConfig(1, stream_id=-1)


@pytest.mark.parametrize("record", [
    _Point(1, 2, "q"), _Total(1), RngConfig(9, 2), WindowConfig(10, 3),
])
def test_record_pickle_and_deepcopy_round_trip(record):
    for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert again == record and again is not record
        assert type(again) is type(record) and vars(again) == vars(record)


def _graph_after_traversal() -> VisibilityGraph:
    graph = build_lphvg([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], 1)
    graph.degrees()  # caches the CSR arrays in the instance
    assert "_csr" in vars(graph)
    return graph


_ARRAY_RECORDS = {
    "series": lambda: TimeSeries([1.0, 2.0, 3.0]),
    "graph": _graph_after_traversal,
    "degrees": lambda: degree_distribution(build_lphvg(np.arange(8.0) % 3, 1)),
    "evolution": lambda: evolve(RngConfig(4).generator().random(40), 1, WindowConfig(10, 5),
                                RngConfig(4), ensemble=1),
}


@pytest.mark.parametrize("make", _ARRAY_RECORDS.values(), ids=_ARRAY_RECORDS.keys())
def test_array_record_contract(make):
    record = make()
    fields = list(inspect.signature(type(record)).parameters)
    copies = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    for again in [record, *copies]:
        arrays = [v for v in map(vars(again).get, fields) if isinstance(v, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            arrays[0].flat[0] = 0
        with pytest.raises(TypeError):
            hash(again)
    for again in copies:
        assert again == record and record == again and again is not record
        assert type(again) is type(record) and list(vars(again)) == fields  # no cache copied


def test_restored_graph_derives_its_csr_again():
    graph = _graph_after_traversal()
    for again in (copy.copy(graph), copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
        assert "_csr" not in vars(again)
        assert np.array_equal(again.indptr, graph.indptr)
        assert np.array_equal(again.indices, graph.indices)
        assert not again.indptr.flags.writeable


def test_record_compares_arrays_by_value():
    assert TimeSeries([1.0, 2.0]) == TimeSeries([1.0, 2.0])
    assert TimeSeries([1.0, 2.0]) != TimeSeries([1.0, 3.0])
    assert TimeSeries([1.0, 2.0]) != TimeSeries([1.0, 2.0, 3.0])
    codes = np.array([1, 2, 5], dtype=np.int64)
    assert VisibilityGraph(3, 0, codes) == VisibilityGraph(3, 0, codes.copy())
    assert VisibilityGraph(3, 0, codes) != VisibilityGraph(3, 1, codes.copy())
    assert VisibilityGraph(3, 0, codes) != VisibilityGraph(3, 0, codes[:2].copy())
    with pytest.raises(TypeError, match="unhashable type: 'numpy.ndarray'"):
        hash(VisibilityGraph(3, 0, codes))


def test_record_locks_the_arrays_it_holds():
    counts = np.array([0, 1, 1], dtype=np.int64)
    dist = DegreeDistribution(counts, 2)
    assert dist.counts is counts and not counts.flags.writeable
    values = np.array([1.0, 2.0])
    assert TimeSeries(values).values is not values and values.flags.writeable  # a copy is locked
