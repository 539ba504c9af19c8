"""CSV ingest: the numpy fast path must accept and reject exactly what the
per-cell ``float()`` reading accepts and rejects, naming the same line and column."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssmean.data
import ssmean.io
from _oracles import read_csv_reference
from ssmean.errors import DataError, NumericalError, ValidationError
from ssmean.estimators import unlabeled_pass
from ssmean.io import load_labeled_csv, load_unlabeled_csv, write_json_atomic


def _write(path, text):
    """Write str as UTF-8; bytes as they are."""
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return str(path)


def _same_matrix(matrix, reference):
    assert matrix.dtype == np.float64
    assert matrix.shape == reference.shape
    assert matrix.tobytes() == reference.tobytes()


def _assert_rejected_at(path, line, column):
    """A bad cell is a ValidationError naming line and column; a bad width, a DataError."""
    exc_type = DataError if column is None else ValidationError
    with pytest.raises(exc_type) as info:
        load_unlabeled_csv(path)
    assert type(info.value) is exc_type
    where = f"line {line} has" if column is None else f"line {line}, column {column!r}"
    assert where in str(info.value)


OK = None


def bad_cell(line, column):
    return line, column


def bad_width(line):
    return line, None


def rejected(message):
    return (message,)


# (id, file text, expected): OK means "equals the per-cell reference"
EDGE_CASES = [
    ("plain", "a,b\n1,2\n3,4\n", OK),
    ("crlf", "a,b\r\n1,2\r\n3,4\r\n", OK),
    ("cr_only", "a,b\r1,2\r3,4\r", OK),
    ("no_final_newline", "a,b\n1,2\n3,4", OK),
    ("blank_lines", "a,b\n\n1,2\n\n\n3,4\n\n", OK),
    ("blank_crlf_lines", "a,b\r\n\r\n1,2\r\n\r\n3,4\r\n", OK),
    ("padded_cells", "a,b\n 1 ,\t2\t\n", OK),
    ("unicode_whitespace", "a,b\n\xa01\x0b,2\x0c\n", OK),
    ("quoted_cells", 'a,b\n"1",2\n', OK),
    ("quoted_newline", 'a,b\n1,2\n"3\n",4\n', OK),
    ("underscore", "a,b\n1_0,2\n", OK),
    ("unicode_digits", "a,b\n\u0661\u0662,2\n", OK),
    ("signs_and_exponents", "a,b\n+1,-.5\n1.,1E+5\n", OK),
    ("negative_zero", "a,b\n-0,0\n-0.0,1\n", OK),
    ("long_mantissa", "a,b\n0.1000000000000000055511151231257827,2.2250738585072014e-308\n", OK),
    ("subnormal", "a,b\n4.9e-324,1e-320\n", OK),
    ("single_column", "a\n1\n2\n", OK),
    ("bom", "\ufeffa,b\n1,2\n", OK),
    ("whitespace_line", "a,b\n1,2\n  \n3,4\n", bad_width(3)),
    ("tab_line", "a,b\n1,2\n\t\n", bad_width(3)),
    ("comment_line", "a,b\n# note\n1,2\n", bad_width(2)),
    ("short_row", "a,b\n1,2\n3\n", bad_width(3)),
    ("long_row", "a,b\n1,2\n3,4,5\n", bad_width(3)),
    ("trailing_comma", "a,b\n1,2,\n", bad_width(2)),
    ("every_row_too_wide", "a,b\n1,2,3\n4,5,6\n", bad_width(2)),
    ("quoted_comma", 'a,b\n"1,5",2\n', bad_cell(2, "a")),
    ("quoted_newline_bad", 'a,b\n"x\n",1\n2,3\n', bad_cell(3, "a")),
    ("hash_cell", "a,b\n1,#2\n", bad_cell(2, "b")),
    ("overflow", "a,b\n1,2\n1e400,1\n", bad_cell(3, "a")),
    ("infinity", "a,b\n1,-Infinity\n", bad_cell(2, "b")),
    ("nan", "a,b\n1,2\n3,nan\n", bad_cell(3, "b")),
    ("opposite_infinities", "a,b\n1,-inf\n2,inf\n", bad_cell(2, "b")),
    ("nan_after_overflowing_sum", "a,b\n1e308,1\n1e308,nan\n", bad_cell(3, "b")),
    ("overflowing_sum", "a,b\n1e308,1\n1e308,2\n", OK),
    ("hex", "a,b\n0x10,2\n", bad_cell(2, "a")),
    ("empty_cell", "a,b\n1,\n", bad_cell(2, "b")),
    ("garbage", "a,b\n1,2\n2,zap\n", bad_cell(3, "b")),
    ("nul", "a,b\n1,2\x00\n", bad_cell(2, "b")),
    ("single_column_blank_cell", "a\n1\n \n", bad_cell(3, "a")),
    ("header_only", "a,b\n", rejected("no data rows")),
    ("blank_body", "a,b\n\n\r\n", rejected("no data rows")),
    ("single_column_header_only", "a\n", rejected("no data rows")),
    ("empty_file", "", rejected("file is empty")),
    ("blank_header", "\na,b\n1,2\n", rejected("header must name")),
    ("empty_header_name", "a,,b\n1,2,3\n", rejected("header must name")),
    # the text layer decodes in 8 KiB chunks: a small file fails on the header
    # read, a longer one in numpy's parse and then in the per-cell rescan
    ("latin1_cell", b"a,b\n1,2\n3,\xff\n", rejected("line 3 is not valid UTF-8")),
    ("latin1_cr_only", b"a,b\r1,2\r3,\xff\r", rejected("line 3 is not valid UTF-8")),
    ("latin1_header", b"\xe9a,b\n1,2\n", rejected("line 1 is not valid UTF-8")),
    ("latin1_past_first_chunk", b"a,b\r\n" + b"1,2\r\n" * 5000 + b"3,\xe9\r\n",
     rejected("line 5002 is not valid UTF-8")),
]


@pytest.mark.parametrize(
    "text, expected", [case[1:] for case in EDGE_CASES], ids=[case[0] for case in EDGE_CASES]
)
def test_edge_case_matches_per_cell_reference(tmp_path, text, expected):
    path = _write(tmp_path / "u.csv", text)
    if expected is OK:
        matrix, header = load_unlabeled_csv(path)
        _same_matrix(matrix, read_csv_reference(path).matrix)
        assert header == (["a"] if text.startswith("a\n") else ["a", "b"])
        assert matrix.shape[0] == ssmean.io.open_csv(path).n_rows
        return
    if len(expected) == 1:
        with pytest.raises(DataError, match=expected[0]):
            load_unlabeled_csv(path)
        return
    reference = read_csv_reference(path)
    assert (reference.bad_line, reference.bad_column) == expected
    _assert_rejected_at(path, *expected)


_JUNK_CELL = st.text(alphabet="0123456789.eE+-_ \"infatyx", max_size=6)
_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    _JUNK_CELL,
)
_ROW = st.one_of(
    st.lists(_CELL, min_size=2, max_size=2),
    st.lists(_CELL, min_size=0, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(_ROW, min_size=0, max_size=6),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_reader_agrees_with_per_cell_reference(tmp_path_factory, rows, newline):
    _agrees_with_reference(tmp_path_factory, rows, newline)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(_ROW, min_size=0, max_size=6),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_reader_agrees_with_per_cell_reference_in_blocks_of_3(tmp_path_factory, rows, newline):
    with mock.patch.object(ssmean.data, "BLOCK_ROWS", 3):
        _agrees_with_reference(tmp_path_factory, rows, newline)


def _agrees_with_reference(tmp_path_factory, rows, newline):
    body = newline.join(",".join(row) for row in rows)
    path = _write(tmp_path_factory.mktemp("csv") / "u.csv", "a,b" + newline + body)
    reference = read_csv_reference(path)
    if reference.matrix is not None and reference.matrix.shape[0] > 0:
        matrix, _ = load_unlabeled_csv(path)
        _same_matrix(matrix, reference.matrix)
    elif reference.matrix is not None:
        with pytest.raises(DataError, match="no data rows"):
            load_unlabeled_csv(path)
    else:
        _assert_rejected_at(path, reference.bad_line, reference.bad_column)


def _rows(count, newline="\n"):
    return "".join(f"{i},{i / 7!r}{newline}" for i in range(count))


# (id, file text, expected) as in EDGE_CASES, read in blocks of 3 rows
SMALL_BLOCK_CASES = [
    ("blank_line_at_block_edge", "a,b\n" + _rows(3) + "\n\r\n" + _rows(5), OK),
    ("crlf", "a,b\r\n" + _rows(8, "\r\n"), OK),
    ("cr_only", "a,b\r" + _rows(8, "\r"), OK),
    ("no_final_newline", "a,b\n" + _rows(8).rstrip("\n"), OK),
    ("bom", "\ufeffa,b\n" + _rows(8), OK),
    ("quoted_cells_in_block_3", "a,b\n" + _rows(7) + '"7"," 8"\n' + _rows(2), OK),
    ("quoted_newline_in_block_2", "a,b\n" + _rows(4) + '"4\n",5\n' + _rows(4), OK),
    # line 11: the header, 8 rows and a blank line come before it
    ("bad_cell_in_block_3", "a,b\n" + _rows(4) + "\n" + _rows(4) + "8,zap\n" + _rows(2),
     bad_cell(11, "b")),
    ("short_row_in_block_3", "a,b\r\n" + _rows(7, "\r\n") + "7\r\n", bad_width(9)),
    ("whitespace_line_in_block_2", "a,b\n" + _rows(4) + " \n" + _rows(4), bad_width(6)),
    # past the text layer's first 8 KiB, which the header read decodes
    ("latin1_in_a_later_block", ("a,b\n" + _rows(1000)).encode() + b"1000,\xe9\n",
     rejected("line 1002 is not valid UTF-8")),
]


@pytest.mark.parametrize(
    "text, expected", [case[1:] for case in SMALL_BLOCK_CASES],
    ids=[case[0] for case in SMALL_BLOCK_CASES],
)
def test_small_blocks_match_per_cell_reference(tmp_path, monkeypatch, text, expected):
    monkeypatch.setattr(ssmean.data, "BLOCK_ROWS", 3)
    test_edge_case_matches_per_cell_reference(tmp_path, text, expected)


def test_bad_cell_deep_in_a_large_file_is_named(tmp_path):
    lines = ["a,b"] + [f"{i},{i / 7!r}" for i in range(50_000)]
    lines[40_000] = "40000,oops"  # line 40001 of the file: the header is line 1
    path = _write(tmp_path / "u.csv", "\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="line 40001, column 'b'"):
        load_unlabeled_csv(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_non_utf8_byte_chunks_in_is_named_by_its_line_at_a_small_peak(tmp_path, newline):
    # about 2 MB; the Latin-1 byte sits about 22 of the error path's 64 KiB chunks in
    rows = [f"{i},{i / 7!r}" for i in range(80_000)]
    rows[60_000] = "60000,\xe9"  # line 60002 of the file: the header is line 1
    path = tmp_path / "u.csv"
    path.write_bytes(newline.join(["a,b", *rows, ""]).encode("latin-1"))
    with pytest.raises(DataError, match=r"line 60002 is not valid UTF-8 \(byte 0xe9\)"):
        load_unlabeled_csv(path)
    tracemalloc.start()
    try:
        message = str(ssmean.io._not_utf8(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "line 60002 is not valid UTF-8 (byte 0xe9)" in message
    assert peak < path.stat().st_size / 4, f"traced peak {peak} bytes"


def test_a_pass_holds_one_parsed_block_at_a_time(tmp_path):
    # the reader and the pass each let a block go before the next is parsed: 1.08 blocks,
    # against 2.08 when both held it through the next parse
    width = 20
    matrix = np.random.default_rng(0).normal(size=(4 * ssmean.data.BLOCK_ROWS, width))
    path = tmp_path / "u.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(f"x{j}" for j in range(width)) + "\n")
        np.savetxt(handle, matrix, delimiter=",", fmt="%.17g")
    rows = ssmean.io.open_csv(path)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        unlabeled_pass(rows, [])
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    blocks = peak / (ssmean.data.BLOCK_ROWS * width * 8)
    assert blocks < 1.5, f"traced peak is {blocks:.2f} blocks"


def test_clean_file_skips_per_cell_parser(tmp_path, monkeypatch):
    def fail(*args):
        raise AssertionError("per-cell parser ran on a clean file")

    monkeypatch.setattr(ssmean.io, "_scan_rows", fail)
    path = _write(tmp_path / "u.csv", "a,b\r\n1,2\r\n\r\n3.5,-4e-3\r\n")
    matrix, _ = load_unlabeled_csv(path)
    assert matrix.tolist() == [[1.0, 2.0], [3.5, -4e-3]]


def test_finite_cells_whose_sum_overflows_skip_per_cell_parser(tmp_path, monkeypatch):
    # the sum is inf, so the exact finiteness test runs; it passes, and nothing warns
    def fail(*args):
        raise AssertionError("per-cell parser ran on a finite file")

    monkeypatch.setattr(ssmean.io, "_scan_rows", fail)
    path = _write(tmp_path / "u.csv", "a,b\n1e308,1\n1e308,2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix, _ = load_unlabeled_csv(path)
    assert matrix.tolist() == [[1e308, 1.0], [1e308, 2.0]]


@pytest.mark.parametrize("body", ["", "\n", "\r\n\n"])
def test_empty_body_raises_without_warning(tmp_path, body):
    path = _write(tmp_path / "u.csv", "a,b\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="no data rows"):
            load_unlabeled_csv(path)


def test_byte_order_mark_files_load_and_match(tmp_path):
    labeled = _write(tmp_path / "l.csv", "\ufeffy,x1,x2\n1,0,0.5\n2,1,1.5\n")
    unlabeled = _write(tmp_path / "u.csv", "\ufeffx1,x2\n3,4\n")
    outcomes, features, names = load_labeled_csv(labeled)
    assert names == ["x1", "x2"]
    assert outcomes.tolist() == [1.0, 2.0]
    assert features.tolist() == [[0.0, 0.5], [1.0, 1.5]]
    matrix, header = load_unlabeled_csv(unlabeled, expected_names=names)
    assert header == ["x1", "x2"]
    assert matrix.tolist() == [[3.0, 4.0]]


def test_header_names_checked_before_body(tmp_path):
    # the body is bad too: the name mismatch must be what is reported
    path = _write(tmp_path / "u.csv", "x2,x1\n1,zap\n")
    with pytest.raises(DataError, match="do not match") as info:
        load_unlabeled_csv(path, expected_names=["x1", "x2"])
    assert type(info.value) is DataError


@pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float64("-inf")])
def test_json_writer_rejects_non_finite_numbers(tmp_path, value):
    # a report must parse under a strict JSON reader, which takes no NaN or Infinity
    path = tmp_path / "report.json"
    with pytest.raises(NumericalError, match="non-finite"):
        write_json_atomic(path, {"results": {"leaf": [1.0, value]}})
    assert not path.exists()
    write_json_atomic(path, {"results": {"leaf": [1.0, None]}})
    assert path.read_text().split() == ["{", '"results":', "{", '"leaf":', "[", "1.0,", "null",
                                        "]", "}", "}"]
