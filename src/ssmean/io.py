"""CSV ingestion and atomic report writing."""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .data import all_finite
from .errors import DataError, NumericalError, ValidationError

__all__ = [
    "load_labeled_csv",
    "load_unlabeled_csv",
    "write_text_atomic",
    "write_json_atomic",
]


def _parse_cell(token: str, line_num: int, column: str) -> float:
    text = token.strip()
    if not text:
        raise ValidationError(f"empty value at line {line_num}, column {column!r}")
    try:
        value = float(text)
    except ValueError as exc:
        raise ValidationError(
            f"cannot parse {token!r} at line {line_num}, column {column!r}"
        ) from exc
    if math.isnan(value) or math.isinf(value):
        raise ValidationError(
            f"non-finite value {token!r} at line {line_num}, column {column!r}"
        )
    return value


def _scan_rows(reader, header: list[str], path: Path) -> np.ndarray:
    """Parse the body cell by cell, raising on the first bad line and column."""
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {reader.line_num} has {len(row)} fields, "
                f"expected {len(header)}"
            )
        rows.append(
            [_parse_cell(cell, reader.line_num, header[j]) for j, cell in enumerate(row)]
        )
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def _not_utf8(path: Path) -> DataError:
    """Name the line of the first byte that is not UTF-8.

    The text layer decodes in chunks, so where the decoder failed says
    nothing about the line: the file is decoded again as a whole.
    """
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[: exc.start]
        # csv counts \n, \r and \r\n as one line end each
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        return DataError(f"{path}: line {line} is not valid UTF-8 (byte 0x{raw[exc.start]:02x})")
    return DataError(f"{path}: not valid UTF-8")


def _read_matrix(
    path: str | Path, min_columns: int, expected_names: list[str] | None = None
) -> tuple[list[str], np.ndarray]:
    """Read the header with csv, then the body with numpy's C parser.

    numpy takes a subset of what the per-cell parser accepts (no quotes,
    underscores or non-ASCII digits) and gives the same doubles, so when it
    rejects the body, or the body has the wrong width, no rows or a
    non-finite cell, the per-cell parser rescans the file: it either accepts
    it or names the first bad line and column.
    """
    path = Path(path)
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports start with
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        header = [name.strip() for name in header]
        if len(header) < min_columns or any(not name for name in header):
            raise DataError(
                f"{path}: header must name at least {min_columns} non-empty column(s)"
            )
        if expected_names is not None and header != list(expected_names):
            raise DataError(
                f"{path}: feature columns {header} do not match the labeled file's "
                f"feature columns {list(expected_names)}"
            )
        try:
            with warnings.catch_warnings():
                # an empty body is reported below as "no data rows"
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                matrix = np.loadtxt(
                    handle, delimiter=",", comments=None, ndmin=2, dtype=float
                )
        except ValueError:
            matrix = None
        if (
            matrix is None
            or matrix.shape[0] == 0
            or matrix.shape[1] != len(header)
            or not all_finite(matrix)
        ):
            handle.seek(0)
            reader = csv.reader(handle)
            next(reader)  # the header, checked above
            try:
                matrix = _scan_rows(reader, header, path)
            except UnicodeDecodeError:
                raise _not_utf8(path) from None
    return header, matrix


def load_labeled_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Read a labeled CSV: column 1 is the outcome, the rest are features.

    Returns (outcomes, features, feature_names).
    """
    header, matrix = _read_matrix(path, min_columns=2)
    return matrix[:, 0], matrix[:, 1:], header[1:]


def load_unlabeled_csv(
    path: str | Path, expected_names: list[str] | None = None
) -> tuple[np.ndarray, list[str]]:
    """Read a features-only CSV, optionally checking the header names/order.

    A header that does not match ``expected_names`` is rejected before the
    body is read.
    """
    header, matrix = _read_matrix(path, min_columns=1, expected_names=expected_names)
    return matrix, header


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file and rename, so partial files are never left behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def write_json_atomic(path: str | Path, payload: dict) -> None:
    """Write strict JSON: a NaN or an infinity raises, as no JSON reader takes it."""
    try:
        text = json.dumps(
            payload, indent=2, sort_keys=True, default=_json_default, allow_nan=False
        )
    except ValueError as exc:
        raise NumericalError(f"report {path} would hold a non-finite number: {exc}") from exc
    write_text_atomic(path, text + "\n")
