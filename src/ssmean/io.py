"""CSV ingestion and atomic report writing."""

from __future__ import annotations

import codecs
import csv
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from . import data
from .data import all_finite
from .errors import DataError, NumericalError, ValidationError

__all__ = [
    "CsvRows",
    "load_labeled_csv",
    "load_unlabeled_csv",
    "open_csv",
    "write_text_atomic",
    "write_json_atomic",
]

# raw bytes read at a time: the fastest size for counting the rows of a 30 MB file
_CHUNK_BYTES = 1 << 16


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


def _scan_rows(reader, header: list[str], path: Path, skip: int) -> Iterator[list[float]]:
    """Parse the non-empty rows after the first ``skip`` cell by cell, raising on
    the first bad line and column."""
    for row in filter(None, reader):  # csv gives [] for a blank line
        if skip:
            skip -= 1
        elif len(row) != len(header):
            raise DataError(
                f"{path}: line {reader.line_num} has {len(row)} fields, expected {len(header)}"
            )
        else:
            yield [_parse_cell(cell, reader.line_num, header[j]) for j, cell in enumerate(row)]


def _not_utf8(path: Path) -> DataError:
    """Name the line of the first byte that is not UTF-8.

    The text layer decodes in chunks, so where the decoder failed says
    nothing about the line: the file is decoded again, a chunk at a time,
    counting line ends up to the bad byte.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    line, last = 1, b""
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK_BYTES)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                # exc.object is the bytes of an unfinished character held from the last
                # chunk, none of which ends a line, then this chunk
                before = exc.object[: exc.start]
                return DataError(f"{path}: line {line + _line_ends(last, before)} is not "
                                 f"valid UTF-8 (byte 0x{exc.object[exc.start]:02x})")
            if not chunk:
                return DataError(f"{path}: not valid UTF-8")
            line += _line_ends(last, chunk)
            last = chunk[-1:]


def _line_ends(last: bytes, chunk: bytes) -> int:
    """Line ends in ``chunk`` as csv counts them (\\n, \\r and \\r\\n one each), given
    the byte before it: a \\r\\n split across two chunks is counted once."""
    crlf = chunk.count(b"\r\n") + (last == b"\r" and chunk[:1] == b"\n")
    return chunk.count(b"\n") + chunk.count(b"\r") - crlf


def _open_text(path: Path):
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports start with
        return open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc


def _count_rows(path: Path) -> int:
    """The data rows below the header, counted from the raw bytes without parsing.

    A row is a non-empty line, as numpy and csv read it: it starts at a byte
    that ends no line (\\n or \\r) and follows one that does.  A quoted cell
    may hold a line end, so csv counts a file with a quote.
    """
    rows, last = 0, b"\n"
    with open(path, "rb") as handle:
        while chunk := handle.read(_CHUNK_BYTES):
            if b'"' in chunk:
                with _open_text(path) as text:
                    return sum(1 for row in csv.reader(text) if row) - 1
            raw = np.frombuffer(last + chunk, dtype=np.uint8)
            ends = (raw == ord("\n")) | (raw == ord("\r"))
            rows += int(np.count_nonzero(ends[:-1] > ends[1:]))
            last = chunk[-1:]
    return rows - 1  # the header


@dataclass(frozen=True)
class CsvRows:
    """A CSV file with a checked header and counted rows, parsed by ``blocks``."""

    path: Path
    header: list[str]
    n_rows: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, len(self.header)

    def blocks(self) -> Iterator[np.ndarray]:
        """The rows in order, parsed once, in blocks of at most ``data.BLOCK_ROWS`` rows.

        numpy's C parser takes a subset of what the per-cell parser accepts
        (no quotes, underscores or non-ASCII digits) and gives the same
        doubles.  From the first block that numpy rejects, or that has the
        wrong width or a non-finite cell, the per-cell parser reads the rest
        of the file: it either accepts it or names the first bad line and
        column.  Rows that differ in number from the count are rejected.
        """
        done = 0
        with _open_text(self.path) as handle:
            try:
                next(csv.reader(handle))  # the header
                while done < self.n_rows:
                    size = min(data.BLOCK_ROWS, self.n_rows - done)
                    try:
                        with warnings.catch_warnings():  # blank lines are skipped as before
                            warnings.filterwarnings("ignore", "Input line .* contained no data")
                            block = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2,
                                               dtype=float, max_rows=size)
                    except ValueError:
                        break
                    if block.shape != (size, len(self.header)) or not all_finite(block):
                        break
                    done += size
                    yield block
                    del block  # not held while the next block is parsed
                else:
                    done += sum(1 for line in handle if line.strip("\r\n"))
                if done < self.n_rows:
                    handle.seek(0)
                    rows = _scan_rows(csv.reader(handle), self.header, self.path, skip=done + 1)
                    while block := list(islice(rows, data.BLOCK_ROWS)):
                        done += len(block)
                        if done <= self.n_rows:
                            yield np.array(block, dtype=float)
            except UnicodeDecodeError:
                raise _not_utf8(self.path) from None
        if done != self.n_rows:
            raise DataError(f"{self.path}: parsed {done} data rows, but counted {self.n_rows} "
                            "before parsing; was the file changed?")

    def read(self) -> np.ndarray:
        """The whole body as one matrix, filled block by block."""
        matrix = np.empty(self.shape)
        start = 0
        for block in self.blocks():
            matrix[start : start + len(block)] = block
            start += len(block)
        return matrix


def open_csv(
    path: str | Path, min_columns: int = 1, expected_names: list[str] | None = None
) -> CsvRows:
    """Check a CSV's header, optionally against ``expected_names``, and count its rows.

    No row is parsed: an estimator given the result as a ``Dataset``'s
    unlabeled features parses them once, in blocks, after its fits.
    """
    path = Path(path)
    try:
        with _open_text(path) as handle:
            header = next(csv.reader(handle), None)
        if header is None:
            raise DataError(f"{path}: file is empty")
        header = [name.strip() for name in header]
        if len(header) < min_columns or not all(header):
            raise DataError(
                f"{path}: header must name at least {min_columns} non-empty column(s)"
            )
        if expected_names is not None and header != list(expected_names):
            raise DataError(
                f"{path}: feature columns {header} do not match the labeled file's "
                f"feature columns {list(expected_names)}"
            )
        n_rows = _count_rows(path)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if n_rows == 0:
        raise DataError(f"{path}: no data rows")
    return CsvRows(path, header, n_rows)


def load_labeled_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Read a labeled CSV: column 1 is the outcome, the rest are features.

    Returns (outcomes, features, feature_names).
    """
    rows = open_csv(path, min_columns=2)
    matrix = rows.read()
    return matrix[:, 0], matrix[:, 1:], rows.header[1:]


def load_unlabeled_csv(
    path: str | Path, expected_names: list[str] | None = None
) -> tuple[np.ndarray, list[str]]:
    """Read a features-only CSV into a matrix, with ``open_csv``'s checks."""
    rows = open_csv(path, expected_names=expected_names)
    return rows.read(), rows.header


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
