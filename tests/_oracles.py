"""Independent numerical oracles shared by the unit and acceptance tests.

These deliberately avoid the library's sampling path: densities come from
scipy.stats and the convolution is evaluated by FFT on a trapezoid grid.
The CSV reference parses every cell with a plain ``float()``.
"""

import csv
import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.signal import fftconvolve
from scipy.stats import t as student_t

GRID_POINTS = 20_000
GRID_SPAN_SCALES = 12.0


def convolution_quantiles(comp_a, comp_b, qs):
    """Quantiles of the convolution of two t components via numeric integration."""
    s_a, s_b = np.sqrt(comp_a.scale_sq), np.sqrt(comp_b.scale_sq)
    if s_a == 0.0 or s_b == 0.0:
        # a point-mass component only shifts the other density
        shift, comp = (
            (comp_a.location, comp_b) if s_a == 0.0 else (comp_b.location, comp_a)
        )
        scale = np.sqrt(comp.scale_sq)
        return [
            shift + float(student_t.ppf(q, comp.df, loc=comp.location, scale=scale))
            for q in qs
        ]
    # common step so grid sums stay on a uniform grid
    step = 2 * GRID_SPAN_SCALES * max(s_a, s_b) / (GRID_POINTS - 1)
    half = 0.5 * (GRID_POINTS - 1) * step
    xs_a = comp_a.location + np.arange(GRID_POINTS) * step - half
    xs_b = comp_b.location + np.arange(GRID_POINTS) * step - half
    f = student_t.pdf(xs_a, comp_a.df, loc=comp_a.location, scale=s_a)
    g = student_t.pdf(xs_b, comp_b.df, loc=comp_b.location, scale=s_b)
    conv = fftconvolve(f, g) * step
    xs = xs_a[0] + xs_b[0] + np.arange(conv.shape[0]) * step
    cdf = cumulative_trapezoid(conv, dx=step, initial=0.0)
    cdf /= cdf[-1]
    return [float(np.interp(q, cdf, xs)) for q in qs]


class CsvReference(NamedTuple):
    """A CSV read cell by cell: the matrix, or where the first bad row is."""

    matrix: np.ndarray | None
    bad_line: int | None = None
    bad_column: str | None = None  # None when the row has the wrong width


def read_csv_reference(path):
    """Read a CSV body with ``csv`` and ``float()`` per cell, blank rows skipped.

    The header is the first row; a body row is bad when its width differs
    from the header's or a cell is not a finite ``float()``.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = [name.strip() for name in next(reader)]
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                return CsvReference(None, reader.line_num)
            values = []
            for name, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    return CsvReference(None, reader.line_num, name)
                values.append(value)
            rows.append(values)
    return CsvReference(np.array(rows, dtype=float).reshape(len(rows), len(header)))
