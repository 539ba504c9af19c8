"""Independent numerical oracles shared by the unit and acceptance tests.

These deliberately avoid the library's sampling path: densities come from
scipy.stats and the convolution is evaluated by FFT on a trapezoid grid.
The CSV reference parses every cell with a plain ``float()``, and the
spike-and-slab reference is the sampler's original residual-tracking loop.
"""

import csv
import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.signal import fftconvolve
from scipy.stats import t as student_t

from ssmean.errors import InsufficientDataError, SamplerFailureError
from ssmean.nuisance import GibbsConfig, _check_xy, _original_scale_map, _standardize
from ssmean.rng import RngStream

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


def spike_slab_reference(features, outcomes, config=None, rng=None):
    """The spike-and-slab Gibbs sampler as a scalar loop over the length-m residual.

    Same priors, RNG consumption order and checks as ``fit_spike_slab``,
    which tracks Z'r on the Gram matrix instead.  Returns the retained draws
    on the original scale (one row for a degenerate fit) and the inclusion
    frequency of every original column.
    """
    config = config or GibbsConfig()
    if rng is None:
        rng = RngStream(0)
    X, y = _check_xy(features, outcomes)
    m, p = X.shape
    if m < 10:
        raise InsufficientDataError(f"spike-and-slab needs at least 10 rows, got {m}")
    Z, xbar, sdev, keep = _standardize(X)
    k = Z.shape[1]
    ybar = float(y.mean())
    y_c = y - ybar
    T = _original_scale_map(xbar, sdev, keep)

    if float(y.std()) == 0.0 or k == 0:
        loc = T @ np.concatenate([[ybar], np.zeros(k)])
        return loc[None, :], np.zeros(p)

    g_slab = float(config.slab_scale) if config.slab_scale is not None else float(m)
    a0 = b0 = 0.001
    zz = np.einsum("ij,ij->j", Z, Z)

    gen = rng.generator()
    beta = np.zeros(k)
    gamma = np.zeros(k, dtype=bool)
    w = 0.5
    sigma_sq = max(float(np.var(y_c)), 1e-12)
    resid = y_c.copy()

    total = config.burn_in + config.sweeps
    kept_rows = np.zeros((config.sweeps, k))
    kept_sigma = np.zeros(config.sweeps)
    inclusion = np.zeros(k)

    for sweep in range(total):
        for j in range(k):
            if beta[j] != 0.0:
                resid += beta[j] * Z[:, j]
            cj = float(Z[:, j] @ resid)
            v_j = sigma_sq / (zz[j] + 1.0 / g_slab)
            mu_j = cj / (zz[j] + 1.0 / g_slab)
            log_odds = (
                math.log(w) - math.log1p(-w)
                + 0.5 * (math.log(v_j) - math.log(g_slab * sigma_sq))
                + 0.5 * mu_j * mu_j / v_j
            )
            if log_odds > 35.0:
                include = True
            elif log_odds < -35.0:
                include = False
            else:
                include = gen.random() < 1.0 / (1.0 + math.exp(-log_odds))
            gamma[j] = include
            if include:
                beta[j] = mu_j + math.sqrt(v_j) * gen.standard_normal()
                resid -= beta[j] * Z[:, j]
            else:
                beta[j] = 0.0
        n_active = int(gamma.sum())
        w = float(gen.beta(1.0 + n_active, 1.0 + k - n_active))
        w = min(max(w, 1e-12), 1.0 - 1e-12)
        shape = a0 + 0.5 * (m - 1 + n_active)
        rate = b0 + 0.5 * (float(resid @ resid) + float(beta @ beta) / g_slab)
        sigma_sq = 1.0 / gen.gamma(shape, 1.0 / rate)
        if not (np.isfinite(beta).all() and math.isfinite(sigma_sq)):
            raise SamplerFailureError(f"non-finite sampler state at sweep {sweep}")
        if sweep >= config.burn_in:
            idx = sweep - config.burn_in
            kept_rows[idx] = beta
            kept_sigma[idx] = sigma_sq
            inclusion += gamma

    inclusion /= config.sweeps
    intercepts = ybar + np.sqrt(kept_sigma / m) * gen.standard_normal(config.sweeps)
    draws_std = np.column_stack([intercepts, kept_rows])
    draws = draws_std @ T.T
    full_inclusion = np.zeros(p)
    full_inclusion[keep] = inclusion
    return draws, full_inclusion
