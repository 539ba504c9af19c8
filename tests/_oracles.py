"""Independent numerical oracles shared by the unit and acceptance tests.

These deliberately avoid the library's sampling path: densities come from
scipy.stats and the convolution is evaluated by FFT on a trapezoid grid.
The CSV reference parses every cell with a plain ``float()``, the
spike-and-slab reference is the sampler's original residual-tracking loop,
the hbdmi fold reference forms every draw's predictions in full, and the
bols and bridge references are those fits as they ran on scipy.linalg.
"""

import csv
import math
import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.integrate import cumulative_trapezoid
from scipy.signal import fftconvolve
from scipy.stats import t as student_t

from ssmean.errors import (
    InsufficientDataError,
    InvalidParameterError,
    NumericalError,
    SamplerFailureError,
    SingularDesignError,
    ValidationError,
)
from ssmean.nuisance import (
    RIDGE_CV_FOLDS,
    RIDGE_GRID_FLOOR,
    RIDGE_GRID_SIZE,
    GibbsConfig,
    MultivariateTPosterior,
    _check_xy,
    _original_scale_map,
    _point_mass,
    _ridge_cv_lambda,
    _standardize,
)
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

    Same priors, RNG consumption order (k uniforms and k normals at the top
    of each sweep), logit-scale inclusion test and checks as
    ``fit_spike_slab``, which tracks Z'r on the Gram matrix instead and
    rearranges the log-odds.  Returns the retained draws
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
        u = gen.random(k)
        z = gen.standard_normal(k)
        with np.errstate(divide="ignore"):
            logit_u = np.log(u) - np.log1p(-u)
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
            include = logit_u[j] < log_odds
            gamma[j] = include
            if include:
                beta[j] = mu_j + math.sqrt(v_j) * z[j]
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


def hbdmi_fold_reference(coef_draws, fold_outcomes, fold_features, fold_unlabeled):
    """hbdmi's per-draw fold moments from the full prediction matrices.

    Evaluates every draw on every row of the fold, then takes row means and
    ddof=1 variances, as ``hbdmi_cf`` did before it worked from R factors.
    Works in the dtype of its inputs, so ``np.longdouble`` arrays give an
    extended-precision evaluation.  Returns (mu_bias, scale_bias, mu_imp,
    scale_imp), one entry per row of ``coef_draws``.
    """

    def _augment(features):
        features = np.atleast_2d(features)
        return np.column_stack([np.ones(features.shape[0], dtype=features.dtype), features])

    n_k, n_u = len(fold_outcomes), len(fold_unlabeled)
    labeled_preds = coef_draws @ _augment(fold_features).T
    resid = fold_outcomes[None, :] - labeled_preds
    mu_bias = resid.mean(axis=1)
    scale_bias = resid.var(axis=1, ddof=1) / n_k
    unlabeled_preds = coef_draws @ _augment(fold_unlabeled).T
    mu_imp = unlabeled_preds.mean(axis=1)
    scale_imp = unlabeled_preds.var(axis=1, ddof=1) / n_u
    return mu_bias, scale_bias, mu_imp, scale_imp


def bols_reference(features, outcomes):
    """``fit_bols`` as it was on scipy: a column-pivoted QR, rank read off its diagonal.

    Flat-prior Gaussian linear regression.

    The posterior of (intercept, coefficients) is multivariate t with
    df = m - p - 1, centred at the least-squares solution, with squared-scale
    matrix s^2 (X'X)^{-1} on the intercept-augmented design, where
    s^2 = RSS / (m - p - 1).  An exact fit (RSS = 0) degenerates to a point
    mass at the least-squares solution.
    """
    X, y = _check_xy(features, outcomes)
    m, p = X.shape
    d = p + 1
    if m < p + 3:
        raise SingularDesignError(
            f"flat-prior regression needs at least p + 3 = {p + 3} rows, got {m}; "
            "consider the ridge method"
        )
    with np.errstate(over="ignore"):
        y_var = float(np.var(y))
    if not math.isfinite(y_var):
        raise NumericalError("outcome variance overflows float64; rescale the outcome")
    design = np.column_stack([np.ones(m), X])
    q, r, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag[0] * max(m, d) * np.finfo(float).eps if diag[0] > 0 else 0.0
    if diag[0] == 0.0 or (diag <= tol).any():
        raise SingularDesignError(
            "design matrix with intercept is rank deficient; consider the ridge method"
        )
    coef_piv = scipy.linalg.solve_triangular(r, q.T @ y)
    coef = np.empty(d)
    coef[piv] = coef_piv
    rss = float(np.sum((y - design @ coef) ** 2))
    df = m - d
    s2 = rss / df
    r_inv = scipy.linalg.solve_triangular(r, np.eye(d))
    factor = np.zeros((d, d))
    factor[piv, :] = r_inv  # (X'X)^{-1} = E R^{-1} R^{-T} E'
    factor *= math.sqrt(s2)
    meta = {"rss": rss, "sigma_sq_scale": s2, "n_rows": m, "n_features": p}
    return MultivariateTPosterior("bols", df, coef, factor, meta)


def bridge_reference(features, outcomes, penalty=None):
    """``fit_bridge`` as it was on scipy: ``cholesky`` and ``cho_solve``.

    Gaussian-prior ridge regression with the penalty chosen by cross-validation.

    Pipeline: standardize feature columns and scale the outcome to unit
    standard deviation; pick the penalty on a 100-point log grid by 10-fold
    CV of ridge squared error on the scaled problem; rescale the chosen
    penalty back to the raw-outcome problem; form the conjugate
    normal-inverse-gamma posterior on the standardized design (flat prior on
    the intercept, df = m - 1); map location and scale back to the original
    feature scale.  Zero-variance columns are dropped from the penalized
    block and receive coefficient zero.

    Passing `penalty` skips the CV step and uses that value as the prior
    precision on the standardized coefficients directly.
    """
    X, y = _check_xy(features, outcomes)
    m, p = X.shape
    if m < 5:
        raise InsufficientDataError(f"ridge regression needs at least 5 rows, got {m}")
    if p < 1:
        raise ValidationError("ridge regression needs at least one feature column")
    Z, xbar, sdev, keep = _standardize(X)
    if not keep.any():
        raise ValidationError("all feature columns have zero variance")
    if not keep.all():
        warnings.warn(
            f"dropping {int((~keep).sum())} zero-variance feature column(s); "
            "their coefficients are fixed at 0",
            stacklevel=2,
        )
    k = Z.shape[1]
    ybar = float(y.mean())
    y_c = y - ybar
    s_y = float(y.std())
    if not math.isfinite(s_y):
        raise NumericalError("outcome standard deviation overflows float64; rescale the outcome")
    df = m - 1
    T = _original_scale_map(xbar, sdev, keep)
    meta: dict = {"n_rows": m, "n_features": p, "dropped_columns": int((~keep).sum())}

    if s_y == 0.0:
        loc = T @ np.concatenate([[ybar], np.zeros(k)])
        meta.update({"lambda_hat": math.inf, "degenerate": True})
        return _point_mass("bridge", loc, df, meta)

    if penalty is not None:
        if not math.isfinite(penalty) or penalty <= 0:
            raise InvalidParameterError(f"penalty must be positive and finite, got {penalty}")
        lam_hat = float(penalty)
        lam_tilde = None
        grid = None
    else:
        y_scaled = y / s_y
        lam_max = float(np.max(np.abs(Z.T @ (y_scaled - y_scaled.mean())))) / m
        if lam_max <= 0.0:
            lam_max = 1e-8
        grid = np.geomspace(lam_max, RIDGE_GRID_FLOOR * lam_max, RIDGE_GRID_SIZE)
        cv_errors = _ridge_cv_lambda(Z, y_scaled, grid)
        # the CV penalty lives on the unit-variance outcome problem; rescaling to
        # the raw-outcome prior precision (by m, i.e. outcome-scale penalty times
        # m / s_y) makes the posterior mean coincide with the CV ridge estimate
        lam_tilde = float(grid[int(np.argmin(cv_errors))]) * s_y
        lam_hat = lam_tilde * m / s_y

    A = Z.T @ Z + lam_hat * np.eye(k)
    r = scipy.linalg.cholesky(A, lower=False)
    zty = Z.T @ y_c
    coef_std = scipy.linalg.cho_solve((r, False), zty)
    rss_term = float(y_c @ y_c - zty @ coef_std)
    rss_term = max(rss_term, 0.0)
    scale_mult = math.sqrt(rss_term / df)

    loc_std = np.concatenate([[ybar], coef_std])
    factor_std = np.zeros((1 + k, 1 + k))
    factor_std[0, 0] = 1.0 / math.sqrt(m)
    factor_std[1:, 1:] = scipy.linalg.solve_triangular(r, np.eye(k))
    factor_std *= scale_mult

    meta.update(
        {
            "lambda_hat": lam_hat,
            "lambda_tilde": lam_tilde,
            "lambda_grid": None if grid is None else [float(grid[0]), float(grid[-1])],
            "cv_folds": None if grid is None else RIDGE_CV_FOLDS,
            "outcome_sd": s_y,
        }
    )
    post = MultivariateTPosterior("bridge", df, T @ loc_std, T @ factor_std, meta)
    # standardized-scale state, kept for algebraic round-trip checks
    post._loc_std = loc_std
    post._xbar = xbar
    post._sdev = sdev
    post._keep = keep
    return post
