"""Posteriors over linear regression functions fitted on a training fold.

Every fitter returns a :class:`NuisancePosterior` whose draws are regression
functions on the original data scale, each a coefficient row
``[intercept, coef_1, ..., coef_p]`` of width p + 1.  The fitters are
pure functions of their inputs plus an explicit random stream, so concurrent
use is race-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientDataError,
    InvalidParameterError,
    NumericalError,
    SamplerFailureError,
    SingularDesignError,
    ValidationError,
)
from .rng import RngStream

__all__ = [
    "NuisancePosterior",
    "GibbsConfig",
    "fit_bols",
    "fit_bridge",
    "fit_spike_slab",
    "constant_nuisance",
    "zero_nuisance",
    "make_fitter",
    "NUISANCE_NAMES",
]

RIDGE_GRID_SIZE = 100
RIDGE_GRID_FLOOR = 1e-4
RIDGE_CV_FOLDS = 10


class NuisancePosterior:
    """Base class: a sampleable posterior over regression functions."""

    metadata: dict  # holds "method", the fitter's name

    def sample_many(self, count: int, rng: RngStream) -> np.ndarray:
        """`count` posterior draws as rows [intercept, coefficients...]."""
        raise NotImplementedError

    def posterior_mean(self) -> np.ndarray:
        """The posterior mean as one row [intercept, coefficients...]."""
        raise NotImplementedError


class MultivariateTPosterior(NuisancePosterior):
    """Multivariate t over (intercept, coefficients).

    Parameterised by a location vector and a (possibly rectangular) factor F
    with squared-scale matrix F F'; draws are location + F z / sqrt(g) with
    z standard normal and g ~ Gamma(df/2, rate df/2).  A zero factor encodes
    a point mass.
    """

    def __init__(
        self,
        method: str,
        df: float,
        location: np.ndarray,
        scale_factor: np.ndarray,
        metadata: dict | None = None,
    ):
        self.df = float(df)
        self.location = np.asarray(location, dtype=float)
        self.scale_factor = np.asarray(scale_factor, dtype=float)
        self.metadata = dict(metadata or {})
        self.metadata.setdefault("method", method)
        self.metadata.setdefault("df", self.df)

    def sample_many(self, count: int, rng: RngStream) -> np.ndarray:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        if self.scale_factor.size == 0 or not self.scale_factor.any():
            return np.tile(self.location, (count, 1))
        g = rng.generator()
        z = g.standard_normal((count, self.scale_factor.shape[1]))
        gam = g.gamma(self.df / 2.0, 2.0 / self.df, size=count)
        # location + (z F') / sqrt(g) in place: no draws-sized temporary beside z and z F'
        draws = z @ self.scale_factor.T
        draws /= np.sqrt(gam)[:, None]
        draws += self.location
        return draws

    def posterior_mean(self) -> np.ndarray:
        return self.location


class EmpiricalPosterior(NuisancePosterior):
    """Posterior represented by stored draws (retained MCMC sweeps)."""

    def __init__(self, method: str, draws: np.ndarray, metadata: dict | None = None):
        self.draws = np.asarray(draws, dtype=float)
        self.metadata = dict(metadata or {})
        self.metadata.setdefault("method", method)

    def sample_many(self, count: int, rng: RngStream) -> np.ndarray:
        if count < 1:
            raise InvalidParameterError(f"count must be >= 1, got {count}")
        idx = rng.generator().integers(0, self.draws.shape[0], size=count)
        return self.draws[idx]

    def posterior_mean(self) -> np.ndarray:
        return self.draws.mean(axis=0)


def _point_mass(method: str, vec: np.ndarray, df: float, metadata: dict) -> MultivariateTPosterior:
    d = vec.shape[0]
    return MultivariateTPosterior(method, df, vec, np.zeros((d, d)), metadata)


def constant_nuisance(value: float, p: int) -> NuisancePosterior:
    """Point mass at the constant function x -> value on p features."""
    if not math.isfinite(value):
        raise InvalidParameterError(f"constant nuisance value must be finite, got {value}")
    row = np.zeros(p + 1)
    row[0] = value
    return _point_mass("constant", row, df=1.0, metadata={"value": float(value)})


def zero_nuisance(p: int) -> NuisancePosterior:
    """Point mass at the zero function on p features."""
    return _point_mass("zero", np.zeros(p + 1), df=1.0, metadata={})


def _check_xy(features: np.ndarray, outcomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(outcomes, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"features have {X.shape[0]} rows but outcomes have {y.shape[0]}"
        )
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValidationError("training data contains non-finite values")
    return X, y


def fit_bols(features: np.ndarray, outcomes: np.ndarray) -> NuisancePosterior:
    """Flat-prior Gaussian linear regression.

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
    # R of [design, y] holds design's R and, in its last column, Q'y
    r_aug = np.linalg.qr(np.column_stack([design, y]), mode="r")
    r, qty = r_aug[:d, :d], r_aug[:d, d]
    # the largest column norm is what a column-pivoted QR puts in |r_11|
    tol = float(np.linalg.norm(design, axis=0).max()) * max(m, d) * np.finfo(float).eps
    if np.linalg.svd(r, compute_uv=False)[-1] <= tol:
        raise SingularDesignError(
            "design matrix with intercept is rank deficient; consider the ridge method"
        )
    solved = np.linalg.solve(r, np.column_stack([qty, np.eye(d)]))
    coef, r_inv = solved[:, 0], solved[:, 1:]
    rss = float(np.sum((y - design @ coef) ** 2))
    df = m - d
    s2 = rss / df
    factor = r_inv * math.sqrt(s2)  # (X'X)^{-1} = R^{-1} R^{-T}
    meta = {"rss": rss, "sigma_sq_scale": s2, "n_rows": m, "n_features": p}
    return MultivariateTPosterior("bols", df, coef, factor, meta)


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Column standardization with population (1/m) variance; flags kept columns."""
    xbar = X.mean(axis=0)
    sdev = X.std(axis=0)
    keep = sdev > 0
    Z = (X[:, keep] - xbar[keep]) / sdev[keep]
    return Z, xbar, sdev, keep


def _original_scale_map(
    xbar: np.ndarray, sdev: np.ndarray, keep: np.ndarray
) -> np.ndarray:
    """Linear map from (intercept, kept standardized coefs) to the original scale."""
    p = xbar.shape[0]
    k = int(keep.sum())
    T = np.zeros((p + 1, 1 + k))
    T[0, 0] = 1.0
    T[0, 1:] = -xbar[keep] / sdev[keep]
    rows = np.flatnonzero(keep) + 1
    T[rows, np.arange(1, 1 + k)] = 1.0 / sdev[keep]
    return T


def _ridge_cv_lambda(Z: np.ndarray, y_scaled: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Total CV squared error per grid value, 10 deterministic folds."""
    m = Z.shape[0]
    fold_ids = np.arange(m) % RIDGE_CV_FOLDS
    errors = np.zeros(grid.shape[0])
    for f in range(RIDGE_CV_FOLDS):
        test = fold_ids == f
        train = ~test
        t = int(train.sum())
        Zt = Z[train]
        zbar = Zt.mean(axis=0)
        Zc = Zt - zbar
        yt = y_scaled[train]
        ybar = yt.mean()
        evals, evecs = np.linalg.eigh(Zc.T @ Zc)
        proj = evecs.T @ (Zc.T @ (yt - ybar))
        # coefficient paths for every lambda at once: (k, len(grid))
        coefs = evecs @ (proj[:, None] / (evals[:, None] + t * grid[None, :]))
        resid = (y_scaled[test] - ybar)[:, None] - (Z[test] - zbar) @ coefs
        errors += np.sum(resid**2, axis=0)
    return errors


def fit_bridge(features: np.ndarray, outcomes: np.ndarray) -> NuisancePosterior:
    """Gaussian-prior ridge regression with the penalty chosen by cross-validation.

    Pipeline: standardize feature columns and scale the outcome to unit
    standard deviation; pick the penalty on a 100-point log grid by 10-fold
    CV of ridge squared error on the scaled problem; rescale the chosen
    penalty back to the raw-outcome problem; form the conjugate
    normal-inverse-gamma posterior on the standardized design (flat prior on
    the intercept, df = m - 1); map location and scale back to the original
    feature scale.  Zero-variance columns are dropped from the penalized
    block and receive coefficient zero; the metadata's `dropped_columns`
    counts them.
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
    k = Z.shape[1]
    ybar = float(y.mean())
    y_c = y - ybar
    with np.errstate(over="ignore"):
        s_y = float(y.std())
    if not math.isfinite(s_y):
        raise NumericalError("outcome standard deviation overflows float64; rescale the outcome")
    df = m - 1
    T = _original_scale_map(xbar, sdev, keep)
    meta: dict = {"n_rows": m, "n_features": p, "dropped_columns": int((~keep).sum())}

    if s_y == 0.0:
        loc = T @ np.concatenate([[ybar], np.zeros(k)])
        # no penalty is chosen: the report writes null, and "degenerate" gives the reason
        meta.update({"lambda_hat": None, "degenerate": True})
        return _point_mass("bridge", loc, df, meta)

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
    r_inv = np.linalg.inv(np.linalg.cholesky(A).T)  # A^{-1} = R^{-1} R^{-T}
    zty = Z.T @ y_c
    coef_std = r_inv @ (r_inv.T @ zty)
    rss_term = float(y_c @ y_c - zty @ coef_std)
    rss_term = max(rss_term, 0.0)
    scale_mult = math.sqrt(rss_term / df)

    loc_std = np.concatenate([[ybar], coef_std])
    factor_std = np.zeros((1 + k, 1 + k))
    factor_std[0, 0] = 1.0 / math.sqrt(m)
    factor_std[1:, 1:] = r_inv
    factor_std *= scale_mult

    meta.update(
        {
            "lambda_hat": lam_hat,
            "lambda_tilde": lam_tilde,
            "lambda_grid": [float(grid[0]), float(grid[-1])],
            "cv_folds": RIDGE_CV_FOLDS,
            "outcome_sd": s_y,
        }
    )
    return MultivariateTPosterior("bridge", df, T @ loc_std, T @ factor_std, meta)


@dataclass(frozen=True)
class GibbsConfig:
    """Spike-and-slab sampler settings (exposed through the CLI config)."""

    burn_in: int = 1000
    sweeps: int = 2000
    slab_scale: float | None = None  # defaults to the number of training rows

    def __post_init__(self) -> None:
        if self.burn_in < 0 or self.sweeps < 1:
            raise InvalidParameterError(
                f"burn_in must be >= 0 and sweeps >= 1, got {self.burn_in} and {self.sweeps}"
            )
        if self.slab_scale is not None and self.slab_scale <= 0:
            raise InvalidParameterError(f"slab_scale must be positive, got {self.slab_scale}")


def fit_spike_slab(
    features: np.ndarray,
    outcomes: np.ndarray,
    config: GibbsConfig | None = None,
    rng: RngStream | None = None,
) -> NuisancePosterior:
    """Bernoulli-Gaussian spike-and-slab regression via Gibbs sampling.

    Inclusion indicators are Bernoulli(w) with w ~ Beta(1, 1); included
    coefficients get a N(0, g * sigma^2) slab with g defaulting to the row
    count; excluded coefficients are exactly zero; sigma^2 carries a weakly
    informative inverse-gamma prior.  Features are standardized internally
    and retained sweeps are mapped back to the original scale.

    Coordinates are updated on the Gram matrix G = Z'Z (George & McCulloch
    1993): the sweep tracks Z'r rather than the residual r, so a coordinate
    that stays at zero costs no vector work and one that moves costs O(k).
    Each sweep draws its k uniforms and k standard normals as two vector
    calls up front, and decides inclusion on the logit scale, which needs no
    exp.  It ends by deriving |r|^2 for the sigma^2 update, and Z'r afresh,
    from the R factor of [Z, y_c], taken once per fit: two products of size
    k + 1 in place of two over the m rows.
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
    meta: dict = {
        "n_rows": m,
        "n_features": p,
        "dropped_columns": int((~keep).sum()),
        "burn_in": config.burn_in,
        "sweeps": config.sweeps,
    }
    inclusion = np.zeros(p)  # per original column; dropped columns stay at 0

    with np.errstate(over="ignore"):
        s_y = float(y.std())
        y_var = float(np.var(y_c))
    if s_y == 0.0 or k == 0:
        loc = T @ np.concatenate([[ybar], np.zeros(k)])
        meta["degenerate"] = True
        meta["inclusion_frequency_max"] = 0.0
        meta["inclusion_frequency"] = inclusion.tolist()
        return _point_mass("spike_slab", loc, float(m - 1), meta)

    if not math.isfinite(y_var):
        raise SamplerFailureError("outcome variance overflows float64; rescale the outcome")
    g_slab = float(config.slab_scale) if config.slab_scale is not None else float(m)
    a0 = b0 = 0.001
    zz = np.einsum("ij,ij->j", Z, Z)
    gram_rows = list(Z.T @ Z)
    # with [Z, y_c] = QR, the residual r = y_c - Z b is Q v for v = R (-b, 1), so
    # |r|^2 = |v|^2 and Z'r = R_z'v; R has min(m, k + 1) rows, so p >= m needs no
    # special case
    r_aug = np.linalg.qr(np.column_stack([Z, y_c]), mode="r")
    r_z, r_y = r_aug[:, :k], r_aug[:, k]
    slab_prec = zz + 1.0 / g_slab
    # the log-odds of inclusion are logit(w) - log(g sp_j) / 2 + c_j^2 / (2 sigma^2 sp_j),
    # with sp_j = z_j'z_j + 1/g; the middle term is fixed for the whole fit
    half_log_det = 0.5 * np.log(g_slab * slab_prec)
    prec = slab_prec.tolist()
    zz = zz.tolist()

    gen = rng.generator()
    beta = [0.0] * k
    gamma = [False] * k
    w = 0.5
    sigma_sq = max(y_var, 1e-12)
    zr = Z.T @ y_c

    total = config.burn_in + config.sweeps
    # retained sweeps go straight into the draws' coefficient columns, so that no
    # second sweeps x k array waits beside the draws
    draws_std = np.zeros((config.sweeps, k + 1))
    kept_rows = draws_std[:, 1:]
    kept_sigma = np.zeros(config.sweeps)
    kept_gamma = np.zeros((config.sweeps, k), dtype=bool)

    # log(0) = -inf is a valid logit for a uniform draw of exactly 0
    with np.errstate(divide="ignore"):
        for sweep in range(total):
            u = gen.random(k)
            noise = (np.sqrt(sigma_sq / slab_prec) * gen.standard_normal(k)).tolist()
            # include j iff logit(u_j) < log-odds_j; the terms free of c_j join
            # logit(u_j) in one vector, and with no exp nothing needs a clamp
            logit_w = math.log(w) - math.log1p(-w)
            threshold = (np.log(u) - np.log1p(-u) - logit_w + half_log_det).tolist()
            half_inv_var = 0.5 / sigma_sq
            for j in range(k):
                beta_old = beta[j]
                cj = zr.item(j) + beta_old * zz[j]
                mu_j = cj / prec[j]
                include = cj * mu_j * half_inv_var > threshold[j]
                gamma[j] = include
                beta_new = mu_j + noise[j] if include else 0.0
                if beta_new != beta_old:
                    zr -= (beta_new - beta_old) * gram_rows[j]
                    beta[j] = beta_new
            coef = np.array(beta)
            n_active = sum(gamma)
            w = float(gen.beta(1.0 + n_active, 1.0 + k - n_active))
            w = min(max(w, 1e-12), 1.0 - 1e-12)
            shape = a0 + 0.5 * (m - 1 + n_active)
            # |R (-b, 1)|^2, a sum of squares from a backward-stable QR, not
            # y'y - 2b'Z'y + b'Gb, which cancels on near-exact fits
            v = r_y - r_z @ coef
            zr = r_z.T @ v
            rate = b0 + 0.5 * (float(v @ v) + float(coef @ coef) / g_slab)
            # a non-finite coefficient makes coef @ coef, and so the rate, non-finite
            sigma_sq = 1.0 / gen.gamma(shape, 1.0 / rate) if math.isfinite(rate) else math.inf
            if not math.isfinite(sigma_sq):
                raise SamplerFailureError(f"non-finite sampler state at sweep {sweep}")
            if sweep >= config.burn_in:
                idx = sweep - config.burn_in
                kept_rows[idx] = coef
                kept_sigma[idx] = sigma_sq
                kept_gamma[idx] = gamma

    inclusion[keep] = kept_gamma.mean(axis=0)
    draws_std[:, 0] = ybar + np.sqrt(kept_sigma / m) * gen.standard_normal(config.sweeps)
    draws = draws_std @ T.T
    meta["slab_scale"] = g_slab
    meta["inclusion_frequency_max"] = float(inclusion.max())
    meta["inclusion_frequency"] = inclusion.tolist()
    return EmpiricalPosterior("spike_slab", draws, meta)


Fitter = Callable[[np.ndarray, np.ndarray, RngStream], NuisancePosterior]

NUISANCE_NAMES = ("bols", "bridge", "spike", "zero", "constant")


def make_fitter(name: str, gibbs: GibbsConfig | None = None) -> Fitter:
    """Resolve a nuisance tag (e.g. 'bols', 'constant:2.5') to a fitter callable."""
    if name == "bols":
        return lambda X, y, rng: fit_bols(X, y)
    if name == "bridge":
        return lambda X, y, rng: fit_bridge(X, y)
    if name == "spike":
        return lambda X, y, rng: fit_spike_slab(X, y, gibbs, rng)
    if name == "zero":
        return lambda X, y, rng: zero_nuisance(X.shape[1])
    if name.startswith("constant:"):
        try:
            value = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise InvalidParameterError(f"bad constant nuisance spec {name!r}") from exc
        return lambda X, y, rng: constant_nuisance(value, X.shape[1])
    raise InvalidParameterError(
        f"unknown nuisance method {name!r}; expected one of {NUISANCE_NAMES} "
        "(constant takes the form constant:<value>)"
    )
