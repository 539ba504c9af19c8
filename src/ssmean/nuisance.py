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
    """Every fitter's input contract: matching rows, finite cells, a variance float64 holds."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(outcomes, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"features have {X.shape[0]} rows but outcomes have {y.shape[0]}"
        )
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValidationError("training data contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(float(np.var(y))):
            raise NumericalError("outcome variance overflows float64; rescale the outcome")
    return X, y


def _centred_problem(X: np.ndarray, y: np.ndarray) -> tuple:
    """Z, the varying columns (flagged by keep) standardized with population (1/m) variance;
    ybar, y - ybar, the map T from (intercept, Z's coefficients) to the raw scale, metadata,
    and flat: whether no column varies or the outcome is constant (see _flat_fit)."""
    xbar = X.mean(axis=0)
    sdev = X.std(axis=0)
    # a constant's mean, and so its sd, can be off by rounding; a spread below 1e-160 has sd 0
    keep = (sdev > 0) & (X.max(axis=0) > X.min(axis=0))
    Z = (X[:, keep] - xbar[keep]) / sdev[keep]
    p = xbar.shape[0]
    k = int(keep.sum())
    T = np.zeros((p + 1, 1 + k))
    T[0, 0] = 1.0
    T[0, 1:] = -xbar[keep] / sdev[keep]
    T[np.flatnonzero(keep) + 1, np.arange(1, 1 + k)] = 1.0 / sdev[keep]
    ybar = float(y.mean())
    flat = k == 0 or not (y.std() > 0 and y.max() > y.min())
    meta = {"n_rows": X.shape[0], "n_features": p, "dropped_columns": p - k}
    return Z, keep, ybar, y - ybar, T, meta, flat


def _linear_fit(Z: np.ndarray, y: np.ndarray, lam: float) -> tuple:
    """Regress y on [1, Z], penalty lam on Z's coefficients: (coef, R^{-1}, RSS), by one QR.

    Ridge is least squares on [[1, Z], [0, sqrt(lam) I]] (Bjorck 1996), so the
    R of [[1, Z, y], [0, sqrt(lam) I, 0]] holds R, Q'y and, in its last
    diagonal entry, the root of the penalized RSS: a sum of squares, which
    cannot cancel.  Unpenalized, R is refused when sigma_min(R) <=
    sqrt(m) max(m, k + 1) eps; every column of [1, Z] has norm sqrt(m), so a
    column's offset or unit does not move the decision.
    """
    m, k = Z.shape
    aug = np.column_stack([np.ones(m), Z, y])
    if lam > 0:  # which keeps R nonsingular
        aug = np.vstack([aug, np.pad(math.sqrt(lam) * np.eye(k), ((0, 0), (1, 1)))])
    r_aug = np.linalg.qr(aug, mode="r")
    r = r_aug[: k + 1, : k + 1]
    tol = math.sqrt(m) * max(m, k + 1) * np.finfo(float).eps
    if lam == 0 and np.linalg.svd(r, compute_uv=False)[-1] <= tol:
        raise SingularDesignError(
            "design matrix with intercept is rank deficient; consider the ridge method"
        )
    solved = np.linalg.solve(r, np.column_stack([r_aug[: k + 1, -1], np.eye(k + 1)]))
    return solved[:, 0], solved[:, 1:], float(r_aug[-1, -1]) ** 2


def _flat_fit(method: str, Z: np.ndarray, y: np.ndarray, T: np.ndarray, meta: dict,
              origin: float = 0.0) -> MultivariateTPosterior:
    """Flat-prior t posterior of y on [1, Z] mapped by T: df = m - k - 1, s^2 = RSS / df.

    With no varying column or a constant outcome every prior is flat on the intercept, and
    each fitter returns this fit on (Z[:, :0], T[:, :1]) with origin y[0]: y - origin is
    fitted, so a constant outcome fits exactly 0 and the fit is a point mass at (y[0], 0, ...).
    """
    m, k = Z.shape
    coef, r_inv, rss = _linear_fit(Z, y - origin, 0.0)
    coef[0] += origin
    df = m - k - 1
    meta.update(rss=rss, sigma_sq_scale=rss / df)  # (X'X)^{-1} = T R^{-1} R^{-T} T'
    return MultivariateTPosterior(method, df, T @ coef, T @ (r_inv * math.sqrt(rss / df)), meta)


def fit_bols(features: np.ndarray, outcomes: np.ndarray) -> NuisancePosterior:
    """Flat-prior Gaussian linear regression.

    The posterior of (intercept, coefficients) is multivariate t with
    df = m - k - 1 (k the columns that vary; a constant one gets coefficient
    0), centred at the least-squares solution, with squared-scale matrix
    s^2 (X'X)^{-1} on the intercept-augmented design, s^2 = RSS / df.  An
    exact fit (RSS = 0) degenerates to a point mass there.
    """
    X, y = _check_xy(features, outcomes)
    Z, _, _, _, T, meta, flat = _centred_problem(X, y)
    m, k = Z.shape
    if m < k + 3:
        raise SingularDesignError(
            f"flat-prior regression needs at least k + 3 = {k + 3} rows for its {k} varying "
            f"columns, got {m}; consider the ridge method"
        )
    if flat:
        meta["degenerate"] = True
        return _flat_fit("bols", Z[:, :0], y, T[:, :1], meta, y[0])
    return _flat_fit("bols", Z, y, T, meta)


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
    feature scale.  Constant columns get coefficient zero (`dropped_columns`
    counts them); with none varying, or a constant outcome, the fit is
    `fit_bols`' flat one on the intercept.
    """
    X, y = _check_xy(features, outcomes)
    m = X.shape[0]
    if m < 5:
        raise InsufficientDataError(f"ridge regression needs at least 5 rows, got {m}")
    Z, _, _, _, T, meta, flat = _centred_problem(X, y)
    if flat:
        # no penalty is chosen: the report writes null, and "degenerate" gives the reason
        meta.update(lambda_hat=None, degenerate=True)
        return _flat_fit("bridge", Z[:, :0], y, T[:, :1], meta, y[0])
    s_y = float(y.std())
    df = m - 1

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

    coef, r_inv, rss = _linear_fit(Z, y, lam_hat)
    # R is unique up to its rows' signs: take the Cholesky factor's, a positive diagonal
    r_inv *= np.sign(np.diag(r_inv)) * math.sqrt(rss / df)
    meta.update(lambda_hat=lam_hat, lambda_tilde=lam_tilde,
                lambda_grid=[float(grid[0]), float(grid[-1])], cv_folds=RIDGE_CV_FOLDS,
                outcome_sd=s_y)
    return MultivariateTPosterior("bridge", df, T @ coef, T @ r_inv, meta)


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
    and retained sweeps are mapped back to the original scale.  With no
    varying column, or a constant outcome, the fit is `fit_bols`' flat one.

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
    Z, keep, ybar, y_c, T, meta, flat = _centred_problem(X, y)
    k = Z.shape[1]
    meta.update(burn_in=config.burn_in, sweeps=config.sweeps)
    if flat:
        meta.update(degenerate=True, inclusion_frequency_max=0.0, inclusion_frequency=[0.0] * p)
        return _flat_fit("spike_slab", Z[:, :0], y, T[:, :1], meta, y[0])

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
    sigma_sq = max(float(np.var(y_c)), 1e-12)
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

    inclusion = np.zeros(p)  # per original column; dropped columns stay at 0
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
        if not math.isfinite(value):  # caught here, so a config names it before any data
            raise InvalidParameterError(f"constant nuisance value must be finite, got {name!r}")
        return lambda X, y, rng: constant_nuisance(value, X.shape[1])
    raise InvalidParameterError(
        f"unknown nuisance method {name!r}; expected one of {NUISANCE_NAMES} "
        "(constant takes the form constant:<value>)"
    )
