"""Posterior constructions for the population mean.

Four methods are provided: the cross-fitted debiased posterior (``bdmi``),
its hierarchical variant that redraws the regression function for every
posterior sample (``hbdmi``), the labeled-data-only baseline (``sup``), and
the imputation baseline that averages nuisance predictions over the
unlabeled rows (``imp``).

Fold pipelines draw from substreams keyed by fold index, so sequential and
parallel execution of the folds produce identical output for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _blas
from .data import Dataset, make_fold_plan
from .errors import InsufficientDataError, InvalidParameterError, SsmeanError
from .nuisance import Fitter, RegressionDraw
from .rng import GENERATOR_NAME, RngStream
from .sampling import (
    TComponent,
    sample_convolution,
    sample_quantile,
    sample_student_t,
    sample_student_t_each,
)

__all__ = [
    "FoldPosterior",
    "EstimationResult",
    "fold_posterior",
    "credible_interval",
    "bdmi_cf",
    "hbdmi_cf",
    "supervised_posterior",
    "imputation_posterior",
    "variance_report",
]

MIN_POSTERIOR_DRAWS = 100

# substream labels inside one fold pipeline
_FIT, _NUISANCE_DRAW, _THETA_BIAS, _THETA_IMPUTED = 0, 1, 2, 3


@dataclass(frozen=True)
class FoldPosterior:
    """The two t components whose convolution is one fold's posterior.

    t_bias targets the imputation bias from the labeled fold residuals;
    t_imputed targets the remainder of the mean from the unlabeled fold
    predictions.
    """

    t_bias: TComponent
    t_imputed: TComponent
    fold_id: int = 0

    def center(self) -> float:
        return self.t_bias.location + self.t_imputed.location


@dataclass(frozen=True)
class EstimationResult:
    """Posterior draws plus point estimate, interval, and run diagnostics."""

    method: str
    draws: np.ndarray
    point_estimate: float
    ci: tuple[float, float]
    alpha: float
    diagnostics: dict


def credible_interval(draws: np.ndarray, alpha: float) -> tuple[float, float]:
    """Equal-tailed interval from the sample quantiles of posterior draws."""
    if not (0.0 < alpha < 1.0):
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha}")
    lo, hi = sample_quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0])
    return lo, hi


def _mean_and_scale_sq(values: np.ndarray) -> tuple[float, float]:
    count = values.shape[0]
    mean = float(values.mean())
    scale_sq = float(values.var(ddof=1)) / count
    return mean, scale_sq


def fold_posterior(
    fold_outcomes: np.ndarray,
    fold_features: np.ndarray,
    fold_unlabeled: np.ndarray,
    draw: RegressionDraw,
    fold_id: int = 0,
    unlabeled_rows: np.ndarray | None = None,
) -> FoldPosterior:
    """Exact per-fold posterior parameters for one regression draw.

    The bias component has location mean(Y - m(X)) over the labeled fold and
    squared scale var(Y - m(X)) / n_k; the imputed component is the analogue
    on the unlabeled fold predictions.  Both use df = rows - 1.

    Given ``unlabeled_rows``, ``fold_unlabeled`` is the whole unlabeled
    matrix and the fold is those rows of it: the draw is evaluated over the
    whole matrix and the fold's predictions are taken from that one vector,
    so the fold's rows are never gathered into a matrix of their own.
    """
    y = np.asarray(fold_outcomes, dtype=float)
    n_k = y.shape[0]
    n_u = (np.atleast_2d(fold_unlabeled).shape[0] if unlabeled_rows is None
           else len(unlabeled_rows))
    if n_k < 3 or n_u < 3:
        raise InsufficientDataError(
            f"fold {fold_id} needs >= 3 labeled and unlabeled rows, got ({n_k}, {n_u})"
        )
    resid = y - draw.evaluate(fold_features)
    mu_bias, scale_bias = _mean_and_scale_sq(resid)
    preds = draw.evaluate(fold_unlabeled)
    if unlabeled_rows is not None:
        preds = preds[unlabeled_rows]
    mu_imp, scale_imp = _mean_and_scale_sq(preds)
    return FoldPosterior(
        t_bias=TComponent(df=n_k - 1, location=mu_bias, scale_sq=scale_bias),
        t_imputed=TComponent(df=n_u - 1, location=mu_imp, scale_sq=scale_imp),
        fold_id=fold_id,
    )


def _check_draw_count(n_draws: int) -> int:
    if n_draws < MIN_POSTERIOR_DRAWS:
        raise InvalidParameterError(
            f"n_draws must be >= {MIN_POSTERIOR_DRAWS}, got {n_draws}"
        )
    return int(n_draws)


def _base_diagnostics(data: Dataset, rng: RngStream, n_draws: int, alpha: float) -> dict:
    diag = {
        "seed": rng.seed,
        "stream_id": rng.stream_id,
        "rng_algorithm": GENERATOR_NAME,
        "n_labeled": data.n,
        "n_unlabeled": data.n_unlabeled,
        "n_features": data.p,
        "n_draws": n_draws,
        "alpha": alpha,
    }
    if data.n_unlabeled <= data.n:
        diag["warning_n_ge_unlabeled"] = (
            "labeled size >= unlabeled size; efficiency gain is not guaranteed"
        )
    return diag


def _fold_diagnostics(fp: FoldPosterior, n_k: int, n_u: int, nuisance_meta: dict) -> dict:
    return {
        "fold": fp.fold_id,
        "n_labeled": n_k,
        "n_unlabeled": n_u,
        "bias_location": fp.t_bias.location,
        "bias_scale_sq": fp.t_bias.scale_sq,
        "bias_df": fp.t_bias.df,
        "imputed_location": fp.t_imputed.location,
        "imputed_scale_sq": fp.t_imputed.scale_sq,
        "imputed_df": fp.t_imputed.df,
        "nuisance": nuisance_meta,
    }


@_blas.one_thread()
def bdmi_cf(
    data: Dataset,
    n_folds: int,
    fitter: Fitter,
    n_draws: int,
    alpha: float,
    rng: RngStream,
) -> EstimationResult:
    """Cross-fitted debiased posterior: one nuisance draw per fold.

    Each fold fits the nuisance on its labeled complement, draws one
    regression function, forms the fold's t-convolution posterior on the
    held-out rows (the draw is evaluated over the whole unlabeled matrix, so
    no fold's unlabeled rows are copied), and contributes n_draws samples;
    aggregated draws are the across-fold averages.  The point estimate is
    the size-weighted closed-form combination of the fold centers, which
    equals the grand means of the residuals over the labeled data and the
    predictions over the unlabeled data.
    """
    n_draws = _check_draw_count(n_draws)
    started = time.perf_counter()
    plan = make_fold_plan(data.n, data.n_unlabeled, n_folds, rng.substream(0))
    per_fold = np.empty((plan.n_folds, n_draws))
    bias_total = 0.0
    imputed_total = 0.0
    fold_diags = []
    for k in range(plan.n_folds):
        fold_rng = rng.substream(k + 1)
        train = plan.train_sets[k]
        test_l = plan.labeled_folds[k]
        test_u = plan.unlabeled_folds[k]
        try:
            fit = fitter(data.features[train], data.outcomes[train], fold_rng.substream(_FIT))
        except SsmeanError as exc:
            exc.args = (f"fold {k}: {exc}",)
            raise
        mtilde = fit.sample(fold_rng.substream(_NUISANCE_DRAW))
        fp = fold_posterior(
            data.outcomes[test_l], data.features[test_l],
            data.unlabeled_features, mtilde, fold_id=k, unlabeled_rows=test_u,
        )
        per_fold[k] = sample_convolution(
            fp.t_bias, fp.t_imputed, n_draws, fold_rng.substream(_THETA_BIAS)
        )
        bias_total += len(test_l) * fp.t_bias.location
        imputed_total += len(test_u) * fp.t_imputed.location
        fold_diags.append(_fold_diagnostics(fp, len(test_l), len(test_u), fit.metadata))
    draws = per_fold.mean(axis=0)
    point = bias_total / data.n + imputed_total / data.n_unlabeled
    diagnostics = _base_diagnostics(data, rng, n_draws, alpha)
    diagnostics["n_folds"] = plan.n_folds
    diagnostics["folds"] = fold_diags
    diagnostics["elapsed_seconds"] = time.perf_counter() - started
    return EstimationResult(
        method="bdmi",
        draws=draws,
        point_estimate=point,
        ci=credible_interval(draws, alpha),
        alpha=alpha,
        diagnostics=diagnostics,
    )


def _conform_coef_draws(coef_draws: np.ndarray, p: int) -> np.ndarray:
    # intercept-only posteriors (constant/zero fixtures) act as zero coefficients
    if coef_draws.shape[1] == p + 1:
        return coef_draws
    if coef_draws.shape[1] == 1:
        return np.column_stack([coef_draws, np.zeros((coef_draws.shape[0], p))])
    raise InvalidParameterError(
        f"nuisance draws have width {coef_draws.shape[1]}, expected {p + 1}"
    )


def _fold_moments(
    coef_draws: np.ndarray,
    fold_outcomes: np.ndarray,
    fold_features: np.ndarray,
    fold_unlabeled: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-draw fold moments of many linear draws, from two small R factors.

    For a draw (a, b) the labeled residuals y - a - X b have mean
    ybar - a - b'xbar and sample variance |R_l (1, -b)|^2 / (n_k - 1), with
    R_l the R factor of [y, X] centred on its column means; the unlabeled
    predictions have mean a + b'xbar_u and variance |R_u b|^2 / (n_u - 1).
    Householder QR is backward stable (Higham 2002, ch. 19) and a sum of
    squares cannot cancel, so unlike the quadratic form b'Sb this needs no
    fallback on near-exact fits.  Returns (mu_bias, scale_bias, mu_imp,
    scale_imp) as ``fold_posterior`` defines them, one entry per row of
    ``coef_draws``.
    """
    n_k, n_u = fold_features.shape[0], fold_unlabeled.shape[0]
    labeled = np.column_stack([fold_outcomes, fold_features])
    labeled_mean = labeled.mean(axis=0)
    unlabeled_mean = fold_unlabeled.mean(axis=0)
    labeled_c = labeled - labeled_mean
    unlabeled_c = fold_unlabeled - unlabeled_mean
    # R has min(rows, columns) rows, so a fold narrower than p + 1 needs no special case
    r_labeled = np.linalg.qr(labeled_c, mode="r")
    r_unlabeled = np.linalg.qr(unlabeled_c, mode="r")
    intercepts, slopes = coef_draws[:, 0], coef_draws[:, 1:]
    resid_coef = np.column_stack([np.ones(coef_draws.shape[0]), -slopes])
    scale_bias = np.square(r_labeled @ resid_coef.T).sum(axis=0) / (n_k - 1) / n_k
    scale_imp = np.square(r_unlabeled @ slopes.T).sum(axis=0) / (n_u - 1) / n_u
    # far from the origin a location cancels (the intercept carries -b'xbar); so that
    # it stays as accurate as an average of n_u rounded predictions, the means gain
    # their rounding remainder from the centred data and the sums run in extended
    # precision where the platform has it
    ext = np.longdouble
    labeled_mean_ext = labeled_mean.astype(ext) + labeled_c.mean(axis=0)
    unlabeled_mean_ext = unlabeled_mean.astype(ext) + unlabeled_c.mean(axis=0)
    mu_bias = (labeled_mean_ext[0] - intercepts - slopes @ labeled_mean_ext[1:]).astype(float)
    mu_imp = (intercepts + slopes @ unlabeled_mean_ext).astype(float)
    return mu_bias, scale_bias, mu_imp, scale_imp


@_blas.one_thread()
def hbdmi_cf(
    data: Dataset,
    n_folds: int,
    fitter: Fitter,
    n_draws: int,
    alpha: float,
    rng: RngStream,
) -> EstimationResult:
    """Hierarchical variant: a fresh nuisance draw for every posterior sample.

    Per fold, n_draws regression functions are drawn; each induces its own
    fold posterior from which a single sample is taken.  The fold moments of
    all draws come from two R factors of the centred fold data (see
    ``_fold_moments``), not from n_draws x n_u prediction matrices.  The
    point estimate plugs the nuisance posterior mean into the fold-center
    formula (size-weighted across folds).
    """
    n_draws = _check_draw_count(n_draws)
    started = time.perf_counter()
    plan = make_fold_plan(data.n, data.n_unlabeled, n_folds, rng.substream(0))
    per_fold = np.empty((plan.n_folds, n_draws))
    bias_total = 0.0
    imputed_total = 0.0
    fold_diags = []
    for k in range(plan.n_folds):
        fold_rng = rng.substream(k + 1)
        train = plan.train_sets[k]
        test_l = plan.labeled_folds[k]
        test_u = plan.unlabeled_folds[k]
        n_k, n_u = len(test_l), len(test_u)
        try:
            fit = fitter(data.features[train], data.outcomes[train], fold_rng.substream(_FIT))
        except SsmeanError as exc:
            exc.args = (f"fold {k}: {exc}",)
            raise
        coef_draws = _conform_coef_draws(
            fit.sample_many(n_draws, fold_rng.substream(_NUISANCE_DRAW)), data.p
        )
        y_k, x_k = data.outcomes[test_l], data.features[test_l]
        u_k = data.unlabeled_features[test_u]
        mu_bias, scale_bias, mu_imp, scale_imp = _fold_moments(coef_draws, y_k, x_k, u_k)
        per_fold[k] = sample_student_t_each(
            n_k - 1, mu_bias, scale_bias, fold_rng.substream(_THETA_BIAS)
        ) + sample_student_t_each(
            n_u - 1, mu_imp, scale_imp, fold_rng.substream(_THETA_IMPUTED)
        )
        mhat = fit.posterior_mean()
        fold_resid_mean = float(np.mean(y_k - mhat.evaluate(x_k)))
        fold_pred_mean = float(np.mean(mhat.evaluate(u_k)))
        bias_total += n_k * fold_resid_mean
        imputed_total += n_u * fold_pred_mean
        fold_diags.append(
            {
                "fold": k,
                "n_labeled": n_k,
                "n_unlabeled": n_u,
                "bias_location_mean": float(mu_bias.mean()),
                "imputed_location_mean": float(mu_imp.mean()),
                "nuisance": fit.metadata,
            }
        )
    draws = per_fold.mean(axis=0)
    point = bias_total / data.n + imputed_total / data.n_unlabeled
    diagnostics = _base_diagnostics(data, rng, n_draws, alpha)
    diagnostics["n_folds"] = plan.n_folds
    diagnostics["folds"] = fold_diags
    diagnostics["elapsed_seconds"] = time.perf_counter() - started
    return EstimationResult(
        method="hbdmi",
        draws=draws,
        point_estimate=point,
        ci=credible_interval(draws, alpha),
        alpha=alpha,
        diagnostics=diagnostics,
    )


def supervised_posterior(
    data: Dataset, n_draws: int, alpha: float, rng: RngStream
) -> EstimationResult:
    """Labeled-data-only baseline: a t posterior centred at the sample mean."""
    n_draws = _check_draw_count(n_draws)
    started = time.perf_counter()
    y = data.outcomes
    n = y.shape[0]
    if n < 3:
        raise InsufficientDataError(f"supervised posterior needs >= 3 outcomes, got {n}")
    ybar = float(y.mean())
    comp = TComponent(df=n - 1, location=ybar, scale_sq=float(y.var(ddof=1)) / n)
    draws = sample_student_t(comp, n_draws, rng.substream(1))
    diagnostics = _base_diagnostics(data, rng, n_draws, alpha)
    diagnostics["posterior"] = {"df": comp.df, "location": comp.location, "scale_sq": comp.scale_sq}
    diagnostics["elapsed_seconds"] = time.perf_counter() - started
    return EstimationResult(
        method="sup",
        draws=draws,
        point_estimate=ybar,
        ci=credible_interval(draws, alpha),
        alpha=alpha,
        diagnostics=diagnostics,
    )


@_blas.one_thread()
def imputation_posterior(
    data: Dataset,
    fitter: Fitter,
    n_draws: int,
    alpha: float,
    rng: RngStream,
) -> EstimationResult:
    """Imputation baseline: average nuisance predictions over the unlabeled rows.

    The nuisance is fitted on all labeled rows (no splitting); each posterior
    draw is the unlabeled-data mean of one sampled regression function.  This
    construction is sensitive to the nuisance posterior and is shipped as a
    contrast, not as a recommended estimator.

    For a linear nuisance with posterior mean mhat = (a, b) the point
    estimate a + b'xbar_u equals ybar_l + b'(xbar_u - xbar_l) minus the
    labeled-sample mean residual mean(y_l - mhat(X_l)).  The flat-prior
    intercepts of ``bols`` and ``bridge`` make that residual zero, so with
    them this is the classical difference estimator
    ybar_l + b'(xbar_u - xbar_l), unbiased under Gaussian features however
    hard b is shrunk.  The baseline is biased only by a nuisance whose
    labeled-sample mean residual is not zero, such as one whose prior also
    shrinks the intercept.
    """
    n_draws = _check_draw_count(n_draws)
    started = time.perf_counter()
    fit = fitter(data.features, data.outcomes, rng.substream(1))
    coef_draws = _conform_coef_draws(fit.sample_many(n_draws, rng.substream(2)), data.p)
    aug_mean = np.concatenate([[1.0], data.unlabeled_features.mean(axis=0)])
    draws = coef_draws @ aug_mean
    mhat = fit.posterior_mean()
    point = float(mhat.evaluate(data.unlabeled_features).mean())
    diagnostics = _base_diagnostics(data, rng, n_draws, alpha)
    diagnostics["nuisance"] = fit.metadata
    diagnostics["elapsed_seconds"] = time.perf_counter() - started
    return EstimationResult(
        method="imp",
        draws=draws,
        point_estimate=point,
        ci=credible_interval(draws, alpha),
        alpha=alpha,
        diagnostics=diagnostics,
    )


def variance_report(data: Dataset, mhat: RegressionDraw) -> dict:
    """Plug-in variance decomposition for a fitted regression mean.

    Reports the residual variance over the labeled data, the prediction
    variance over the unlabeled data, the combined posterior variance proxy,
    the supervised variance, the residual-prediction covariance (the
    orthogonality quantity behind the efficiency guarantee), and the implied
    efficiency ratio.
    """
    y = data.outcomes
    n, n_u = data.n, data.n_unlabeled
    resid = y - mhat.evaluate(data.features)
    preds_unlabeled = mhat.evaluate(data.unlabeled_features)
    sigma1_sq = float(resid.var(ddof=1))
    sigma2_sq = float(preds_unlabeled.var(ddof=1))
    tau_sq = sigma1_sq / n + sigma2_sq / n_u
    supervised_variance = float(y.var(ddof=1)) / n
    preds_labeled = mhat.evaluate(data.features)
    cov = float(np.cov(resid, preds_labeled, ddof=1)[0, 1]) if n > 1 else math.nan
    return {
        "sigma1_sq": sigma1_sq,
        "sigma2_sq": sigma2_sq,
        "tau_sq": tau_sq,
        "supervised_variance": supervised_variance,
        "residual_prediction_cov": cov,
        "efficiency_ratio": supervised_variance / tau_sq if tau_sq > 0 else math.inf,
    }
