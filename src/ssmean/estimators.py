"""Posterior constructions for the population mean.

Four methods are provided: the cross-fitted debiased posterior (``bdmi``),
its hierarchical variant that redraws the regression function for every
posterior sample (``hbdmi``), the labeled-data-only baseline (``sup``), and
the imputation baseline that averages nuisance predictions over the
unlabeled rows (``imp``).

Fold pipelines draw from substreams keyed by fold index, so sequential and
parallel execution of the folds produce identical output for a fixed seed.
Each method runs its fits first; one pass over the unlabeled rows, read in
blocks, then feeds it and any other methods run on the same rows
(``unlabeled_pass``), and each samples last.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import _blas
from .data import MIN_FOLD_ROWS, Dataset, make_fold_plan, row_blocks
from .errors import DimensionMismatchError, InsufficientDataError, InvalidParameterError, SsmeanError
from .nuisance import Fitter
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
    "unlabeled_pass",
    "STARTS",
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


def _predict(row: np.ndarray, features: np.ndarray) -> np.ndarray:
    preds = features @ row[1:]
    preds += row[0]  # in place: one vector of predictions, not two
    return preds


def fold_posterior(
    fold_outcomes: np.ndarray,
    fold_features: np.ndarray,
    fold_unlabeled: np.ndarray,
    draw: np.ndarray,
    fold_id: int = 0,
) -> FoldPosterior:
    """Exact per-fold posterior parameters for one regression draw.

    ``draw`` is a coefficient row [intercept, coefficients...].  The bias
    component has location mean(Y - m(X)) over the labeled fold and squared
    scale var(Y - m(X)) / n_k; the imputed component is the analogue on the
    predictions over ``fold_unlabeled``, the fold's n_u x p unlabeled
    features.  Both use df = rows - 1.  This is the closed form on a
    gathered fold; ``bdmi_cf`` reaches the same components, up to rounding,
    from running summaries of the fold (see ``_fold_moments``).
    """
    y = np.asarray(fold_outcomes, dtype=float)
    n_k = y.shape[0]
    n_u = fold_unlabeled.shape[0]
    if min(n_k, n_u) < MIN_FOLD_ROWS:
        raise InsufficientDataError(
            f"fold {fold_id} needs >= {MIN_FOLD_ROWS} labeled and unlabeled rows, "
            f"got ({n_k}, {n_u})"
        )
    mu_bias, scale_bias = _mean_and_scale_sq(y - _predict(draw, fold_features))
    mu_imp, scale_imp = _mean_and_scale_sq(_predict(draw, fold_unlabeled))
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


def _check_width(rows: np.ndarray, p: int) -> np.ndarray:
    """A fitter's coefficient rows, checked to be p + 1 wide."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim not in (1, 2) or rows.shape[-1] != p + 1:
        raise DimensionMismatchError(
            f"nuisance rows have shape {rows.shape}; expected width {p + 1}, "
            "an intercept and one coefficient per feature"
        )
    return rows


def _base_diagnostics(method: str, data: Dataset, rng: RngStream, n_draws: int,
                      alpha: float) -> dict:
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
    # the supervised posterior reads no unlabeled row, so it has no gain to lose
    if method != "sup" and data.n_unlabeled <= data.n:
        diag["warning_n_ge_unlabeled"] = (
            "labeled size >= unlabeled size; efficiency gain is not guaranteed"
        )
    return diag


def _result(method: str, draws: np.ndarray, point: float, alpha: float,
            diagnostics: dict) -> EstimationResult:
    return EstimationResult(
        method=method,
        draws=draws,
        point_estimate=point,
        ci=credible_interval(draws, alpha),
        alpha=alpha,
        diagnostics=diagnostics,
    )


def unlabeled_pass(unlabeled, started: list) -> list[EstimationResult]:
    """Feed the unlabeled rows, read once in blocks, to every started method; finish each.

    A method's start runs its fits and every draw that needs no unlabeled
    row, and returns ``(add, finish)``: ``add(block, start)`` takes a block
    of rows whose first is row ``start``, and ``finish()`` samples and
    returns the method's ``EstimationResult``.  The rows are read even when
    no method needs them, so a bad row is reported whatever the methods.
    """
    start = 0
    for block in row_blocks(unlabeled):
        for add, _ in started:
            add(block, start)
        start += len(block)
        del block  # not held while the next block is parsed
    return [finish() for _, finish in started]


def _start_cross_fit(method, start_fold, data, n_folds, fitter, n_draws, alpha, rng):
    """The fold loop of ``bdmi`` and ``hbdmi``: the fold plan, every fold's fit and summaries.

    Each fold fits the nuisance on its labeled complement, and
    ``start_fold(fit, n_draws, fold_rng)`` returns ``columns(features)``,
    the columns the fold keeps a ``_Scatter`` of, labeled as [y, columns]
    and unlabeled block by block; ``rows()``, the coefficient rows whose
    ``_fold_moments`` it takes, the last for the point estimate; and
    ``sample(n_k, n_u, *moments)``, which returns the fold's n_draws
    posterior samples and diagnostics.  Aggregated draws are the across-fold
    averages; the point estimate is the size-weighted combination of the
    fold locations.
    """
    n_draws = _check_draw_count(n_draws)
    # each row's fold, a byte a row up to 256 folds
    labeled_fold, fold_of = make_fold_plan(data.n, data.n_unlabeled, n_folds, rng.substream(0))
    folds = []
    for k in range(int(n_folds)):
        train, test = np.flatnonzero(labeled_fold != k), np.flatnonzero(labeled_fold == k)
        fold_rng = rng.substream(k + 1)
        try:
            fit = fitter(data.features[train], data.outcomes[train], fold_rng.substream(_FIT))
        except SsmeanError as exc:
            exc.args = (f"fold {k}: {exc}",)
            raise
        metadata = fit.metadata
        columns, rows, sample = start_fold(fit, n_draws, fold_rng)
        del fit  # the fold's start kept what it needs, so the next fit does not wait beside it
        fold = np.column_stack([data.outcomes[test], columns(data.features[test])])
        labeled, unlabeled = _Scatter(fold.shape[1]), _Scatter(fold.shape[1] - 1)
        labeled.add(fold, np.arange(len(test)))
        folds.append((columns, rows, sample, labeled, unlabeled, metadata))

    def add(block, start):
        labels = fold_of[start : start + len(block)]
        for k, (columns, _, _, _, unlabeled, _) in enumerate(folds):
            unlabeled.add(columns(block), np.flatnonzero(labels == k))

    def finish():
        per_fold = np.empty((len(folds), n_draws))
        bias_total = 0.0
        imputed_total = 0.0
        fold_diags = []
        for k, (_, rows, sample, labeled, unlabeled, metadata) in enumerate(folds):
            moments = _fold_moments(rows(), labeled, unlabeled)
            per_fold[k], diag = sample(labeled.count, unlabeled.count, *moments)
            bias_total += labeled.count * float(moments[0][-1])
            imputed_total += unlabeled.count * float(moments[2][-1])
            fold_diags.append({"fold": k, "n_labeled": labeled.count,
                               "n_unlabeled": unlabeled.count, **diag, "nuisance": metadata})
        diagnostics = _base_diagnostics(method, data, rng, n_draws, alpha)
        diagnostics["n_folds"] = len(folds)
        diagnostics["folds"] = fold_diags
        point = bias_total / data.n + imputed_total / data.n_unlabeled
        return _result(method, per_fold.mean(axis=0), point, alpha, diagnostics)

    return add, finish


def _start_bdmi(data, fitter, n_folds, n_draws, alpha, rng):
    def start_fold(fit, n_draws, fold_rng):
        draw = _check_width(fit.sample_many(1, fold_rng.substream(_NUISANCE_DRAW)), data.p)[0]

        def sample(n_k, n_u, mu_bias, scale_bias, mu_imp, scale_imp):
            t_bias = TComponent(n_k - 1, float(mu_bias[0]), float(scale_bias[0]))
            t_imputed = TComponent(n_u - 1, float(mu_imp[0]), float(scale_imp[0]))
            draws = sample_convolution(t_bias, t_imputed, n_draws, fold_rng.substream(_THETA_BIAS))
            # bias_df, bias_location, bias_scale_sq, and the same for imputed
            diag = {f"{side}_{key}": value
                    for side, comp in (("bias", t_bias), ("imputed", t_imputed))
                    for key, value in asdict(comp).items()}
            return draws, diag

        # one column, the draw's predictions, whose moments the row (0, 1) takes
        return (lambda X: _predict(draw, X)[:, None]), (lambda: np.array([[0.0, 1.0]])), sample

    return _start_cross_fit("bdmi", start_fold, data, n_folds, fitter, n_draws, alpha, rng)


@_blas.one_thread()
def bdmi_cf(data: Dataset, n_folds: int, fitter: Fitter, n_draws: int, alpha: float,
            rng: RngStream) -> EstimationResult:
    """Cross-fitted debiased posterior: one nuisance draw per fold.

    Each fold fits the nuisance on its labeled complement, draws one
    regression function, forms the fold's t-convolution posterior on the
    held-out rows, and contributes n_draws samples; aggregated draws are the
    across-fold averages.  The draw is evaluated over each block of
    unlabeled rows, and the fold merges its rows' predictions into a running
    mean and R factor (``_Scatter``), as ``hbdmi_cf`` merges its features; so
    its t components are ``fold_posterior``'s on the gathered fold, up to
    rounding.  The point estimate is the size-weighted combination of the
    fold centers: the grand means of the residuals over the labeled data and
    the predictions over the unlabeled data.
    """
    started = _start_bdmi(data, fitter, n_folds, n_draws, alpha, rng)
    return unlabeled_pass(data.unlabeled_features, [started])[0]


class _Scatter:
    """Running count, column means and R factor of the centred rows added so far.

    A block of n_b rows, centred on its own means as C, merges into n_a rows
    as R <- qr([R; C; sqrt(n_a n_b / n) (xbar_b - xbar_a)]): the scatter
    matrices add, plus the mean-difference term (Chan, Golub & LeVeque 1983),
    in the TSQR form of Demmel, Grigori, Hoemmen & Langou (SIAM J. Sci.
    Comput. 2012).  Far from the origin a location cancels (the intercept
    carries -b'xbar); so that it stays as accurate as an average of rounded
    predictions, each block's means gain their rounding remainder from C and
    are merged in extended precision where the platform has it.
    """

    def __init__(self, width: int):
        self.count = 0
        self.mean = np.zeros(width, dtype=np.longdouble)
        self.r = np.empty((0, width))

    def add(self, matrix: np.ndarray, rows: np.ndarray) -> None:
        """Merge in ``matrix[rows]``, gathered straight into the stack that QR takes."""
        n_b, r = len(rows), self.r.shape[0]
        if n_b == 0:
            return
        stack = np.empty((r + n_b + 1, matrix.shape[1]))
        stack[:r] = self.r
        # the rows are in range; the default mode="raise" would gather through a buffer
        centred = matrix.take(rows, axis=0, out=stack[r:-1], mode="clip")
        block_mean = centred.mean(axis=0)
        centred -= block_mean
        delta = block_mean.astype(np.longdouble) + centred.sum(axis=0) / n_b - self.mean
        n = self.count + n_b
        stack[-1] = np.sqrt(self.count * n_b / n) * delta
        self.r = np.linalg.qr(stack, mode="r")
        self.mean += delta * (n_b / n)
        self.count = n


def _fold_moments(
    coef_draws: np.ndarray, labeled: _Scatter, unlabeled: _Scatter
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-draw fold moments of many linear draws, from two small R factors.

    ``labeled`` holds the fold's [y, X] rows and ``unlabeled`` its unlabeled
    rows; X is the features, or one column of a draw's predictions, whose
    moments the row (0, 1) takes.  For a draw (a, b) the labeled residuals y - a - X b have mean
    ybar - a - b'xbar and sample variance |R_l (1, -b)|^2 / (n_k - 1), with
    R_l the R factor of the centred [y, X] rows; the unlabeled predictions
    have mean a + b'xbar_u and variance |R_u b|^2 / (n_u - 1).  Householder
    QR is backward stable (Higham 2002, ch. 19) and a sum of squares cannot
    cancel, so unlike the quadratic form b'Sb this needs no fallback on
    near-exact fits.  Returns (mu_bias, scale_bias, mu_imp, scale_imp) as
    ``fold_posterior`` defines them, one entry per row of ``coef_draws``.
    """
    n_k, n_u = labeled.count, unlabeled.count
    intercepts, slopes = coef_draws[:, 0], coef_draws[:, 1:]
    mu_bias = (labeled.mean[0] - intercepts - slopes @ labeled.mean[1:]).astype(float)
    mu_imp = (intercepts + slopes @ unlabeled.mean).astype(float)
    # R_l (1, -b) in place, and squared column norms by einsum, so that about one
    # array of the draws' size is held at a time
    resid = labeled.r[:, 1:] @ slopes.T
    np.subtract(labeled.r[:, :1], resid, out=resid)
    scale_bias = np.einsum("ij,ij->j", resid, resid) / (n_k - 1) / n_k
    del resid
    preds = unlabeled.r @ slopes.T
    scale_imp = np.einsum("ij,ij->j", preds, preds) / (n_u - 1) / n_u
    return mu_bias, scale_bias, mu_imp, scale_imp


def _held_bytes(fit) -> int:
    """Bytes of the arrays a fit holds, such as a Gibbs fit's retained sweeps."""
    return sum(value.nbytes for value in vars(fit).values() if isinstance(value, np.ndarray))


def _rows_after_the_pass(fit, draw, n_rows: int, p: int):
    """``draw``, or the rows it draws now when the fit holds more bytes than they would.

    A method whose n_rows x (p + 1) coefficient rows are needed only after
    the unlabeled pass holds the smaller of its fit and its rows through it:
    a linear fit is a vector and a square factor, a Gibbs fit its retained
    sweeps.  ``draw`` must be the caller's only hold on the fit.
    """
    if _held_bytes(fit) > n_rows * (p + 1) * 8:
        rows = draw()
        return lambda: rows
    return draw


def _start_hbdmi(data, fitter, n_folds, n_draws, alpha, rng):
    def start_fold(fit, n_draws, fold_rng):
        mean_row = _check_width(fit.posterior_mean(), data.p)

        def draw():
            return np.vstack([_check_width(
                fit.sample_many(n_draws, fold_rng.substream(_NUISANCE_DRAW)), data.p), mean_row])

        def sample(n_k, n_u, mu_bias, scale_bias, mu_imp, scale_imp):
            draws = sample_student_t_each(
                n_k - 1, mu_bias[:-1], scale_bias[:-1], fold_rng.substream(_THETA_BIAS)
            ) + sample_student_t_each(
                n_u - 1, mu_imp[:-1], scale_imp[:-1], fold_rng.substream(_THETA_IMPUTED)
            )
            return draws, {"bias_location_mean": float(mu_bias[:-1].mean()),
                           "imputed_location_mean": float(mu_imp[:-1].mean())}

        rows = _rows_after_the_pass(fit, draw, n_draws + 1, data.p)
        return (lambda X: X), rows, sample

    return _start_cross_fit("hbdmi", start_fold, data, n_folds, fitter, n_draws, alpha, rng)


@_blas.one_thread()
def hbdmi_cf(data: Dataset, n_folds: int, fitter: Fitter, n_draws: int, alpha: float,
             rng: RngStream) -> EstimationResult:
    """Hierarchical variant: a fresh nuisance draw for every posterior sample.

    Per fold, n_draws regression functions are drawn; each induces its own
    fold posterior from which a single sample is taken.  The fold moments of
    all draws come from two R factors of the centred fold data (see
    ``_fold_moments``), not from n_draws x n_u prediction matrices; the
    unlabeled one is merged block by block (see ``_Scatter``).  The
    point estimate plugs the nuisance posterior mean, taken as one more row
    of the same moments, into the fold-center formula (size-weighted across
    folds).  A fold's rows are drawn after the pass over the unlabeled rows,
    unless its fit holds more numbers than they do.
    """
    started = _start_hbdmi(data, fitter, n_folds, n_draws, alpha, rng)
    return unlabeled_pass(data.unlabeled_features, [started])[0]


def supervised_posterior(
    data: Dataset, n_draws: int, alpha: float, rng: RngStream
) -> EstimationResult:
    """Labeled-data-only baseline: a t posterior centred at the sample mean."""
    n_draws = _check_draw_count(n_draws)
    y = data.outcomes
    n = y.shape[0]
    if n < MIN_FOLD_ROWS:
        raise InsufficientDataError(
            f"supervised posterior needs >= {MIN_FOLD_ROWS} outcomes, got {n}"
        )
    ybar = float(y.mean())
    comp = TComponent(df=n - 1, location=ybar, scale_sq=float(y.var(ddof=1)) / n)
    draws = sample_student_t(comp, n_draws, rng.substream(1))
    diagnostics = _base_diagnostics("sup", data, rng, n_draws, alpha)
    diagnostics["posterior"] = {"df": comp.df, "location": comp.location, "scale_sq": comp.scale_sq}
    return _result("sup", draws, ybar, alpha, diagnostics)


def _start_supervised(data, fitter, n_folds, n_draws, alpha, rng):
    return (lambda block, start: None), (lambda: supervised_posterior(data, n_draws, alpha, rng))


def _start_imputation(data, fitter, n_folds, n_draws, alpha, rng):
    n_draws = _check_draw_count(n_draws)
    fit = fitter(data.features, data.outcomes, rng.substream(1))
    mean_row = _check_width(fit.posterior_mean(), data.p)
    metadata = fit.metadata

    def draw():
        return _check_width(fit.sample_many(n_draws, rng.substream(2)), data.p)

    rows = _rows_after_the_pass(fit, draw, n_draws, data.p)
    total = np.zeros(data.p)

    def finish():
        aug_mean = np.concatenate([[1.0], total / data.n_unlabeled])
        draws = rows() @ aug_mean
        point = float(mean_row @ aug_mean)
        diagnostics = _base_diagnostics("imp", data, rng, n_draws, alpha)
        diagnostics["nuisance"] = metadata
        return _result("imp", draws, point, alpha, diagnostics)

    return (lambda block, start: np.add(total, block.sum(axis=0), out=total)), finish


@_blas.one_thread()
def imputation_posterior(data: Dataset, fitter: Fitter, n_draws: int, alpha: float,
                         rng: RngStream) -> EstimationResult:
    """Imputation baseline: average nuisance predictions over the unlabeled rows.

    The nuisance is fitted on all labeled rows (no splitting); each posterior
    draw is the unlabeled-data mean of one sampled regression function, and
    the point estimate that of the posterior mean.  Both come from the
    column means of the unlabeled rows, summed block by block after the
    fit.  The rows are drawn after that pass, unless the fit holds more
    numbers than they do.  This construction is sensitive to the nuisance
    posterior and is shipped as a contrast, not as a recommended estimator.

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
    started = _start_imputation(data, fitter, None, n_draws, alpha, rng)
    return unlabeled_pass(data.unlabeled_features, [started])[0]


# method family -> start(data, fitter, n_folds, n_draws, alpha, rng), which runs the
# method's work before the unlabeled rows are read (see ``unlabeled_pass``)
STARTS = {"sup": _start_supervised, "bdmi": _start_bdmi, "hbdmi": _start_hbdmi,
          "imp": _start_imputation}
# the families whose start splits the rows into folds (``_start_cross_fit``)
CROSS_FITTED = ("bdmi", "hbdmi")
