import math

import numpy as np
import pytest
from _oracles import convolution_quantiles, hbdmi_fold_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmean import (
    Dataset,
    RegressionDraw,
    RngStream,
    SimDesign,
    TComponent,
    bdmi_cf,
    credible_interval,
    fold_posterior,
    generate_dataset,
    hbdmi_cf,
    imputation_posterior,
    make_fitter,
    sample_convolution,
    sample_normal,
    sample_quantile,
    supervised_posterior,
    variance_report,
    zero_nuisance,
)
from ssmean.nuisance import constant_nuisance
from ssmean.errors import InsufficientDataError, InvalidParameterError
from ssmean.estimators import _conform_coef_draws, _fold_moments
from ssmean.simulation import signal_coefficients

RNG = RngStream(555001)


def _toy_dataset(seed=0, n=40, n_unlabeled=200, p=2):
    gen = RngStream(seed, 77).generator()
    X = gen.normal(size=(n, p))
    y = 1.0 + X @ np.linspace(1.0, 0.0, p) + 0.5 * gen.normal(size=n)
    Xu = gen.normal(size=(n_unlabeled, p))
    return Dataset(y, X, Xu)


def _const_fitter(value):
    return lambda X, y, rng: constant_nuisance(value)


def _zero_fitter(X, y, rng):
    return zero_nuisance()


class TestFoldPosterior:
    def test_hand_example(self):
        # labeled residuals [0.5, 1.5, 2.5]; unlabeled predictions [2, 4, 6]
        draw = RegressionDraw(0.5, np.array([1.0]))
        fp = fold_posterior(
            np.array([1.0, 2.0, 3.0]),
            np.zeros((3, 1)),
            np.array([[1.5], [3.5], [5.5]]),
            draw,
        )
        assert fp.t_bias.df == 2
        assert fp.t_bias.location == pytest.approx(1.5)
        assert fp.t_bias.scale_sq == pytest.approx(1 / 3)
        assert fp.t_imputed.df == 2
        assert fp.t_imputed.location == pytest.approx(4.0)
        assert fp.t_imputed.scale_sq == pytest.approx(4 / 3)
        assert fp.center() == pytest.approx(5.5)

    def test_zero_nuisance_collapses_imputed_part(self):
        y = np.array([2.0, 4.0, 9.0, 1.0])
        draw = zero_nuisance().posterior_mean()
        fp = fold_posterior(y, np.zeros((4, 1)), np.zeros((6, 1)), draw)
        assert fp.t_imputed.df == 5
        assert fp.t_imputed.location == 0.0
        assert fp.t_imputed.scale_sq == 0.0
        assert fp.center() == pytest.approx(y.mean())

    def test_constant_shift_invariance(self):
        gen = RNG.substream(1).generator()
        y = gen.normal(size=8)
        X = gen.normal(size=(8, 2))
        Xu = gen.normal(size=(9, 2))
        coef = np.array([0.4, -1.2])
        base = fold_posterior(y, X, Xu, RegressionDraw(0.7, coef))
        shifted = fold_posterior(y, X, Xu, RegressionDraw(0.7 + 11.5, coef))
        assert shifted.center() == pytest.approx(base.center(), abs=1e-12)
        assert shifted.t_bias.scale_sq == pytest.approx(base.t_bias.scale_sq, abs=1e-12)
        assert shifted.t_imputed.scale_sq == pytest.approx(base.t_imputed.scale_sq, abs=1e-12)
        assert shifted.t_bias.location == pytest.approx(base.t_bias.location - 11.5, abs=1e-12)
        assert shifted.t_imputed.location == pytest.approx(base.t_imputed.location + 11.5, abs=1e-12)

    def test_small_fold_rejected(self):
        with pytest.raises(InsufficientDataError):
            fold_posterior(
                np.array([1.0, 2.0]), np.zeros((2, 1)), np.zeros((5, 1)),
                zero_nuisance().posterior_mean(),
            )


class TestCredibleInterval:
    def test_constant_draws(self):
        lo, hi = credible_interval(np.full(500, 3.2), 0.05)
        assert lo == hi == 3.2

    def test_normal_quantiles(self):
        draws = sample_normal(0.0, 1.0, 10**6, RNG.substream(2))
        lo, hi = credible_interval(draws, 0.05)
        assert lo == pytest.approx(-1.96, abs=0.01)
        assert hi == pytest.approx(1.96, abs=0.01)

    def test_symmetric_about_median(self):
        draws = sample_normal(2.0, 4.0, 10**5, RNG.substream(3))
        lo, hi = credible_interval(draws, 0.1)
        med = sample_quantile(draws, 0.5)
        assert (med - lo) == pytest.approx(hi - med, abs=0.05)

    def test_alpha_validation(self):
        with pytest.raises(InvalidParameterError):
            credible_interval(np.ones(10), 1.5)


class TestSupervised:
    def test_three_point_posterior(self):
        data = Dataset(np.array([1.0, 2.0, 3.0]), np.zeros((3, 1)), np.ones((1, 1)))
        result = supervised_posterior(data, 2000, 0.05, RNG.substream(4))
        assert result.point_estimate == pytest.approx(2.0)
        post = result.diagnostics["posterior"]
        assert post["df"] == 2
        assert post["location"] == pytest.approx(2.0)
        assert post["scale_sq"] == pytest.approx(1 / 3)

    def test_constant_outcomes_point_mass(self):
        data = Dataset(np.full(5, 4.0), np.zeros((5, 1)), np.ones((1, 1)))
        result = supervised_posterior(data, 500, 0.05, RNG.substream(5))
        assert result.ci == (4.0, 4.0)

    def test_too_few_outcomes(self):
        data = Dataset(np.array([1.0, 2.0]), np.zeros((2, 1)), np.ones((1, 1)))
        with pytest.raises(InsufficientDataError):
            supervised_posterior(data, 500, 0.05, RNG)


class TestBdmiCf:
    def test_zero_nuisance_recovers_grand_mean(self):
        data = _toy_dataset(seed=11)
        result = bdmi_cf(data, 4, _zero_fitter, 200, 0.05, RNG.substream(6))
        assert result.point_estimate == pytest.approx(data.outcomes.mean(), abs=1e-12)

    def test_constant_nuisance_cancels(self):
        data = _toy_dataset(seed=12)
        for c in (-3.0, 0.5, 42.0):
            result = bdmi_cf(data, 5, _const_fitter(c), 200, 0.05, RNG.substream(7))
            assert result.point_estimate == pytest.approx(data.outcomes.mean(), abs=1e-12)

    def test_point_estimate_matches_draw_mean(self):
        fitter = make_fitter("bols")
        for seed in range(5):
            data = _toy_dataset(seed=seed)
            result = bdmi_cf(data, 4, fitter, 4000, 0.05, RngStream(seed, 5))
            draws = result.draws
            tol = 4 * draws.std() / math.sqrt(draws.shape[0])
            assert abs(result.point_estimate - draws.mean()) <= tol

    def test_determinism(self):
        data = _toy_dataset(seed=13)
        fitter = make_fitter("bols")
        a = bdmi_cf(data, 4, fitter, 300, 0.05, RngStream(99))
        b = bdmi_cf(data, 4, fitter, 300, 0.05, RngStream(99))
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.point_estimate == b.point_estimate
        assert a.ci == b.ci

    def test_draw_count_floor(self):
        data = _toy_dataset()
        with pytest.raises(InvalidParameterError):
            bdmi_cf(data, 4, _zero_fitter, 99, 0.05, RNG)

    def test_unlabeled_smaller_than_labeled_flagged(self):
        data = _toy_dataset(seed=14, n=60, n_unlabeled=30)
        result = bdmi_cf(data, 4, _zero_fitter, 200, 0.05, RNG.substream(8))
        assert "warning_n_ge_unlabeled" in result.diagnostics

    def test_fold_error_annotated(self):
        data = _toy_dataset(seed=15, n=24, p=4)

        def failing(X, y, rng):
            raise InvalidParameterError("boom")

        with pytest.raises(InvalidParameterError, match="fold 0"):
            bdmi_cf(data, 4, failing, 200, 0.05, RNG)


class TestHbdmiCf:
    def test_constant_nuisance_matches_bdmi_exactly_in_center(self):
        data = _toy_dataset(seed=16)
        h = hbdmi_cf(data, 4, _const_fitter(5.0), 400, 0.05, RNG.substream(9))
        assert h.point_estimate == pytest.approx(data.outcomes.mean(), abs=1e-12)

    def test_constant_nuisance_distribution_matches_bdmi(self):
        # a single-atom nuisance posterior removes the hierarchy
        data = _toy_dataset(seed=17, n=60, n_unlabeled=300)
        h = hbdmi_cf(data, 4, _const_fitter(2.0), 6000, 0.05, RngStream(1, 2))
        b = bdmi_cf(data, 4, _const_fitter(2.0), 6000, 0.05, RngStream(3, 4))
        assert h.draws.mean() == pytest.approx(b.draws.mean(), abs=4 * b.draws.std() / 60)
        assert h.draws.std() == pytest.approx(b.draws.std(), rel=0.1)

    def test_close_to_bdmi_with_bols(self):
        fitter = make_fitter("bols")
        design = SimDesign(kind="correct", n=120, n_unlabeled=600, p=3, s=2, seed=5)
        for seed in range(3):
            data = generate_dataset(design, RngStream(seed, 1))
            h = hbdmi_cf(data, 4, fitter, 2000, 0.05, RngStream(seed, 2))
            b = bdmi_cf(data, 4, fitter, 2000, 0.05, RngStream(seed, 3))
            sd = b.draws.std()
            assert abs(h.point_estimate - b.point_estimate) <= 3 * sd

    def test_determinism(self):
        data = _toy_dataset(seed=18)
        fitter = make_fitter("bridge")
        a = hbdmi_cf(data, 4, fitter, 300, 0.05, RngStream(77))
        b = hbdmi_cf(data, 4, fitter, 300, 0.05, RngStream(77))
        np.testing.assert_array_equal(a.draws, b.draws)


MOMENTS = ("mu_bias", "scale_bias", "mu_imp", "scale_imp")
EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


def _fitted_fold(nuisance="bols", m=60, n_k=10, n_u=50, p=4, noise=1.0, y_scale=1.0,
                 offset=0.0, constant_column=False, n_draws=400, seed=0):
    """Draws of a nuisance fitted on m rows, and a held-out fold of n_k + n_u rows."""
    gen = RngStream(seed, 91).generator()
    beta = np.linspace(1.0, 0.0, p)

    def rows(count):
        X = gen.normal(size=(count, p))
        if constant_column:
            X[:, 0] = 2.5
        y = (1.0 + X @ beta + noise * gen.normal(size=count)) * y_scale
        return y, X + offset

    y_train, X_train = rows(m)
    y_l, X_l = rows(n_k)
    _, X_u = rows(n_u)
    fit = make_fitter(nuisance)(X_train, y_train, RngStream(seed, 92))
    coef_draws = _conform_coef_draws(fit.sample_many(n_draws, RngStream(seed, 93)), p)
    return coef_draws, y_l, X_l, X_u


def _extended_reference(coef_draws, y, X_l, X_u):
    return hbdmi_fold_reference(*(a.astype(np.longdouble) for a in (coef_draws, y, X_l, X_u)))


def _max_error(values, reference):
    return float(np.max(np.abs(values - reference)))


class TestFoldMoments:
    """hbdmi's R-factor fold moments against the full prediction matrices."""

    @pytest.mark.filterwarnings("ignore:dropping 1 zero-variance")
    @pytest.mark.parametrize(
        "case",
        [
            dict(m=400, n_k=100, n_u=2000, p=50, n_draws=1000),  # the desk cell's fold
            dict(m=40, n_k=5, n_u=50, p=10),  # labeled fold narrower than p + 1
            dict(m=20, n_k=3, n_u=3),  # both folds at the 3-row floor
            dict(nuisance="bridge", constant_column=True),
            dict(nuisance="zero"),  # width-1 draws
            dict(nuisance="constant:2.5"),
            dict(y_scale=1e6),
        ],
        ids=["desk", "narrow-labeled", "floor", "constant-column", "zero", "constant",
             "y-1e6"],
    )
    def test_matches_dense_reference(self, case):
        fold = _fitted_fold(**case)
        for name, new, dense in zip(MOMENTS, _fold_moments(*fold), hbdmi_fold_reference(*fold)):
            assert new.shape == dense.shape == (fold[0].shape[0],)
            assert _max_error(new, dense) <= 1e-10 * np.max(np.abs(dense)), name

    @pytest.mark.skipif(not EXTENDED, reason="np.longdouble is no wider than float64 here")
    @pytest.mark.parametrize(
        "case",
        [dict(nuisance="bridge", offset=1e4), dict(nuisance="bridge", offset=1e8)],
        ids=["offset-1e4", "offset-1e8"],
    )
    def test_no_less_accurate_far_from_the_origin(self, case):
        # the dense path's predictions cancel against the intercept; the R factors
        # see centred data, and the locations are summed in extended precision
        fold = _fitted_fold(**case)
        exact = _extended_reference(*fold)
        for name, new, dense, ref in zip(MOMENTS, _fold_moments(*fold),
                                         hbdmi_fold_reference(*fold), exact):
            assert _max_error(new, ref) <= _max_error(dense, ref), name

    @pytest.mark.skipif(not EXTENDED, reason="np.longdouble is no wider than float64 here")
    def test_near_exact_fit(self):
        # residuals of about 1e-9 against outcomes of about 1: both paths keep about
        # seven digits of the residual variance.  The R factor's backward error is
        # of the dense residuals' order but not below it (ratio about 1 in the median
        # of 60 seeded fits, at most 6), so the scales get a factor of 10.
        fold = _fitted_fold(noise=1e-9)
        exact = _extended_reference(*fold)
        assert np.max(exact[1]) < 1e-18
        for name, new, dense, ref in zip(MOMENTS, _fold_moments(*fold),
                                         hbdmi_fold_reference(*fold), exact):
            slack = 10.0 if name.startswith("scale") else 1.0
            assert _max_error(new, ref) <= slack * _max_error(dense, ref), name

    @pytest.mark.skipif(not EXTENDED, reason="np.longdouble is no wider than float64 here")
    @settings(max_examples=60, deadline=None)
    @given(
        n_k=st.integers(3, 30),
        n_u=st.integers(3, 60),
        p=st.integers(1, 8),
        log_scales=st.lists(st.floats(-3, 3), min_size=8, max_size=8),
        log_offset=st.floats(0, 6),
        seed=st.integers(0, 2**16),
    )
    def test_property_matches_extended_reference(self, n_k, n_u, p, log_scales, log_offset,
                                                 seed):
        gen = np.random.default_rng(seed)
        scales = 10.0 ** np.array(log_scales[:p])
        offsets = 10.0**log_offset * gen.choice([-1.0, 1.0], size=p)
        X_l = gen.normal(size=(n_k, p)) * scales + offsets
        X_u = gen.normal(size=(n_u, p)) * scales + offsets
        y = gen.normal(size=n_k) + X_l @ (1.0 / scales)
        coef_draws = gen.normal(size=(50, p + 1)) * np.concatenate([[1.0], 1.0 / scales])
        fold = (coef_draws, y, X_l, X_u)
        # at offsets of 1e6 and slopes of 1e3 the extended reference itself keeps
        # about 11 digits of a scale, and the dense float64 path reaches 4e-8
        for name, new, ref in zip(MOMENTS, _fold_moments(*fold), _extended_reference(*fold)):
            assert _max_error(new, ref) <= 1e-9 * float(np.max(np.abs(ref))), name


class TestImputation:
    def test_constant_nuisance_degenerate(self):
        data = _toy_dataset(seed=19)
        result = imputation_posterior(data, _const_fitter(3.0), 300, 0.05, RNG.substream(10))
        assert np.all(result.draws == 3.0)
        assert result.ci == (3.0, 3.0)
        assert result.point_estimate == pytest.approx(3.0)

    def test_zero_nuisance_ignores_outcomes(self):
        data = _toy_dataset(seed=20)
        result = imputation_posterior(data, _zero_fitter, 300, 0.05, RNG.substream(11))
        assert result.point_estimate == 0.0

    def test_draws_average_unlabeled_predictions(self):
        data = _toy_dataset(seed=21)
        fitter = make_fitter("bols")
        result = imputation_posterior(data, fitter, 5000, 0.05, RngStream(4, 2))
        fit = fitter(data.features, data.outcomes, RngStream(0))
        expected = fit.posterior_mean().evaluate(data.unlabeled_features).mean()
        assert result.point_estimate == pytest.approx(expected)
        tol = 4 * result.draws.std() / math.sqrt(5000)
        assert abs(result.draws.mean() - expected) <= tol

    @pytest.mark.parametrize("nuisance", ["bols", "bridge"])
    def test_point_estimate_is_difference_estimator(self, nuisance):
        # a flat-prior intercept is refitted to the labeled means, so imputation
        # reduces to ybar + beta'(xbar_u - xbar_l) however beta is shrunk
        data = _toy_dataset(seed=23, p=5)
        fitter = make_fitter(nuisance)
        result = imputation_posterior(data, fitter, 300, 0.05, RngStream(4, 3))
        beta = fitter(data.features, data.outcomes, RngStream(0)).posterior_mean().coefficients
        shift = data.unlabeled_features.mean(axis=0) - data.features.mean(axis=0)
        expected = data.outcomes.mean() + beta @ shift
        assert result.point_estimate == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestVarianceReport:
    def test_constant_regression_mean(self):
        data = _toy_dataset(seed=22)
        report = variance_report(data, RegressionDraw(3.0, np.zeros(data.p)))
        assert report["sigma2_sq"] == 0.0
        assert report["tau_sq"] == pytest.approx(data.outcomes.var(ddof=1) / data.n)
        assert report["efficiency_ratio"] == pytest.approx(1.0)

    def test_oracle_regression_recovers_design_variances(self):
        # with the true mean plugged in, n * tau^2 -> sigma0^2 + (n/N) Var(m0)
        design = SimDesign(kind="correct", n=2000, n_unlabeled=40000, p=10, s=4, seed=9)
        data = generate_dataset(design, RngStream(31, 0))
        beta0 = signal_coefficients(10, 4)
        report = variance_report(data, RegressionDraw(5.0, beta0))
        beta_norm_sq = float(beta0 @ beta0)
        sigma0_sq = beta_norm_sq / 5.0
        expected = sigma0_sq + (design.n / design.n_unlabeled) * beta_norm_sq
        assert design.n * report["tau_sq"] == pytest.approx(expected, rel=0.05)
        # orthogonality quantity is near zero for the true mean
        assert abs(report["residual_prediction_cov"]) < 0.05


class TestConvolutionOracle:
    @pytest.mark.parametrize(
        "a,b",
        [
            (TComponent(8, 1.0, 0.5), TComponent(12, -2.0, 1.5)),
            (TComponent(20, 0.0, 2.0), TComponent(6, 3.0, 0.3)),
        ],
    )
    def test_sampled_quantiles_match_numeric_convolution(self, a, b):
        draws = sample_convolution(a, b, 2 * 10**6, RngStream(2024, 8))
        numeric = convolution_quantiles(a, b, [0.1, 0.5, 0.9])
        tol = 0.005 * max(math.sqrt(a.scale_sq), math.sqrt(b.scale_sq))
        for q, expected in zip([0.1, 0.5, 0.9], numeric):
            assert abs(sample_quantile(draws, q) - expected) <= tol
