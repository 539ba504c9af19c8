import math
import tracemalloc

import numpy as np
import pytest
from _oracles import convolution_quantiles, hbdmi_fold_reference
from hypothesis import given, settings
from hypothesis import strategies as st

import ssmean.estimators
from ssmean import (
    Dataset,
    GibbsConfig,
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
    sample_quantile,
    supervised_posterior,
    zero_nuisance,
)
from ssmean.nuisance import EmpiricalPosterior, MultivariateTPosterior, constant_nuisance
from ssmean.errors import DimensionMismatchError, InsufficientDataError, InvalidParameterError
from ssmean.data import BLOCK_ROWS, make_fold_plan, row_blocks
from ssmean.estimators import _fold_moments, _Scatter
from ssmean.simulation import signal_coefficients

RNG = RngStream(555001)


def _toy_dataset(seed=0, n=40, n_unlabeled=200, p=2):
    gen = RngStream(seed, 77).generator()
    X = gen.normal(size=(n, p))
    y = 1.0 + X @ np.linspace(1.0, 0.0, p) + 0.5 * gen.normal(size=n)
    Xu = gen.normal(size=(n_unlabeled, p))
    return Dataset(y, X, Xu)


def _const_fitter(value):
    return lambda X, y, rng: constant_nuisance(value, X.shape[1])


def _zero_fitter(X, y, rng):
    return zero_nuisance(X.shape[1])


def _center(fp):
    return fp.t_bias.location + fp.t_imputed.location


def _desk_dataset():
    design = SimDesign(kind="correct", n=500, n_unlabeled=10_000, p=50, s=7, seed=1)
    return generate_dataset(design, RngStream(1, 6))


class _TracedRows:
    """Unlabeled rows read in blocks of a matrix, noting "block" and the traced bytes at each."""

    def __init__(self, matrix, events):
        self.matrix, self.shape, self.events, self.traced = matrix, matrix.shape, events, []

    def blocks(self):
        for start in range(0, self.shape[0], BLOCK_ROWS):
            self.events.append("block")
            self.traced.append(tracemalloc.get_traced_memory()[0])
            yield self.matrix[start : start + BLOCK_ROWS]


class TestFoldPosterior:
    def test_hand_example(self):
        # labeled residuals [0.5, 1.5, 2.5]; unlabeled predictions [2, 4, 6]
        draw = np.array([0.5, 1.0])
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
        assert _center(fp) == pytest.approx(5.5)

    def test_zero_nuisance_collapses_imputed_part(self):
        y = np.array([2.0, 4.0, 9.0, 1.0])
        draw = zero_nuisance(1).posterior_mean()
        fp = fold_posterior(y, np.zeros((4, 1)), np.zeros((6, 1)), draw)
        assert fp.t_imputed.df == 5
        assert fp.t_imputed.location == 0.0
        assert fp.t_imputed.scale_sq == 0.0
        assert _center(fp) == pytest.approx(y.mean())

    def test_constant_shift_invariance(self):
        gen = RNG.substream(1).generator()
        y = gen.normal(size=8)
        X = gen.normal(size=(8, 2))
        Xu = gen.normal(size=(9, 2))
        coef = np.array([0.4, -1.2])
        base = fold_posterior(y, X, Xu, np.concatenate([[0.7], coef]))
        shifted = fold_posterior(y, X, Xu, np.concatenate([[0.7 + 11.5], coef]))
        assert _center(shifted) == pytest.approx(_center(base), abs=1e-12)
        assert shifted.t_bias.scale_sq == pytest.approx(base.t_bias.scale_sq, abs=1e-12)
        assert shifted.t_imputed.scale_sq == pytest.approx(base.t_imputed.scale_sq, abs=1e-12)
        assert shifted.t_bias.location == pytest.approx(base.t_bias.location - 11.5, abs=1e-12)
        assert shifted.t_imputed.location == pytest.approx(base.t_imputed.location + 11.5, abs=1e-12)

    def test_small_fold_rejected(self):
        with pytest.raises(InsufficientDataError):
            fold_posterior(
                np.array([1.0, 2.0]), np.zeros((2, 1)), np.zeros((5, 1)),
                zero_nuisance(1).posterior_mean(),
            )
        with pytest.raises(InsufficientDataError):
            fold_posterior(
                np.array([1.0, 2.0, 3.0]), np.zeros((3, 1)), np.zeros((2, 1)),
                zero_nuisance(1).posterior_mean(),
            )

    def test_oracle_regression_recovers_design_variances(self):
        # with the true mean plugged in over all rows, n * tau^2 -> sigma0^2 + (n/N) Var(m0)
        design = SimDesign(kind="correct", n=2000, n_unlabeled=40000, p=10, s=4, seed=9)
        data = generate_dataset(design, RngStream(31, 0))
        beta0 = signal_coefficients(10, 4)
        truth = np.concatenate([[5.0], beta0])
        fp = fold_posterior(data.outcomes, data.features, data.unlabeled_features, truth)
        tau_sq = fp.t_bias.scale_sq + fp.t_imputed.scale_sq
        beta_norm_sq = float(beta0 @ beta0)
        sigma0_sq = beta_norm_sq / 5.0
        expected = sigma0_sq + (design.n / design.n_unlabeled) * beta_norm_sq
        assert design.n * tau_sq == pytest.approx(expected, rel=0.05)
        # the residuals of the true mean are orthogonal to its predictions
        preds = data.features @ beta0
        assert abs(float(np.cov(data.outcomes - 5.0 - preds, preds)[0, 1])) < 0.05


class TestCredibleInterval:
    def test_constant_draws(self):
        lo, hi = credible_interval(np.full(500, 3.2), 0.05)
        assert lo == hi == 3.2

    def test_normal_quantiles(self):
        draws = RNG.substream(2).generator().standard_normal(10**6)
        lo, hi = credible_interval(draws, 0.05)
        assert lo == pytest.approx(-1.96, abs=0.01)
        assert hi == pytest.approx(1.96, abs=0.01)

    def test_symmetric_about_median(self):
        draws = 2.0 + 2.0 * RNG.substream(3).generator().standard_normal(10**5)
        lo, hi = credible_interval(draws, 0.1)
        med = sample_quantile(draws, 0.5)
        assert (med - lo) == pytest.approx(hi - med, abs=0.05)

    def test_alpha_validation(self):
        # named as alpha: at 0, sample_quantile would also refuse its level of 0
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(InvalidParameterError, match="alpha must lie in"):
                credible_interval(np.ones(10), alpha)


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

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_fold_components_match_fold_posterior_on_the_gathered_fold(self, offset):
        # each fold's running summaries, merged over blocks of the whole matrix, give the
        # t components of the closed form on the fold's gathered rows, up to rounding
        base = _toy_dataset(seed=26, n=80, n_unlabeled=3 * BLOCK_ROWS + 7, p=3)
        data = Dataset(base.outcomes, base.features + offset, base.unlabeled_features + offset)
        fitter, rng = make_fitter("bols"), RngStream(26, 1)
        result = bdmi_cf(data, 4, fitter, 200, 0.05, rng)
        labeled_fold, unlabeled_fold = make_fold_plan(data.n, data.n_unlabeled, 4,
                                                      rng.substream(0))
        for k in range(4):
            train, test_l = np.flatnonzero(labeled_fold != k), np.flatnonzero(labeled_fold == k)
            test_u = np.flatnonzero(unlabeled_fold == k)
            fold_rng = rng.substream(k + 1)
            fit = fitter(data.features[train], data.outcomes[train],
                         fold_rng.substream(ssmean.estimators._FIT))
            draw = fit.sample_many(1, fold_rng.substream(ssmean.estimators._NUISANCE_DRAW))[0]
            fp = fold_posterior(data.outcomes[test_l], data.features[test_l],
                                data.unlabeled_features[test_u], draw, fold_id=k)
            diag = result.diagnostics["folds"][k]
            for side, comp in (("bias", fp.t_bias), ("imputed", fp.t_imputed)):
                assert diag[f"{side}_df"] == comp.df
                for key in ("location", "scale_sq"):
                    assert diag[f"{side}_{key}"] == pytest.approx(getattr(comp, key), rel=1e-12,
                                                                  abs=0.0), (k, side, key)

    def test_holds_no_fold_of_the_unlabeled_matrix(self):
        # each fold's draw is evaluated block by block and its rows' predictions merged
        # into a running mean and R factor; the traced peak (413 KB, where the fold plan's
        # index lists gave 687 KB) is set by the unlabeled permutation, 8 bytes a row while
        # the plan's labels are filled, and stays below half of one fold's N/K x p gather
        # at the benchmark's width p = 50
        data = _toy_dataset(seed=16, n=200, n_unlabeled=40_000, p=50)
        k = 5
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            bdmi_cf(data, k, make_fitter("bols"), 1000, 0.05, RNG.substream(9))
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        fold_gather = data.unlabeled_features.nbytes / k
        assert peak < fold_gather / 2, f"traced peak is {peak / fold_gather:.2f} fold gathers"

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

    @pytest.mark.parametrize("nuisance", ["bols", "spike"])
    def test_draws_before_or_after_the_pass_are_the_same(self, monkeypatch, nuisance):
        # the fold's rows come from a keyed substream, wherever they are drawn
        data = _toy_dataset(seed=19, n=60, n_unlabeled=300, p=3)
        fitter = make_fitter(nuisance, GibbsConfig(burn_in=20, sweeps=100))
        results = []
        for held in (0, 1 << 60):  # a fit that holds nothing, or more than any draws
            monkeypatch.setattr(ssmean.estimators, "_held_bytes", lambda fit: held)
            results.append(hbdmi_cf(data, 4, fitter, 150, 0.05, RngStream(78)))
        np.testing.assert_array_equal(results[0].draws, results[1].draws)
        assert results[0].point_estimate == results[1].point_estimate

    def test_a_gibbs_fit_larger_than_its_draws_is_not_held_through_the_pass(self):
        # the default 2000 retained sweeps are twice a fold's 1000 + 1 draws, so each fold
        # draws before the pass and lets its fit go.  A fit of that shape, built in the
        # traced region as the sampler would, stands in for the Gibbs loop.  Measured
        # 3.70 MB: the K folds' draws (2.0 MB) and one fit (0.8 MB); 5.61 MB when every
        # fold's fit waited through the pass
        design = SimDesign(kind="correct", n=500, n_unlabeled=10_000, p=50, s=7, seed=1)
        data = generate_dataset(design, RngStream(1, 5))

        def gibbs_sized(X, y, rng):
            sweeps = rng.generator().normal(size=(2000, X.shape[1] + 1))
            return EmpiricalPosterior("spike_slab", sweeps)

        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            hbdmi_cf(data, 5, gibbs_sized, 1000, 0.05, RngStream(3))
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert peak < 4.6e6, f"traced peak is {peak / 1e6:.2f} MB"


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
    return fit.sample_many(n_draws, RngStream(seed, 93)), y_l, X_l, X_u


def _scatter(matrix):
    """A ``_Scatter`` of every row of ``matrix``, added block by block."""
    scatter = _Scatter(matrix.shape[1])
    for block in row_blocks(matrix):
        scatter.add(block, np.arange(len(block)))
    return scatter


def _moments(coef_draws, y, X_l, X_u):
    """``_fold_moments`` on a fold that is every row of its two matrices."""
    return _fold_moments(coef_draws, _scatter(np.column_stack([y, X_l])), _scatter(X_u))


def _extended_reference(coef_draws, y, X_l, X_u):
    return hbdmi_fold_reference(*(a.astype(np.longdouble) for a in (coef_draws, y, X_l, X_u)))


def _max_error(values, reference):
    return float(np.max(np.abs(values - reference)))


class TestFoldMoments:
    """hbdmi's R-factor fold moments against the full prediction matrices."""

    @pytest.mark.parametrize(
        "case",
        [
            dict(m=400, n_k=100, n_u=2000, p=50, n_draws=1000),  # the desk cell's fold
            dict(m=40, n_k=5, n_u=50, p=10),  # labeled fold narrower than p + 1
            dict(m=20, n_k=3, n_u=3),  # both folds at the 3-row floor
            dict(nuisance="bridge", constant_column=True),
            dict(nuisance="zero"),
            dict(nuisance="constant:2.5"),
            dict(y_scale=1e6),
        ],
        ids=["desk", "narrow-labeled", "floor", "constant-column", "zero", "constant",
             "y-1e6"],
    )
    def test_matches_dense_reference(self, case):
        fold = _fitted_fold(**case)
        for name, new, dense in zip(MOMENTS, _moments(*fold), hbdmi_fold_reference(*fold)):
            assert new.shape == dense.shape == (fold[0].shape[0],)
            assert _max_error(new, dense) <= 1e-10 * np.max(np.abs(dense)), name

    def test_rows_of_the_whole_matrices_match_the_gathered_fold(self):
        # the fold's rows, scattered over matrices several blocks long, give the
        # moments of the gathered fold up to summation order
        coef_draws, y, X_l, X_u = _fitted_fold(m=200, n_k=40, n_u=3 * BLOCK_ROWS + 7, p=6)
        gen = RngStream(7, 94).generator()
        labeled = gen.normal(size=(3 * len(y), 7))
        unlabeled = gen.normal(size=(2 * X_u.shape[0], 6))
        rows_l = np.sort(gen.choice(labeled.shape[0], size=len(y), replace=False))
        rows_u = np.sort(gen.choice(unlabeled.shape[0], size=X_u.shape[0], replace=False))
        labeled[rows_l] = np.column_stack([y, X_l])
        unlabeled[rows_u] = X_u
        # each block of the whole matrix adds its rows of the fold, as hbdmi_cf's pass does
        labeled_fold, fold = _Scatter(7), _Scatter(6)
        labeled_fold.add(labeled, rows_l)
        for start in range(0, unlabeled.shape[0], BLOCK_ROWS):
            block = unlabeled[start:start + BLOCK_ROWS]
            fold.add(block, rows_u[(rows_u >= start) & (rows_u < start + len(block))] - start)
        scattered = _fold_moments(coef_draws, labeled_fold, fold)
        for name, new, ref in zip(MOMENTS, scattered, _moments(coef_draws, y, X_l, X_u)):
            assert _max_error(new, ref) <= 1e-12 * np.max(np.abs(ref)), name

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
        for name, new, dense, ref in zip(MOMENTS, _moments(*fold),
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
        for name, new, dense, ref in zip(MOMENTS, _moments(*fold),
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
        for name, new, ref in zip(MOMENTS, _moments(*fold), _extended_reference(*fold)):
            assert _max_error(new, ref) <= 1e-9 * float(np.max(np.abs(ref))), name


def test_substream_labels_within_a_fold_are_distinct():
    # two draws on one label would be correlated, and every report's draws would move
    labels = [ssmean.estimators._FIT, ssmean.estimators._NUISANCE_DRAW,
              ssmean.estimators._THETA_BIAS, ssmean.estimators._THETA_IMPUTED]
    assert len(set(labels)) == len(labels)


class TestImputation:
    def test_fits_on_substream_1_and_draws_on_substream_2(self):
        seen = {}
        bols = make_fitter("bols")

        class Noted:
            """A bols fit that notes the stream its rows are drawn from."""

            def __init__(self, fit):
                self.fit, self.metadata = fit, fit.metadata

            def posterior_mean(self):
                return self.fit.posterior_mean()

            def sample_many(self, count, rng):
                seen["draw"] = rng
                return self.fit.sample_many(count, rng)

        def fitter(X, y, rng):
            seen["fit"] = rng
            return Noted(bols(X, y, rng))

        imputation_posterior(_toy_dataset(seed=18), fitter, 200, 0.05, RNG.substream(9))
        assert seen == {"fit": RNG.substream(9).substream(1),
                        "draw": RNG.substream(9).substream(2)}

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
        mean_row = fitter(data.features, data.outcomes, RngStream(0)).posterior_mean()
        expected = (data.unlabeled_features @ mean_row[1:] + mean_row[0]).mean()
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
        beta = fitter(data.features, data.outcomes, RngStream(0)).posterior_mean()[1:]
        shift = data.unlabeled_features.mean(axis=0) - data.features.mean(axis=0)
        expected = data.outcomes.mean() + beta @ shift
        assert result.point_estimate == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nuisance", ["bols", "spike"])
    def test_rows_drawn_before_or_after_the_pass_are_the_same(self, monkeypatch, nuisance):
        # the rows come from a keyed substream, wherever they are drawn
        data = _toy_dataset(seed=25, n=60, n_unlabeled=300, p=3)
        fitter = make_fitter(nuisance, GibbsConfig(burn_in=20, sweeps=100))
        results = []
        for held in (0, 1 << 60):  # a fit that holds nothing, or more than any rows
            monkeypatch.setattr(ssmean.estimators, "_held_bytes", lambda fit: held)
            results.append(imputation_posterior(data, fitter, 150, 0.05, RngStream(79)))
        np.testing.assert_array_equal(results[0].draws, results[1].draws)
        assert results[0].point_estimate == results[1].point_estimate

    def test_the_pass_holds_the_fit_not_the_rows(self):
        # a bridge fit is a location and a 51 x 51 factor (21 KB), so its 1000 x 51 rows
        # (408 KB) are drawn after the pass.  Measured 36 KB held at each block; 424 KB
        # when the rows were drawn before the pass
        data = _desk_dataset()
        events = []
        rows = _TracedRows(data.unlabeled_features, events)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            imputation_posterior(Dataset(data.outcomes, data.features, rows),
                                 make_fitter("bridge"), 1000, 0.05, RngStream(4))
        finally:
            tracemalloc.stop()
        held = max(rows.traced) - baseline
        assert held < 1000 * 51 * 8 / 4, f"{held / 1e3:.0f} KB held through the pass"

    @pytest.mark.parametrize(
        "fitter, before",
        [
            (make_fitter("bridge"), False),
            # the default 2000 retained sweeps hold twice the 1000 rows
            (make_fitter("spike"), True),
            (lambda X, y, rng: EmpiricalPosterior(
                "spike_slab", rng.generator().normal(size=(2000, X.shape[1] + 1))), True),
        ],
        ids=["bridge", "spike", "gibbs-sized"],
    )
    def test_a_fit_larger_than_its_rows_draws_them_before_the_pass(self, fitter, before):
        data = _desk_dataset()
        events = []

        def recording(X, y, rng):
            fit = fitter(X, y, rng)
            sample_many = fit.sample_many
            fit.sample_many = lambda count, rng: events.append("draw") or sample_many(count, rng)
            return fit

        rows = _TracedRows(data.unlabeled_features, events)
        imputation_posterior(Dataset(data.outcomes, data.features, rows), recording, 1000,
                             0.05, RngStream(4))
        assert events.count("draw") == 1
        assert (events.index("draw") < events.index("block")) == before


@pytest.mark.parametrize(
    "estimate",
    [
        lambda data, fitter: bdmi_cf(data, 4, fitter, 200, 0.05, RNG.substream(12)),
        lambda data, fitter: hbdmi_cf(data, 4, fitter, 200, 0.05, RNG.substream(12)),
        lambda data, fitter: imputation_posterior(data, fitter, 200, 0.05, RNG.substream(12)),
    ],
    ids=["bdmi_cf", "hbdmi_cf", "imputation_posterior"],
)
@pytest.mark.parametrize("width", [1, 4])
def test_fitter_rows_of_the_wrong_width_raise_the_typed_error(estimate, width):
    # a caller's fitter whose rows are not p + 1 = 3 wide, in its draws and its mean
    data = _toy_dataset(seed=24)

    def fitter(X, y, rng):
        return MultivariateTPosterior("wrong", 5.0, np.ones(width), np.eye(width))

    with pytest.raises(DimensionMismatchError, match="expected width 3"):
        estimate(data, fitter)


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
