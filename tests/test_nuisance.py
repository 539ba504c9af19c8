import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import bols_reference, bridge_reference, spike_slab_reference
from ssmean import (
    GibbsConfig,
    RngStream,
    constant_nuisance,
    fit_bols,
    fit_bridge,
    fit_spike_slab,
    make_fitter,
    zero_nuisance,
)
from ssmean.errors import (
    InsufficientDataError,
    InvalidParameterError,
    SingularDesignError,
    ValidationError,
)
from ssmean.simulation import signal_coefficients

RNG = RngStream(90210)


def _predict(row, X):
    return X @ row[1:] + row[0]


def _line_data(m=4):
    x = np.arange(m, dtype=float).reshape(-1, 1)
    return x, 1.0 + 2.0 * x[:, 0]


class TestBols:
    def test_exact_line_degenerates_to_point_mass(self):
        X, y = _line_data()
        post = fit_bols(X, y)
        pm = post.posterior_mean()
        assert pm[0] == pytest.approx(1.0, abs=1e-9)
        assert pm[1:] == pytest.approx([2.0], abs=1e-9)
        draw_a = post.sample_many(1, RNG.substream(1))[0]
        draw_b = post.sample_many(1, RNG.substream(2))[0]
        assert draw_a[0] == pytest.approx(draw_b[0], abs=1e-9)

    def test_constant_outcomes(self):
        X = RNG.substream(3).generator().normal(size=(10, 2))
        post = fit_bols(X, np.full(10, 7.0))
        pm = post.posterior_mean()
        assert pm[0] == pytest.approx(7.0, abs=1e-9)
        np.testing.assert_allclose(pm[1:], 0.0, atol=1e-9)

    def test_matches_normal_equations_oracle(self):
        gen = RNG.substream(4).generator()
        X = gen.normal(size=(50, 3))
        truth = np.array([5.0, 1.0, 0.5, 0.0])
        y = truth[0] + X @ truth[1:] + 0.1 * gen.normal(size=50)
        post = fit_bols(X, y)
        pm = post.posterior_mean()
        # independent oracle: solve the normal equations directly
        design = np.column_stack([np.ones(50), X])
        oracle = np.linalg.solve(design.T @ design, design.T @ y)
        np.testing.assert_allclose(pm, oracle, rtol=1e-8)
        assert np.max(np.abs(pm - truth)) < 0.15

    def test_too_few_rows(self):
        X, y = _line_data(3)  # m = p + 2
        with pytest.raises(SingularDesignError, match="ridge"):
            fit_bols(X, y)

    def test_rank_deficiency(self):
        gen = RNG.substream(5).generator()
        col = gen.normal(size=(20, 1))
        X = np.hstack([col, 2.0 * col])
        with pytest.raises(SingularDesignError):
            fit_bols(X, gen.normal(size=20))

    def test_posterior_mean_matches_sampled_mean(self):
        gen = RNG.substream(6).generator()
        X = gen.normal(size=(40, 2))
        y = 1.0 + X @ np.array([2.0, -1.0]) + gen.normal(size=40)
        post = fit_bols(X, y)
        draws = post.sample_many(10**4, RNG.substream(7))
        x_new = gen.normal(size=(5, 2))
        aug = np.column_stack([np.ones(5), x_new])
        sampled = (draws @ aug.T).mean(axis=0)
        spread = (draws @ aug.T).std(axis=0)
        analytic = _predict(post.posterior_mean(), x_new)
        assert np.all(np.abs(sampled - analytic) <= 4 * spread / 100)


class TestBridge:
    def test_cv_shrinks_noise_more_than_signal(self):
        gen = RNG.substream(8).generator()
        X = gen.normal(size=(100, 6))
        noise_fit = fit_bridge(X, gen.normal(size=100))
        signal_fit = fit_bridge(X, 3.0 * X[:, 0] + 0.05 * gen.normal(size=100))
        assert noise_fit.metadata["lambda_hat"] > signal_fit.metadata["lambda_hat"]

    def test_single_feature_closed_form(self):
        # with a standardized column, the penalized coefficient is m / (m + lambda)
        gen = RNG.substream(9).generator()
        m = 30
        x = gen.normal(size=(m, 1))
        z = (x[:, 0] - x[:, 0].mean()) / x[:, 0].std()
        y = z + 3.0
        post = fit_bridge(x, y)
        lam = post.metadata["lambda_hat"]
        # the raw-scale slope is the standardized one over the column's sd
        assert post.location[1] * x[:, 0].std() == pytest.approx(m / (m + lam), abs=1e-10)

    def test_back_transform_round_trip(self):
        gen = RNG.substream(10).generator()
        X = gen.normal(loc=3.0, scale=2.5, size=(60, 4))
        y = 2.0 + X @ np.array([1.0, 0.0, -0.5, 0.25]) + 0.3 * gen.normal(size=60)
        post, ref = fit_bridge(X, y), bridge_reference(X, y)
        x_new = gen.normal(loc=3.0, scale=2.5, size=(10, 4))
        direct = _predict(post.posterior_mean(), x_new)
        # the reference keeps its standardized-scale state
        z_new = (x_new - ref._xbar) / ref._sdev
        via_std = ref._loc_std[0] + z_new[:, ref._keep] @ ref._loc_std[1:]
        np.testing.assert_allclose(direct, via_std, atol=1e-10)

    def test_converges_to_bols_on_noiseless_data(self):
        # CV lands on the grid floor, so the penalty is ~1e-4 of the Gram scale
        gen = RNG.substream(11).generator()
        X = gen.normal(size=(60, 3))
        y = 4.0 + X @ np.array([1.0, -0.8, 0.5])
        ridge = fit_bridge(X, y).posterior_mean()
        ols = fit_bols(X, y).posterior_mean()
        assert ridge[0] == pytest.approx(ols[0], abs=1e-4)
        np.testing.assert_allclose(ridge[1:], ols[1:], atol=1e-4)

    def test_scale_equivariant_predictions(self):
        gen = RNG.substream(12).generator()
        X = gen.normal(size=(50, 3))
        y = 1.0 + X @ np.array([2.0, 0.5, 0.0]) + 0.2 * gen.normal(size=50)
        x_new = gen.normal(size=(7, 3))
        base = _predict(fit_bridge(X, y).posterior_mean(), x_new)
        X_scaled = X.copy()
        X_scaled[:, 1] *= 13.0
        x_new_scaled = x_new.copy()
        x_new_scaled[:, 1] *= 13.0
        scaled = _predict(fit_bridge(X_scaled, y).posterior_mean(), x_new_scaled)
        np.testing.assert_allclose(base, scaled, atol=1e-8)

    def test_zero_variance_column_dropped(self):
        gen = RNG.substream(13).generator()
        X = gen.normal(size=(40, 3))
        X[:, 1] = 5.0
        y = 1.0 + X[:, 0] + 0.1 * gen.normal(size=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the diagnostics report the drop, not a warning
            post = fit_bridge(X, y)
        assert post.posterior_mean()[2] == 0.0
        assert post.metadata["dropped_columns"] == 1

    def test_constant_outcome_degenerates(self):
        gen = RNG.substream(14).generator()
        X = gen.normal(size=(20, 2))
        post = fit_bridge(X, np.full(20, 3.5))
        draw = post.sample_many(1, RNG.substream(15))[0]
        assert draw[0] == pytest.approx(3.5)
        np.testing.assert_allclose(draw[1:], 0.0, atol=1e-12)

    def test_all_constant_features_rejected(self):
        with pytest.raises(ValidationError):
            fit_bridge(np.ones((20, 2)), np.arange(20.0))

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_bridge(np.arange(4.0).reshape(-1, 1), np.arange(4.0))

    def test_posterior_mean_matches_sampled_mean(self):
        gen = RNG.substream(16).generator()
        X = gen.normal(size=(50, 3))
        y = 2.0 + X @ np.array([1.0, 0.0, -1.0]) + 0.5 * gen.normal(size=50)
        post = fit_bridge(X, y)
        draws = post.sample_many(10**4, RNG.substream(17))
        x_new = gen.normal(size=(5, 3))
        aug = np.column_stack([np.ones(5), x_new])
        preds = draws @ aug.T
        analytic = _predict(post.posterior_mean(), x_new)
        assert np.all(np.abs(preds.mean(axis=0) - analytic) <= 4 * preds.std(axis=0) / 100)


QUICK_GIBBS = GibbsConfig(burn_in=300, sweeps=700)


class TestSpikeSlab:
    def test_constant_outcome(self):
        gen = RNG.substream(18).generator()
        X = gen.normal(size=(30, 4))
        post = fit_spike_slab(X, np.full(30, 2.0), QUICK_GIBBS, RNG.substream(19))
        pm = post.posterior_mean()
        assert pm[0] == pytest.approx(2.0)
        np.testing.assert_allclose(pm[1:], 0.0, atol=1e-12)
        assert max(post.metadata["inclusion_frequency"]) <= 0.5

    def test_strong_signal_recovery(self):
        gen = RNG.substream(20).generator()
        n, p = 200, 20
        X = gen.normal(size=(n, p))
        beta = np.zeros(p)
        beta[:2] = 3.0
        y = 1.0 + X @ beta + gen.normal(size=n)
        post = fit_spike_slab(X, y, QUICK_GIBBS, RNG.substream(21))
        inclusion = post.metadata["inclusion_frequency"]
        assert min(inclusion[:2]) > 0.9
        assert max(inclusion[2:]) < 0.2

    def test_beats_bols_on_sparse_instance(self):
        gen = RNG.substream(22).generator()
        n, p = 120, 30
        X = gen.normal(size=(n, p))
        beta = np.zeros(p)
        beta[:3] = 2.0
        y = X @ beta + gen.normal(size=n)
        X_hold = gen.normal(size=(200, p))
        truth = X_hold @ beta
        sparse_pm = fit_spike_slab(X, y, QUICK_GIBBS, RNG.substream(23)).posterior_mean()
        bols_pm = fit_bols(X, y).posterior_mean()
        mse_sparse = np.mean((_predict(sparse_pm, X_hold) - truth) ** 2)
        mse_bols = np.mean((_predict(bols_pm, X_hold) - truth) ** 2)
        assert mse_sparse <= mse_bols

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_spike_slab(np.ones((5, 1)), np.arange(5.0), QUICK_GIBBS, RNG)

    def test_sampling_determinism(self):
        gen = RNG.substream(24).generator()
        X = gen.normal(size=(40, 3))
        y = X[:, 0] + gen.normal(size=40)
        cfg = GibbsConfig(burn_in=50, sweeps=100)
        a = fit_spike_slab(X, y, cfg, RNG.substream(25)).sample_many(20, RNG.substream(26))
        b = fit_spike_slab(X, y, cfg, RNG.substream(25)).sample_many(20, RNG.substream(26))
        np.testing.assert_array_equal(a, b)

    def test_inclusion_metadata_per_original_column(self):
        gen = RNG.substream(32).generator()
        X = gen.normal(size=(80, 4))
        X[:, 1] = 5.0
        y = 3.0 * X[:, 2] + gen.normal(size=80)
        meta = fit_spike_slab(X, y, QUICK_GIBBS, RNG.substream(33)).metadata
        assert meta["dropped_columns"] == 1
        assert len(meta["inclusion_frequency"]) == 4
        assert meta["inclusion_frequency"][1] == 0.0
        assert meta["inclusion_frequency"][2] == meta["inclusion_frequency_max"] == 1.0
        degenerate = fit_spike_slab(X, np.full(80, 1.0), QUICK_GIBBS, RNG).metadata
        assert degenerate["inclusion_frequency"] == [0.0] * 4
        assert degenerate["dropped_columns"] == 1


def _equivalence_design(name):
    gen = RNG.substream(40).generator()
    X = gen.normal(size=(60, 6))
    signal = 2.0 + X @ np.array([1.5, -1.0, 0.5, 0.0, 0.0, 0.0])
    noisy = signal + gen.normal(size=60)
    if name == "exact_fit":
        return X, signal
    if name == "noise_1e-8":
        return X, signal + 1e-8 * gen.normal(size=60)
    if name == "duplicate_columns":
        X[:, 3] = X[:, 0]
    elif name == "collinear_1e-9":
        X[:, 3] = X[:, 0] + 1e-9 * gen.normal(size=60)
    elif name == "constant_column":
        X[:, 4] = 3.0
    elif name == "offset_1e8":
        return X + 1e8, noisy + 1e8
    elif name == "outcome_x1e6":
        return X, 1e6 * noisy
    elif name == "one_column":
        return X[:, :1], noisy
    elif name == "pure_noise":
        return X, gen.normal(size=60)
    return X, noisy


def _assert_matches_reference(X, y, config, rng):
    """Draws within 1e-10 of the column's largest |draw|; inclusion rates equal."""
    post = fit_spike_slab(X, y, config, rng)
    ref_draws, ref_inclusion = spike_slab_reference(X, y, config, rng)
    assert post.draws.shape == ref_draws.shape
    scale = np.abs(ref_draws).max(axis=0)
    assert np.all(np.abs(post.draws - ref_draws) <= 1e-10 * scale)
    assert post.metadata["inclusion_frequency"] == ref_inclusion.tolist()


class TestSpikeSlabMatchesResidualLoop:
    """The Gram-matrix sweep is the residual-tracking sweep, up to rounding."""

    @pytest.mark.parametrize(
        "config",
        [GibbsConfig(burn_in=0, sweeps=1500), GibbsConfig(500, 1000, slab_scale=3.0)],
        ids=["no_burn_in", "slab_3"],
    )
    @pytest.mark.parametrize(
        "design",
        ["sparse", "exact_fit", "noise_1e-8", "duplicate_columns", "collinear_1e-9",
         "constant_column", "offset_1e8", "outcome_x1e6", "one_column", "pure_noise"],
    )
    def test_design_table(self, design, config):
        X, y = _equivalence_design(design)
        _assert_matches_reference(X, y, config, RNG.substream(41))

    def test_near_exact_fit_rate_comes_from_the_residual(self):
        # a wide slab leaves the RSS as sigma^2's rate, and a centred exact fit
        # puts the intercept draws on sigma's scale: y'y - 2b'Z'y + b'Gb cancels
        # here and moves those draws by ~1e-9 relative
        gen = RNG.substream(42).generator()
        X = gen.normal(size=(60, 6))
        X -= X.mean(axis=0)
        y = 1e4 * (X @ np.array([1.5, -1.0, 0.5, 0.0, 0.0, 0.0]))
        config = GibbsConfig(burn_in=0, sweeps=300, slab_scale=1e12)
        _assert_matches_reference(X, y, config, RNG.substream(43))

    @given(
        m=st.integers(10, 40),
        k=st.integers(1, 6),
        log_scales=st.lists(st.floats(-6.0, 6.0), min_size=6, max_size=6),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_small_random_designs(self, m, k, log_scales, duplicate, seed):
        gen = np.random.default_rng(seed)
        X = gen.normal(size=(m, k)) * 10.0 ** np.array(log_scales[:k])
        if duplicate and k > 1:
            X[:, -1] = X[:, 0]
        y = X[:, 0] / 10.0 ** log_scales[0] + gen.normal(size=m)
        _assert_matches_reference(X, y, GibbsConfig(burn_in=10, sweeps=40), RngStream(seed))


def _dense_fit_case(name):
    """A training fold for the comparisons against the scipy-based fits."""
    gen = RNG.substream(50).generator()
    m, p = (240, 100) if name == "240x100" else (400, 50)  # the cells' training folds
    X = gen.normal(size=(m, p))
    signal = 5.0 + X @ signal_coefficients(p, 7)
    y = signal + math.sqrt(4.75 / 5) * gen.normal(size=m)
    if name == "outcome_x1e6":
        y = 1e6 * y
    elif name == "offset_1e4":
        X = X + 1e4
    elif name == "constant_column":
        X[:, 4] = 3.0
    elif name == "near_exact":
        y = signal + 1e-9 * gen.normal(size=m)
    return X, y


def _relative_error(value, reference):
    return np.abs(value - reference).max() / np.abs(reference).max()


def _assert_matches_scipy_path(post, ref, name):
    """Locations and squared scales F F' within 1e-10 of the scipy fit's, relative.

    On the near-exact fit s^2 is rounding noise on both paths, so only the
    locations are compared there.
    """
    assert post.df == ref.df
    assert _relative_error(post.location, ref.location) <= 1e-10
    if name != "near_exact":
        cov, ref_cov = (f.scale_factor @ f.scale_factor.T for f in (post, ref))
        assert _relative_error(cov, ref_cov) <= 1e-10


class TestDenseFitsMatchScipyPath:
    """numpy.linalg's fits against the scipy.linalg bodies they replaced."""

    @pytest.mark.parametrize(
        "name", ["desk", "240x100", "outcome_x1e6", "offset_1e4", "near_exact"]
    )
    def test_bols(self, name):
        X, y = _dense_fit_case(name)
        _assert_matches_scipy_path(fit_bols(X, y), bols_reference(X, y), name)

    @pytest.mark.parametrize(
        "name", ["desk", "240x100", "outcome_x1e6", "offset_1e4", "constant_column",
                 "near_exact"]
    )
    @pytest.mark.filterwarnings("ignore:dropping 1 zero-variance")
    def test_bridge(self, name):
        X, y = _dense_fit_case(name)
        post, ref = fit_bridge(X, y), bridge_reference(X, y)
        assert post.metadata["lambda_hat"] == ref.metadata["lambda_hat"]
        _assert_matches_scipy_path(post, ref, name)


RANK_SIZES = [(400, 50), (240, 100), (20, 2), (3000, 50), (60, 10), (12, 9),
              (53, 50), (103, 100)]  # the last three have the minimum m = p + 3
RANK_OFFSETS = [0.0, 1e4, 1e6, 1e8]
RANK_LAST_COLUMNS = [None, 1e-6, 1e-8, 1e-10, 0.0, "constant"]


def _rank_design(m, p, offset, mixed_scales, last_column):
    """Gaussian columns, scaled 1e-3..1e3 if mixed; the last one a near-copy of
    the first at distance `last_column`, or constant; then every column offset."""
    gen = np.random.default_rng(0)
    X = gen.normal(size=(m, p))
    if mixed_scales:
        X *= np.geomspace(1e-3, 1e3, p)
    if last_column == "constant":
        X[:, -1] = 3.0
    elif last_column is not None:
        X[:, -1] = X[:, 0] + last_column * gen.normal(size=m)
    return X + offset, gen.normal(size=m)


def _rank_decision(fit, X, y):
    """None if the fit accepts the design, else its rank-deficiency message."""
    try:
        fit(X, y)
    except SingularDesignError as exc:
        return str(exc)
    return None


def _tolerance_ratio(X):
    """sigma_min of the intercept-augmented design over the rank tolerance
    max_j ||column j|| * max(m, d) * eps, from scipy's SVD of the design itself."""
    design = np.column_stack([np.ones(X.shape[0]), X])
    tol = np.linalg.norm(design, axis=0).max() * max(design.shape) * np.finfo(float).eps
    return scipy.linalg.svdvals(design)[-1] / tol


@pytest.mark.parametrize("m,p", RANK_SIZES, ids=[f"{m}x{p}" for m, p in RANK_SIZES])
def test_rank_decision_table(m, p):
    """``fit_bols`` rejects exactly when sigma_min <= tolerance, and as the pivoted QR did.

    Away from the threshold (ratio outside [0.8, 1.25]) the decision follows
    the ratio.  Every design the pivoted QR rejected is still rejected, with
    the same message, and outside [0.5, 1.25] the two decisions are equal.
    Inside it the new test may reject where the old one accepted: sigma_min
    <= min |r_ii| for any triangular R, so the pivoted diagonal can only
    overstate sigma_min.
    """
    wrong = []
    for offset, mixed, last in itertools.product(RANK_OFFSETS, [False, True], RANK_LAST_COLUMNS):
        X, y = _rank_design(m, p, offset, mixed, last)
        ratio = _tolerance_ratio(X)
        new, old = _rank_decision(fit_bols, X, y), _rank_decision(bols_reference, X, y)
        follows_ratio = 0.8 <= ratio <= 1.25 or (new is None) == (ratio > 1)
        if 0.5 <= ratio <= 1.25:
            matches_parent = old is None or new == old
        else:
            matches_parent = new == old
        if not (follows_ratio and matches_parent):
            wrong.append((offset, mixed, last, f"ratio {ratio:.3g}", new, old))
    assert not wrong


class TestFixtures:
    def test_constant_everywhere(self):
        post = constant_nuisance(5.0, 2)
        draw = post.sample_many(1, RNG.substream(27))[0]
        assert draw.tolist() == [5.0, 0.0, 0.0]
        assert _predict(draw, np.array([[1.0, 2.0], [0.0, -5.0]])).tolist() == [5.0, 5.0]

    def test_zero_posterior_mean(self):
        pm = zero_nuisance(7).posterior_mean()
        assert pm.tolist() == [0.0] * 8
        assert _predict(pm, np.ones((3, 7))).tolist() == [0.0, 0.0, 0.0]

    def test_constant_draws_identical(self):
        post = constant_nuisance(5.0, 3)
        a, b = post.sample_many(2, RNG.substream(28))
        assert a.tolist() == b.tolist() == [5.0, 0.0, 0.0, 0.0]
        assert post.sample_many(1, RNG.substream(29))[0].tolist() == a.tolist()

    def test_constant_rejects_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            constant_nuisance(float("nan"), 2)


class TestMakeFitter:
    def test_known_names(self):
        gen = RNG.substream(30).generator()
        X = gen.normal(size=(30, 2))
        y = X[:, 0] + gen.normal(size=30)
        for name in ("bols", "bridge", "zero", "constant:2.5"):
            post = make_fitter(name)(X, y, RNG.substream(31))
            # every fitter's rows are p + 1 = 3 wide, the fixtures' too
            assert post.posterior_mean().shape == (3,)
            assert post.sample_many(4, RNG.substream(32)).shape == (4, 3)

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            make_fitter("forest")
        with pytest.raises(InvalidParameterError):
            make_fitter("constant:abc")

    def test_more_columns_than_rows(self):
        # the R factor of [Z, y_c] has min(m, k + 1) = 12 rows here, not k + 1 = 31
        gen = RNG.substream(44).generator()
        X = gen.normal(size=(12, 30))
        y = 1.0 + X[:, 0] - 0.5 * X[:, 1] + 0.1 * gen.normal(size=12)
        _assert_matches_reference(X, y, GibbsConfig(burn_in=100, sweeps=400), RNG.substream(45))
