import json
import math
import os

import numpy as np
import pytest
from _oracles import mc_oracle_variances

from ssmean import (
    RngStream,
    SimDesign,
    emit_density_data,
    generate_dataset,
    oracle_ore,
    oracle_ore_star,
    run_replications,
)
from ssmean.errors import InvalidParameterError
from ssmean.simulation import DENSITY_GRID_SIZE, signal_coefficients, true_theta

RNG = RngStream(424242)


def _design(**overrides):
    base = dict(
        kind="correct", n=60, n_unlabeled=300, p=3, s=2,
        reps=4, n_folds=3, methods=("sup",), n_draws=200, alpha=0.05, seed=7,
    )
    base.update(overrides)
    return SimDesign(**base)


class TestDesign:
    def test_signal_coefficients(self):
        np.testing.assert_array_equal(signal_coefficients(4, 2), [1.0, 0.5, 0.0, 0.0])
        np.testing.assert_array_equal(signal_coefficients(5, 3), [1.0, 1.0, 0.5, 0.0, 0.0])

    def test_zero_sparsity_rejected(self):
        with pytest.raises(InvalidParameterError):
            _design(s=0)

    def test_sparsity_cannot_exceed_width(self):
        with pytest.raises(InvalidParameterError):
            _design(s=4, p=3)

    def test_bad_method_spec_rejected(self):
        with pytest.raises(InvalidParameterError):
            _design(methods=("sup", "bdmi"))

    @pytest.mark.parametrize("methods, named", [
        (("sup", "bdmi:bogus"), "bogus"),
        (("sup", "bdmi:bols", "imp:bols", "bdmi:bols"), "'bdmi:bols' is listed twice"),
    ], ids=["unknown-nuisance", "repeated"])
    def test_spec_rejected_at_construction(self, methods, named):
        with pytest.raises(InvalidParameterError, match=named):
            _design(methods=methods)

    def test_true_theta(self):
        assert true_theta(_design(p=4, s=2)) == 5.0
        # quadratic designs shift the mean by the squared-direction norm
        miss = _design(kind="misspec", p=10, s=2)
        assert true_theta(miss) == pytest.approx(5.0 + math.sqrt(1.25 / 27))


class TestGenerators:
    def test_correct_outcome_mean(self):
        design = _design(p=4, s=2, n=10**6, n_unlabeled=1)
        data = generate_dataset(design, RNG.substream(1))
        var_y = 1.2 * 1.25  # Var(Y) = 1.2 * ||beta0||^2
        assert abs(data.outcomes.mean() - 5.0) <= 4 * math.sqrt(var_y / 10**6)

    def test_correct_signal_variance(self):
        design = _design(p=4, s=2, n=10**6, n_unlabeled=1)
        data = generate_dataset(design, RNG.substream(2))
        m0 = 5.0 + data.features @ signal_coefficients(4, 2)
        assert abs(m0.var() - 1.25) <= 0.01 * 1.25

    def test_misspec_signal_ratio(self):
        # sqrt(E[(beta'X)^2] / E[(gamma'X)^4]) is calibrated to 3
        design = _design(kind="misspec", p=10, s=2, n=10**6, n_unlabeled=1)
        data = generate_dataset(design, RNG.substream(3))
        beta0 = signal_coefficients(10, 2)
        beta_norm = math.sqrt(float(beta0 @ beta0))
        gamma_norm_sq = beta_norm / (3 * math.sqrt(3))
        u = data.features @ beta0
        quad = (math.sqrt(gamma_norm_sq) / beta_norm * u) ** 2
        ratio = math.sqrt(np.mean(u**2) / np.mean(quad**2))
        assert ratio == pytest.approx(3.0, rel=0.02)

    def test_misspec_outcome_mean(self):
        design = _design(kind="misspec", p=6, s=2, n=10**6, n_unlabeled=1)
        data = generate_dataset(design, RNG.substream(4))
        theta0 = true_theta(design)
        assert abs(data.outcomes.mean() - theta0) <= 4 * data.outcomes.std() / 1000

    def test_shapes(self):
        data = generate_dataset(_design(), RNG.substream(5))
        assert data.features.shape == (60, 3)
        assert data.unlabeled_features.shape == (300, 3)

    def test_determinism(self):
        a = generate_dataset(_design(), RNG.substream(6))
        b = generate_dataset(_design(), RNG.substream(6))
        np.testing.assert_array_equal(a.outcomes, b.outcomes)
        np.testing.assert_array_equal(a.unlabeled_features, b.unlabeled_features)


class TestOracles:
    def test_paper_scale_value(self):
        assert oracle_ore(_design(n=500, n_unlabeled=10000)) == pytest.approx(4.80)

    def test_equal_sizes_limit(self):
        assert oracle_ore(_design(n=300, n_unlabeled=300)) == pytest.approx(1.0)

    def test_correct_case_star_equals_ore(self):
        design = _design(n=500, n_unlabeled=10000)
        assert oracle_ore_star(design) == pytest.approx(oracle_ore(design))

    def test_misspec_star_analytic_value(self):
        design = _design(kind="misspec", p=10, s=3, n=500, n_unlabeled=10000)
        # closed form: (29/135 * 6) / (39/135 + 1/20)
        assert oracle_ore_star(design) == pytest.approx(1.28889 / 0.33889, abs=2e-3)

    def test_analytic_matches_monte_carlo(self):
        for kind in ("correct", "misspec"):
            design = _design(kind=kind, p=10, s=3, n=500, n_unlabeled=10000)
            mc = mc_oracle_variances(design, n_samples=10**7)
            c = design.n / design.n_unlabeled
            star_mc = mc["var_y"] / (mc["sigma1_sq_star"] + c * mc["sigma2_sq_star"])
            assert oracle_ore_star(design) == pytest.approx(star_mc, rel=0.005)


class TestRunReplications:
    def test_supervised_only_re_is_one(self):
        table = run_replications(_design())
        assert table.re["sup"] == 1.0

    def test_deterministic_output(self):
        design = _design(methods=("sup", "bdmi:bols"))
        a = run_replications(design)
        b = run_replications(design)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )
        assert a.to_csv() == b.to_csv()

    def test_parallel_equals_sequential(self):
        design = _design(methods=("sup", "bdmi:bols"), reps=6)
        seq = run_replications(design, jobs=1)
        par = run_replications(design, jobs=3)
        assert seq.to_csv() == par.to_csv()
        for m in design.methods:
            np.testing.assert_array_equal(seq.estimates[m], par.estimates[m])

    def test_metrics_shapes(self):
        design = _design(methods=("sup", "bdmi:zero"), reps=5)
        results = run_replications(design)
        assert results.estimates["sup"].shape == (5,)
        assert set(results.covp) == {"sup", "bdmi:zero"}
        assert 0.0 <= results.covp["sup"] <= 1.0
        assert results.ore_star is None  # correct design

    def test_kept_draws_are_reps_by_draws(self):
        design = _design(methods=("sup", "bdmi:bols", "hbdmi:bols"), reps=3)
        results = run_replications(design, keep_draws=True)
        for m in design.methods:
            assert results.draws[m].shape == (design.reps, design.n_draws)

    def test_misspec_reports_star(self):
        design = _design(kind="misspec", methods=("sup",), reps=2)
        assert run_replications(design).ore_star is not None

    def test_scaled_variance_tracks_limit_variance(self):
        # n * Var of the debiased estimator lands within 20% of the limit
        # variance sigma1^2(m*) + (n/N) sigma2^2(m*) from the design oracle.
        # n is taken large enough that the one-draw nuisance noise, which
        # shrinks like (p+1)/n, sits well inside the stated band.
        design = SimDesign(
            kind="correct", n=2000, n_unlabeled=40000, p=50, s=7,
            reps=300, n_folds=5, methods=("sup", "bdmi:bols"),
            n_draws=200, alpha=0.05, seed=77001,
        )
        res = run_replications(design, jobs=2)
        mc = mc_oracle_variances(design)
        oracle_var = mc["sigma1_sq_star"] + 0.05 * mc["sigma2_sq_star"]
        est = res.estimates["bdmi:bols"]
        assert design.n * est.var() == pytest.approx(oracle_var, rel=0.2)
        assert est.var() <= res.estimates["sup"].var()

    def test_re_grows_as_unlabeled_share_grows(self):
        # efficiency gain is increasing in N/n; 100 reps per point
        res = []
        for n_unlabeled in (600, 1500, 6000):
            design = SimDesign(
                kind="correct", n=300, n_unlabeled=n_unlabeled, p=10, s=4,
                reps=100, n_folds=5, methods=("sup", "bdmi:bridge"),
                n_draws=300, alpha=0.05, seed=60,
            )
            res.append(run_replications(design, jobs=2).re["bdmi:bridge"])
        assert res[0] < res[1] < res[2]


class TestDensityEmission:
    def test_rows_and_normalization(self, tmp_path):
        # large draw count so the trapezoid integral of each histogram is ~1
        design = _design(
            n=12, n_unlabeled=12, p=1, s=1, reps=2, methods=("sup",), n_draws=10**5
        )
        results = run_replications(design, keep_draws=True)
        paths = emit_density_data(results, tmp_path)
        assert len(paths) == 1
        rows = paths[0].read_text().strip().splitlines()
        assert rows[0] == "replication,grid_point,density"
        assert len(rows) - 1 == design.reps * DENSITY_GRID_SIZE
        body = np.array([row.split(",") for row in rows[1:]], dtype=float)
        for rep in range(design.reps):
            part = body[body[:, 0] == rep]
            integral = np.trapezoid(part[:, 2], part[:, 1])
            assert integral == pytest.approx(1.0, abs=1e-3)

    def test_point_mass_is_single_spike(self, tmp_path):
        design = _design(
            reps=1, methods=("imp:constant:4.5",), n_draws=500, n=30, n_unlabeled=30
        )
        results = run_replications(design, keep_draws=True)
        paths = emit_density_data(results, tmp_path)
        body = np.array(
            [row.split(",") for row in paths[0].read_text().strip().splitlines()[1:]],
            dtype=float,
        )
        nonzero = body[body[:, 2] > 0]
        assert nonzero.shape[0] == 1
        assert nonzero[0, 1] == pytest.approx(4.5, abs=0.01)

    def test_parallel_files_equal_sequential(self, tmp_path):
        design = _design(methods=("sup", "bdmi:bols"), reps=5)
        texts = {}
        for jobs in (1, 2):
            paths = emit_density_data(run_replications(design, jobs=jobs, keep_draws=True),
                                      tmp_path / f"jobs{jobs}")
            texts[jobs] = [path.read_bytes() for path in paths]
        assert len(texts[1]) == 2 and texts[1] == texts[2]

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        results = run_replications(_design(reps=1, methods=("sup", "bdmi:bols")),
                                   keep_draws=True)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            emit_density_data(results, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_requires_kept_draws(self, tmp_path):
        results = run_replications(_design())
        with pytest.raises(InvalidParameterError):
            emit_density_data(results, tmp_path)
