"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s -v` to see the criterion lines as
they complete.  The replication studies are seeded, so every run reproduces
the same numbers; expect a few minutes of wall time.

Criterion 5 contrasts plain imputation with `bdmi` under a nuisance whose
bias imputation cannot undo.  The shipped `bols` and `bridge` posteriors put a
flat prior on the intercept of a centred design, so imputation with them is
exactly the difference estimator ybar + b'(xbar_u - xbar_l).  Under Gaussian
features b is independent of xbar_l, so that estimator is unbiased however
hard b is shrunk (`imp:bridge` covers 0.960 at the criterion's design).  The
check therefore uses a conjugate ridge posterior whose one Gaussian prior, of
`bridge`'s CV-chosen precision, covers the intercept as well: the shrunk
intercept leaves a labeled mean residual that imputation carries into its
estimate and that `bdmi` models on held-out rows.  `imp:bridge` coverage is
printed for reference and not asserted.
"""

import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import kstest
from _oracles import bridge_reference, convolution_quantiles

from ssmean import (
    Dataset,
    RngStream,
    SimDesign,
    TComponent,
    bdmi_cf,
    fit_bridge,
    fold_posterior,
    generate_dataset,
    imputation_posterior,
    make_fitter,
    mc_oracle_variances,
    run_method,
    run_replications,
    sample_convolution,
    sample_quantile,
    zero_nuisance,
)
from ssmean import _blas
from ssmean.cli import main
from ssmean.nuisance import MultivariateTPosterior
from ssmean.simulation import true_theta

JOBS = min(4, os.cpu_count() or 1)


def _one_blas_thread() -> None:
    # a spawned worker imports this module, and with it scipy, before it runs this,
    # so scipy's own OpenBLAS (which the ridge posterior below calls) is set as well
    _blas.set_one_thread()


def _pool_map(fn, *args):
    """`fn` over `args` on two workers with one BLAS thread each, results in order.

    Spawned, not forked, so no worker inherits a thread of this process.
    """
    count = len(args[0])
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn"),
                             initializer=_one_blas_thread) as pool:
        return list(pool.map(fn, *args, chunksize=max(1, count // 8)))


def _criterion(number: int, description: str, checks: list) -> None:
    """Print one line for the criterion and assert every check."""
    failed = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    details = "; ".join(f"{name}={detail}" for name, _, detail in checks)
    print(f"[criterion {number}] {status} — {description} ({details})")
    assert not failed, f"criterion {number} failed: {failed}"


# --- shared replication runs -------------------------------------------------

CORRECT_DESIGN = SimDesign(
    kind="correct", n=500, n_unlabeled=10000, p=50, s=7,
    reps=200, n_folds=5,
    methods=("sup", "bdmi:bols", "bdmi:bridge", "hbdmi:bols"),
    n_draws=1000, alpha=0.05, seed=202,
)

MISSPEC_DESIGN = SimDesign(
    kind="misspec", n=500, n_unlabeled=10000, p=10, s=3,
    reps=200, n_folds=5, methods=("sup", "bdmi:bols"),
    n_draws=1000, alpha=0.05, seed=55,
)

IMPUTATION_DESIGN = SimDesign(
    kind="correct", n=300, n_unlabeled=6000, p=100, s=10,
    reps=200, n_folds=5, methods=("sup", "bdmi:bridge", "imp:bridge"),
    n_draws=1000, alpha=0.05, seed=7,
)


@pytest.fixture(scope="module")
def correct_run():
    return run_replications(CORRECT_DESIGN, jobs=JOBS)


@pytest.fixture(scope="module")
def misspec_run():
    return run_replications(MISSPEC_DESIGN, jobs=JOBS)


# --- criterion 1: exact algebra ----------------------------------------------


def test_criterion_1_exact_algebra():
    checks = []

    # per-fold posterior hand example
    fp = fold_posterior(
        np.array([1.0, 2.0, 3.0]), np.zeros((3, 1)),
        np.array([[1.5], [3.5], [5.5]]), np.array([0.5, 1.0]),
    )
    hand_ok = (
        fp.t_bias.df == 2
        and abs(fp.t_bias.location - 1.5) < 1e-12
        and abs(fp.t_bias.scale_sq - 1 / 3) < 1e-12
        and fp.t_imputed.df == 2
        and abs(fp.t_imputed.location - 4.0) < 1e-12
        and abs(fp.t_imputed.scale_sq - 4 / 3) < 1e-12
    )
    checks.append(("fold_posterior_hand_example", hand_ok, "(2,1.5,1/3)/(2,4,4/3)"))

    # constant-shift invariance of the debiasing
    gen = RngStream(41, 7).generator()
    y = gen.normal(size=9)
    X = gen.normal(size=(9, 2))
    Xu = gen.normal(size=(11, 2))
    coef = gen.normal(size=2)
    base = fold_posterior(y, X, Xu, np.concatenate([[0.3], coef]))
    shift = fold_posterior(y, X, Xu, np.concatenate([[0.3 + 17.0], coef]))
    shift_err = max(
        abs(shift.t_bias.location + shift.t_imputed.location
            - base.t_bias.location - base.t_imputed.location),
        abs(shift.t_bias.scale_sq - base.t_bias.scale_sq),
        abs(shift.t_imputed.scale_sq - base.t_imputed.scale_sq),
    )
    checks.append(("debias_shift_invariance", shift_err <= 1e-12, f"max err {shift_err:.2e}"))

    # zero-nuisance point estimate equals the grand labeled mean
    gen = RngStream(42, 7).generator()
    data = Dataset(gen.normal(size=50), gen.normal(size=(50, 2)), gen.normal(size=(40, 2)))
    result = bdmi_cf(data, 4, lambda X, y, r: zero_nuisance(2), 200, 0.05, RngStream(1))
    mean_err = abs(result.point_estimate - data.outcomes.mean())
    checks.append(("zero_nuisance_grand_mean", mean_err <= 1e-12, f"err {mean_err:.2e}"))

    # bridge back-transform round trip
    gen = RngStream(43, 7).generator()
    Xb = gen.normal(loc=2.0, scale=3.0, size=(60, 4))
    yb = 1.0 + Xb @ np.array([0.5, -1.0, 0.0, 0.25]) + 0.2 * gen.normal(size=60)
    post, ref = fit_bridge(Xb, yb), bridge_reference(Xb, yb)
    x_new = gen.normal(loc=2.0, scale=3.0, size=(10, 4))
    mean_row = post.posterior_mean()
    direct = x_new @ mean_row[1:] + mean_row[0]
    # the reference keeps its standardized-scale state
    z_new = (x_new - ref._xbar) / ref._sdev
    via_std = ref._loc_std[0] + z_new[:, ref._keep] @ ref._loc_std[1:]
    rt_err = float(np.max(np.abs(direct - via_std)))
    checks.append(("bridge_round_trip", rt_err <= 1e-10, f"max err {rt_err:.2e}"))

    _criterion(1, "exact-algebra suite", checks)


# --- criterion 2: convolution oracle ------------------------------------------


def _convolution_error(a: TComponent, b: TComponent, i: int) -> float:
    """Worst sampled-quantile error over tolerance of parameter set i."""
    draws = sample_convolution(a, b, 10**7, RngStream(7000, i))
    numeric = convolution_quantiles(a, b, [0.1, 0.5, 0.9])
    tol = 0.005 * max(math.sqrt(a.scale_sq), math.sqrt(b.scale_sq))
    sampled = sample_quantile(draws, [0.1, 0.5, 0.9])
    return max(abs(value - expected) / tol for value, expected in zip(sampled, numeric))


def test_criterion_2_convolution_oracle():
    gen = RngStream(918273).generator()
    pairs = []
    for _ in range(20):
        a = TComponent(df=float(gen.integers(5, 41)), location=float(gen.uniform(-3, 3)),
                       scale_sq=float(gen.uniform(0.2, 2.5)))
        b = TComponent(df=float(gen.integers(5, 41)), location=float(gen.uniform(-3, 3)),
                       scale_sq=float(gen.uniform(0.2, 2.5)))
        pairs.append((a, b))
    worst = max(_pool_map(_convolution_error, *zip(*pairs), range(len(pairs))))
    _criterion(
        2, "sampled vs numeric t-convolution quantiles, 20 parameter sets",
        [("worst_error_over_tolerance", worst <= 1.0, f"{worst:.3f}")],
    )


# --- criteria 3, 7, 8: correct-specification replication ----------------------


def test_criterion_3_correct_specification(correct_run):
    t = correct_run
    checks = [
        ("re_bols", 3.2 <= t.re["bdmi:bols"] <= 5.3, f"{t.re['bdmi:bols']:.2f}"),
        ("re_bridge", 3.2 <= t.re["bdmi:bridge"] <= 5.3, f"{t.re['bdmi:bridge']:.2f}"),
        ("re_bols_vs_oracle", t.re["bdmi:bols"] <= t.ore + 0.6, f"ore {t.ore:.2f}"),
        ("re_bridge_vs_oracle", t.re["bdmi:bridge"] <= t.ore + 0.6, f"ore {t.ore:.2f}"),
        ("covp_sup", 0.91 <= t.covp["sup"] <= 0.98, f"{t.covp['sup']:.3f}"),
        ("covp_bdmi_bols", 0.91 <= t.covp["bdmi:bols"] <= 0.98, f"{t.covp['bdmi:bols']:.3f}"),
        ("covp_bdmi_bridge", 0.91 <= t.covp["bdmi:bridge"] <= 0.98, f"{t.covp['bdmi:bridge']:.3f}"),
    ]
    for tag in ("bdmi:bols", "bdmi:bridge"):
        ratio = t.mean_len[tag] / t.mean_len["sup"]
        checks.append((f"len_ratio_{tag.split(':')[1]}", 0.40 <= ratio <= 0.62, f"{ratio:.3f}"))
    _criterion(3, "correct-specification replication (n=500, N=10000, p=50, s=7)", checks)


def test_criterion_7_efficiency_ordering(correct_run):
    sup = correct_run.estimates["sup"]
    bdmi = correct_run.estimates["bdmi:bols"]
    gen = np.random.default_rng(171717)
    n_boot = 2000
    wins = 0
    for _ in range(n_boot):
        idx = gen.integers(0, sup.shape[0], sup.shape[0])
        wins += bdmi[idx].var() <= sup[idx].var()
    fraction = wins / n_boot
    _criterion(
        7, "variance ordering across bootstrap resamples of the replications",
        [("fraction", fraction >= 0.95, f"{fraction:.3f}")],
    )


def test_criterion_8_hbdmi_parity(correct_run):
    t = correct_run
    gap = abs(t.re["hbdmi:bols"] - t.re["bdmi:bols"])
    checks = [
        ("re_gap", gap <= 0.8, f"{gap:.2f}"),
        ("covp_hbdmi", 0.92 <= t.covp["hbdmi:bols"] <= 0.99, f"{t.covp['hbdmi:bols']:.3f}"),
    ]
    _criterion(8, "hierarchical variant parity on the correct design", checks)


# --- criterion 4: misspecification replication ---------------------------------


def test_criterion_4_misspecification(misspec_run):
    t = misspec_run
    est = misspec_run.estimates["bdmi:bols"]
    mc = mc_oracle_variances(MISSPEC_DESIGN)
    oracle_var = mc["sigma1_sq_star"] + (
        MISSPEC_DESIGN.n / MISSPEC_DESIGN.n_unlabeled
    ) * mc["sigma2_sq_star"]
    nvar_ratio = MISSPEC_DESIGN.n * est.var() / oracle_var
    checks = [
        ("re", 2.1 <= t.re["bdmi:bols"] <= 3.9, f"{t.re['bdmi:bols']:.2f}"),
        ("covp", 0.91 <= t.covp["bdmi:bols"] <= 0.98, f"{t.covp['bdmi:bols']:.3f}"),
        ("n_var_vs_oracle", 0.8 <= nvar_ratio <= 1.2, f"{nvar_ratio:.3f}"),
    ]
    # the 2.89 reference oracle is reported, never asserted: this
    # construction's achievable oracle is ~3.80 (the quadratic direction is
    # underdetermined, so the two readings differ)
    print(
        f"[criterion 4 info] achievable oracle RE here {t.ore_star:.2f}; "
        "reference value 2.89 reported for comparison only"
    )
    _criterion(4, "misspecification replication (p=10, s=3, bols)", checks)


# --- criterion 5: imputation failure demonstration -----------------------------


def _ridge_with_intercept(features, outcomes, rng):
    """Conjugate ridge posterior whose one Gaussian prior covers the intercept too.

    The prior N(0, sigma^2 / lambda I) on (intercept, standardized
    coefficients) takes `fit_bridge`'s CV-chosen precision lambda_hat; with the
    reference prior on sigma^2 the coefficients are multivariate t with
    df = m.  The intercept is shrunk toward zero, so the fit's labeled mean
    residual is not zero.
    """
    lam = fit_bridge(features, outcomes).metadata["lambda_hat"]
    m, p = features.shape
    xbar, sdev = features.mean(axis=0), features.std(axis=0)
    design = np.column_stack([np.ones(m), (features - xbar) / sdev])
    chol = scipy.linalg.cholesky(design.T @ design + lam * np.eye(p + 1))
    dty = design.T @ outcomes
    loc = scipy.linalg.cho_solve((chol, False), dty)
    scale = math.sqrt(float(outcomes @ outcomes - dty @ loc) / m)
    factor = scale * scipy.linalg.solve_triangular(chol, np.eye(p + 1))
    # (intercept, standardized coefficients) -> raw feature scale
    to_raw = np.diag(np.concatenate([[1.0], 1.0 / sdev]))
    to_raw[0, 1:] = -xbar / sdev
    return MultivariateTPosterior(
        "ridge_intercept", m, to_raw @ loc, to_raw @ factor, {"lambda_hat": lam}
    )


def _imputation_contrast_hits(rep: int) -> dict:
    """Coverage hits of one replication, on `run_replications`' substreams.

    The data come from the replication's substream 0 and each method from the
    substream of its design slot, so `imp:bridge` reproduces the simulation
    harness and the ridge-with-intercept legs share its streams.
    """
    d = IMPUTATION_DESIGN
    rep_rng = RngStream(d.seed).substream(rep + 1)
    data = generate_dataset(d, rep_rng.substream(0))
    bdmi_rng = rep_rng.substream(d.methods.index("bdmi:bridge") + 1)
    imp_rng = rep_rng.substream(d.methods.index("imp:bridge") + 1)
    results = {
        "bdmi": bdmi_cf(data, d.n_folds, _ridge_with_intercept, d.n_draws, d.alpha, bdmi_rng),
        "imp": imputation_posterior(data, _ridge_with_intercept, d.n_draws, d.alpha, imp_rng),
        "imp:bridge": run_method(
            "imp:bridge", data, d.n_folds, d.n_draws, d.alpha, d.gibbs, imp_rng
        ),
    }
    theta0 = true_theta(d)
    return {tag: res.ci[0] <= theta0 <= res.ci[1] for tag, res in results.items()}


def test_criterion_5_imputation_failure():
    hits = _pool_map(_imputation_contrast_hits, range(IMPUTATION_DESIGN.reps))
    covp = {tag: float(np.mean([h[tag] for h in hits])) for tag in hits[0]}
    # with a flat-prior intercept imputation is the unbiased difference
    # estimator here, so its coverage is reported, never asserted
    print(f"[criterion 5 info] imp:bridge coverage {covp['imp:bridge']:.3f}")
    checks = [
        ("covp_imputation", covp["imp"] < 0.85, f"{covp['imp']:.3f}"),
        ("covp_bdmi", 0.91 <= covp["bdmi"] <= 0.98, f"{covp['bdmi']:.3f}"),
    ]
    _criterion(
        5, "imputation failure under a ridge prior that shrinks the intercept "
        "(p=100, s=10)", checks,
    )


# --- criterion 6: BvM shape property -------------------------------------------


def test_criterion_6_posterior_shape():
    """Mean KS below 0.02 at n=2000 and no significant KS increase in n.

    The monotonicity clause is checked as the statistical test the criterion
    names: with 10^4 draws the KS statistic of an exactly normal sample is
    ~0.006 while the true distributional distances here are ~5e-4, so strict
    ordering of the seed means is noise; we therefore reject only if a
    seed-paired increase exceeds twice its standard error.
    """
    fitter = make_fitter("bols")
    sizes = (500, 2000, 8000)
    stats = {}
    for n in sizes:
        per_seed = []
        for seed in range(20):
            design = SimDesign(
                kind="correct", n=n, n_unlabeled=20 * n, p=10, s=4,
                reps=1, methods=("sup",), seed=seed,
            )
            base = RngStream(seed)
            data = generate_dataset(design, base.substream(0))
            result = bdmi_cf(data, 5, fitter, 10**4, 0.05, base.substream(1))
            z = (result.draws - result.draws.mean()) / result.draws.std()
            per_seed.append(kstest(z, "norm").statistic)
        stats[n] = np.array(per_seed)
    checks = [
        ("mean_ks_n2000", stats[2000].mean() < 0.02, f"{stats[2000].mean():.4f}")
    ]
    for lo, hi in zip(sizes, sizes[1:]):
        diff = stats[lo] - stats[hi]
        se = diff.std(ddof=1) / math.sqrt(diff.shape[0])
        ok = diff.mean() >= -2.0 * se
        checks.append(
            (f"no_significant_increase_{lo}_to_{hi}", ok, f"{diff.mean():+.5f}±{se:.5f}")
        )
    _criterion(6, "posterior shape is normal and does not degrade with n", checks)


# --- criterion 9: determinism ---------------------------------------------------


def _write_synthetic_csvs(tmp_path):
    design = SimDesign(kind="correct", n=60, n_unlabeled=400, p=2, s=2, seed=31)
    data = generate_dataset(design, RngStream(31, 5))
    names = ["x0", "x1"]
    labeled = tmp_path / "labeled.csv"
    with open(labeled, "w") as fh:
        fh.write("y," + ",".join(names) + "\n")
        for yi, row in zip(data.outcomes, data.features):
            fh.write(",".join([repr(float(yi))] + [repr(float(v)) for v in row]) + "\n")
    unlabeled = tmp_path / "unlabeled.csv"
    with open(unlabeled, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in data.unlabeled_features:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return str(labeled), str(unlabeled)


def test_criterion_9_determinism(tmp_path):
    labeled, unlabeled, = _write_synthetic_csvs(tmp_path)
    checks = []

    est_out = tmp_path / "est.json"
    est_args = ["estimate", "--labeled", labeled, "--unlabeled", unlabeled,
                "--method", "bdmi", "--nuisance", "bridge", "--k", "4",
                "--m", "500", "--seed", "13", "--out", str(est_out)]
    assert main(est_args) == 0
    first = est_out.read_bytes()
    assert main(est_args) == 0
    checks.append(("estimate_rerun_identical", est_out.read_bytes() == first, "bytes"))

    cmp_out = tmp_path / "cmp.json"
    cmp_args = ["compare", "--labeled", labeled, "--unlabeled", unlabeled,
                "--method", "bdmi", "--nuisance", "bols", "--k", "4",
                "--m", "500", "--seed", "13", "--out", str(cmp_out)]
    assert main(cmp_args) == 0
    first_cmp = cmp_out.read_bytes()
    assert main(cmp_args) == 0
    checks.append(("compare_rerun_identical", cmp_out.read_bytes() == first_cmp, "bytes"))

    sim_config = tmp_path / "sim_config.json"
    sim_config.write_text(json.dumps({
        "kind": "correct", "n": 45, "n_unlabeled": 150, "p": 2, "s": 2,
        "reps": 8, "methods": ["sup", "bdmi:bols"], "m": 300, "k": 3,
        "seed": 5, "out": str(tmp_path / "sim"),
    }))
    assert main(["simulate", "--config", str(sim_config), "--jobs", "1"]) == 0
    seq = (tmp_path / "sim.json").read_bytes(), (tmp_path / "sim.csv").read_bytes()
    assert main(["simulate", "--config", str(sim_config), "--jobs", "8"]) == 0
    par = (tmp_path / "sim.json").read_bytes(), (tmp_path / "sim.csv").read_bytes()
    checks.append(("simulate_jobs8_equals_sequential", seq == par, "bytes"))

    _criterion(9, "byte-identical reruns, parallel equals sequential", checks)
