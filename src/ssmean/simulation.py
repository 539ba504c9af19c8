"""Synthetic-data experiments: data generators, efficiency oracles, metrics.

Two designs are supported.  Under ``correct`` the outcome mean is linear in
Gaussian features, so a linear nuisance can recover it; under ``misspec`` a
quadratic term is added whose direction is parallel to the linear signal,
calibrated so the linear and quadratic parts have a 3:1 root-mean-square
ratio.  Replications are independent jobs keyed by replication index and
reduced in index order, so results are byte-identical for a fixed seed
regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import _blas
from .data import Dataset
from .errors import InvalidParameterError, SsmeanError
from .estimators import (
    STARTS,
    EstimationResult,
    bdmi_cf,
    hbdmi_cf,
    imputation_posterior,
    supervised_posterior,
    unlabeled_pass,
)
from .io import write_text_atomic
from .nuisance import Fitter, GibbsConfig, make_fitter
from .rng import RngStream

__all__ = [
    "SimDesign",
    "SimulationResults",
    "parse_method_spec",
    "run_method",
    "run_methods",
    "signal_coefficients",
    "generate_dataset",
    "oracle_ore",
    "oracle_ore_star",
    "run_replications",
    "emit_density_data",
]

DENSITY_GRID_SIZE = 101

SUPERVISED = "sup"

# method family -> estimator(data, fitter, n_folds, n_draws, alpha, rng): run_method's
# adapter onto the wrappers that perfbench's SPANS traces, until SPANS is keyed on the
# stages of STARTS (ROADMAP item 1).  Looked up when called, so a wrapped one is seen.
ESTIMATORS = {
    "sup": lambda data, fitter, k, m, alpha, rng: supervised_posterior(data, m, alpha, rng),
    "bdmi": lambda data, fitter, k, m, alpha, rng: bdmi_cf(data, k, fitter, m, alpha, rng),
    "hbdmi": lambda data, fitter, k, m, alpha, rng: hbdmi_cf(data, k, fitter, m, alpha, rng),
    "imp": lambda data, fitter, k, m, alpha, rng: imputation_posterior(data, fitter, m, alpha, rng),
}


def parse_method_spec(spec: str, gibbs: GibbsConfig | None = None) -> tuple[str, Fitter | None]:
    """Resolve 'bdmi:bols' to (family, fitter) through STARTS and make_fitter; 'sup' has none."""
    family, _, nuisance = spec.partition(":")
    if family not in STARTS:
        raise InvalidParameterError(f"unknown method {family!r}; expected one of {tuple(STARTS)}")
    if family == SUPERVISED:
        if nuisance:
            raise InvalidParameterError("the supervised method takes no nuisance")
        return family, None
    if not nuisance:
        raise InvalidParameterError(f"method {family!r} needs a nuisance, e.g. {family}:bols")
    return family, make_fitter(nuisance, gibbs)


@dataclass(frozen=True)
class SimDesign:
    """One experiment cell: data-generating process plus estimator settings."""

    kind: str
    n: int
    n_unlabeled: int
    p: int
    s: int
    alpha0: float = 5.0
    reps: int = 200
    n_folds: int = 5
    methods: tuple[str, ...] = ("sup", "bdmi:bridge")
    n_draws: int = 1000
    alpha: float = 0.05
    seed: int = 0
    gibbs: GibbsConfig = field(default_factory=GibbsConfig)

    def __post_init__(self) -> None:
        if self.kind not in ("correct", "misspec"):
            raise InvalidParameterError(f"design kind must be correct|misspec, got {self.kind!r}")
        if self.s < 1 or self.s > self.p:
            raise InvalidParameterError(
                f"sparsity must satisfy 1 <= s <= p, got s={self.s}, p={self.p}"
            )
        if self.reps < 1:
            raise InvalidParameterError(f"reps must be >= 1, got {self.reps}")
        if self.n < 1 or self.n_unlabeled < 1 or self.p < 1:
            raise InvalidParameterError("n, n_unlabeled and p must all be >= 1")
        if not (0.0 < self.alpha < 1.0):
            raise InvalidParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        object.__setattr__(self, "methods", tuple(self.methods))
        for spec in self.methods:
            if self.methods.count(spec) > 1:
                raise InvalidParameterError(f"method {spec!r} is listed twice")
            parse_method_spec(spec, self.gibbs)


def signal_coefficients(p: int, s: int) -> np.ndarray:
    """Signal vector: ceil(s/2) ones, then floor(s/2) halves, then zeros."""
    beta = np.zeros(p)
    ones = (s + 1) // 2
    beta[:ones] = 1.0
    beta[ones:s] = 0.5
    return beta


def _constants(design: SimDesign) -> dict:
    beta0 = signal_coefficients(design.p, design.s)
    beta_norm_sq = float(beta0 @ beta0)
    if design.kind == "correct":
        gamma_norm_sq = 0.0
    else:
        # quadratic direction parallel to beta0 with 3:1 linear/quadratic rms ratio
        gamma_norm_sq = math.sqrt(beta_norm_sq) / (3.0 * math.sqrt(3.0))
    var_m0 = beta_norm_sq + 2.0 * gamma_norm_sq**2
    sigma0_sq = var_m0 / 5.0
    theta0 = design.alpha0 + gamma_norm_sq
    return {
        "beta0": beta0,
        "beta_norm_sq": beta_norm_sq,
        "gamma_norm_sq": gamma_norm_sq,
        "var_m0": var_m0,
        "sigma0_sq": sigma0_sq,
        "theta0": theta0,
    }


def true_theta(design: SimDesign) -> float:
    return _constants(design)["theta0"]


def generate_dataset(design: SimDesign, rng: RngStream) -> Dataset:
    """One labeled and unlabeled sample from the design's mean function.

    "correct": Y | X ~ N(alpha0 + X'beta0, sigma0^2); "misspec" adds a
    quadratic term that a linear nuisance cannot represent.
    """
    c = _constants(design)
    gen = rng.generator()
    total = design.n + design.n_unlabeled
    X = gen.standard_normal((total, design.p))
    linear = X @ c["beta0"]
    m0 = design.alpha0 + linear
    if design.kind == "misspec":
        ratio_sq = c["gamma_norm_sq"] / c["beta_norm_sq"]  # ||gamma||^2 / ||beta||^2
        m0 = m0 + ratio_sq * linear**2
    y = m0[: design.n] + math.sqrt(c["sigma0_sq"]) * gen.standard_normal(design.n)
    return Dataset(
        outcomes=y,
        features=X[: design.n],
        unlabeled_features=X[design.n :],
    )


def oracle_ore(design: SimDesign) -> float:
    """Best-case asymptotic efficiency gain over the supervised estimator.

    Under the 1:5 noise calibration this is 1.2 / (0.2 + n/N) for both
    designs, since the residual variance under the true mean is Var(m0)/5.
    """
    c = design.n / design.n_unlabeled
    return 1.2 / (0.2 + c)


def oracle_ore_star(design: SimDesign) -> float:
    """Achievable efficiency gain when the nuisance contracts to the best
    linear predictor rather than the true mean (equals the best case for the
    correct design)."""
    cst = _constants(design)
    c = design.n / design.n_unlabeled
    var_y = cst["sigma0_sq"] + cst["var_m0"]
    sigma1_star = cst["sigma0_sq"] + 2.0 * cst["gamma_norm_sq"] ** 2
    sigma2_star = cst["beta_norm_sq"]
    return var_y / (sigma1_star + c * sigma2_star)


@dataclass(frozen=True)
class SimulationResults:
    """One design cell's replications: per-method estimates and metrics.

    ``estimates[m]`` holds one point estimate per replication and ``draws[m]``,
    when kept, a reps x n_draws array.  ``re`` is null without the supervised
    baseline, and for an exact method, whose ratio is infinite.
    """

    design: SimDesign
    estimates: dict
    mse: dict
    re: dict
    covp: dict
    mean_len: dict
    draws: dict | None = None

    @property
    def theta0(self) -> float:
        return true_theta(self.design)

    @property
    def ore(self) -> float:
        return oracle_ore(self.design)

    @property
    def ore_star(self) -> float | None:
        return oracle_ore_star(self.design) if self.design.kind == "misspec" else None

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            # every design field but the sampler settings, which the config echo carries
            "design": {f.name: getattr(self.design, f.name) for f in fields(self.design)
                       if f.name != "gibbs"},
            "theta0": self.theta0,
            "ore": self.ore,
            "ore_star": self.ore_star,
            "metrics": {
                m: {
                    "mse": self.mse[m],
                    "re": self.re[m],
                    "covp": self.covp[m],
                    "mean_len": self.mean_len[m],
                }
                for m in self.design.methods
            },
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", "mse", "re", "covp", "mean_len"])
        for m in self.design.methods:
            re = self.re[m]
            writer.writerow(
                [
                    m,
                    repr(self.mse[m]),
                    "" if re is None else repr(re),
                    repr(self.covp[m]),
                    repr(self.mean_len[m]),
                ]
            )
        return buf.getvalue()


def run_method(
    spec: str,
    data: Dataset,
    n_folds: int,
    n_draws: int,
    alpha: float,
    gibbs: GibbsConfig,
    rng: RngStream,
) -> EstimationResult:
    """Dispatch a method spec like 'sup' or 'bdmi:bols' onto a dataset."""
    family, fitter = parse_method_spec(spec, gibbs)
    return ESTIMATORS[family](data, fitter, n_folds, n_draws, alpha, rng)


@_blas.one_thread()
def run_methods(streams: dict[str, RngStream], data: Dataset, n_folds: int, n_draws: int,
                alpha: float, gibbs: GibbsConfig) -> dict[str, EstimationResult]:
    """Run each spec on its stream, all on one dataset, reading its unlabeled rows once.

    Every spec's fits and the draws that need no unlabeled row run first, in
    order; then one pass over the unlabeled rows feeds them all, and each
    spec samples.  Each result equals ``run_method``'s for its spec and
    stream.
    """
    started = []
    for spec, rng in streams.items():
        family, fitter = parse_method_spec(spec, gibbs)
        started.append(STARTS[family](data, fitter, n_folds, n_draws, alpha, rng))
    return dict(zip(streams, unlabeled_pass(data.unlabeled_features, started)))


def _replicate(design: SimDesign, rep: int, keep_draws: bool) -> list[tuple]:
    """Replication rep's (point, lo, hi, draws or None), one tuple per method."""
    rep_rng = RngStream(design.seed).substream(rep + 1)
    data = generate_dataset(design, rep_rng.substream(0))
    out = []
    for i, spec in enumerate(design.methods):
        try:
            result = run_method(
                spec, data, design.n_folds, design.n_draws, design.alpha,
                design.gibbs, rep_rng.substream(i + 1),
            )
        except SsmeanError as exc:
            exc.args = (f"replication {rep}, method {spec}: {exc}",)
            raise
        out.append((result.point_estimate, *result.ci, result.draws if keep_draws else None))
    return out


def run_replications(
    design: SimDesign, jobs: int = 1, keep_draws: bool = False
) -> SimulationResults:
    """Run the design's replications and summarise MSE/RE/CovP/Len.

    Deterministic for a fixed seed: replication r always uses the substream
    keyed by r, and results are kept in replication order whatever the
    worker count.  Replications run BLAS on one thread, in the workers and in
    the sequential loop alike, unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
    is set; the caller's count is restored when the loop ends.
    """
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or design.reps == 1:
        with _blas.one_thread():
            rows = [_replicate(design, r, keep_draws) for r in range(design.reps)]
    else:
        # imported here: every CLI call would otherwise pay for the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs, initializer=_blas.set_one_thread) as pool:
            rows = list(
                pool.map(
                    _replicate,
                    [design] * design.reps,
                    range(design.reps),
                    [keep_draws] * design.reps,
                    chunksize=max(1, design.reps // (4 * jobs)),
                )
            )

    theta0 = true_theta(design)
    estimates, mse, covp, mean_len, draws = {}, {}, {}, {}, {}
    for i, m in enumerate(design.methods):
        estimates[m], lo, hi, draws[m] = (np.array(c) for c in zip(*(row[i] for row in rows)))
        mse[m] = float(np.mean((estimates[m] - theta0) ** 2))
        covp[m] = float(np.mean((lo <= theta0) & (theta0 <= hi)))
        mean_len[m] = float(np.mean(hi - lo))
    re = {
        m: mse[SUPERVISED] / mse[m] if SUPERVISED in mse and mse[m] > 0 else None
        for m in design.methods
    }
    return SimulationResults(design, estimates, mse, re, covp, mean_len,
                             draws if keep_draws else None)


def _density_rows(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = float(draws.min()), float(draws.max())
    if hi - lo < 1e-12:
        # point mass: a single spike bin in the middle of a unit window
        lo, hi = lo - 0.5, hi + 0.5
    density, edges = np.histogram(draws, bins=DENSITY_GRID_SIZE, range=(lo, hi), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


def emit_density_data(results: SimulationResults, directory: str | Path) -> list[Path]:
    """Write one CSV per method with per-replication histogram densities.

    Columns are (replication, grid_point, density); each replication
    contributes DENSITY_GRID_SIZE rows.
    """
    if results.draws is None:
        raise InvalidParameterError(
            "results carry no posterior draws; rerun with keep_draws=True"
        )
    written = []
    for method in results.design.methods:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["replication", "grid_point", "density"])
        for rep, draws in enumerate(results.draws[method]):
            centers, density = _density_rows(draws)
            for x, f in zip(centers, density):
                writer.writerow([rep, repr(float(x)), repr(float(f))])
        path = Path(directory) / f"density_{method.replace(':', '_')}.csv"
        write_text_atomic(path, buf.getvalue())
        written.append(path)
    return written
