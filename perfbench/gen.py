"""Seeded input generator and the reference values the checks compare against.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR

Writes the workload's inputs (CSV files and/or a JSON config) into DIR plus
``expected.json``, which holds statistics computed here with numpy/scipy from
the generated arrays and closed forms of the design, never from ssmean.  The
same seed gives byte-identical files.  Runs as its own process so that the
runner never holds the arrays (see workloads.py).
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

import workloads as wl

ALPHA = 0.05  # ssmean's default credible-interval miss level
N_DRAWS = 1000  # ssmean's default posterior draw count
DENSITY_GRID = 101
# tail probability under which a replication study's coverage is called too low
COVERAGE_TAIL = 1e-5


def _quantize(values: np.ndarray) -> np.ndarray:
    scale = 10.0**wl.DECIMALS
    return np.rint(values * scale) / scale


def draw_data(seed: int, n: int, n_unlabeled: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcomes, labeled features and unlabeled features, rounded to the CSV grid."""
    gen = np.random.default_rng(seed)
    beta = np.array(wl.signal_coefficients())
    noise_sd = math.sqrt(float(beta @ beta) / 5.0)
    X = gen.standard_normal((n + n_unlabeled, wl.P))
    y = wl.ALPHA0 + X[:n] @ beta + noise_sd * gen.standard_normal(n)
    return _quantize(y), _quantize(X[:n]), _quantize(X[n:])


def _write_csv(path: Path, header: list[str], matrix: np.ndarray) -> None:
    np.savetxt(path, matrix, fmt=f"%.{wl.DECIMALS}f", delimiter=",",
               header=",".join(header), comments="")


def data_reference(y: np.ndarray, X: np.ndarray, Xu: np.ndarray) -> dict:
    """Difference estimate, its plug-in SD, and the supervised t interval."""
    n, p = X.shape
    n_u = Xu.shape[0]
    design = np.column_stack([np.ones(n), X])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    slope = coef[1:]
    resid = y - design @ coef
    sigma1_sq = float(resid @ resid) / (n - p - 1)
    sigma2_sq = float(np.var(Xu @ slope, ddof=1))
    diff = float(y.mean() + slope @ (Xu.mean(axis=0) - X.mean(axis=0)))
    sd = math.sqrt(sigma1_sq / n + sigma2_sq / n_u)
    q = 1.0 - ALPHA / 2.0
    t_q = float(stats.t.ppf(q, n - 1))
    ybar = float(y.mean())
    se = float(y.std(ddof=1)) / math.sqrt(n)
    # Monte Carlo SD of an empirical q-quantile of N_DRAWS t draws (asymptotic)
    endpoint_sd = math.sqrt(q * (1.0 - q) / N_DRAWS) / float(stats.t.pdf(t_q, n - 1)) * se
    return {
        "n_labeled": n,
        "n_unlabeled": n_u,
        "n_features": p,
        "theta0": wl.ALPHA0,
        "diff_estimate": diff,
        "diff_sd": sd,
        "z": float(stats.norm.ppf(q)),
        "sup_ci": [ybar - t_q * se, ybar + t_q * se],
        "sup_endpoint_mc_sd": endpoint_sd,
    }


def simulation_reference(spec: dict) -> dict:
    """Closed forms of the simulated design and a binomial coverage floor."""
    beta = np.array(wl.signal_coefficients())
    n, n_u, reps = wl.N_LABELED, spec["n_unlabeled"], spec["reps"]
    t_q = float(stats.t.ppf(1.0 - ALPHA / 2.0, n - 1))
    min_hits = int(stats.binom.ppf(COVERAGE_TAIL, reps, 1.0 - ALPHA))
    return {
        "theta0": wl.ALPHA0,
        "ore": 1.2 / (0.2 + n / n_u),
        "reps": reps,
        "grid": DENSITY_GRID,
        "methods": spec["methods"],
        "sup_mean_len": 2.0 * t_q * math.sqrt(1.2 * float(beta @ beta) / n),
        "min_coverage": min_hits / reps,
    }


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload into `out`; return the reference values."""
    spec = wl.WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    cfg = wl.config(workload, str(out))
    if cfg is not None:
        (out / "config.json").write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    if spec["command"] == "simulate":
        expected = simulation_reference(spec)
    else:
        y, X, Xu = draw_data(seed, wl.N_LABELED, spec["n_unlabeled"])
        names = [f"x{j + 1}" for j in range(wl.P)]
        _write_csv(out / "labeled.csv", ["y", *names], np.column_stack([y, X]))
        _write_csv(out / "unlabeled.csv", names, Xu)
        expected = data_reference(y, X, Xu)
    expected["workload"] = workload
    expected["seed"] = seed
    (out / "expected.json").write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
    return expected


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
