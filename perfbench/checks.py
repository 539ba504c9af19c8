"""Correctness checks of ssmean's reports against the generator's reference values.

Each check function takes the parsed report file(s) of one operation and the
``expected.json`` written by gen.py, and returns a list of failure messages
(empty when the report is correct).  Only the stdlib is used, so the runner
stays small.
"""

from __future__ import annotations

import csv
import io
import json

# The bdmi interval length over 2·z·SD of the difference estimate.  The
# per-fold posteriors are fitted on 4/5 of the labeled rows and draw one
# regression function, which widens the interval beyond the plug-in;
# measured at 1.11-1.17 over 12 seeds of the ingest workload.
LENGTH_BAND = (1.0, 1.5)
# |bdmi point - difference estimate| in plug-in SDs: cross-fitting noise,
# measured at most 0.6 (RMS 0.3) over the same 12 seeds
POINT_TOL_SD = 1.5
# |point - design mean| in plug-in SDs
DESIGN_TOL_SD = 6.0
# supervised interval endpoints: tolerance in Monte Carlo SDs of a quantile
SUP_TOL_MC_SD = 6.0
# mean supervised interval length: relative tolerance over the replications
SUP_LEN_REL_TOL = 0.1
# a replication's histogram density must integrate to 1 within this
DENSITY_TOL = 1e-9


def _ci(result: dict) -> tuple[float, float]:
    lo, hi = result["ci"]
    return float(lo), float(hi)


def _check_sizes(result: dict, exp: dict, label: str) -> list[str]:
    diag = result["diagnostics"]
    return [
        f"{label}: {key} is {diag.get(key)!r}, generator wrote {exp[key]}"
        for key in ("n_labeled", "n_unlabeled", "n_features")
        if diag.get(key) != exp[key]
    ]


def _check_contains_difference(result: dict, exp: dict, label: str) -> list[str]:
    lo, hi = _ci(result)
    d = exp["diff_estimate"]
    if lo <= d <= hi:
        return []
    return [f"{label}: interval [{lo:.6g}, {hi:.6g}] misses the difference estimate {d:.6g}"]


def check_estimate(report: dict, exp: dict) -> list[str]:
    """ingest-estimate: one bdmi result on the generated CSVs."""
    failures = []
    (label, result), = report["results"].items()
    failures += _check_sizes(result, exp, label)
    failures += _check_contains_difference(result, exp, label)
    sd = exp["diff_sd"]
    point = float(result["point_estimate"])
    if abs(point - exp["diff_estimate"]) > POINT_TOL_SD * sd:
        failures.append(f"{label}: point {point:.6g} is more than {POINT_TOL_SD} SD "
                        f"from the difference estimate {exp['diff_estimate']:.6g}")
    if abs(point - exp["theta0"]) > DESIGN_TOL_SD * sd:
        failures.append(f"{label}: point {point:.6g} is more than {DESIGN_TOL_SD} SD "
                        f"from the design mean {exp['theta0']}")
    lo, hi = _ci(result)
    ratio = (hi - lo) / (2.0 * exp["z"] * sd)
    if not LENGTH_BAND[0] <= ratio <= LENGTH_BAND[1]:
        failures.append(f"{label}: interval length {hi - lo:.6g} is {ratio:.3f} x 2·z·SD, "
                        f"outside {LENGTH_BAND}")
    sup_lo, sup_hi = exp["sup_ci"]
    if hi - lo >= sup_hi - sup_lo:
        failures.append(f"{label}: interval length {hi - lo:.6g} is not below the "
                        f"supervised t interval's {sup_hi - sup_lo:.6g}")
    return failures


def check_compare(report: dict, exp: dict) -> list[str]:
    """gibbs-compare: sup plus several semi-supervised methods on one dataset."""
    failures = []
    results = report["results"]
    tol = SUP_TOL_MC_SD * exp["sup_endpoint_mc_sd"]
    for got, want, end in zip(_ci(results["sup"]), exp["sup_ci"], ("lower", "upper")):
        if abs(got - want) > tol:
            failures.append(f"sup: {end} end {got:.6g} differs from ȳ ± t·s/√n = {want:.6g} "
                            f"by more than {tol:.3g}")
    for label, result in results.items():
        failures += _check_sizes(result, exp, label)
        if label != "sup":
            failures += _check_contains_difference(result, exp, label)
    for label, rl in report["rl_vs_supervised"].items():
        # sup against itself is exactly 1
        if (rl != 1.0) if label == "sup" else (rl is None or rl <= 1.0):
            failures.append(f"rl_vs_supervised[{label}] = {rl!r}")
    if set(report["rl_vs_supervised"]) != set(results):
        failures.append("rl_vs_supervised does not cover every method")
    return failures


def check_simulation(study: dict, densities: dict[str, str], exp: dict) -> list[str]:
    """sim-replicate: study.json and the per-method density CSV texts."""
    failures = []
    for key in ("theta0", "ore"):
        if abs(study[key] - exp[key]) > 1e-12 * abs(exp[key]):
            failures.append(f"{key} is {study[key]!r}, closed form gives {exp[key]!r}")
    metrics = study["metrics"]
    if sorted(metrics) != sorted(exp["methods"]):
        failures.append(f"methods {sorted(metrics)} != {sorted(exp['methods'])}")
        return failures
    for method, row in metrics.items():
        if row["covp"] < exp["min_coverage"]:
            failures.append(f"{method}: coverage {row['covp']} below the binomial floor "
                            f"{exp['min_coverage']} at {exp['reps']} replications")
    sup_len = metrics["sup"]["mean_len"]
    if abs(sup_len / exp["sup_mean_len"] - 1.0) > SUP_LEN_REL_TOL:
        failures.append(f"sup: mean length {sup_len:.6g} is not within {SUP_LEN_REL_TOL:.0%} of "
                        f"2·t·√(1.2‖β‖²/n) = {exp['sup_mean_len']:.6g}")
    for method, row in metrics.items():
        if method.startswith("bdmi") and row["mean_len"] >= sup_len:
            failures.append(f"{method}: mean length {row['mean_len']:.6g} is not below sup's")
    for method in exp["methods"]:
        failures += _check_density(method, densities[method], exp)
    return failures


def _check_density(method: str, text: str, exp: dict) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["replication", "grid_point", "density"]:
        return [f"{method}: density header {rows[0]}"]
    body = rows[1:]
    if len(body) != exp["reps"] * exp["grid"]:
        return [f"{method}: density file has {len(body)} rows, "
                f"expected {exp['reps']} x {exp['grid']}"]
    failures = []
    for rep in range(exp["reps"]):
        block = body[rep * exp["grid"]:(rep + 1) * exp["grid"]]
        if any(int(r[0]) != rep for r in block):
            failures.append(f"{method}: replication {rep} rows are out of order")
            continue
        centers = [float(r[1]) for r in block]
        width = (centers[-1] - centers[0]) / (exp["grid"] - 1)
        mass = sum(float(r[2]) for r in block) * width
        if abs(mass - 1.0) > DENSITY_TOL:
            failures.append(f"{method}: replication {rep} density integrates to {mass!r}")
    return failures


def check_files(workload: str, texts: list[str], exp: dict) -> list[str]:
    """Dispatch on the workload; `texts` follows workloads.report_files order."""
    if workload == "ingest-estimate":
        return check_estimate(json.loads(texts[0]), exp)
    if workload == "gibbs-compare":
        return check_compare(json.loads(texts[0]), exp)
    densities = dict(zip(exp["methods"], texts[2:]))
    return check_simulation(json.loads(texts[0]), densities, exp)
