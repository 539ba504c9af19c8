"""Workload definitions shared by the input generator and the runner.

Every workload draws its data from the same linear Gaussian design as the
acceptance suite's correct-specification cell: p = 50 standard normal
features, s = 7 non-zero coefficients (four ones, three halves), noise
variance ||beta||^2 / 5 and intercept ALPHA0, so the design mean of the
outcome is ALPHA0.  Only the stdlib is imported here, so the runner stays a
small process (its resident set would otherwise leak into the child's peak
RSS, which Linux reports as at least the parent's at exec).
"""

from __future__ import annotations

P = 50
S = 7
ALPHA0 = 5.0
N_LABELED = 500

# Values are written with four decimals; generated values are rounded to
# that grid first, so the CSV text parses back to exactly the arrays the
# reference statistics are computed from.
DECIMALS = 4

WORKLOADS = {
    # ingest dominates: a wide unlabeled CSV, one cheap nuisance (QR least squares)
    "ingest-estimate": {
        "n_unlabeled": 80_000,
        "command": "estimate",
        "method": "bdmi",
        "nuisance": "bols",
    },
    # no CSV at all: seeded replications of the desk cell.  One worker: at two
    # workers the default BLAS threads oversubscribe the two cores and one
    # command's wall time varied 2.7x between repeats (README).
    "sim-replicate": {
        "n_unlabeled": 10_000,
        "command": "simulate",
        "reps": 6,
        "jobs": 1,
        "methods": ["sup", "bdmi:bols", "bdmi:bridge", "hbdmi:bols", "imp:bridge"],
    },
    # Python-bound Gibbs loop plus compare's several-methods-on-one-dataset path.
    # Half the default sweeps, so that a run holds about ten commands.
    "gibbs-compare": {
        "n_unlabeled": 10_000,
        "command": "compare",
        "methods": ["bdmi:spike", "bdmi:bridge", "hbdmi:bridge", "imp:bridge"],
        "gibbs_burn_in": 500,
        "gibbs_sweeps": 1000,
    },
}


def signal_coefficients() -> list[float]:
    """ceil(S/2) ones, then floor(S/2) halves, then zeros."""
    ones = (S + 1) // 2
    return [1.0] * ones + [0.5] * (S - ones) + [0.0] * (P - S)


def cli_args(workload: str, seed: int, work: str) -> list[str]:
    """Arguments of the ssmean command for one operation, paths under `work`."""
    spec = WORKLOADS[workload]
    if spec["command"] == "estimate":
        return [
            "estimate", "--labeled", f"{work}/labeled.csv", "--unlabeled", f"{work}/unlabeled.csv",
            "--method", spec["method"], "--nuisance", spec["nuisance"],
            "--seed", str(seed), "--out", f"{work}/out/report.json",
        ]
    if spec["command"] == "compare":
        return ["compare", "--config", f"{work}/config.json", "--seed", str(seed),
                "--out", f"{work}/out/report.json"]
    return ["simulate", "--config", f"{work}/config.json", "--seed", str(seed),
            "--jobs", str(spec["jobs"])]


def config(workload: str, work: str) -> dict | None:
    """The JSON config file a workload passes to ssmean, if any."""
    spec = WORKLOADS[workload]
    if spec["command"] == "compare":
        return {
            "labeled": f"{work}/labeled.csv",
            "unlabeled": f"{work}/unlabeled.csv",
            "methods": spec["methods"],
            "gibbs_burn_in": spec["gibbs_burn_in"],
            "gibbs_sweeps": spec["gibbs_sweeps"],
        }
    if spec["command"] == "simulate":
        return {
            "kind": "correct", "n": N_LABELED, "n_unlabeled": spec["n_unlabeled"],
            "p": P, "s": S, "alpha0": ALPHA0, "reps": spec["reps"],
            "methods": spec["methods"], "out": f"{work}/out/study",
            "density_out": f"{work}/out/density",
        }
    return None


def report_files(workload: str, work: str) -> list[str]:
    """Every file one operation writes, in a fixed order."""
    spec = WORKLOADS[workload]
    if spec["command"] != "simulate":
        return [f"{work}/out/report.json"]
    densities = [f"{work}/out/density/density_{m.replace(':', '_')}.csv" for m in spec["methods"]]
    return [f"{work}/out/study.json", f"{work}/out/study.csv", *densities]
