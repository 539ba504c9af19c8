"""Command-line entry points: simulate, estimate, and compare.

Configuration comes from an optional JSON file plus flags; flags win.
Unknown config keys are hard errors, since a silently ignored statistical
parameter is a correctness hazard.  Every report echoes the effective
configuration and seed so any output can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _blas
from .data import Dataset, validate_dataset
from .errors import ConfigError, DataError, NumericalError, SsmeanError
from .io import load_labeled_csv, load_unlabeled_csv, write_json_atomic, write_text_atomic
from .nuisance import GibbsConfig
from .rng import GENERATOR_NAME, RngStream
from .simulation import (
    ESTIMATORS,
    SUPERVISED,
    SimDesign,
    emit_density_data,
    parse_method_spec,
    run_method,
    run_replications,
)

__all__ = ["RunConfig", "parse_config", "cmd_estimate", "cmd_compare", "cmd_simulate", "main"]

REPORT_SCHEMA = 1
DEFAULT_K = 5
DEFAULT_M = 1000
DEFAULT_ALPHA = 0.05
DEFAULT_SEED = 1729
DEFAULT_NUISANCE = "bridge"

_COMMON_KEYS = {
    "method", "nuisance", "k", "m", "alpha", "seed", "jobs",
    "labeled", "unlabeled", "out",
    "gibbs_burn_in", "gibbs_sweeps", "gibbs_slab_scale",
}
_DESIGN_KEYS = {"kind", "n", "n_unlabeled", "p", "s", "alpha0", "reps"}
_ALLOWED_KEYS = {
    "estimate": _COMMON_KEYS,
    "compare": _COMMON_KEYS | {"methods"},
    "simulate": _COMMON_KEYS | _DESIGN_KEYS | {"methods", "density_out"},
}


@dataclass(frozen=True)
class RunConfig:
    """Effective, validated parameters for one command invocation."""

    command: str
    method: str
    nuisance: str
    k: int
    m: int
    alpha: float
    seed: int
    jobs: int
    labeled: str | None
    unlabeled: str | None
    out: str
    methods: tuple[str, ...]  # the specs to run; compare's exclude the supervised one
    density_out: str | None
    gibbs: GibbsConfig
    design: dict | None

    def echo(self) -> dict:
        """Config-file-compatible dict reproducing this run exactly.

        Worker count is an execution detail with no effect on results, so it
        is left out; reruns of an echoed config default to sequential.
        """
        payload: dict = {
            "k": self.k,
            "m": self.m,
            "alpha": self.alpha,
            "seed": self.seed,
            "out": self.out,
            "gibbs_burn_in": self.gibbs.burn_in,
            "gibbs_sweeps": self.gibbs.sweeps,
        }
        if self.gibbs.slab_scale is not None:
            payload["gibbs_slab_scale"] = self.gibbs.slab_scale
        if self.command in ("estimate", "compare"):
            payload["method"] = self.method
            payload["nuisance"] = self.nuisance
            payload["labeled"] = self.labeled
            if self.unlabeled is not None:
                payload["unlabeled"] = self.unlabeled
        if self.command != "estimate":
            payload["methods"] = list(self.methods)
        if self.command == "simulate":
            payload.update(self.design)
            if self.density_out is not None:
                payload["density_out"] = self.density_out
        return payload


def _require_int(values: dict, key: str, minimum: int) -> int:
    value = values[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"config key {key!r} must be >= {minimum}, got {value}")
    return value


def _require_number(values: dict, key: str) -> float:
    value = values[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def parse_config(
    command: str,
    config_path: str | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """Merge file values and flag overrides into a validated RunConfig."""
    if command not in _ALLOWED_KEYS:
        raise ConfigError(f"unknown command {command!r}")
    values: dict = {}
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        values.update(loaded)
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value

    unknown = sorted(set(values) - _ALLOWED_KEYS[command])
    if unknown:
        raise ConfigError(
            f"unknown config key(s) for {command}: {', '.join(unknown)}"
        )

    values.setdefault("k", DEFAULT_K)
    values.setdefault("m", DEFAULT_M)
    values.setdefault("alpha", DEFAULT_ALPHA)
    values.setdefault("seed", DEFAULT_SEED)
    values.setdefault("jobs", 1)
    values.setdefault("method", "bdmi")
    values.setdefault("nuisance", DEFAULT_NUISANCE)
    values.setdefault("out", f"{command}_report.json" if command != "simulate" else "simulation")
    values.setdefault("gibbs_burn_in", 1000)
    values.setdefault("gibbs_sweeps", 2000)

    k = _require_int(values, "k", 2)
    m = _require_int(values, "m", 100)
    seed = _require_int(values, "seed", 0)
    jobs = _require_int(values, "jobs", 1)
    alpha = _require_number(values, "alpha")
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    method = values["method"]
    if method not in ESTIMATORS:
        raise ConfigError(f"method must be one of {tuple(ESTIMATORS)}, got {method!r}")
    nuisance = values["nuisance"]
    if not isinstance(nuisance, str):
        raise ConfigError(f"nuisance must be a string, got {nuisance!r}")
    method_spec = method if method == SUPERVISED else f"{method}:{nuisance}"

    slab = values.get("gibbs_slab_scale")
    if slab is not None:
        slab = _require_number(values, "gibbs_slab_scale")
        if slab <= 0:
            raise ConfigError(f"gibbs_slab_scale must be positive, got {slab}")
    try:
        gibbs = GibbsConfig(
            burn_in=_require_int(values, "gibbs_burn_in", 0),
            sweeps=_require_int(values, "gibbs_sweeps", 1),
            slab_scale=slab,
        )
    except SsmeanError as exc:
        raise ConfigError(str(exc)) from exc

    methods: tuple[str, ...] = (method_spec,)
    if command != "estimate":
        # simulate defaults to sup plus bdmi; compare runs sup anyway, and takes null as unset
        default = [SUPERVISED, f"bdmi:{nuisance}"] if command == "simulate" else None
        raw = values.get("methods", default)
        if raw is None and command == "compare":
            raw = [] if method == SUPERVISED else [method_spec]
        if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
            raise ConfigError("config key 'methods' must be a list of strings")
        for spec in raw:
            if _checked_spec(spec)[0] == SUPERVISED and command == "compare":
                raise ConfigError("compare always includes the supervised method; "
                                  "list only semi-supervised methods")
        methods = tuple(raw)

    design = None
    if command == "simulate":
        missing = sorted(key for key in ("kind", "n", "n_unlabeled", "p", "s") if key not in values)
        if missing:
            raise ConfigError(f"simulate config is missing key(s): {', '.join(missing)}")
        values.setdefault("alpha0", 5.0)
        values.setdefault("reps", 200)
        design = {key: _require_int(values, key, 1) for key in ("n", "n_unlabeled", "p", "s")}
        design.update(kind=values["kind"], alpha0=_require_number(values, "alpha0"),
                      reps=_require_int(values, "reps", 1))
        if design["kind"] not in ("correct", "misspec"):
            raise ConfigError(f"kind must be correct|misspec, got {design['kind']!r}")

    density_out = values.get("density_out")
    if density_out is not None and not isinstance(density_out, str):
        raise ConfigError("density_out must be a path string")

    labeled = values.get("labeled")
    unlabeled = values.get("unlabeled")
    for key, val in (("labeled", labeled), ("unlabeled", unlabeled), ("out", values["out"])):
        if val is not None and not isinstance(val, str):
            raise ConfigError(f"config key {key!r} must be a path string")

    return RunConfig(
        command=command,
        method=method,
        nuisance=nuisance,
        k=k,
        m=m,
        alpha=alpha,
        seed=seed,
        jobs=jobs,
        labeled=labeled,
        unlabeled=unlabeled,
        out=values["out"],
        methods=methods,
        density_out=density_out,
        gibbs=gibbs,
        design=design,
    )


def _checked_spec(spec: str) -> tuple[str, str | None]:
    try:
        return parse_method_spec(spec)
    except SsmeanError as exc:
        raise ConfigError(str(exc)) from exc


def _load_dataset(config: RunConfig, needs_unlabeled: bool) -> Dataset:
    if config.labeled is None:
        raise ConfigError("a labeled CSV is required (--labeled or config key 'labeled')")
    outcomes, features, names = load_labeled_csv(config.labeled)
    if needs_unlabeled:
        if config.unlabeled is None:
            raise ConfigError(
                "this method uses unlabeled data (--unlabeled or config key 'unlabeled')"
            )
        unlabeled, _ = load_unlabeled_csv(config.unlabeled, expected_names=names)
        return validate_dataset(np.column_stack([outcomes, features]), unlabeled)
    return Dataset(outcomes, features, np.zeros((0, features.shape[1])))


def _write_report(config: RunConfig, results: dict, **extra) -> Path:
    report = {
        "schema": REPORT_SCHEMA,
        "command": config.command,
        "rng_algorithm": GENERATOR_NAME,
        "config": config.echo(),
        "results": {
            spec: {
                "point_estimate": result.point_estimate,
                "ci": list(result.ci),
                "ci_length": result.ci[1] - result.ci[0],
                "diagnostics": result.diagnostics,
            }
            for spec, result in results.items()
        },
        **extra,
    }
    out = Path(config.out)
    write_json_atomic(out, report)
    return out


def cmd_estimate(config: RunConfig) -> Path:
    """Run one method on ingested data and write a JSON report."""
    spec, = config.methods
    data = _load_dataset(config, needs_unlabeled=config.method != SUPERVISED)
    rng = RngStream(config.seed)
    result = run_method(spec, data, config.k, config.m, config.alpha, config.gibbs, rng)
    return _write_report(config, {spec: result})


def cmd_compare(config: RunConfig) -> Path:
    """Run supervised plus the requested methods on the same data and seed family."""
    data = _load_dataset(config, needs_unlabeled=True)
    base = RngStream(config.seed)
    # the supervised method draws from substream 0, the listed methods from 1, 2, ...
    results = {
        spec: run_method(spec, data, config.k, config.m, config.alpha, config.gibbs,
                         base.substream(i))
        for i, spec in enumerate((SUPERVISED, *config.methods))
    }
    lengths = {spec: result.ci[1] - result.ci[0] for spec, result in results.items()}
    rl = {spec: lengths[SUPERVISED] / length if length > 0 else None
          for spec, length in lengths.items()}
    return _write_report(config, results, rl_vs_supervised=rl)


def cmd_simulate(config: RunConfig) -> Path:
    """Run the configured replications and write the metrics table."""
    design = SimDesign(
        **config.design,
        n_folds=config.k,
        methods=config.methods,
        n_draws=config.m,
        alpha=config.alpha,
        seed=config.seed,
        gibbs=config.gibbs,
    )
    started = time.perf_counter()
    results = run_replications(design, jobs=config.jobs, keep_draws=config.density_out is not None)
    elapsed = time.perf_counter() - started
    table = results.table
    json_path = Path(f"{config.out}.json")
    payload = table.to_json_dict()
    payload["config"] = config.echo()
    payload["rng_algorithm"] = GENERATOR_NAME
    write_json_atomic(json_path, payload)
    write_text_atomic(Path(f"{config.out}.csv"), table.to_csv())
    if config.density_out is not None:
        emit_density_data(results, config.density_out)
    star = "" if table.ore_star is None else f", achievable oracle RE {table.ore_star:.3f}"
    print(
        f"simulate: {design.reps} replications in {elapsed:.1f}s ({_blas.describe()}); "
        f"oracle RE {table.ore:.3f}{star}",
        file=sys.stderr,
    )
    return json_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssmean",
        description="Semi-supervised population-mean estimation and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "run a synthetic replication study"),
        ("estimate", "estimate the mean from CSV data with one method"),
        ("compare", "compare supervised and semi-supervised intervals"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--labeled", help="labeled CSV (outcome first, then features)")
        p.add_argument("--unlabeled", help="unlabeled CSV (feature columns only)")
        p.add_argument("--method", choices=tuple(ESTIMATORS))
        p.add_argument("--nuisance", help="bols|bridge|spike|constant:<c>|zero")
        p.add_argument("--k", type=int, help="number of cross-fitting folds")
        p.add_argument("--m", type=int, help="posterior draws per run")
        p.add_argument("--alpha", type=float, help="credible-interval miss level")
        p.add_argument("--seed", type=int)
        p.add_argument("--jobs", type=int, help="parallel workers for replications")
        p.add_argument("--out", help="output path (simulate: prefix for .json/.csv)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in ("labeled", "unlabeled", "method", "nuisance", "k", "m",
                    "alpha", "seed", "jobs", "out")
    }
    try:
        config = parse_config(args.command, args.config, overrides)
        with _blas.one_thread():
            command = {"estimate": cmd_estimate, "compare": cmd_compare, "simulate": cmd_simulate}
            out = command[args.command](config)
        print(str(out))
        return 0
    except ConfigError as exc:
        print(f"ssmean: config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"ssmean: data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, FloatingPointError) as exc:
        print(f"ssmean: numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
