"""Command-line entry points: simulate, estimate, and compare.

Configuration comes from an optional JSON file plus flags; flags win, and a
null value, like an omitted key or an absent flag, leaves a key at its
default.  One table, ``_KEYS``, says which commands read each key, its
default, its type and which echoes carry it.  Each command accepts exactly
the keys it reads: an unknown key is a hard error, since a silently ignored
statistical parameter is a correctness hazard.  ``parse_config`` also builds
the sampler settings, the simulation design and every method's fitter, so
each config fault exits 2 before any data file is opened.  Every report
echoes the effective configuration and seed so any output can be reproduced
exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

from . import _blas

_blas.load_numpy_on_one_thread()  # before any module below imports numpy or numpy.random

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError, NumericalError, SsmeanError
from .io import load_labeled_csv, open_csv, write_json_atomic, write_text_atomic
from .nuisance import GibbsConfig
from .rng import GENERATOR_NAME, RngStream
from .simulation import (
    SUPERVISED,
    SimDesign,
    emit_density_data,
    parse_method_spec,
    run_method,
    run_methods,
    run_replications,
)
from .estimators import STARTS

__all__ = ["RunConfig", "parse_config", "cmd_estimate", "cmd_compare", "cmd_simulate", "main"]

REPORT_SCHEMA = 1

_COMMANDS = ("estimate", "compare", "simulate")
_DATA = ("estimate", "compare")
_SIM = ("simulate",)
_REQUIRED = object()

# key -> (commands that read it, default, type, commands whose echo carries it).
# A type is float, str, list (of method specs), int, or an int giving an integer
# key's minimum.  The worker count has no effect on results, so no echo carries
# it; compare's and simulate's echoes carry the method list that method and
# nuisance default, and either key beside that list is refused.
_KEYS = {
    "method": (_COMMANDS, "bdmi", str, ("estimate",)),
    "nuisance": (_COMMANDS, "bridge", str, ("estimate",)),
    "k": (_COMMANDS, 5, 2, _COMMANDS),
    "m": (_COMMANDS, 1000, 100, _COMMANDS),
    "alpha": (_COMMANDS, 0.05, float, _COMMANDS),
    "seed": (_COMMANDS, 1729, 0, _COMMANDS),
    "jobs": (_SIM, 1, 1, ()),
    "out": (_COMMANDS, None, str, _COMMANDS),
    "gibbs_burn_in": (_COMMANDS, 1000, int, _COMMANDS),
    "gibbs_sweeps": (_COMMANDS, 2000, int, _COMMANDS),
    "gibbs_slab_scale": (_COMMANDS, None, float, _COMMANDS),
    "labeled": (_DATA, None, str, _DATA),
    "unlabeled": (_DATA, None, str, _DATA),
    "methods": (("compare", "simulate"), None, list, ("compare", "simulate")),
    "density_out": (_SIM, None, str, _SIM),
    "kind": (_SIM, _REQUIRED, str, _SIM),
    "n": (_SIM, _REQUIRED, int, _SIM),
    "n_unlabeled": (_SIM, _REQUIRED, int, _SIM),
    "p": (_SIM, _REQUIRED, int, _SIM),
    "s": (_SIM, _REQUIRED, int, _SIM),
    "alpha0": (_SIM, 5.0, float, _SIM),
    "reps": (_SIM, 200, int, _SIM),
}
_TYPE_NAMES = {str: "a string", list: "a list of strings", float: "a number"}


@dataclass(frozen=True)
class RunConfig:
    """Effective, validated parameters for one command invocation.

    Fields named after a config key hold that key's effective value.
    """

    command: str
    k: int
    m: int
    alpha: float
    seed: int
    jobs: int | None
    labeled: str | None
    unlabeled: str | None
    out: str
    methods: tuple[str, ...]  # the specs to run; compare's exclude the supervised one
    density_out: str | None
    gibbs: GibbsConfig
    design: SimDesign | None  # simulate's replication study
    settings: dict  # every key the command reads, at its effective value

    def echo(self) -> dict:
        """Config-file-compatible dict reproducing this run exactly."""
        return {key: value for key, value in self.settings.items()
                if value is not None and self.command in _KEYS[key][3]}


def _typed(key: str, value, kind):
    if kind is str:
        ok = isinstance(value, str)
    elif kind is list:
        ok = isinstance(value, list) and all(isinstance(x, str) for x in value)
    else:
        number = (int, float) if kind is float else int
        ok = isinstance(value, number) and not isinstance(value, bool)
    if not ok:
        raise ConfigError(
            f"config key {key!r} must be {_TYPE_NAMES.get(kind, 'an integer')}, got {value!r}"
        )
    if isinstance(kind, int) and value < kind:
        raise ConfigError(f"config key {key!r} must be >= {kind}, got {value}")
    if kind is float:
        # json.load takes NaN, Infinity and integers beyond any double; NaN fails <= too
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"config key {key!r} must be a finite number, got {value!r}")
        return float(value)
    return tuple(value) if kind is list else value


def parse_config(
    command: str,
    config_path: str | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """Merge file values and flag overrides into a RunConfig and check the whole run."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    values: dict = {}
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        except ValueError as exc:  # also bytes that are not UTF-8, and an int past the digit limit
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        values.update(loaded)
    values.update((key, value) for key, value in (overrides or {}).items() if value is not None)

    unknown = sorted(key for key in values if key not in _KEYS or command not in _KEYS[key][0])
    if unknown:
        raise ConfigError(f"unknown config key(s) for {command}: {', '.join(unknown)}")
    settings: dict = {}
    for key, (commands, default, kind, _) in _KEYS.items():
        if command in commands:
            value = values.get(key)
            settings[key] = default if value is None else _typed(key, value, kind)
    missing = [key for key, value in settings.items() if value is _REQUIRED]
    if missing:
        raise ConfigError(f"{command} config is missing key(s): {', '.join(missing)}")
    if not (0.0 < settings["alpha"] < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {settings['alpha']}")
    if settings["out"] is None:
        settings["out"] = "simulation" if command == "simulate" else f"{command}_report.json"

    methods = settings.get("methods")
    if methods is None:
        method = settings["method"]
        spec = method if method == SUPERVISED else f"{method}:{settings['nuisance']}"
        if method == SUPERVISED:  # which fits no regression, so reads no nuisance
            if values.get("nuisance") is not None:
                raise ConfigError("nuisance cannot be given beside method sup")
            settings["nuisance"] = None
        # simulate runs the supervised baseline beside the method; compare runs it anyway
        if command == "simulate":
            methods = tuple(dict.fromkeys((SUPERVISED, spec)))
        else:
            methods = () if command == "compare" and spec == SUPERVISED else (spec,)
    else:
        beside = [key for key in ("method", "nuisance") if values.get(key) is not None]
        if beside:
            raise ConfigError(f"{' and '.join(beside)} cannot be given beside methods; "
                              "name each method spec in the list")
        if command == "compare" and SUPERVISED in methods:
            raise ConfigError("compare always includes the supervised method; "
                              "list only semi-supervised methods")
    settings["methods"] = methods

    try:
        gibbs = GibbsConfig(
            settings["gibbs_burn_in"], settings["gibbs_sweeps"], settings["gibbs_slab_scale"]
        )
        for each in dict.fromkeys(methods):
            if methods.count(each) > 1:
                raise ConfigError(f"method {each!r} is listed twice")
            parse_method_spec(each, gibbs)
        design = None
        if command == "simulate":
            # config keys named after a design field set it; k and m are its folds and draws
            design = SimDesign(
                **{f.name: settings[f.name] for f in fields(SimDesign) if f.name in settings},
                n_folds=settings["k"], n_draws=settings["m"], gibbs=gibbs,
            )
    except SsmeanError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        command=command, gibbs=gibbs, design=design, settings=settings,
        **{f.name: settings.get(f.name) for f in fields(RunConfig) if f.name in _KEYS},
    )


def _load_dataset(config: RunConfig, needs_unlabeled: bool) -> Dataset:
    if config.labeled is None:
        raise ConfigError("a labeled CSV is required (--labeled or config key 'labeled')")
    if needs_unlabeled and config.unlabeled is None:
        raise ConfigError(
            "this method uses unlabeled data (--unlabeled or config key 'unlabeled')"
        )
    outcomes, features, names = load_labeled_csv(config.labeled)
    if not needs_unlabeled:
        return Dataset(outcomes, features, np.zeros((0, features.shape[1])))
    # the header is checked and the rows counted; the estimators parse them after their fits
    return Dataset(outcomes, features, open_csv(config.unlabeled, expected_names=names))


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
    data = _load_dataset(config, needs_unlabeled=spec != SUPERVISED)
    rng = RngStream(config.seed)
    result = run_method(spec, data, config.k, config.m, config.alpha, config.gibbs, rng)
    return _write_report(config, {spec: result})


def cmd_compare(config: RunConfig) -> Path:
    """Run supervised plus the requested methods on the same data and seed family.

    Every method's fits come first; the unlabeled file is then parsed once
    for all of them.
    """
    data = _load_dataset(config, needs_unlabeled=True)
    base = RngStream(config.seed)
    # the supervised method draws from substream 0, the listed methods from 1, 2, ...
    streams = {spec: base.substream(i) for i, spec in enumerate((SUPERVISED, *config.methods))}
    results = run_methods(streams, data, config.k, config.m, config.alpha, config.gibbs)
    lengths = {spec: result.ci[1] - result.ci[0] for spec, result in results.items()}
    rl = {spec: lengths[SUPERVISED] / length if length > 0 else None
          for spec, length in lengths.items()}
    return _write_report(config, results, rl_vs_supervised=rl)


def cmd_simulate(config: RunConfig) -> Path:
    """Run the configured replications and write the metrics table."""
    started = time.perf_counter()
    results = run_replications(config.design, jobs=config.jobs,
                               keep_draws=config.density_out is not None)
    elapsed = time.perf_counter() - started
    json_path = Path(f"{config.out}.json")
    payload = results.to_json_dict()
    payload["config"] = config.echo()
    payload["rng_algorithm"] = GENERATOR_NAME
    write_json_atomic(json_path, payload)
    write_text_atomic(Path(f"{config.out}.csv"), results.to_csv())
    if config.density_out is not None:
        emit_density_data(results, config.density_out)
    star = "" if results.ore_star is None else f", achievable oracle RE {results.ore_star:.3f}"
    print(
        f"simulate: {config.design.reps} replications in {elapsed:.1f}s ({_blas.describe()}); "
        f"oracle RE {results.ore:.3f}{star}",
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
        p.add_argument("--method", choices=tuple(STARTS))
        p.add_argument("--nuisance", help="bols|bridge|spike|constant:<c>|zero")
        p.add_argument("--k", type=int, help="number of cross-fitting folds")
        p.add_argument("--m", type=int, help="posterior draws per run")
        p.add_argument("--alpha", type=float, help="credible-interval miss level")
        p.add_argument("--seed", type=int)
        p.add_argument("--jobs", type=int, help="replication workers (simulate only)")
        p.add_argument("--out", help="output path (simulate: prefix for .json/.csv)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items() if key in _KEYS}
    try:
        config = parse_config(args.command, args.config, overrides)
        command = {"estimate": cmd_estimate, "compare": cmd_compare, "simulate": cmd_simulate}
        # an overflow is a numerical failure with one line, not a warning beside it
        with np.errstate(over="raise", invalid="raise"):
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
    except MemoryError as exc:  # numpy's _ArrayMemoryError is one
        print(f"ssmean: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
