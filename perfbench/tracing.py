"""Span tracing of ssmean from outside the program, and the per-layer metrics.

Run as a script, it is a drop-in for ``python3 -m ssmean.cli``:

    python3 perfbench/tracing.py SPAN_DIR <ssmean arguments...>

It wraps the public functions listed in SPANS at their module boundary,
rebinds every name in the loaded ``ssmean`` modules that refers to one of
them (so ``ssmean.cli.load_unlabeled_csv`` is traced as well as
``ssmean.io.load_unlabeled_csv``), runs ``ssmean.cli.main`` and writes the
spans kept in memory to SPAN_DIR/spans-main.json.  Replication workers are
forked from this process and inherit the wrappers; each appends its spans to
SPAN_DIR/spans-<pid>.jsonl when a replication returns, since a pool worker
exits without running interpreter exit hooks.

Imported as a module (by the runner) it only aggregates span files into the
per-layer metrics, with the stdlib alone.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

# (module, attribute or Class.method) -> span name.  The span name's prefix
# before the last dot is the layer.
SPANS = {
    ("ssmean.cli", "main"): "cli.main",
    ("ssmean.io", "load_labeled_csv"): "io.read",
    ("ssmean.io", "load_unlabeled_csv"): "io.read",
    ("ssmean.io", "write_json_atomic"): "io.write",
    ("ssmean.io", "write_text_atomic"): "io.write",
    ("ssmean.simulation", "emit_density_data"): "io.write",
    ("ssmean.data", "validate_dataset"): "data.validate",
    ("ssmean.data", "make_fold_plan"): "data.fold_plan",
    ("ssmean.nuisance", "fit_bols"): "nuisance.bols",
    ("ssmean.nuisance", "fit_bridge"): "nuisance.bridge",
    ("ssmean.nuisance", "fit_spike_slab"): "nuisance.spike",
    ("ssmean.nuisance", "MultivariateTPosterior.sample_many"): "nuisance.sample",
    ("ssmean.nuisance", "EmpiricalPosterior.sample_many"): "nuisance.sample",
    ("ssmean.estimators", "bdmi_cf"): "estimators.bdmi",
    ("ssmean.estimators", "hbdmi_cf"): "estimators.hbdmi",
    ("ssmean.estimators", "imputation_posterior"): "estimators.imp",
    ("ssmean.estimators", "supervised_posterior"): "estimators.sup",
    ("ssmean.estimators", "fold_posterior"): "estimators.fold_posterior",
    ("ssmean.estimators", "credible_interval"): "sampling.quantile",
    ("ssmean.sampling", "sample_quantile"): "sampling.quantile",
    ("ssmean.sampling", "sample_student_t"): "sampling.t_draw",
    ("ssmean.sampling", "sample_student_t_each"): "sampling.t_draw",
    ("ssmean.sampling", "sample_convolution"): "sampling.t_draw",
    ("ssmean.simulation", "generate_dataset"): "simulation.generate",
    ("ssmean.simulation", "run_replications"): "simulation.run",
    ("ssmean.simulation", "run_method"): "simulation.dispatch",
    # private, but it is the unit of work a replication worker runs
    ("ssmean.simulation", "_replicate"): "simulation.replicate",
}

# Spans that only route work to other spans; their self time is glue, not a layer.
GLUE = {"cli.main", "simulation.run", "simulation.dispatch", "simulation.replicate"}

# name -> unit, in the order of BENCHMARK.json's per_layer list
LAYER_UNITS = {
    "io.read_s": "s",
    "io.read_mb_per_s": "MB/s",
    "io.rows_read": "count",
    "io.write_s": "s",
    "data.validate_s": "s",
    "data.fold_plan_s": "s",
    "nuisance.bols_s": "s",
    "nuisance.bridge_s": "s",
    "nuisance.spike_s": "s",
    "nuisance.fits": "count",
    "nuisance.sample_s": "s",
    "estimators.bdmi_self_s": "s",
    "estimators.hbdmi_self_s": "s",
    "estimators.imp_self_s": "s",
    "estimators.sup_s": "s",
    "estimators.fold_posterior_s": "s",
    "sampling.t_draw_s": "s",
    "sampling.t_draws": "count",
    "sampling.quantile_s": "s",
    "simulation.generate_s": "s",
    "simulation.reps": "count",
    "cli.self_s": "s",
    "cli.main_s": "s",
    "trace.span_share": "ratio",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------- recording


class Recorder:
    """Spans of one process: [name, parent index, start, end, rows, bytes, draws]."""

    def __init__(self, span_dir: Path):
        self.span_dir = span_dir
        self.main_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:  # first span in a forked worker
                self._reset()
            index = len(self.spans)
            span = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, 0, 0, 0]
            self.spans.append(span)
            self.stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            _count_work(span, args, result)
            if name == "simulation.replicate" and self.pid != self.main_pid:
                self.flush_worker()
            return result

        return traced

    def flush_worker(self) -> None:
        path = self.span_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def write_main(self) -> None:
        (self.span_dir / "spans-main.json").write_text(json.dumps(self.spans), encoding="utf-8")


def _count_work(span: list, args: tuple, result) -> None:
    name = span[0]
    if name == "io.read":
        span[4] = int(result[1 if len(result) == 3 else 0].shape[0])
        span[5] = os.path.getsize(args[0])
    elif name == "sampling.t_draw":
        span[6] = int(result.size)


def install(recorder: Recorder) -> None:
    """Wrap every function in SPANS and rebind each ssmean name that refers to it."""
    modules = [importlib.import_module(m) for m in sorted({m for m, _ in SPANS})]
    modules += [sys.modules["ssmean"]]
    for (module_name, attr), span_name in SPANS.items():
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, recorder.wrap(span_name, cls.__dict__[method]))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(span_name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    span_dir = Path(argv[0])
    span_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder(span_dir)
    install(recorder)
    import ssmean.cli

    try:
        return ssmean.cli.main(argv[1:])
    finally:
        recorder.write_main()


# -------------------------------------------------------------- aggregation


def load_spans(span_dir: Path) -> list[list[list]]:
    """Span lists: the main process's, then one per traced replication."""
    lists = [json.loads((span_dir / "spans-main.json").read_text(encoding="utf-8"))]
    for path in sorted(span_dir.glob("spans-*.jsonl")):
        lists += [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return lists


def _self_times(spans: list[list]) -> list[float]:
    """Duration minus the durations of direct children (children nest, one thread)."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def layer_metrics(span_lists: list[list[list]]) -> dict[str, float]:
    """Every metric of LAYER_UNITS except trace.overhead_s, summed over processes.

    Times are self times summed over all spans of a layer, so on a run with
    worker processes they add busy time across workers.
    """
    self_by: dict[str, float] = {}
    total_by: dict[str, float] = {}
    calls: dict[str, int] = {}
    rows = nbytes = draws = 0
    for spans in span_lists:
        for span, own in zip(spans, _self_times(spans)):
            name = span[0]
            self_by[name] = self_by.get(name, 0.0) + own
            total_by[name] = total_by.get(name, 0.0) + span[3] - span[2]
            calls[name] = calls.get(name, 0) + 1
            rows += span[4]
            nbytes += span[5]
            draws += span[6]

    def s(name: str) -> float:
        return self_by.get(name, 0.0)

    read_s = s("io.read")
    # busy time: the main process outside the replication pool, plus every replication
    busy = total_by["cli.main"] - total_by.get("simulation.run", 0.0) + total_by.get(
        "simulation.replicate", 0.0
    )
    covered = sum(v for k, v in self_by.items() if k not in GLUE)
    return {
        "io.read_s": read_s,
        "io.read_mb_per_s": nbytes / 1e6 / read_s if read_s > 0 else 0.0,
        "io.rows_read": rows,
        "io.write_s": s("io.write"),
        "data.validate_s": s("data.validate"),
        "data.fold_plan_s": s("data.fold_plan"),
        "nuisance.bols_s": s("nuisance.bols"),
        "nuisance.bridge_s": s("nuisance.bridge"),
        "nuisance.spike_s": s("nuisance.spike"),
        "nuisance.fits": sum(calls.get(f"nuisance.{k}", 0) for k in ("bols", "bridge", "spike")),
        "nuisance.sample_s": s("nuisance.sample"),
        "estimators.bdmi_self_s": s("estimators.bdmi"),
        "estimators.hbdmi_self_s": s("estimators.hbdmi"),
        "estimators.imp_self_s": s("estimators.imp"),
        "estimators.sup_s": s("estimators.sup"),
        "estimators.fold_posterior_s": s("estimators.fold_posterior"),
        "sampling.t_draw_s": s("sampling.t_draw"),
        "sampling.t_draws": draws,
        "sampling.quantile_s": s("sampling.quantile"),
        "simulation.generate_s": s("simulation.generate"),
        "simulation.reps": calls.get("simulation.generate", 0),
        "cli.self_s": s("cli.main"),
        "cli.main_s": total_by["cli.main"],
        "trace.span_share": covered / busy,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
