"""Tests of the benchmark itself: checks, generator, tracing and runner.

Run from the repository root:  python3 -m pytest perfbench -q
Each test works in a directory under the checkout's git-ignored
.perfbench-work/ and runs ssmean from the checkout's src/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
import run
import tracing
import workloads as wl

ROOT = run.ROOT


@pytest.fixture(scope="module")
def work():
    path = ROOT / run.WORK_DIR / f"tests-{Path(__file__).stem}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:  # a benchmark run's directory is still in it
        pass


def _ssmean(args: list[str]) -> None:
    cmd = [sys.executable, "-m", "ssmean.cli", *args]
    subprocess.run(cmd, cwd=ROOT, env=run.child_env(), check=True, capture_output=True)


def _operation(work: Path, workload: str, seed: int = 3) -> tuple[list[str], dict]:
    """Generate a workload's inputs, run its command once; (report texts, expected)."""
    rel = (work / workload).relative_to(ROOT).as_posix()
    expected = gen.generate(workload, seed, ROOT / rel)
    _ssmean(wl.cli_args(workload, seed, rel))
    texts = [(ROOT / f).read_text(encoding="utf-8") for f in wl.report_files(workload, rel)]
    return texts, expected


@pytest.fixture(scope="module")
def estimate_run(work):
    return _operation(work, "ingest-estimate")


@pytest.fixture(scope="module")
def compare_run(work):
    return _operation(work, "gibbs-compare")


@pytest.fixture(scope="module")
def simulate_run(work):
    return _operation(work, "sim-replicate")


def _shift(result: dict, delta: float) -> None:
    result["point_estimate"] += delta
    result["ci"] = [result["ci"][0] + delta, result["ci"][1] + delta]


def _halve(result: dict) -> None:
    lo, hi = result["ci"]
    mid, half = (lo + hi) / 2.0, (hi - lo) / 4.0
    result["ci"] = [mid - half, mid + half]
    result["ci_length"] = 2.0 * half


class TestEstimateChecks:
    def test_program_report_passes(self, estimate_run):
        texts, expected = estimate_run
        assert checks.check_files("ingest-estimate", texts, expected) == []

    @pytest.mark.parametrize("corrupt", ["shift", "halve", "drop_rows"])
    def test_corrupted_report_fails(self, estimate_run, corrupt):
        texts, expected = estimate_run
        report = json.loads(texts[0])
        (result,) = report["results"].values()
        if corrupt == "shift":
            _shift(result, 10.0 * expected["diff_sd"])
        elif corrupt == "halve":
            _halve(result)
        else:
            result["diagnostics"]["n_unlabeled"] -= 1000
        assert checks.check_estimate(report, expected)


class TestCompareChecks:
    def test_program_report_passes(self, compare_run):
        texts, expected = compare_run
        assert checks.check_files("gibbs-compare", texts, expected) == []

    @pytest.mark.parametrize("method", ["sup", "bdmi:spike", "hbdmi:bridge", "imp:bridge"])
    def test_shifted_interval_fails(self, compare_run, method):
        texts, expected = compare_run
        report = json.loads(texts[0])
        _shift(report["results"][method], 10.0 * expected["diff_sd"])
        assert checks.check_compare(report, expected)

    def test_halved_supervised_interval_fails(self, compare_run):
        texts, expected = compare_run
        report = json.loads(texts[0])
        _halve(report["results"]["sup"])
        assert checks.check_compare(report, expected)

    def test_dropped_rows_fail(self, compare_run):
        texts, expected = compare_run
        report = json.loads(texts[0])
        report["results"]["bdmi:bridge"]["diagnostics"]["n_labeled"] -= 50
        assert checks.check_compare(report, expected)

    @pytest.mark.parametrize("method,value", [("bdmi:spike", 0.9), ("sup", 1.1)])
    def test_length_ratio_fails(self, compare_run, method, value):
        texts, expected = compare_run
        report = json.loads(texts[0])
        report["rl_vs_supervised"][method] = value
        assert checks.check_compare(report, expected)


class TestSimulationChecks:
    def _parts(self, simulate_run):
        texts, expected = simulate_run
        densities = dict(zip(expected["methods"], texts[2:]))
        return json.loads(texts[0]), densities, expected

    def test_program_report_passes(self, simulate_run):
        texts, expected = simulate_run
        assert checks.check_files("sim-replicate", texts, expected) == []

    @pytest.mark.parametrize("key,factor", [("theta0", 1.01), ("ore", 0.99)])
    def test_closed_forms(self, simulate_run, key, factor):
        study, densities, expected = self._parts(simulate_run)
        study[key] *= factor
        assert checks.check_simulation(study, densities, expected)

    @pytest.mark.parametrize(
        "method,field,value",
        [("hbdmi:bols", "covp", 0.0), ("sup", "mean_len", 0.5), ("bdmi:bridge", "mean_len", 2.0)],
    )
    def test_corrupted_metrics_fail(self, simulate_run, method, field, value):
        study, densities, expected = self._parts(simulate_run)
        row = study["metrics"][method]
        row[field] = value if field == "covp" else row[field] * value
        assert checks.check_simulation(study, densities, expected)

    def test_dropped_density_rows_fail(self, simulate_run):
        study, densities, expected = self._parts(simulate_run)
        lines = densities["sup"].splitlines(keepends=True)
        densities["sup"] = "".join(lines[:-5])
        assert checks.check_simulation(study, densities, expected)

    def test_scaled_density_fails(self, simulate_run):
        study, densities, expected = self._parts(simulate_run)
        lines = densities["bdmi:bols"].splitlines(keepends=True)
        rep, x, f = lines[1].strip().split(",")
        lines[1] = f"{rep},{x},{float(f) * 2.0 + 1.0}\n"
        densities["bdmi:bols"] = "".join(lines)
        assert checks.check_simulation(study, densities, expected)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_regeneration_is_byte_identical(work, workload):
    out = work / f"regen-{workload}"
    gen.generate(workload, 11, out)
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    gen.generate(workload, 11, out)
    assert {p.name: p.read_bytes() for p in sorted(out.iterdir())} == first
    gen.generate(workload, 12, out)
    changed = {p.name for p in out.iterdir() if p.read_bytes() != first[p.name]}
    assert "expected.json" in changed


def test_generator_reference_matches_csv(work):
    """The CSV text parses back to exactly the arrays the reference was computed from."""
    out = work / "parse-back"
    expected = gen.generate("gibbs-compare", 5, out)
    labeled = np.loadtxt(out / "labeled.csv", delimiter=",", skiprows=1)
    unlabeled = np.loadtxt(out / "unlabeled.csv", delimiter=",", skiprows=1)
    y, X, Xu = gen.draw_data(5, wl.N_LABELED, wl.WORKLOADS["gibbs-compare"]["n_unlabeled"])
    assert np.array_equal(labeled, np.column_stack([y, X]))
    assert np.array_equal(unlabeled, Xu)
    assert gen.data_reference(y, X, Xu) == {
        k: v for k, v in expected.items() if k not in ("workload", "seed")
    }


def test_simulate_jobs_parity(work, simulate_run):
    """--jobs 2 writes the same study.json as the workload's --jobs 1."""
    texts, _ = simulate_run
    rel = (work / "sim-replicate").relative_to(ROOT).as_posix()
    args = wl.cli_args("sim-replicate", 3, rel)
    args[args.index("--jobs") + 1] = "2"
    _ssmean(args)
    assert (ROOT / rel / "out" / "study.json").read_text(encoding="utf-8") == texts[0]


def test_traced_run_matches_and_gathers_worker_spans(work, simulate_run):
    texts, _ = simulate_run
    rel = (work / "sim-replicate").relative_to(ROOT).as_posix()
    args = wl.cli_args("sim-replicate", 3, rel)
    args[args.index("--jobs") + 1] = "2"
    span_dir = work / "spans"
    cmd = [sys.executable, "perfbench/tracing.py", str(span_dir), *args]
    subprocess.run(cmd, cwd=ROOT, env=run.child_env(), check=True, capture_output=True)
    assert (ROOT / rel / "out" / "study.json").read_text(encoding="utf-8") == texts[0]
    assert len(list(span_dir.glob("spans-*.jsonl"))) == 2  # one file per worker
    metrics = tracing.layer_metrics(tracing.load_spans(span_dir))
    reps = wl.WORKLOADS["sim-replicate"]["reps"]
    assert metrics["simulation.reps"] == reps
    # per replication: bdmi:bols, bdmi:bridge, hbdmi:bols fit 5 folds, imp:bridge fits once
    assert metrics["nuisance.fits"] == 16 * reps
    assert metrics["trace.span_share"] > 0.9
    assert set(metrics) | {"trace.overhead_s"} == set(tracing.LAYER_UNITS)


def test_benchmark_json_lists_every_metric_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", -1, 0.0, 10.0, 0, 0, 0],
        ["io.read", 0, 1.0, 3.0, 100, 2_000_000, 0],
        ["simulation.dispatch", 0, 3.0, 9.0, 0, 0, 0],
        ["nuisance.bols", 2, 3.5, 5.5, 0, 0, 0],
        ["sampling.t_draw", 2, 6.0, 7.0, 0, 0, 40],
    ]
    metrics = tracing.layer_metrics([spans])
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["io.read_s"] == pytest.approx(2.0)
    assert metrics["io.read_mb_per_s"] == pytest.approx(1.0)
    assert metrics["io.rows_read"] == 100
    assert metrics["nuisance.bols_s"] == pytest.approx(2.0)
    assert metrics["sampling.t_draws"] == 40
    # glue: cli.main self (2 s) and dispatch self (3 s) out of 10 s
    assert metrics["trace.span_share"] == pytest.approx(0.5)


def test_runner_refuses_a_tree_without_sources(work):
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sim-replicate",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
