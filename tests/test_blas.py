"""OpenBLAS threads: one inside the CLI, the public estimators and
replications, pooled or sequential, the count chosen through the environment
kept, and reports the same either way."""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from ssmean import _blas, simulation
from ssmean.simulation import SimDesign, run_replications

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _counts(libraries):
    return [getter() for _, getter in libraries]


def _mapped_openblas_paths():
    with open("/proc/self/maps") as maps:
        return {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}


def _env_without_blas_vars():
    env = {k: v for k, v in os.environ.items() if k not in _blas._ENV_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def two_threads(monkeypatch):
    """Every loaded OpenBLAS at two threads, no thread variable set; restored after."""
    for name in _blas._ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    libraries = _blas._openblas_threads()
    if not libraries:
        pytest.skip("no OpenBLAS is loaded")
    before = _counts(libraries)
    for setter, _ in libraries:
        setter(2)
    try:
        if _counts(libraries) != [2] * len(libraries):
            pytest.skip("OpenBLAS runs at most one thread here")
        yield libraries
    finally:
        for (setter, _), count in zip(libraries, before):
            setter(count)


def test_every_loaded_openblas_is_found():
    if not sys.platform.startswith("linux"):
        assert _blas._openblas_threads() == ()
        return
    # the tests import scipy, which bundles a second OpenBLAS next to numpy's
    assert len(_blas._openblas_threads()) == len(_mapped_openblas_paths())


def test_one_thread_inside_and_previous_counts_after(two_threads):
    with _blas.one_thread():
        assert _counts(two_threads) == [1] * len(two_threads)
        assert _blas.describe() == "BLAS threads: 1"
    assert _counts(two_threads) == [2] * len(two_threads)
    with pytest.raises(RuntimeError), _blas.one_thread():
        raise RuntimeError
    assert _counts(two_threads) == [2] * len(two_threads)


def test_nothing_found_changes_nothing(two_threads, monkeypatch):
    monkeypatch.setattr(_blas, "_openblas_threads", lambda: [])
    with _blas.one_thread():
        assert _counts(two_threads) == [2] * len(two_threads)
        assert _blas.describe() == "BLAS threads: unknown"
    _blas.set_one_thread()
    assert _counts(two_threads) == [2] * len(two_threads)


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_count_from_environment_is_kept(variable):
    if os.cpu_count() < 2 or not _blas._openblas_threads():
        pytest.skip("needs OpenBLAS and two cores")
    script = (
        "import json, ssmean.cli\n"
        "from ssmean import _blas\n"
        "with _blas.one_thread():\n"
        "    _blas.set_one_thread()\n"
        "    inside = [g() for _, g in _blas._openblas_threads()]\n"
        "    print(json.dumps([inside, _blas.describe()]))\n"
    )
    env = _env_without_blas_vars()
    env[variable] = "2"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    inside, described = json.loads(done.stdout)
    assert inside and set(inside) == {2}
    assert described == f"BLAS threads: 2, from {variable}"


def test_replication_workers_run_on_one_thread_under_spawn(two_threads, monkeypatch):
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn) as pool:
        # a spawned worker starts from OpenBLAS's default, not the parent's count
        assert pool.submit(_blas.describe).result(timeout=120) == "BLAS threads: 2"
    seen = []

    class SpawnPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, mp_context=spawn, **kwargs)
            seen.append(self.submit(_blas.describe).result(timeout=120))

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", SpawnPool)
    design = SimDesign(kind="correct", n=30, n_unlabeled=60, p=2, s=1, reps=2,
                       n_folds=3, methods=("sup",), n_draws=100, seed=4)
    run_replications(design, jobs=2)
    assert seen == ["BLAS threads: 1"]


def test_sequential_replications_run_on_one_thread():
    if os.cpu_count() < 2 or not _blas._openblas_threads():
        pytest.skip("needs OpenBLAS and two cores")
    script = (
        "import json\n"
        "from ssmean import _blas, simulation\n"
        "seen = []\n"
        "make_fitter = simulation.make_fitter\n"
        "def counting_fitter(name, gibbs=None):\n"
        "    fit = make_fitter(name, gibbs)\n"
        "    def counted(X, y, rng):\n"
        "        seen.append(_blas.describe())\n"
        "        return fit(X, y, rng)\n"
        "    return counted\n"
        "simulation.make_fitter = counting_fitter\n"
        "design = simulation.SimDesign(kind='correct', n=30, n_unlabeled=60, p=2, s=1,\n"
        "                              reps=2, n_folds=3, methods=('bdmi:bols',),\n"
        "                              n_draws=100, seed=4)\n"
        "before = _blas.describe()\n"
        "simulation.run_replications(design, jobs=1)\n"
        "print(json.dumps([before, sorted(set(seen)), len(seen), _blas.describe()]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=_env_without_blas_vars(),
                          capture_output=True, text=True, timeout=120, check=True)
    before, inside, fits, after = json.loads(done.stdout)
    if before == "BLAS threads: 1":
        pytest.skip("OpenBLAS starts on one thread here")
    assert inside == ["BLAS threads: 1"] and fits == 6  # 2 replications x 3 folds
    assert after == before


def test_estimators_run_on_one_thread():
    if os.cpu_count() < 2 or not _blas._openblas_threads():
        pytest.skip("needs OpenBLAS and two cores")
    script = (
        "import json\n"
        "import numpy as np\n"
        "from ssmean import (Dataset, RngStream, _blas, bdmi_cf, hbdmi_cf,\n"
        "                    imputation_posterior, make_fitter)\n"
        "bols = make_fitter('bols')\n"
        "seen = {}\n"
        "def counting(method):\n"
        "    def fit(X, y, rng):\n"
        "        seen.setdefault(method, []).append(_blas.describe())\n"
        "        return bols(X, y, rng)\n"
        "    return fit\n"
        "gen = np.random.default_rng(0)\n"
        "data = Dataset(gen.normal(size=40), gen.normal(size=(40, 2)), gen.normal(size=(80, 2)))\n"
        "before = _blas.describe()\n"
        "bdmi_cf(data, 4, counting('bdmi'), 100, 0.05, RngStream(1))\n"
        "hbdmi_cf(data, 4, counting('hbdmi'), 100, 0.05, RngStream(2))\n"
        "imputation_posterior(data, counting('imp'), 100, 0.05, RngStream(3))\n"
        "print(json.dumps([before, seen, _blas.describe()]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=_env_without_blas_vars(),
                          capture_output=True, text=True, timeout=120, check=True)
    before, seen, after = json.loads(done.stdout)
    if before == "BLAS threads: 1":
        pytest.skip("OpenBLAS starts on one thread here")
    assert seen == {"bdmi": ["BLAS threads: 1"] * 4, "hbdmi": ["BLAS threads: 1"] * 4,
                    "imp": ["BLAS threads: 1"]}
    assert after == before


def test_simulate_report_is_the_same_at_one_and_two_threads(tmp_path):
    if os.cpu_count() < 2 or not _blas._openblas_threads():
        pytest.skip("needs OpenBLAS and two cores")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "kind": "correct", "n": 300, "n_unlabeled": 3000, "p": 40, "s": 5, "reps": 2,
        "methods": ["sup", "bdmi:bols", "bdmi:bridge", "hbdmi:bols", "imp:bridge"],
        "m": 300, "k": 3, "seed": 5, "out": "study",
    }))
    reports, notes = [], []
    for threads in (None, "2"):
        env = _env_without_blas_vars()
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        cwd = tmp_path / f"threads-{threads or 'unset'}"
        cwd.mkdir()
        done = subprocess.run(
            [sys.executable, "-m", "ssmean.cli", "simulate", "--config", str(config)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        reports.append(((cwd / "study.json").read_bytes(), (cwd / "study.csv").read_bytes()))
        notes.append(done.stderr)
    assert reports[0] == reports[1]
    assert "(BLAS threads: 1)" in notes[0]
    assert "(BLAS threads: 2, from OPENBLAS_NUM_THREADS)" in notes[1]
