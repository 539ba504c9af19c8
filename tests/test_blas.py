"""OpenBLAS threads: one inside the CLI, the public estimators and
replications, pooled or sequential, the count chosen through the environment
kept, and reports the same either way.  The CLI loads OpenBLAS on one thread
and numpy.random without OpenSSL; a library import loads no numpy."""

import concurrent.futures
import importlib
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from ssmean import _blas
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


def _run_json(script, **variables):
    """The JSON that ``script`` prints, run by a fresh interpreter with only ``variables`` set."""
    env = {**_env_without_blas_vars(), **variables}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def _skip_unless_threads_show():
    if (os.cpu_count() < 2 or not _blas._openblas_threads()
            or not os.path.isdir("/proc/self/task")):
        pytest.skip("needs OpenBLAS, two cores and /proc/self/task")


_THREADS = "len(os.listdir('/proc/self/task'))"


def _check_count_of_numpy_alone(before):
    """``before``, read after a library import, must be what ``import numpy`` alone reads.

    Only where numpy alone starts OpenBLAS on one thread is there nothing to tell apart.
    """
    alone = _run_json(
        "import json, numpy\n"
        "from ssmean import _blas\n"
        "print(json.dumps(_blas.describe()))\n"
    )
    if alone == "BLAS threads: 1":
        pytest.skip("OpenBLAS starts on one thread here")
    assert before == alone, "a library import changed OpenBLAS's thread count"


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


def test_import_ssmean_loads_no_numpy_and_resolves_every_name():
    loaded, names, listed = _run_json(
        "import json, sys, ssmean\n"
        "print(json.dumps(['numpy' in sys.modules, ssmean.__all__, dir(ssmean)]))\n"
    )
    assert not loaded
    assert names and set(names) <= set(listed)
    package = importlib.import_module("ssmean")
    for name in names:
        home = importlib.import_module(f"ssmean.{package._HOME[name]}")
        assert getattr(package, name) is vars(home)[name], name
    with pytest.raises(AttributeError):
        package.no_such_name


def test_cli_loads_openblas_on_one_thread():
    _skip_unless_threads_show()
    threads, variable_left, described = _run_json(
        "import json, os, ssmean.cli\n"
        "from ssmean import _blas\n"
        f"print(json.dumps([{_THREADS}, 'OPENBLAS_NUM_THREADS' in os.environ,\n"
        "                  _blas.describe()]))\n"
    )
    assert (threads, variable_left, described) == (1, False, "BLAS threads: 1")


_ESTIMATE_AND_REPORT_THE_LOAD = (
    "import json, sys\n"
    "for name in sys.argv[1:]:\n"
    "    sys.modules[name] = None  # as if this hash module had not been built\n"
    "from ssmean.cli import main\n"
    "code = main(['estimate', '--labeled', 'l.csv', '--unlabeled', 'u.csv', '--method',\n"
    "             'bdmi', '--nuisance', 'bols', '--k', '3', '--m', '200', '--out', 'r.json'])\n"
    "maps = open('/proc/self/maps').read() if sys.platform.startswith('linux') else ''\n"
    "openssl = [lib for lib in ('libcrypto', 'libssl') if lib in maps]\n"
    "loaded = '_hashlib' in sys.modules\n"
    "import hashlib\n"
    "digest = hashlib.sha256(b'abc').hexdigest()\n"
    "import ssl  # OpenSSL still loads for a caller that asks for it\n"
    "print(json.dumps([code, openssl, loaded, digest]))\n"
)
_SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


@pytest.mark.parametrize("variables, hidden", [
    ({}, []),
    ({"OMP_NUM_THREADS": "1"}, []),
    ({}, ["_md5"]),
], ids=["bare", "thread-count-chosen", "md5-module-missing"])
def test_cli_loads_no_openssl_while_every_builtin_hash_imports(tmp_path, variables, hidden):
    assert set(hidden) <= set(_blas._BUILTIN_HASHES)
    (tmp_path / "l.csv").write_text("y,x1\n" + "".join(f"{i % 7},{i % 5}\n" for i in range(30)))
    (tmp_path / "u.csv").write_text("x1\n" + "".join(f"{i % 3}\n" for i in range(60)))
    done = subprocess.run([sys.executable, "-c", _ESTIMATE_AND_REPORT_THE_LOAD, *hidden],
                          cwd=tmp_path, env={**_env_without_blas_vars(), **variables},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    code, openssl, loaded, digest = json.loads(done.stdout.splitlines()[-1])
    assert code == 0 and digest == _SHA256_ABC
    if hidden:
        # hashlib would log every hash it could not find, so OpenSSL loads as it always did
        assert loaded
    else:
        assert (openssl, loaded) == ([], False)


def test_first_call_to_blas_finds_numpys_openblas():
    # a lazy package has loaded no numpy when _blas is first asked
    if not _blas._openblas_threads():
        pytest.skip("no OpenBLAS is loaded")
    before, after = _run_json(
        "import json\n"
        "from ssmean import _blas\n"
        "before = _blas.describe()\n"
        "_blas.set_one_thread()\n"
        "print(json.dumps([before, _blas.describe()]))\n"
    )
    assert before != "BLAS threads: unknown"
    assert after == "BLAS threads: 1"


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_count_from_environment_is_kept(variable):
    _skip_unless_threads_show()
    threads, inside, described = _run_json(
        "import json, os, ssmean.cli\n"
        "from ssmean import _blas\n"
        f"threads = {_THREADS}\n"
        "with _blas.one_thread():\n"
        "    _blas.set_one_thread()\n"
        "    inside = [g() for _, g in _blas._openblas_threads()]\n"
        "    print(json.dumps([threads, inside, _blas.describe()]))\n",
        **{variable: "2"},
    )
    assert threads == 2
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

    # run_replications imports the pool class from concurrent.futures when it needs it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpawnPool)
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
    before, inside, fits, after = _run_json(script)
    _check_count_of_numpy_alone(before)
    assert inside == ["BLAS threads: 1"] and fits == 6  # 2 replications x 3 folds
    assert after == before


def test_estimators_run_on_one_thread():
    if os.cpu_count() < 2 or not _blas._openblas_threads():
        pytest.skip("needs OpenBLAS and two cores")
    # ssmean is imported before numpy, as a library caller may
    script = (
        "import json\n"
        "from ssmean import (Dataset, RngStream, _blas, bdmi_cf, hbdmi_cf,\n"
        "                    imputation_posterior, make_fitter)\n"
        "import numpy as np\n"
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
    before, seen, after = _run_json(script)
    _check_count_of_numpy_alone(before)
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
