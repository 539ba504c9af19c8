"""tools/bench_json.py on a stub checkout whose perfbench prints fixed metrics."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"

STUB_RUN = """\
import json, sys
workload = sys.argv[sys.argv.index("--workload") + 1]
count_file = __file__ + "." + workload
try:
    count = int(open(count_file).read())
except FileNotFoundError:
    count = 0
open(count_file, "w").write(str(count + 1))
wall = {"fast": 1.0, "slow": 10.0}[workload] + count
print("a line of table output")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"wall_s": {"value": wall, "unit": "s"}}}))
"""

STUB_BLAS = """\
def set_one_thread():
    pass

def describe():
    return "BLAS threads: 1"
"""


@pytest.fixture(scope="module")
def bench_json():
    spec = importlib.util.spec_from_file_location("bench_json", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub_checkout(root: Path) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "src" / "ssmean").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    (root / "src" / "ssmean" / "__init__.py").write_text("")
    (root / "src" / "ssmean" / "_blas.py").write_text(STUB_BLAS)
    (root / "BENCHMARK.json").write_text(
        json.dumps({"workloads": [{"name": "fast"}, {"name": "slow"}]})
    )
    (root / ".gitignore").write_text("perfbench/run.py.*\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run([*git, "init", "-q"], cwd=root, check=True)
    subprocess.run([*git, "add", "-A"], cwd=root, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "stub"], cwd=root, check=True)
    return root


def test_summarize_gives_median_quartiles_and_values(bench_json):
    summary = bench_json.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert summary == {"median": 3.0, "q1": 1.5, "q3": 4.5, "values": [5.0, 1.0, 3.0, 2.0, 4.0]}
    assert bench_json.summarize([2.0])["median"] == 2.0


def test_writes_one_entry_per_checkout(bench_json, tmp_path, monkeypatch):
    checkout = _stub_checkout(tmp_path / "checkout")
    out_root = tmp_path / "out"
    out_root.mkdir()
    monkeypatch.setattr(bench_json, "ROOT", out_root)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(sys, "argv", ["bench_json.py", "--label", "t", "--checkout",
                                      str(checkout), "--repeats", "3", "--seconds", "0"])
    assert bench_json.main() == 0
    payload = json.loads((out_root / "BENCH_t.json").read_text())
    assert (payload["label"], payload["repeats"], payload["seed"]) == ("t", 3, 1)
    assert "OPENBLAS_NUM_THREADS" in payload["blas_env"]
    assert payload["python_env"] == {"PYTHONDONTWRITEBYTECODE": "1"}
    (entry,) = payload["checkouts"]
    assert entry["blas"] == "BLAS threads: 1" and entry["dirty"] is False
    assert len(entry["rev"]) == 40 and entry["numpy"] and entry["python"]
    assert entry["src_lines"] == 5  # wc -l: __init__.py is empty, _blas.py has 5 lines
    fast = entry["workloads"]["fast"]
    assert (fast["runs"], fast["correct"], fast["errors"]) == (3, True, [])
    assert fast["metrics"]["wall_s"]["values"] == [1.0, 2.0, 3.0]
    assert entry["workloads"]["slow"]["metrics"]["wall_s"]["median"] == 11.0
    # the stub checkout has no tests: pytest exits 5, "no tests ran"
    assert entry["tier1"]["exit_code"] == 5 and entry["tier1"]["wall_s"] > 0
