"""tools/bench_json.py on a stub checkout whose perfbench prints fixed metrics."""

import importlib.util
import json
import statistics
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
    (root / "src" / "ssmean" / "cli.py").write_text("")
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
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072")
    monkeypatch.setattr(sys, "argv", ["bench_json.py", "--label", "t", "--checkout",
                                      str(checkout), "--repeats", "3", "--seconds", "0"])
    assert bench_json.main() == 0
    payload = json.loads((out_root / "BENCH_t.json").read_text())
    assert (payload["label"], payload["repeats"], payload["seed"]) == ("t", 3, 1)
    assert "OPENBLAS_NUM_THREADS" in payload["blas_env"]
    assert payload["python_env"] == {"PYTHONDONTWRITEBYTECODE": "1",
                                     "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"}
    (entry,) = payload["checkouts"]
    assert entry["blas"] == "BLAS threads: 1" and entry["dirty"] is False
    assert len(entry["rev"]) == 40 and entry["numpy"] and entry["python"]
    assert entry["src_lines"] == 5  # wc -l: __init__.py and cli.py are empty, _blas.py has 5
    floor = entry["import_floor"]
    if sys.platform.startswith("linux"):
        files = floor["largest_files"]
        assert floor["vmhwm_kb"] > 0 and 0 < len(files) <= 5
        assert [f["rss_kb"] for f in files] == sorted((f["rss_kb"] for f in files), reverse=True)
    else:
        assert floor is None
    fast = entry["workloads"]["fast"]
    assert (fast["runs"], fast["correct"], fast["errors"]) == (3, True, [])
    assert fast["metrics"]["wall_s"]["values"] == [1.0, 2.0, 3.0]
    assert entry["workloads"]["slow"]["metrics"]["wall_s"]["median"] == 11.0
    # the stub checkout has no tests: pytest exits 5, "no tests ran"
    assert entry["tier1"]["exit_code"] == 5 and entry["tier1"]["wall_s"] > 0


STUB_MAPPING_CLI = """\
import mmap
with open("big.bin", "rb") as handle:
    MAP = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
TOUCHED = sum(MAP[i] for i in range(0, len(MAP), mmap.PAGESIZE))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/smaps")
def test_import_floor_names_the_file_the_cli_import_maps_most_of(bench_json, tmp_path):
    checkout = _stub_checkout(tmp_path / "checkout")
    (checkout / "src" / "ssmean" / "cli.py").write_text(STUB_MAPPING_CLI)
    (checkout / "big.bin").write_bytes(b"\x01" * (24 << 20))  # past any library's pages
    floor = bench_json.import_floor(checkout)
    largest = floor["largest_files"][0]
    assert largest == {"path": str(checkout.resolve() / "big.bin"), "rss_kb": 24 << 10}
    assert floor["vmhwm_kb"] > 24 << 10


STUB_SERIES = """\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent
workload = sys.argv[sys.argv.index("--workload") + 1]
count_file = here / ("count." + workload)
count = int(count_file.read_text()) if count_file.exists() else 0
count_file.write_text(str(count + 1))
values = json.loads((here / "series.json").read_text())[workload][count]
if values is None:
    sys.exit("stub failure")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {name: {"value": value} for name, value in values.items()}}))
"""

END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
              {"name": "score", "better": "higher", "bound": 1.0}]


def _series_checkout(root: Path, series: dict) -> Path:
    checkout = _stub_checkout(root)
    (checkout / "perfbench" / "run.py").write_text(STUB_SERIES)
    (checkout / "perfbench" / "series.json").write_text(json.dumps(series))
    (checkout / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": name} for name in series], "end_to_end": END_TO_END}))
    return checkout


def test_second_checkout_is_compared_with_the_first_pair_by_pair(bench_json, tmp_path,
                                                                  monkeypatch):
    # wall_s: 9 of 10 repeats lower by 0.8, the median by 0.7, against a first-checkout
    # q3 - q1 of 0.55; peak_rss_mb: 0.5 higher in every repeat, inside its bound of 10% of
    # the first median (4.45); score: higher is better, and it reads 0.1 higher in every
    # repeat, far inside its spread
    first = [{"wall_s": 1.0 + 0.1 * i, "peak_rss_mb": 40.0 + i, "score": 5.0 + i}
             for i in range(10)]
    second = [{"wall_s": run["wall_s"] + (0.1 if i == 4 else -0.8),
               "peak_rss_mb": run["peak_rss_mb"] + 0.5, "score": run["score"] + 0.1}
              for i, run in enumerate(first)]
    # the same runs, with the second checkout's first repeat failed
    parent = _series_checkout(tmp_path / "parent", {"clear": first, "failing": first})
    change = _series_checkout(tmp_path / "change",
                              {"clear": second, "failing": [None, *second[1:]]})
    out_root = tmp_path / "out"
    out_root.mkdir()
    monkeypatch.setattr(bench_json, "ROOT", out_root)
    monkeypatch.setattr(sys, "argv", ["bench_json.py", "--label", "t", "--checkout", str(parent),
                                      "--checkout", str(change), "--repeats", "10",
                                      "--seconds", "0"])
    assert bench_json.main() == 0
    first_entry, second_entry = json.loads((out_root / "BENCH_t.json").read_text())["checkouts"]
    assert all("versus_first" not in w for w in first_entry["workloads"].values())

    clear = second_entry["workloads"]["clear"]["versus_first"]
    wall = clear["wall_s"]
    assert (wall["pairs"], wall["better"], wall["worse"], wall["equal"]) == (10, 9, 1, 0)
    assert wall["first_iqr"] == pytest.approx(0.55)
    assert wall["median_difference"] == pytest.approx(
        statistics.median(run["wall_s"] for run in second) - 1.45)
    assert wall["gain_shown"] is True and wall["worse_than_bound"] is False
    rss = clear["peak_rss_mb"]
    assert (rss["better"], rss["worse"], rss["equal"]) == (0, 10, 0)
    assert rss["median_difference"] == pytest.approx(0.5)
    assert rss["gain_shown"] is False and rss["worse_than_bound"] is False
    score = clear["score"]
    assert (score["better"], score["worse"]) == (10, 0)
    assert score["median_difference"] == pytest.approx(0.1)
    assert score["gain_shown"] is False and score["worse_than_bound"] is False

    # one failed repeat leaves 9 pairs, of which 8 are better: short of 9 in 10
    failing = second_entry["workloads"]["failing"]
    assert failing["runs"] == 10 and len(failing["errors"]) == 1
    wall = failing["versus_first"]["wall_s"]
    assert (wall["pairs"], wall["better"], wall["worse"]) == (9, 8, 1)
    assert wall["gain_shown"] is False


def test_versus_first_of_equal_runs_shows_nothing(bench_json):
    runs = [{"metrics": {"wall_s": {"value": 1.0}}}] * 4
    (wall,) = bench_json.versus(runs, runs, END_TO_END[:1]).values()
    assert (wall["pairs"], wall["better"], wall["worse"], wall["equal"]) == (4, 0, 0, 4)
    assert wall["median_difference"] == 0.0
    assert wall["gain_shown"] is False and wall["worse_than_bound"] is False
    # a metric that only one side reports is left out
    assert bench_json.versus(runs, [{"error": "exit 1"}] * 4, END_TO_END[:1]) == {}


@pytest.mark.parametrize("metric, after, worse", [
    ("peak_rss_mb", 43.9, False),  # +9.75% of 40, inside 0.1
    ("peak_rss_mb", 44.5, True),  # +11.25%
    ("wall_s", 1.2, False),  # +20% of 1.0, inside 0.25
    ("wall_s", 1.3, True),
    ("score", 0.5, False),  # higher is better: 50% below 1.0, inside 1.0
    ("score", -0.5, True),
], ids=["rss-inside", "rss-beyond", "wall-inside", "wall-beyond", "score-inside",
        "score-beyond"])
def test_a_bound_is_a_share_of_the_first_median(bench_json, metric, after, worse):
    before = {"peak_rss_mb": 40.0, "wall_s": 1.0, "score": 1.0}[metric]
    runs = [[{"metrics": {metric: {"value": value}}}] * 4 for value in (before, after)]
    spec = [row for row in END_TO_END if row["name"] == metric]
    assert bench_json.versus(*runs, spec)[metric]["worse_than_bound"] is worse
