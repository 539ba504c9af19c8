"""tools/report_digest.py on stub checkouts whose commands write fixed reports."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"

STUB_WORKLOADS = """\
WORKLOADS = {"one": {}, "two": {}}

def cli_args(workload, seed, work):
    return [workload, str(seed), work]

def report_files(workload, work):
    return [f"{work}/out/{workload}.txt", f"{work}/out/input.txt"]
"""

STUB_GEN = """\
import argparse, pathlib
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--out"):
    parser.add_argument(flag)
args = parser.parse_args()
pathlib.Path(args.out, "input.txt").write_text(f"{args.workload} {args.seed}")
"""

# the report echoes the work directory, as ssmean's config echo echoes input paths
STUB_CLI = """\
import pathlib, shutil, sys
workload, seed, work = sys.argv[1:4]
value = {changed!r}.get(workload, "a")
if value == "fail":
    sys.exit(3)
out = pathlib.Path(work, "out")
out.mkdir()
(out / f"{{workload}}.txt").write_text(f"{{value}} {{seed}} {{work}}")
shutil.copy(pathlib.Path(work, "input.txt"), out / "input.txt")
"""


@pytest.fixture(scope="module")
def report_digest():
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub_checkout(root: Path, changed: dict | None = None) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "src" / "ssmean").mkdir(parents=True)
    (root / "perfbench" / "workloads.py").write_text(STUB_WORKLOADS)
    (root / "perfbench" / "gen.py").write_text(STUB_GEN)
    (root / "src" / "ssmean" / "__init__.py").write_text("")
    (root / "src" / "ssmean" / "cli.py").write_text(STUB_CLI.format(changed=changed or {}))
    return root


def _run(report_digest, capsys, *checkouts, seed=7):
    argv = ["--seed", str(seed)]
    for checkout in checkouts:
        argv += ["--checkout", str(checkout)]
    code = report_digest.main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_equal_checkouts_in_different_directories_agree(report_digest, tmp_path, capsys):
    a = _stub_checkout(tmp_path / "a")
    b = _stub_checkout(tmp_path / "b")
    code, payload, err = _run(report_digest, capsys, a, b)
    assert code == 0 and err == ""
    assert payload["seed"] == 7 and list(payload["workloads"]) == ["one", "two"]
    for workload, entry in payload["workloads"].items():
        assert entry["differing"] == []
        first, second = entry["runs"]
        assert (first["checkout"], second["checkout"]) == (str(a), str(b))
        assert first["exit_code"] == second["exit_code"] == 0
        assert first["files"] == second["files"]
        expected = hashlib.sha256(f"{workload} 7".encode()).hexdigest()
        assert first["files"]["out/input.txt"] == expected


def test_a_changed_report_is_named_and_fails(report_digest, tmp_path, capsys):
    a = _stub_checkout(tmp_path / "a")
    b = _stub_checkout(tmp_path / "b", changed={"two": "b"})
    code, payload, err = _run(report_digest, capsys, a, b)
    assert code == 1
    assert payload["workloads"]["one"]["differing"] == []
    assert payload["workloads"]["two"]["differing"] == ["out/two.txt"]
    assert "two: out/two.txt differs" in err


def test_a_failed_command_fails(report_digest, tmp_path, capsys):
    a = _stub_checkout(tmp_path / "a", changed={"one": "fail"})
    code, payload, err = _run(report_digest, capsys, a)
    assert code == 1
    (run,) = payload["workloads"]["one"]["runs"]
    assert run["exit_code"] == 3 and run["files"] == {}
    assert "one:" in err and "exited 3" in err
    assert payload["workloads"]["two"]["runs"][0]["exit_code"] == 0


JSON_WORKLOADS = """\
WORKLOADS = {"one": {}}

def cli_args(workload, seed, work):
    return [workload, str(seed), work]

def report_files(workload, work):
    return [f"{work}/out/report.json"]
"""

# a report of nested numbers; a changed checkout moves one leaf
JSON_CLI = """\
import json, pathlib, sys
workload, seed, work = sys.argv[1:4]
report = {{"work": work, "ok": True, "results": {{"bdmi": {{"ci": [1.0, 2.0]}},
                                               "sup": {{"point": 3.0, "n": 7}}}}}}
report["results"]["bdmi"]["ci"][1] *= {scale!r}
out = pathlib.Path(work, "out")
out.mkdir()
(out / "report.json").write_text(json.dumps(report))
"""


def _json_checkout(root: Path, scale: float) -> Path:
    checkout = _stub_checkout(root)
    (checkout / "perfbench" / "workloads.py").write_text(JSON_WORKLOADS)
    (checkout / "src" / "ssmean" / "cli.py").write_text(JSON_CLI.format(scale=scale))
    return checkout


def test_a_changed_json_report_says_how_far_it_moved(report_digest, tmp_path, capsys):
    a = _json_checkout(tmp_path / "a", 1.0)
    b = _json_checkout(tmp_path / "b", 1.0 + 2.0**-40)
    code, payload, err = _run(report_digest, capsys, a, b)
    assert code == 1
    entry = payload["workloads"]["one"]
    assert entry["differing"] == ["out/report.json"]
    moved = entry["moved"]["out/report.json"]
    assert moved["leaf"] == "results/bdmi/ci/1"
    assert moved["max_relative_difference"] == pytest.approx(2.0**-40, rel=1e-6)
    assert "largest relative difference 9.09e-13 at results/bdmi/ci/1" in err
    # equal reports move nothing
    code, payload, _ = _run(report_digest, capsys, a, _json_checkout(tmp_path / "c", 1.0))
    assert code == 0 and payload["workloads"]["one"]["moved"] == {}


CSV_WORKLOADS = JSON_WORKLOADS.replace("report.json", "density.csv")

# a density CSV, as simulate writes one; a changed checkout moves one cell
CSV_CLI = """\
import pathlib, sys
workload, seed, work = sys.argv[1:4]
rows = [["replication", "grid_point", "density"], [0, 1.5, 0.25], [0, 2.5, 0.5], [1, 1.5, ""]]
rows[2][2] *= {scale!r}
out = pathlib.Path(work, "out")
out.mkdir()
(out / "density.csv").write_text("".join(",".join(map(str, row)) + "\\n" for row in rows))
"""


def test_a_changed_csv_report_says_how_far_it_moved(report_digest, tmp_path, capsys):
    def checkout(name, scale):
        root = _stub_checkout(tmp_path / name)
        (root / "perfbench" / "workloads.py").write_text(CSV_WORKLOADS)
        (root / "src" / "ssmean" / "cli.py").write_text(CSV_CLI.format(scale=scale))
        return root

    a = checkout("a", 1.0)
    code, payload, err = _run(report_digest, capsys, a, checkout("b", 1.0 + 2.0**-40))
    assert code == 1
    entry = payload["workloads"]["one"]
    assert entry["differing"] == ["out/density.csv"]
    moved = entry["moved"]["out/density.csv"]
    assert moved["leaf"] == "1/density"  # the second row after the header
    assert moved["max_relative_difference"] == pytest.approx(2.0**-40, rel=1e-6)
    assert "out/density.csv differs; largest relative difference 9.09e-13 at 1/density" in err
    code, payload, _ = _run(report_digest, capsys, a, checkout("c", 1.0))
    assert code == 0 and payload["workloads"]["one"]["moved"] == {}
