"""Compare the report files of the benchmark workloads across checkouts.

Usage (from anywhere):

    python3 tools/report_digest.py [--checkout DIR ...] [--seed 5] [--workload W ...]

For every checkout and every workload it

- writes the workload's inputs with that checkout's ``perfbench/gen.py`` at
  the seed;
- runs the workload's ssmean command (``cli_args`` of the checkout's
  ``perfbench/workloads.py``) with the checkout's ``src/`` on PYTHONPATH;
- takes the sha256 of each file that ``report_files`` names.

All checkouts run in one work directory, a temporary one emptied before each
command and removed at the end: reports echo their input paths, so a
directory per checkout would give each checkout different bytes.  The
digests therefore hold within one call, not across calls.

It prints one JSON object: per workload, each checkout's exit code and
digests, and the files whose digests differ.  For a differing ``.json`` or
``.csv`` report it also gives how far it moved: the largest relative
difference |b - a| / max(|a|, |b|) between a numeric leaf of the first
checkout's report and the same leaf of another's, and that leaf's path (keys
and list indices joined by ``/``).  A leaf is a number, a string, a boolean
or a null; ``added`` lists the leaves a later report holds and the first does
not, and ``removed`` those the first holds and a later one does not, so a
change that only adds or drops keys names them.  A CSV's leaves are its
cells, at the path ``row/column``: the row's index after the header, and the
column's header; a cell that parses as a number is one.
Beside that leaf, ``by_method`` gives the largest relative difference per
method spec, 0.0 for a spec whose leaves all match: a JSON leaf's spec is the
key after ``results``, ``metrics`` or ``rl_vs_supervised`` in its path, a CSV
leaf's the ``method`` cell of its row, and a density CSV's every leaf's the
spec its file is named after.
It exits 1, naming those files (or the failed command) on stderr, when the
checkouts disagree or a command fails; a change that must keep every report
byte for byte passes it with the parent commit and the change as the two
checkouts.  Without ``--workload`` it runs every workload of the first
checkout's ``perfbench/workloads.py``.  Only the stdlib is imported.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workloads(checkout: Path, index: int):
    """The checkout's perfbench/workloads.py, as a module of its own."""
    spec = importlib.util.spec_from_file_location(
        f"_report_digest_workloads_{index}", checkout / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(cmd: list[str], env: dict, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True)


def digest_run(checkout: Path, wl, workload: str, seed: int, work: Path) -> tuple[dict, dict]:
    """One workload of one checkout: its exit code and the sha256 of each report file.

    Also returns each ``.json`` and ``.csv`` report, parsed (``read_report``), by the same key.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      env.get("PYTHONPATH")]))
    gen = [sys.executable, str(checkout / "perfbench" / "gen.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(work)]
    proc = _run(gen, env, work)
    if proc.returncode == 0:
        cli = [sys.executable, "-m", "ssmean.cli", *wl.cli_args(workload, seed, str(work))]
        proc = _run(cli, env, work)
    out = {"checkout": str(checkout), "exit_code": proc.returncode, "files": {}}
    documents = {}
    if proc.returncode != 0:
        out["error"] = proc.stderr[-2000:]
        return out, documents
    for name in wl.report_files(workload, str(work)):
        path = Path(name)
        key = path.relative_to(work).as_posix()
        out["files"][key] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
        if path.suffix in (".json", ".csv") and path.is_file():
            documents[key] = read_report(path)
    return out, documents


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):  # text, or a ragged row's missing or extra cells
        return cell


def read_report(path: Path):
    """A JSON report parsed; a CSV report as its rows, dicts keyed by the header, numbers parsed."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as handle:
        return [{name: _number(cell) for name, cell in row.items()}
                for row in csv.DictReader(handle)]


def leaves(value, path: str = ""):
    """(path, value) for every number, string, boolean and null in a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}/{key}" if path else str(key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, f"{path}/{index}" if path else str(index))
    else:
        yield path, value


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


METHOD_KEYS = ("results", "metrics", "rl_vs_supervised")


def method_of(name: str, document, path: str) -> str | None:
    """The method spec a leaf of report `name` belongs to, or None."""
    stem = Path(name).stem
    if stem.startswith("density_"):  # density_<spec with ':' as '_'>.csv
        return stem[len("density_"):].replace("_", ":")
    parts = path.split("/")
    if Path(name).suffix == ".csv":
        spec = document[int(parts[0])].get("method")
        return spec if isinstance(spec, str) else None
    return next((spec for key, spec in zip(parts, parts[1:]) if key in METHOD_KEYS), None)


def largest_move(name: str, documents: list) -> dict:
    """The largest relative difference of a numeric leaf from the first document, its leaf,
    the largest per method spec, and the leaves added and removed after the first."""
    first = dict(leaves(documents[0]))
    largest = {"max_relative_difference": 0.0, "leaf": None, "by_method": {}}
    by_method = largest["by_method"]
    added, removed = set(), set()
    for document in documents[1:]:
        later = dict(leaves(document))
        added |= later.keys() - first.keys()
        removed |= first.keys() - later.keys()
        for path, value in later.items():
            base = first.get(path)
            if not (is_number(value) and is_number(base)):
                continue
            relative = 0.0 if value == base else abs(value - base) / max(abs(value), abs(base))
            spec = method_of(name, documents[0], path)
            if spec is not None:
                by_method[spec] = max(by_method.get(spec, 0.0), relative)
            if relative > largest["max_relative_difference"]:
                largest.update(max_relative_difference=relative, leaf=path)
    largest.update(added=sorted(added), removed=sorted(removed))
    return largest


def compare(runs: list[dict]) -> list[str]:
    """The file names whose digests are not the same in every run."""
    names = sorted({name for run in runs for name in run["files"]})
    return [name for name in names if len({run["files"].get(name) for run in runs}) > 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", type=Path,
                        help="checkout to run (repeatable; default: this repository)")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: every workload)")
    args = parser.parse_args(argv)
    checkouts = [path.resolve() for path in args.checkout or [ROOT]]
    modules = [load_workloads(checkout, i) for i, checkout in enumerate(checkouts)]
    workloads = args.workload or list(modules[0].WORKLOADS)
    payload = {"seed": args.seed, "workloads": {}}
    ok = True
    with tempfile.TemporaryDirectory(prefix="report-digest-") as tmp:
        work = Path(tmp) / "work"
        for workload in workloads:
            runs, documents = zip(*(digest_run(checkout, wl, workload, args.seed, work)
                                    for checkout, wl in zip(checkouts, modules)))
            differing = compare(runs)
            moved = {name: largest_move(name, [docs[name] for docs in documents])
                     for name in differing if all(name in docs for docs in documents)}
            payload["workloads"][workload] = {"differing": differing, "moved": moved,
                                              "runs": list(runs)}
            for run in runs:
                if run["exit_code"] != 0:
                    ok = False
                    print(f"report_digest: {workload}: {run['checkout']} exited "
                          f"{run['exit_code']}", file=sys.stderr)
            for name in differing:
                ok = False
                how_far = ""
                if name in moved:
                    entry = moved[name]
                    how_far = (f"; largest relative difference "
                               f"{entry['max_relative_difference']:.3g} at {entry['leaf']}; "
                               f"{len(entry['added'])} leaves added, "
                               f"{len(entry['removed'])} removed")
                print(f"report_digest: {workload}: {name} differs{how_far}", file=sys.stderr)
    print(json.dumps(payload, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
