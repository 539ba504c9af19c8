"""Write BENCH_<label>.json: repeated perfbench runs of one or more checkouts.

Usage (from anywhere):

    python3 tools/bench_json.py --label L [--checkout DIR ...] [--repeats 5] [--seconds 30]

For every workload that DIR/BENCHMARK.json names, it runs

    python3 DIR/perfbench/run.py --workload W --seed 1 --seconds T

R times, and records per end-to-end metric the median, the quartiles and
the raw values.  Given several checkouts (say, a parent commit and a change),
it runs them in turn within each repeat, in reverse order on every other
repeat, so slow drift of the host and the cost of going first fall on all of
them alike.  It ends with one timed run of the Tier-1 command per
checkout, and keeps its ``--durations=10`` list.

Each workload of every checkout after the first also gets ``versus_first``:
per end-to-end metric of the first checkout's BENCHMARK.json, over the
repeats that completed on both (a pair), the pairs in which this checkout
reads better, worse and equal, as the metric's ``better`` has it; the
difference of the medians (this one's minus the first's, over all completed
runs); the first checkout's q3 - q1; ``gain_shown``, true when this checkout
is better in at least 9 of 10 pairs and its median better by more than that
spread; and ``worse_than_bound``, true when its median is worse by more than
the metric's ``bound`` times the first checkout's median: a bound is a share
of the median, so ``peak_rss_mb``'s 0.1 is 10%, not 0.1 MB.

Each checkout's entry also records ``git rev-parse HEAD`` with a dirty flag
and ``src_lines``, the line count of ``src/ssmean/*.py`` as ``wc -l`` sums
it, and ``import_floor``: the ``VmHWM`` of a fresh ``import ssmean.cli``,
below which no command's peak can fall, and the five files mapped into that
process with the most resident pages, from ``/proc/self/smaps`` (both in
/proc's kB, which are KiB; null elsewhere than Linux).  The file records
nproc, the BLAS thread variables, the thread count
``ssmean._blas.describe()`` reports after ``set_one_thread()``, the Python
and numpy versions, ``PYTHONDONTWRITEBYTECODE``: when it is set, every
CLI call compiles ssmean from source, which added about 50 ms to ``setup_s``
on a 2-core x86-64 box; and ``GLIBC_TUNABLES``, since a fixed
``glibc.malloc.mmap_threshold`` moves ``peak_rss_mb`` by more than its
bound.  The file goes to the root of the repository that
holds this script.  Only the stdlib is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10",
         "-p", "no:cacheprovider"]
DURATION = re.compile(r"\d+\.\d+s (call|setup|teardown) ")
PROBE = (
    "import json, platform, numpy\n"
    "from ssmean import _blas\n"
    "_blas.set_one_thread()\n"
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,\n"
    "                  'blas': _blas.describe()}))\n"
)

# prints the VmHWM line of /proc/self/status, then /proc/self/smaps, after the CLI's imports
FLOOR = (
    "import sys\n"
    "import ssmean.cli\n"
    "if sys.platform.startswith('linux'):\n"
    "    status = open('/proc/self/status').read().splitlines()\n"
    "    print(*[line for line in status if line.startswith('VmHWM:')])\n"
    "    print(open('/proc/self/smaps').read(), end='')\n"
)
FLOOR_FILES = 5


def summarize(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles' default method) and the raw values."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def versus(first: list, runs: list, end_to_end: list) -> dict:
    """One workload's runs against the first checkout's, repeat by repeat (module docstring)."""
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        sides = [[run.get("metrics", {}).get(name, {}).get("value") for run in side]
                 for side in (first, runs)]
        if not all(any(value is not None for value in side) for side in sides):
            continue
        before, after = (summarize([value for value in side if value is not None])
                         for side in sides)
        # > 0 where this checkout reads worse than the first
        gaps = [sign * (b - a) for a, b in zip(*sides) if a is not None and b is not None]
        difference = after["median"] - before["median"]
        spread = before["q3"] - before["q1"]
        better = sum(gap < 0 for gap in gaps)
        out[name] = {
            "pairs": len(gaps),
            "better": better,
            "worse": sum(gap > 0 for gap in gaps),
            "equal": sum(gap == 0 for gap in gaps),
            "median_difference": difference,
            "first_iqr": spread,
            "gain_shown": bool(gaps) and 10 * better >= 9 * len(gaps)
                          and -sign * difference > spread,
            "worse_than_bound": sign * difference > metric["bound"] * abs(before["median"]),
        }
    return out


def _env(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                          check=True).stdout.strip()


def revision(checkout: Path) -> dict:
    return {"rev": _git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
            "src_lines": sum(path.read_bytes().count(b"\n")
                             for path in (checkout / "src" / "ssmean").glob("*.py"))}


def probe(checkout: Path) -> dict:
    out = subprocess.run([sys.executable, "-c", PROBE], cwd=checkout, env=_env(checkout),
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def import_floor(checkout: Path) -> dict | None:
    """The peak of a fresh ``import ssmean.cli`` and its largest file mappings (docstring)."""
    out = subprocess.run([sys.executable, "-c", FLOOR], cwd=checkout, env=_env(checkout),
                         capture_output=True, text=True, check=True).stdout
    if not out:
        return None
    peak, *smaps = out.splitlines()
    rss: dict[str, int] = {}
    path = None
    for line in smaps:
        first, *rest = line.split(maxsplit=5)
        if not first.endswith(":"):  # a mapping's header: address, ..., inode, then any path
            path = rest[4] if len(rest) == 5 and rest[4].startswith("/") else None
        elif first == "Rss:" and path is not None:
            rss[path] = rss.get(path, 0) + int(rest[0])
    largest = sorted(rss.items(), key=lambda item: item[1], reverse=True)[:FLOOR_FILES]
    return {"vmhwm_kb": int(peak.split()[1]),
            "largest_files": [{"path": path, "rss_kb": kb} for path, kb in largest]}


def perfbench(checkout: Path, workload: str, seconds: float) -> dict:
    """One perfbench run: its final JSON line, or the error it ended with."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    return json.loads(proc.stdout.splitlines()[-1])


def tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=_env(checkout),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    durations = [line for line in lines if DURATION.match(line)]
    return {"wall_s": round(wall, 2), "exit_code": proc.returncode,
            "summary": lines[-1] if lines else "", "durations": durations}


def measure(checkouts: list[Path], repeats: int, seconds: float) -> list:
    specs = [json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
             for checkout in checkouts]
    entries = [{**revision(checkout), **probe(checkout), "import_floor": import_floor(checkout),
                "workloads": {w["name"]: [] for w in spec["workloads"]}}
               for checkout, spec in zip(checkouts, specs)]
    for repeat in range(repeats):
        for name in entries[0]["workloads"]:
            pairs = list(zip(checkouts, entries))
            for checkout, entry in pairs[::-1] if repeat % 2 else pairs:
                if name in entry["workloads"]:
                    entry["workloads"][name].append(perfbench(checkout, name, seconds))
    first = dict(entries[0]["workloads"])
    for checkout, entry in zip(checkouts, entries):
        for name, runs in entry["workloads"].items():
            ok = [run for run in runs if "metrics" in run]
            metrics = {metric: summarize([run["metrics"][metric]["value"] for run in ok])
                       for metric in (ok[0]["metrics"] if ok else {})}
            entry["workloads"][name] = {
                "runs": len(runs),
                "correct": bool(ok) and all(run["correct"] for run in ok),
                "failed_operations": sum(run["failed"] for run in ok),
                "errors": [run["error"] for run in runs if "error" in run],
                "metrics": metrics,
            }
            if entry is not entries[0] and name in first:
                entry["workloads"][name]["versus_first"] = versus(
                    first[name], runs, specs[0].get("end_to_end", []))
        entry["tier1"] = tier1(checkout)
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description="Write BENCH_<label>.json from perfbench runs.")
    parser.add_argument("--label", required=True)
    parser.add_argument("--checkout", action="append", type=Path,
                        help="checkout to measure (repeatable; default: this repository)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    checkouts = [path.resolve() for path in args.checkout or [ROOT]]
    payload = {
        "label": args.label,
        "seed": SEED,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "nproc": os.cpu_count(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "python_env": {var: os.environ.get(var)
                       for var in ("PYTHONDONTWRITEBYTECODE", "GLIBC_TUNABLES")},
        "checkouts": measure(checkouts, args.repeats, args.seconds),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
