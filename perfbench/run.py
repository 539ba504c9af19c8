"""Benchmark of the ssmean CLI on seeded, generated inputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME "all" runs every workload in turn and prints a table of their metrics.

Runs ``python3 -m ssmean.cli`` from the checkout's ``src/`` in a closed
loop: one command at a time, the next one started when the previous one has
exited, until S seconds have passed (and at least MIN_ROUNDS rounds).  Each
command is checked against reference values computed by gen.py, and its
report must be byte-identical to the first command's.

--trace 0 prints the end-to-end metrics: the lower quartile over the
commands of wall time, CPU time and peak RSS, and the lower quartile of
SETUP_SAMPLES fresh ``import ssmean.cli`` calls.  The lower quartile, not
the median, because other tenants of the host slow a third or so of the
commands by up to 60% in bursts (README).

--trace 1 runs rounds of one untraced and one traced command (tracing.py),
in alternating order, and prints the per-layer metrics as medians over the
traced commands, with the tracing overhead as the traced minus the untraced
median wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  BLAS thread variables are passed through as
the environment has them; their values go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 7
MIN_ROUNDS = {0: 3, 1: 2}
WORK_DIR = ".perfbench-work"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here (missing checkout, generator failure)."""


def run_child(cmd: list[str], env: dict, log: Path) -> tuple[float, float, float, int]:
    """Run one command to its end: (wall s, user+sys CPU s, peak RSS MB, exit code).

    os.wait4 returns the child's usage including the workers it reaped:
    CPU is summed, and ru_maxrss is the largest single resident set.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def _tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-2000:]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def measure(workload: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    if not (ROOT / "src" / "ssmean" / "cli.py").is_file():
        raise BenchError(f"no ssmean sources under {ROOT / 'src'}")
    env = child_env()
    rel = work.relative_to(ROOT).as_posix()
    gen_log = work / "gen.log"
    work.mkdir(parents=True)
    gen = [sys.executable, "perfbench/gen.py", "--workload", workload,
           "--seed", str(seed), "--out", rel]
    if run_child(gen, env, gen_log)[3] != 0:
        raise BenchError(f"input generation failed:\n{_tail(gen_log)}")
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))

    setup = []
    if trace == 0:
        for _ in range(SETUP_SAMPLES):
            wall, _, _, rc = run_child([sys.executable, "-c", "import ssmean.cli"], env,
                                       work / "setup.log")
            if rc != 0:
                raise BenchError(f"import ssmean.cli failed:\n{_tail(work / 'setup.log')}")
            setup.append(wall)

    cli = wl.cli_args(workload, seed, rel)
    files = [ROOT / f for f in wl.report_files(workload, rel)]
    untraced, traced, layers, failures = [], [], [], []
    attempted = failed = 0
    reference = None
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS[trace] or time.perf_counter() - start < seconds:
        rounds += 1
        # traced rounds alternate which command goes first, so drift cancels
        order = (False,) if not trace else (False, True) if rounds % 2 else (True, False)
        for is_traced in order:
            attempted += 1
            span_dir = work / f"spans-{attempted}"
            shutil.rmtree(work / "out", ignore_errors=True)
            cmd = ([sys.executable, "perfbench/tracing.py", str(span_dir), *cli] if is_traced
                   else [sys.executable, "-m", "ssmean.cli", *cli])
            log = work / f"op-{attempted}.log"
            wall, cpu, rss, rc = run_child(cmd, env, log)
            if rc != 0:
                failed += 1
                print(f"perfbench: operation {attempted} exited {rc}:\n{_tail(log)}",
                      file=sys.stderr)
                continue
            texts = [f.read_text(encoding="utf-8") for f in files]
            if reference is None:
                reference = texts
                failures += checks.check_files(workload, texts, expected)
            elif texts != reference:
                failures.append(f"operation {attempted}: report differs from the first command's")
            (traced if is_traced else untraced).append((wall, cpu, rss))
            if is_traced:
                layers.append(tracing.layer_metrics(tracing.load_spans(span_dir)))
                shutil.rmtree(span_dir)
    if not untraced or (trace and not traced):
        raise BenchError("every operation of a kind failed")
    for message in failures:
        print(f"perfbench: CHECK FAILED: {message}", file=sys.stderr)

    if trace == 0:
        values = {
            "wall_s": lower_quartile([op[0] for op in untraced]),
            "cpu_s": lower_quartile([op[1] for op in untraced]),
            "peak_rss_mb": lower_quartile([op[2] for op in untraced]),
            "setup_s": lower_quartile(setup),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["trace.overhead_s"] = (statistics.median(op[0] for op in traced)
                                      - statistics.median(op[0] for op in untraced))
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in tracing.LAYER_UNITS.items()}
    blas = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_VARS)
    print(f"perfbench: {workload} seed={seed} rounds={rounds} nproc={os.cpu_count()} {blas}",
          file=sys.stderr)
    print("perfbench: wall_s of each untraced command: "
          + json.dumps([round(op[0], 4) for op in untraced]), file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the ssmean CLI.")
    parser.add_argument("--workload", required=True, choices=[*sorted(wl.WORKLOADS), "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        work = ROOT / WORK_DIR / f"{name}-{args.seed}-{os.getpid()}"
        try:
            results[name] = measure(name, args.seed, args.seconds, args.trace, work)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:  # absent, or another run's directory is still in it
                pass
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:16} {metric:28} {m['value']:12.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
