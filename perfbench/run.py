"""Benchmark command: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  Every round of a
workload is a fresh `worker.py` process, so the package's caches start
cold; rounds run one at a time, and a new round starts only while the
run is expected to end within --seconds.  The last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics over the run's rounds; --trace 1
runs one traced round of every workload and reports the per-layer
metrics, with `attempted`/`failed` from the named workload's round.
`--workload all` runs every workload in turn and prints one such line
for each.  Results go to .perfbench_out/ as well.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
RUN_LIMIT_S = 170
SETUPS = 5


class RoundError(RuntimeError):
    pass


def run_round(workload, seed, trace, deadline, *extra):
    """Start a worker, wait for it, and return its result with the
    spawn-to-first-operation and spawn-to-exit times added.  A worker
    still running at `deadline` (a time.monotonic() reading) is killed
    together with the CLI processes it started."""
    spawned = time.monotonic()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, str(seed), "full", "1" if trace else "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - spawned, 0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundError(f"{workload} round did not end within the run's {RUN_LIMIT_S} s")
    elapsed = time.perf_counter() - start
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{workload} worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["first"] - spawned
    result["process_s"] = elapsed
    return result


def measure(workload, seed, seconds):
    started = time.perf_counter()
    deadline = time.monotonic() + RUN_LIMIT_S
    rounds = []
    while True:
        rounds.append(run_round(workload, seed, False, deadline))
        elapsed = time.perf_counter() - started
        if elapsed + max(r["process_s"] for r in rounds) > seconds:
            break
    # A run of long rounds sets up more processes, each stopping at the
    # first operation, so setup_s is a median over SETUPS processes.
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUPS:
        setups.append(run_round(workload, seed, False, deadline, "setup-only")["setup_s"])
    # Every round repeats the same operations.  Summing each operation's
    # median over the rounds gives one round's wall time with a slow spell
    # of the machine outvoted wherever it hit fewer than half the rounds.
    per_op = zip(*(r["op_s"] for r in rounds))
    # cli-mix issues CLI commands; the other workloads issue their rounds.
    if workload == "cli-mix":
        commands = [t for r in rounds for t in r["op_s"]]
    else:
        commands = [r["process_s"] for r in rounds]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": sum(statistics.median(t) for t in per_op), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        "cmd_p50_ms": {"value": 1000 * statistics.median(commands), "unit": "ms"},
    }
    return rounds, metrics


def traced(workload, seed):
    rounds, metrics = [], {}
    deadline = time.monotonic() + RUN_LIMIT_S
    for name in WORKLOADS:
        result = run_round(name, seed, True, deadline)
        print(f"traced {name}: wall_s {result['wall_s']:.3f}", flush=True)
        rounds.append(result)
        metrics.update(result["layer"])
    own = [r for r in rounds if workload in ("all", r["workload"])]
    return rounds, own, metrics


def report(workload, args, rounds, own, metrics):
    for r in rounds:
        for note in (r["failures"] + r["problems"])[:5]:
            print(f"{r['workload']}: {note}", file=sys.stderr)
    summary = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in own),
        "failed": sum(r["failed"] for r in own),
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{'trace' if args.trace else 'result'}-{workload}-{args.seed}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "summary": summary, "rounds": rounds}, fh, indent=1)
    if args.workload == "all":
        summary = {"workload": workload, **summary}
    print(json.dumps(summary), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "virasoro", "__init__.py")):
        print("no src/virasoro here: run from the root of a checkout", file=sys.stderr)
        return 2
    # Build step: byte-compile once, so no timed round pays for it.
    if not (compileall.compile_dir("src", quiet=1) and compileall.compile_dir(HERE, quiet=1)):
        print("src/ does not compile", file=sys.stderr)
        return 2
    try:
        if args.trace:
            report(args.workload, args, *traced(args.workload, args.seed))
        else:
            for name in WORKLOADS if args.workload == "all" else (args.workload,):
                rounds, metrics = measure(name, args.seed, args.seconds)
                report(name, args, rounds, rounds, metrics)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
