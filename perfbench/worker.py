"""One round of one workload, in a fresh Python process.

    python3 perfbench/worker.py WORKLOAD SEED SIZE TRACE [setup-only]

Run from the root of a checkout: the package is imported from ./src.
Prints one JSON object on its last stdout line.  `first` is the
CLOCK_MONOTONIC reading at the first timed operation, so the parent can
subtract its own reading taken just before it started this process.
With `setup-only` the process stops there and reports `first` alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import workloads

SRC = workloads.SRC
sys.path.insert(0, SRC)

import virasoro  # noqa: E402  (setup_s covers this import)

IMPORT_PROBES = 5


def run_ops(ops):
    failed, failures, problems, op_s = 0, [], [], []
    for op in ops:
        start = time.perf_counter()
        op_failed, notes = op()
        op_s.append(time.perf_counter() - start)
        if op_failed:
            failed += 1
            failures.extend(notes)
        else:
            problems.extend(notes)
    return failed, failures, problems, op_s


def cli_in_process(commands):
    """Run each CLI command through virasoro.cli.main in this process, so
    the traced wrappers see the package calls it makes."""
    from virasoro import cli

    for argv in commands:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main(argv)
            except (SystemExit, Exception):  # usage errors and the known faults; spans are recorded
                pass


def main(argv):
    workload, seed, size, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    if not os.path.abspath(virasoro.__file__).startswith(SRC + os.sep):
        print(f"virasoro imported from {virasoro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    span = workloads.no_span
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(workload, tracer)
        span = tracer.span
    ops, info = workloads.prepare(workload, seed, size, span)

    first = time.monotonic()
    if argv[4:] == ["setup-only"]:
        print(json.dumps({"first": first}))
        return 0
    start = time.perf_counter()
    failed, failures, problems, op_s = run_ops(ops)
    wall_s = time.perf_counter() - start

    if workload == "cli-mix":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "workload": workload,
        "attempted": len(ops),
        "failed": failed,
        "correct": not problems,
        "failures": failures,
        "problems": problems,
        "first": first,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kb / 1024,
        "op_s": op_s,
    }
    if trace:
        if workload == "cli-mix":
            run_ops(ops)  # a second pass, so each cli.<subcommand>_ms is a median of two or more
            info["import_s"] = []
            env = dict(os.environ, PYTHONPATH=SRC)
            for _ in range(IMPORT_PROBES):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", "import virasoro"], env=env, check=True)
                info["import_s"].append(time.perf_counter() - t0)
            cli_in_process(info["commands"])
        result["layer"] = tracing.layer_metrics(workload, tracer, info)
        result["trace"] = tracer.dump()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
