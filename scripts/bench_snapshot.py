"""Write a performance baseline, BENCH_<n>.json, for a later change to cite.

    python3 scripts/bench_snapshot.py --seed N --out BENCH_<n>.json

It runs the repository's benchmark as it stands,
`perfbench/run.py --workload all --seed N --seconds S` with S the
`run_seconds` of BENCHMARK.json, then one `--trace 1` run, and wraps the
result files they leave in .perfbench_out/ with what those files do not
record: the machine, the Python version, the git revision and the
arguments.  The traced rounds keep their per-layer metrics and drop their
raw span lists, which run to megabytes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def bench(*args) -> list:
    """Run perfbench/run.py with `args`; return the command as recorded."""
    args = ["perfbench/run.py", *map(str, args)]
    subprocess.run([sys.executable, *args], cwd=ROOT, check=True)
    return ["python3", *args]


def load(name: str) -> dict:
    with open(os.path.join(OUT_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="the file to write, e.g. BENCH_16.json")
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    revision = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))

    runs = [bench("--workload", "all", "--seed", args.seed, "--seconds", seconds)]
    results = {w["name"]: load(f"result-{w['name']}-{args.seed}.json") for w in spec["workloads"]}
    runs.append(bench("--workload", "all", "--seed", args.seed, "--seconds", seconds, "--trace", 1))
    traced = load(f"trace-all-{args.seed}.json")
    for result in traced["rounds"]:
        result.pop("trace", None)

    snapshot = {
        "revision": revision,
        "tracked_files_modified": dirty,
        "arguments": {"seed": args.seed, "seconds": seconds, "commands": runs},
        "machine": {"platform": platform.platform(), "cpu_count": os.cpu_count()},
        "python": sys.version,
        "results": results,
        "trace": traced,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
