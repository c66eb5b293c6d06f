"""Compare two checkouts by interleaved benchmark rounds.

    python3 scripts/ab_rounds.py PARENT_DIR CHANGE_DIR --workload W --rounds N

Both directories are roots of checkouts of this repository.  The script
byte-compiles `src/` and `perfbench/` in each, then runs N pairs of fresh
`perfbench/worker.py` rounds of workload W, one side of a pair right
after the other and in the order ABBA... (parent first in even pairs,
change first in odd ones).  Pair i runs seed i on both sides.  The two
sides of a pair thus run seconds apart, and a spell of the host running
slow or fast lands on both; comparing `perfbench/run.py` runs made
minutes apart cannot cancel it.

It prints one line per metric:

    wall_s  parent 0.1120 (IQR 0.0310)  change 0.1105 (IQR 0.0290)
            ratio 0.987 (IQR 0.094)  change lower in 11 of 20 pairs

* `parent` and `change` are each side's median over its rounds, with the
  interquartile range: the spread that a comparison of unpaired runs
  has to beat.
* `ratio` is the median of change / parent taken pair by pair, with its
  interquartile range.  Below 1 the change is faster.  Each ratio
  compares two rounds that ran seconds apart, so its IQR is usually much
  smaller than either side's.  A difference is real when the median
  ratio sits away from 1 by more than about half that IQR and the pairs
  won lean the same way; two identical trees read within a few percent
  of 1 with about half the pairs won.
* `wall_s` is the worker's own timing of its operations.  `cpu_s` is the
  user plus system CPU time of the worker and the processes it waited
  for, from getrusage(RUSAGE_CHILDREN) taken before and after each round.
  It includes interpreter start and import, and does not count time the
  round spent waiting for the CPU, so it moves less with the host's load.

A round that fails, or reports an operation wrong, stops the script
with exit code 1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys


def compile_tree(root: str) -> bool:
    return all(compileall.compile_dir(os.path.join(root, d), quiet=1)
               for d in ("src", "perfbench"))


def cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_round(root: str, workload: str, seed: int) -> dict:
    """One fresh worker round in the checkout `root`: its wall_s, and its
    CPU time and that of the processes it waited for."""
    before = cpu_children()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "worker.py"), workload, str(seed), "full", "0"],
        cwd=root, capture_output=True, text=True)
    cpu_s = cpu_children() - before
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{root}: worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if result["failed"] or not result["correct"]:
        notes = (result["failures"] + result["problems"])[:5]
        raise RuntimeError(f"{root}: round with seed {seed} went wrong: {notes}")
    return {"wall_s": result["wall_s"], "cpu_s": cpu_s}


def median_iqr(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def report(name: str, parent: list, change: list) -> str:
    ratios = [b / a for a, b in zip(parent, change)]
    (pm, piqr), (cm, ciqr), (rm, riqr) = map(median_iqr, (parent, change, ratios))
    won = sum(b < a for a, b in zip(parent, change))
    return (f"{name:7} parent {pm:.4f} (IQR {piqr:.4f})  change {cm:.4f} (IQR {ciqr:.4f})\n"
            f"{'':7} ratio {rm:.3f} (IQR {riqr:.3f})  change lower in {won} of {len(ratios)} pairs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_DIR")
    parser.add_argument("change", metavar="CHANGE_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, required=True, help="pairs of rounds, at least 2")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    trees = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    for root in trees:
        if not os.path.isfile(os.path.join(root, "perfbench", "worker.py")):
            parser.error(f"{root} has no perfbench/worker.py")
        if not compile_tree(root):
            print(f"{root}: src/ or perfbench/ does not compile", file=sys.stderr)
            return 1

    results = ([], [])
    try:
        for i in range(args.rounds):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                results[side].append(run_round(trees[side], args.workload, i))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {args.rounds} pairs, ABBA order")
    for name in ("wall_s", "cpu_s"):
        print(report(name, *([r[name] for r in rs] for rs in results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
