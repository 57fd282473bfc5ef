"""Run perfbench alternately on a parent tree and a change tree, in pairs,
and summarise the end-to-end metrics of each workload.

    python3 tools/ab_pairs.py PARENT CHANGE --workload NAME [--workload NAME ...]
        --seeds N [N ...] > summary.json

PARENT and CHANGE are two checkouts of the repository, each with its own
``perfbench/`` and ``src/``.  For every workload and seed, one pair runs
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0``
(S is ``run_seconds`` of ``BENCHMARK.json``) once in each tree, from that
tree's root; the first pair runs the parent first and the order alternates
from pair to pair.  Before every run each
``__pycache__`` under both trees is removed: where
``PYTHONDONTWRITEBYTECODE=1`` is set, a ``.pyc`` older than its edited
source is ignored and never rewritten, so a stale cache on one side only
would skew every import time.

Standard output gets one JSON object: per workload its seeds, whether every
run was correct, the operations attempted and failed on each side, and per
end-to-end metric of ``BENCHMARK.json`` each side's runs, median and
quartiles (inclusive, linear interpolation), the pairs the change won and
tied, the median change in percent and the parent's interquartile range.
Progress goes to standard error.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values):
    """(q1, median, q3) of values, inclusive: linear interpolation between
    order statistics at positions p * (n - 1)."""
    v = sorted(values)

    def at(p):
        pos = p * (len(v) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summarise(parent, change, better="lower"):
    """One metric of paired runs (parent[i] ran with change[i]): each
    side's runs, median and quartiles, the pairs the change won (strictly
    better) and tied, the median change in percent and the parent's IQR."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    sides = {}
    for name, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = quartiles(runs)
        sides[name] = {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
                       "runs": [round(r, 6) for r in runs]}
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    return {**sides,
            f"change_{better}_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "tied_pairs": sum(c == p for p, c in zip(parent, change)),
            "pairs": len(parent),
            "median_change_pct": round(100.0 * (c_median - p_median) / p_median, 2),
            "parent_iqr": round(p_q3 - p_q1, 6)}


def clear_caches(*trees):
    for tree in trees:
        for cache in Path(tree).rglob("__pycache__"):
            shutil.rmtree(cache, ignore_errors=True)


def run_perfbench(tree, workload, seed, seconds):
    """perfbench's result object (its last line of output) for one run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"perfbench failed in {tree} ({workload}, seed {seed}):\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    summary = {}
    for workload in args.workload:
        results = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                clear_caches(*trees.values())
                results[side].append(run_perfbench(trees[side], workload, seed, seconds))
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{m['name']} {results[side][-1]['metrics'][m['name']]['value']:.6g}"
                    for m in metrics), file=sys.stderr)
        summary[workload] = {
            "seeds": args.seeds,
            "all_correct": all(r["correct"] for runs in results.values() for r in runs),
            "ops_attempted": {side: sum(r["attempted"] for r in runs)
                              for side, runs in results.items()},
            "ops_failed": {side: sum(r["failed"] for r in runs) for side, runs in results.items()},
            "metrics": {m["name"]: summarise(
                *([r["metrics"][m["name"]]["value"] for r in results[side]]
                  for side in ("parent", "change")), m["better"]) for m in metrics}}
    clear_caches(*trees.values())
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
