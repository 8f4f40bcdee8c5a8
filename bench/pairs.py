#!/usr/bin/env python3
"""Alternated, steal-aware A/B pairs of perfbench runs on two source trees.

  python3 bench/pairs.py PARENT_TREE CHANGE_TREE --workload tier_ckpt \\
      --pairs 8 [--seed 1 | --holdout]

Pair i runs `perfbench/run.py --trace 0` (seed SEED+i) in each tree for
BENCHMARK.json's run_seconds, the parent first in even pairs and the
change first in odd ones, and prints each run's end-to-end metrics beside
the hypervisor steal /proc/stat saw during it, as a share of CPU time.
Pairs whose sides' steal differs by more than STEAL_BOUND (2) percentage
points are flagged and left out of a second summary.
The summary gives per metric both medians, the pairs the change won and
the parent's interquartile range. A failed run exits 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

STEAL_BOUND = 2.0  # points of CPU time; see the docstring

def cpu_ticks():
    """(steal, total) jiffies summed over all CPUs."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def run(tree, workload, seed, seconds, holdout):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    cmd += ["--holdout"] if holdout else ["--seed", str(seed)]
    s0, t0 = cpu_ticks()
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    s1, t1 = cpu_ticks()
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if out.returncode == 0 and lines else {}
    if not res.get("correct"):
        sys.exit(f"pairs: {tree} {workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    return {"metrics": {k: v["value"] for k, v in res["metrics"].items()},
            "failed": res["failed"],
            "steal_pct": 100.0 * (s1 - s0) / max(1, t1 - t0)}


def summary(pairs, spec, label):
    print(f"-- {label}: {len(pairs)} pairs")
    for m in spec:
        a = [p["parent"]["metrics"][m["name"]] for p in pairs]
        b = [p["change"]["metrics"][m["name"]] for p in pairs]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        q = statistics.quantiles(a, n=4) if len(a) > 1 else [a[0]] * 3
        print(f"{m['name']:>16}: {ma:.4g} -> {mb:.4g} ({100 * (mb - ma) / (ma or 1):+.1f}%)"
              f"  change better {wins}/{len(pairs)}  parent IQR {q[2] - q[0]:.3g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--holdout", action="store_true")
    args = ap.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = bench["end_to_end"]
    for workload in args.workload:
        print(f"== {workload}")
        pairs = []
        for i in range(args.pairs):
            pair = {}
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                pair[side] = r = run(trees[side], workload, args.seed + i,
                                        bench["run_seconds"], args.holdout)
                vals = " ".join(f"{m['name']}={r['metrics'][m['name']]:.4g}" for m in spec)
                print(f"pair {i} {side:>6} steal {r['steal_pct']:4.1f}%"
                      f" failed {r['failed']} {vals}", flush=True)
            steal = [pair[s]["steal_pct"] for s in ("parent", "change")]
            pair["flagged"] = abs(steal[0] - steal[1]) > STEAL_BOUND
            if pair["flagged"]:
                print(f"pair {i} FLAGGED: steal differs by more than {STEAL_BOUND} points")
            pairs.append(pair)
        summary(pairs, spec, "all")
        calm = [p for p in pairs if not p["flagged"]]
        if 0 < len(calm) < len(pairs):
            summary(calm, spec, f"steal within {STEAL_BOUND} points")


if __name__ == "__main__":
    main()
