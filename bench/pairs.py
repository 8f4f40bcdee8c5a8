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
Beside steal, each run prints its thread placement: every SAMPLE_S the
CPU field (39) of /proc/<perfbench pid>/task/*/stat is read, and `cpus`
is the number of distinct CPUs the benchmark's threads were seen on
(`/p50` the median of that count per sample). Pairs whose sides differ in
`cpus` are flagged too, but kept in the summaries.
The summary gives per metric both medians, the pairs the change won and
the parent's interquartile range. A failed run exits 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import threading

STEAL_BOUND = 2.0  # points of CPU time; see the docstring
SAMPLE_S = 0.05    # placement sampling period

def cpu_ticks():
    """(steal, total) jiffies summed over all CPUs."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def stat_fields(path):
    """Fields 3.. of a /proc stat file (the comm may hold spaces)."""
    with open(path) as f:
        return f.read().rsplit(")", 1)[1].split()


def sample_placement(runner, stop, seen):
    """Until `stop`, add to `seen` the set of CPUs the threads of
    `runner`'s perfbench child are on at each sample."""
    bench = None
    while not stop.wait(SAMPLE_S):
        try:
            if bench is None:
                kids = open(f"/proc/{runner}/task/{runner}/children").read().split()
                bench = next((k for k in kids
                              if open(f"/proc/{k}/comm").read().strip() == "perfbench"), None)
                if bench is None:
                    continue
            tids = os.listdir(f"/proc/{bench}/task")
            cpus = set()
            for tid in tids:
                try:
                    cpus.add(int(stat_fields(f"/proc/{bench}/task/{tid}/stat")[36]))
                except OSError:  # the thread exited between list and read
                    pass
            if cpus:
                seen.append(cpus)
        except OSError:  # not started yet, or already gone
            bench = None


def run(tree, workload, seed, seconds, holdout):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    cmd += ["--holdout"] if holdout else ["--seed", str(seed)]
    s0, t0 = cpu_ticks()
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    stop, seen = threading.Event(), []
    sampler = threading.Thread(target=sample_placement, args=(proc.pid, stop, seen))
    sampler.start()
    stdout, stderr = proc.communicate()
    stop.set()
    sampler.join()
    s1, t1 = cpu_ticks()
    lines = stdout.strip().splitlines()
    res = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not res.get("correct"):
        sys.exit(f"pairs: {tree} {workload} seed {seed} failed:\n{stderr[-2000:]}")
    return {"metrics": {k: v["value"] for k, v in res["metrics"].items()},
            "failed": res["failed"],
            "steal_pct": 100.0 * (s1 - s0) / max(1, t1 - t0),
            "cpus": len(set().union(*seen)),
            "cpus_p50": statistics.median(len(c) for c in seen) if seen else 0}


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
                      f" cpus {r['cpus']}/p50 {r['cpus_p50']:g}"
                      f" failed {r['failed']} {vals}", flush=True)
            steal = [pair[s]["steal_pct"] for s in ("parent", "change")]
            pair["flagged"] = abs(steal[0] - steal[1]) > STEAL_BOUND
            if pair["flagged"]:
                print(f"pair {i} FLAGGED: steal differs by more than {STEAL_BOUND} points")
            if pair["parent"]["cpus"] != pair["change"]["cpus"]:
                print(f"pair {i} FLAGGED: placement differs"
                      f" ({pair['parent']['cpus']} vs {pair['change']['cpus']} cpus)")
            pairs.append(pair)
        summary(pairs, spec, "all")
        calm = [p for p in pairs if not p["flagged"]]
        if 0 < len(calm) < len(pairs):
            summary(calm, spec, f"steal within {STEAL_BOUND} points")


if __name__ == "__main__":
    main()
