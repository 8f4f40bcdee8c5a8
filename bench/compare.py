#!/usr/bin/env python3
"""Diff a benchmark run against its baseline and enforce the baseline's gate.

Usage: compare.py BASELINE.json CANDIDATE.json [--allow-missing]

Accepts google-benchmark's --benchmark_format=json output and
bench_fig3_matmul's --json output. Benchmarks are matched by "name"; for
each name present in both runs the script prints the relative change of
its metric:

  - "real_time" (google-benchmark): lower is better;
  - "perf" (fig3, flops/cycle): higher is better.

The baseline declares its own gate in an optional top-level "gate"
object, so every bound lives in the BENCH_*.json it belongs to:

  "gate": {
    "threshold": 25,          cross-run regression threshold in percent
                              (default 10)
    "check_counters": true,   counter drift between the runs is an error
                              (default false: drift is only reported)
    "bounds": [               within-run ratios, checked on the candidate
      {"point": P, "counter": C, "min": X},     P's counter C >= X
      {"point": P, "counter": C, "max": X},     P's counter C <= X
      {"point": A, "over": B, "max": X}         real_time(A)/real_time(B) <= X
    ],
    "require": [P, ...]       points the candidate must contain
  }

A bound value is a number or a quotient string such as "1/1.15", which
keeps a reciprocal bound exact instead of a rounded decimal. Each bound
may carry a "what" label for the report. Within-run ratios compare two
sides that saw the same machine state, so they hold on hosts too noisy
for any cross-run threshold.

Exit status: 0 when everything passes; 1 on a regression past the
threshold, a broken bound, a bound or required point missing from the
candidate, a baseline benchmark missing from the candidate (a renamed or
dropped benchmark silently passing is how gates rot; --allow-missing
downgrades that to a note), or checked counter drift; 2 on a file that
does not look like a benchmark run (no "benchmarks" array, or entries
without the expected metric fields), a malformed gate, or no common
benchmark names.

A run from an unoptimized build exits 2 as well: timings from -O0 code
gate nothing. The binaries stamp "hlsmpc_build_type" into the run
context (see bench/gbench_main.cpp — the stock "library_build_type" key
reports how the *benchmark library* was compiled, which on hosts with a
debug-built system package says "debug" for every run); when the stamp
is absent, library_build_type is the fallback, so old baselines recorded
before the stamp existed are rejected until regenerated. Runs without
any "context" object (fig3's counter format) skip the check.

Observability counters (google-benchmark user counters, fig3's
"counters" object) are compared when a benchmark carries them in both
runs.
"""

import argparse
import json
import math
import sys


class SchemaError(Exception):
    pass


# google-benchmark's own per-run fields; every other numeric field is a
# user counter (state.counters[...]).
_GBENCH_FIELDS = {
    "name", "run_name", "run_type", "family_index",
    "per_family_instance_index", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "aggregate_name", "aggregate_unit", "big_o", "rms",
    "bytes_per_second", "items_per_second",
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not isinstance(
            doc.get("benchmarks"), list):
        raise SchemaError(f"{path}: no \"benchmarks\" array — not a "
                          "benchmark run")
    ctx = doc.get("context")
    if isinstance(ctx, dict):
        build = ctx.get("hlsmpc_build_type", ctx.get("library_build_type"))
        if build == "debug":
            raise SchemaError(
                f"{path}: context reports a debug build — unoptimized "
                "timings cannot serve as a baseline or candidate "
                "(rebuild with the bench preset)")
    metrics = {}
    counters = {}
    for b in doc["benchmarks"]:
        if not isinstance(b, dict):
            raise SchemaError(f"{path}: non-object entry in \"benchmarks\"")
        name = b.get("name")
        if name is None or b.get("run_type") == "aggregate":
            continue
        if "real_time" in b:
            metrics[name] = ("real_time", float(b["real_time"]), False)
            ctr = {k: float(v) for k, v in b.items()
                   if k not in _GBENCH_FIELDS
                   and isinstance(v, (int, float))}
        elif "perf" in b:
            metrics[name] = ("perf", float(b["perf"]), True)
            ctr = {k: float(v) for k, v in b.get("counters", {}).items()
                   if isinstance(v, (int, float))}
        else:
            raise SchemaError(f"{path}: benchmark \"{name}\" has neither "
                              "\"real_time\" nor \"perf\"")
        if ctr:
            counters[name] = ctr
    if not metrics:
        raise SchemaError(f"{path}: \"benchmarks\" array holds no "
                          "comparable entries")
    gate = doc.get("gate", {})
    if not isinstance(gate, dict):
        raise SchemaError(f"{path}: \"gate\" is not an object")
    return metrics, counters, gate


def bound_value(v):
    """A bound is a number or an exact quotient string "a/b"."""
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return float(num) / float(den) if den else float(num)
    return float(v)


def load_bounds(path, gate):
    """The gate's within-run bounds, each with its limit parsed."""
    bounds = []
    for b in gate.get("bounds", []):
        if (not isinstance(b, dict) or "point" not in b
                or ("min" in b) == ("max" in b)
                or ("counter" in b) == ("over" in b)):
            raise SchemaError(f"{path}: malformed gate bound {json.dumps(b)}")
        bounds.append(dict(b, limit=bound_value(b.get("min", b.get("max")))))
    return bounds


def check_bound(bound, metrics, counters):
    """Evaluate one within-run bound on the candidate: returns (report
    line, failure message or None)."""
    point = bound["point"]
    if "over" in bound:
        other = bound["over"]
        what = bound.get("what", f"{point} / {other}")
        if point not in metrics or other not in metrics:
            return None, f"{what}: missing {point} or {other}"
        num, den = metrics[point][1], metrics[other][1]
        value = num / den if den else math.inf
    else:
        ctr = bound["counter"]
        what = bound.get("what", f"{point}.{ctr}")
        if ctr not in counters.get(point, {}):
            return None, f"{what}: missing {point}.{ctr}"
        value = counters[point][ctr]
    limit = bound["limit"]
    if "min" in bound:
        ok, rel = value >= limit, ">="
    else:
        ok, rel = value <= limit, "<="
    line = (f"{what}: {value:g}x (bound {rel} {limit:g}x)  "
            f"{'ok' if ok else 'REGRESSION'}")
    return line, None if ok else f"{what}: {value:g} not {rel} {limit:g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--allow-missing", action="store_true",
                    help="baseline benchmarks absent from the candidate "
                         "are a note, not an error")
    args = ap.parse_args()

    try:
        base, base_ctr, gate = load(args.baseline)
        cand, cand_ctr, _ = load(args.candidate)
        threshold = float(gate.get("threshold", 10.0))
        bounds = load_bounds(args.baseline, gate)
    except (OSError, ValueError, SchemaError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    common = [n for n in base if n in cand]
    if not common:
        print("compare.py: no common benchmark names between the two runs",
              file=sys.stderr)
        return 2

    failures = []
    regressions = []
    width = max(len(n) for n in common)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  "
          f"{'change':>8}")
    for name in common:
        metric, old, higher_better = base[name]
        cand_metric, new, _ = cand[name]
        if cand_metric != metric:
            print(f"{name:<{width}}  metric mismatch "
                  f"({metric} vs {cand_metric})")
            failures.append(f"{name}: metric changed {metric} -> "
                            f"{cand_metric}")
            continue
        if old == 0:
            print(f"{name:<{width}}  baseline is zero, skipped")
            continue
        # Normalize so positive pct always means "got worse".
        pct = ((old - new) / old if higher_better else (new - old) / old) * 100
        flag = ""
        if pct > threshold:
            flag = "  REGRESSION"
            regressions.append((name, pct))
        elif pct < -threshold:
            flag = "  improved"
        print(f"{name:<{width}}  {old:>12.3f}  {new:>12.3f}  {pct:>+7.1f}%"
              f"{flag}")

    drifted = []
    for name in common:
        shared = sorted(set(base_ctr.get(name, {}))
                        & set(cand_ctr.get(name, {})))
        for key in shared:
            old, new = base_ctr[name][key], cand_ctr[name][key]
            if old != new:
                drifted.append(f"{name}.{key}: {old:g} -> {new:g}")
    if drifted:
        print(f"\ncounter drift ({len(drifted)}):")
        for d in drifted:
            print(f"  {d}")
        if gate.get("check_counters", False):
            failures.extend(drifted)

    if bounds:
        print("\nwithin-run bounds:")
    for b in bounds:
        line, failure = check_bound(b, cand, cand_ctr)
        print(f"  {line or failure}")
        if failure:
            failures.append(failure)
    required = gate.get("require", [])
    absent = [n for n in required if n not in cand]
    if required:
        print(f"required points: {len(required) - len(absent)} of "
              f"{len(required)} present")
    failures.extend(f"{n}: required point missing from candidate"
                    for n in absent)

    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    if only_base:
        if args.allow_missing:
            print(f"only in baseline (allowed): {', '.join(only_base)}")
        else:
            print(f"MISSING from candidate: {', '.join(only_base)}",
                  file=sys.stderr)
            failures.extend(f"{n}: missing from candidate"
                            for n in only_base)
    if only_cand:
        print(f"only in candidate: {', '.join(only_cand)}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) worse than "
              f"{threshold:.0f}%:", file=sys.stderr)
        for name, pct in regressions:
            print(f"  {name}: {pct:+.1f}%", file=sys.stderr)
    if failures:
        print(f"{len(failures)} other failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
    if regressions or failures:
        return 1
    print(f"\nno regressions worse than {threshold:.0f}% "
          f"({len(common)} benchmarks compared, {len(bounds)} bounds, "
          f"{len(required)} required points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
