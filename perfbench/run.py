#!/usr/bin/env python3
"""End-to-end benchmark of the HLS runtime on the real thread executor.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload NAME --holdout --seconds S --trace 0
  python3 perfbench/run.py --selftest

Workloads: mesh_update, halo_rma, tier_ckpt, cluster_allreduce (see
BENCHMARK.json for why each exists). --trace 0 reports the end-to-end
metrics; --trace 1 reports the per-layer metrics and writes the spans of
one traced repetition as Chrome trace JSON (load it in Perfetto) to
<build>/trace-NAME.json. --holdout replaces the seed by a fixed seed kept
out of tuning, on which a claimed gain must also hold.

The script builds perfbench/ (Release) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, runs the benchmark binary, checks that its
last output line is the result object with exactly the metrics
BENCHMARK.json declares, and passes it through. Tier and checkpoint files
live under <build>/run and are removed when the run ends.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HOLDOUT_SEED = 982451653
TIMEOUT_S = 170
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, targets):
    """Configure once, then build `targets`; output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    *targets], stdout=sys.stderr, check=True)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Why the result line breaks the output contract, or None."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(res)}"
    if res["correct"] and sorted(res["metrics"]) != sorted(declared_metrics(trace)):
        return "metrics differ from BENCHMARK.json"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--holdout", action="store_true")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no HLS runtime sources under {ROOT}; run from a full checkout")
        return 2
    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                 os.path.join(ROOT, ".bench_build")))
    build_dir = os.path.join(target_root, "perfbench")
    try:
        build(build_dir, ["perfbench_test"] if args.selftest else ["perfbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "perfbench_test")]).returncode

    if not args.workload or (args.seed is None and not args.holdout):
        ap.error("--workload and --seed (or --holdout) are required")
    seed = HOLDOUT_SEED if args.holdout else args.seed
    workdir = os.path.join(build_dir, "run", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--commit", git_commit()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(build_dir, f"trace-{args.workload}.json")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    why = check_result(lines[-1], args.trace) if proc.returncode in (0, 1) else None
    if why is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"bad result line: {why}")
        return 4
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
