#!/usr/bin/env python3
"""Build and run the ipg end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check --workload NAME --seed N --seconds S

The first form configures and builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the plain binary (--trace 0, end-to-end
metrics) or the traced one (--trace 1, per-layer metrics) and passes its
output and exit code through. The last stdout line is the JSON result.
Build logs go to stderr.

The second form checks determinism across processes: two traced runs
with the same seed must print the same script and count digests, and a
run with the next seed a different script digest.

See perfbench/CATALOG.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def run_logged(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", out,
                           "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", out, "--parallel", jobs])


def run_binary(out, args, trace, seed=None, seconds=None):
    """Runs one benchmark process; returns (exit code, stdout text)."""
    exe = os.path.join(out, "perfbench_traced" if trace else "perfbench_plain")
    cmd = [exe, "--workload", args.workload,
           "--seed", str(args.seed if seed is None else seed),
           "--seconds", str(args.seconds if seconds is None else seconds),
           "--trace", "1" if trace else "0",
           "--out", os.path.join(out, "out")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def digest(text, key):
    for line in text.splitlines():
        if line.startswith("# %s:" % key):
            return line.split(":", 1)[1].strip()
    return None


def self_check(out, args):
    runs = []
    for seed in (args.seed, args.seed, args.seed + 1):
        code, text = run_binary(out, args, True, seed=seed)
        if code != 0:
            print("self-check: traced run with seed %d failed" % seed,
                  file=sys.stderr)
            return 1
        runs.append((digest(text, "script_digest"), digest(text, "counts_digest")))
    same_script = runs[0][0] == runs[1][0]
    same_counts = runs[0][1] == runs[1][1]
    new_script = runs[0][0] != runs[2][0]
    print("same seed, same script:  %s" % same_script)
    print("same seed, same counts:  %s" % same_counts)
    print("next seed, new script:   %s" % new_script)
    return 0 if same_script and same_counts and new_script else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_check:
        return self_check(out, args)
    code, text = run_binary(out, args, bool(args.trace))
    sys.stdout.write(text)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
