#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload serve|churn|fuzz --seed N \\
        --seconds S --trace 0|1

The first run configures and builds the benchmark (perfbench/CMakeLists.txt,
which pulls in the repository's own build) under .bench_build/ (or
$CARGO_TARGET_DIR); later runs only re-check the build.  With --trace 1 the
run also writes a Chrome trace of its spans and checks it with
tools/validate_trace.py.

The human-readable report goes to stdout, every metric with its unit and
sample count, followed by the provenance of the run.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}
with the metrics BENCHMARK.json lists for the mode (end_to_end untraced,
per_layer traced).  The exit code is 0 only if every check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# Later performance claims must also hold on this seed, which no change
# may be tuned on.
HELD_OUT_SEED = 8191
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Seconds each process of an untraced run measures; a workload not listed
# runs in one process.  Every fuzz exec builds and frees a 4 MiB machine, and
# glibc's heap settles, per process, in one of two steady states: one keeps
# the freed memory, the other trims it and faults fresh pages back in on
# about 3% of execs, which moves p99 by about 40%.  Which state a process
# reaches depends on where its long-lived allocations happened to land, so
# one process is one draw.  A fuzz run therefore measures as many processes
# as fit, each for about 3 s (enough for the 1000 execs a timing slice
# needs) on its own stretch of ops (perfbench/README.md).
PROCESS_SECONDS = {"fuzz": 3.0}
OP_STRIDE = 1 << 32
# Each such process holds one timing slice, so its timings combine as the
# slices of one process do (perfbench/main.cc): the level nine in ten meet.
SLOW_SIDE = 0.1


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_root():
    """The tree the benchmark runs in: the current directory."""
    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt",
                 "tools/validate_trace.py", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found under {root}: run from the root of a "
                 f"complete source tree")
    return root


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
    return proc.returncode == 0


def build(root):
    """Configure (once) and build the benchmark binary; return its path."""
    out = build_dir(root)
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, log, BUILD_TIMEOUT_S):
            sys.stderr.write(open(log).read()[-4000:])
            shutil.rmtree(out, ignore_errors=True)
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", out, "--target", "perfbench",
                       "-j", jobs], log, BUILD_TIMEOUT_S):
        sys.stderr.write(open(log).read()[-4000:])
        fail("building the benchmark failed")
    return os.path.join(out, "perfbench")


def git_sha(root):
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse",
                              "--show-toplevel", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def source_digest(root):
    """sha256 over the sources the binary is built from (no git needed)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".cc", ".hh", ".txt")))
        for name in sorted(files):
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def run_process(cmd, workload, deadline):
    """Run the benchmark binary once; echo its report, return its result."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"the benchmark printed no result (exit {proc.returncode})")
    print("\n".join(lines[:-1]))
    return result, proc.returncode


def quantile(values, q):
    """Linearly interpolated quantile, as perfbench/main.cc takes it."""
    values = sorted(values)
    k = q * (len(values) - 1)
    lo = int(k)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (k - lo)


def combine(runs):
    """One result from several processes: the slow-side decile of their
    throughputs and latencies, the median setup_s, the highest RSS."""
    results = [r for r, _ in runs]
    combined = dict(results[0])
    combined["attempted"] = sum(r["attempted"] for r in results)
    combined["failed"] = sum(r["failed"] for r in results)
    combined["metrics"] = {}
    print(f"\nend-to-end metrics over {len(results)} processes (slow-side "
          f"deciles; setup_s: median; peak_rss_mib: maximum):")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name == "setup_s":
            value = statistics.median(values)
        elif name == "ops_per_s":
            value = quantile(values, SLOW_SIDE)
        elif first["unit"] == "us":
            value = quantile(values, 1 - SLOW_SIDE)
        elif name == "fail_frac":
            value = combined["failed"] / combined["attempted"]
        else:
            value = max(values)
        samples = sum(r["metrics"][name]["samples"] for r in results)
        combined["metrics"][name] = {"value": value, "unit": first["unit"],
                                     "samples": samples}
        print(f"  {name:42} {value:14.6g} {first['unit']:6} (n={samples})")
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve", "churn", "fuzz"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = source_root()
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build(root)
    trace_path = os.path.join(build_dir(root), f"trace-{args.workload}.json")
    per_process = PROCESS_SECONDS.get(args.workload)
    processes = 1 if args.trace or per_process is None else \
        max(1, round(args.seconds / per_process))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    runs = []
    for k in range(processes):
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / processes),
               "--trace", str(args.trace), "--trace-out", trace_path,
               "--first-op", str(k * OP_STRIDE)]
        runs.append(run_process(cmd, args.workload, deadline))
    result = runs[0][0] if processes == 1 else combine(runs)

    correct = all(r["correct"] and code == 0 for r, code in runs)
    if args.trace:
        check = subprocess.run([sys.executable,
                                os.path.join(root, "tools/validate_trace.py"),
                                trace_path],
                               capture_output=True, text=True, timeout=120)
        print((check.stdout + check.stderr).strip())
        correct &= check.returncode == 0

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        got = result["metrics"].get(name)
        if got is None:
            fail(f"the benchmark did not report {name}")
        if got["unit"] != entry["unit"]:
            fail(f"{name} reported in {got['unit']}, expected {entry['unit']}")
        metrics[name] = {"value": got["value"], "unit": got["unit"]}

    print(f"\nprovenance: git {git_sha(root)}, sources {source_digest(root)}, "
          f"build {result['build_type']}, nproc {result['nproc']}, "
          f"workload {args.workload}, seed {args.seed}, held-out seed "
          f"{HELD_OUT_SEED}, input digest {result['input_digest']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
