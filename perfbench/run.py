#!/usr/bin/env python3
"""The repository benchmark: build mem2_perfbench from source, then run one
measured workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload se76-l3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  Build outputs, the cached reference indexes
and the traced runs' span files go under $CARGO_TARGET_DIR (default
.bench_build)/perfbench.  Exit status 0 means the run finished and every
output check passed; any other status means it did not (a printed result
then carries "correct": false).
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The first invocation in a checkout builds (allowed 900 s in all); every
# later one must end within 180 s, so the measured process gets 170 s.
BUILD_LIMIT_S = 700
RUN_LIMIT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output sent to stderr; returns its exit status."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 124
    except OSError as e:
        log(f"cannot run {cmd[0]}: {e}")
        return 127


def build(build_dir, deadline):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], deadline - time.time())
        if rc != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    rc = run_quiet(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "mem2_perfbench"], deadline - time.time())
    binary = os.path.join(build_dir, "mem2_perfbench")
    return binary if rc == 0 and os.path.exists(binary) else None


def selftest(binary, data_dir, deadline, force=False):
    """Runs the benchmark's self-tests once per build of the binary."""
    stamp = os.path.join(data_dir, "selftest.ok")
    key = str(os.stat(binary).st_mtime_ns)
    if not force and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == key:
                return True
    rc = run_quiet([binary, "--selftest", "--data", data_dir],
                   deadline - time.time())
    if rc != 0:
        log("self-tests failed")
        return False
    with open(stamp, "w") as f:
        f.write(key)
    return True


def expected_names(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    deadline = time.time() + BUILD_LIMIT_S
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                           "perfbench")
    data_dir = os.path.join(out_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    binary = build(os.path.join(out_dir, "build"), deadline)
    if binary is None:
        log("build failed")
        return 2
    if not selftest(binary, data_dir, deadline, force=args.selftest):
        return 1
    if args.selftest:
        return 0

    if run_quiet([binary, "--prepare", "--workload", args.workload,
                  "--data", data_dir], deadline - time.time()) != 0:
        log("index preparation failed")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", data_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("measured run timed out")
        return 124
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        log(f"measured run failed (exit {proc.returncode})")
        return 2
    result = json.loads(lines[-1])
    want = expected_names(bool(args.trace))
    if sorted(result["metrics"]) != sorted(want):
        log("printed metrics do not match BENCHMARK.json")
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
