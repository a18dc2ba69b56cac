#!/usr/bin/env python3
"""Builds and runs treebench's host-time benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload cold_select --seed 1 --seconds 20 --trace 0

The engine is compiled from ./src into .bench_build/perfbench (Release, no
sanitizers), then one single-threaded process runs the workload. Its last
stdout line is the result object {"correct", "attempted", "failed",
"metrics"}; this script prints it as its own last line. The traced run
(--trace 1) also writes its spans and probes to
.bench_build/trace-<workload>-<seed>.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "treebench_perf")
WORKLOADS = ("cold_select", "tree_comp", "client_mix")


def run_timeout(seconds):
    """The measured passes take --seconds plus one pass; set-up and probes
    take a few seconds more. Twice that plus a margin stops a stuck run
    (170 s for a 30 s run) without cutting a slow one."""
    return 2 * seconds + 110


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; build chatter goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "treebench_perf"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def describe():
    """git describe when the checkout is a repository, else a hash of the
    engine sources, so every result names the code it measured."""
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--describe=" + describe()]
    if args.trace:
        cmd.append("--trace-out=" + os.path.join(
            BUILD_ROOT, "trace-%s-%d.json" % (args.workload, args.seed)))
    timeout = run_timeout(args.seconds)
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %g s" % timeout)
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        log("benchmark exited with code %d" % done.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(done.stdout)
        log("benchmark printed no result line")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
