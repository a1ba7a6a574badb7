#!/usr/bin/env python3
"""Build and run the qfa benchmark.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds the library and the benchmark
program from that checkout's sources into .bench_build/perfbench (CMake,
Release), prints a hash of the sources it built, then runs the program with
the same arguments.  The program's last stdout line is the JSON result.
With --trace 1 the recorded spans go to .bench_build/perfbench/traces/.
Workloads: serve_small, scan_large, alloc_churn.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "qfa_perfbench")
BUILD_JOBS = "3"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds the program; False on any failure."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append([cmake, "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", BUILD, "--target", "qfa_perfbench", "-j", BUILD_JOBS])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log("build failed: " + " ".join(step))
            return False
    return os.path.exists(BINARY)


def source_hash():
    """SHA-256 over the library and benchmark sources this run built."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names
            if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken sizes, for the benchmark's own tests")
    args = parser.parse_args()

    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.tiny:
        command.append("--tiny")
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    print(f"# source_sha256={source_hash()}", flush=True)
    result = subprocess.run(command, check=False)
    return result.returncode if result.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
