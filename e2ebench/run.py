#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the deployed stack.

Usage (from the repository root):

    python3 e2ebench/run.py --workload frame_cnn_f32 --seed 1 --seconds 10 --trace 0

The first call configures and builds `sx_e2ebench` from the repository's
src/ tree into `$CARGO_TARGET_DIR/e2ebench` (default `.bench_build/`,
relative to the repository root); later calls only re-check the build.
Build output goes to stderr. The benchmark binary then runs the workload in
its own process and its stdout is passed through: the last line is the
JSON result. The exit code is the binary's (non-zero on a correctness or
reconciliation failure), or 2 when the build is impossible.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "e2ebench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: no src/ tree next to the benchmark; cannot build",
              file=sys.stderr)
        return None
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "sx_e2ebench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"e2ebench: build step failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"e2ebench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    exe = os.path.join(out, "sx_e2ebench")
    return exe if os.path.isfile(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    exe = build(build_dir())
    if exe is None:
        return 2
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("e2ebench: benchmark run timed out", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
