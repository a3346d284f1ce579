#!/usr/bin/env python3
"""Build and run the whole-job benchmark of the stance runtime.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a CMake package that compiles the runtime from the
sources next to it) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. The build log goes to
standard error; the benchmark's last line of standard output is its JSON
result. A traced run also writes a Chrome trace-event file into the build
directory. Exits non-zero when the build fails, the run fails or times out,
or an output oracle fails.
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("adaptive_shift", "refine_front", "service_mix")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the benchmark; returns the binary's path."""
    out = build_dir()
    binary = os.path.join(out, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, RuntimeError) as err:
        print("perfbench: " + str(err), file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    print("perfbench: run took %.1f s" % (time.monotonic() - start), file=sys.stderr)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
