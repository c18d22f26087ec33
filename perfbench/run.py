#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <sweep|host_infer|array_sim|serve_tensor> \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the library from src/ plus the perfbench
program) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs the program from the checkout root. Its last stdout line is the
result JSON; traced runs leave their artifacts in .bench_out/. The exit
code is non-zero when the build or any correctness check fails.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_revision():
    """The git commit when there is one, else a hash of the sources."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    """Configures once and builds incrementally; returns the binary path."""
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_dir + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "perfbench"])
        for step in steps:
            # Build output goes to stderr: stdout ends with the result.
            if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode:
                sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-expected", action="store_true",
                        help="negative test: corrupt one expected value")
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace, "--root=.", "--out=.bench_out",
               "--commit=" + source_revision()]
    if args.perturb_expected:
        command.append("--perturb-expected")
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
