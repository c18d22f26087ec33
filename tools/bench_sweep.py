#!/usr/bin/env python3
"""Before/after wall and CPU time of the report-sweep binaries.

Runs each sweep-driven binary (the six SweepHarness benches) REPS times
from one or two build trees, alternating which tree runs first in each
repetition, and writes the median and
interquartile range (IQR, q3 - q1) of each side's wall and CPU
milliseconds as a bench_compare-readable artifact
(results/BENCH_sweep.json).

Wall time is the whole process, spawn to exit, as a user pays it. CPU time
is the process's user + system time from wait4(), summed over its threads,
so work fanned across a pool shows up in it even when wall time falls.
Stdout is discarded; every run must exit 0.

Usage:
  tools/bench_sweep.py --after BUILD [--before BUILD] [--reps 11]
      [--before-leg LABEL=BINARY[:ARGS]]... [--note TEXT] [--json PATH]

--before-leg adds a row measured on the --before tree only, with extra
arguments: a setting the --after tree no longer offers, kept on record
next to what replaced it.
"""

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time

BINARIES = [
    "bench/bench_table1",
    "bench/bench_fig8d_scaling",
    "bench/bench_pareto",
    "bench/bench_resolution",
    "bench/bench_width_mult",
    "bench/bench_nos",
]


def find_binary(build, name):
    for rel in BINARIES:
        if os.path.basename(rel) == name:
            return os.path.join(build, rel)
    sys.exit(f"bench_sweep: unknown binary '{name}'")


def run_once(path, args, cwd):
    """(wall_ms, cpu_ms) of one run of `path`."""
    start = time.perf_counter()
    proc = subprocess.Popen([path] + args, cwd=cwd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall_ms = (time.perf_counter() - start) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    if proc.returncode != 0:
        sys.exit(f"bench_sweep: {path} {' '.join(args)} exited "
                 f"{proc.returncode}")
    return wall_ms, (usage.ru_utime + usage.ru_stime) * 1e3


def summarize(prefix, samples):
    """Median and IQR of the wall and CPU samples, under `prefix`."""
    out = {}
    for kind, values in (("wall", [s[0] for s in samples]),
                         ("cpu", [s[1] for s in samples])):
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[f"{prefix}_{kind}_p50_ms"] = round(q2, 3)
        out[f"{prefix}_{kind}_iqr_ms"] = round(q3 - q1, 3)
    return out


def cmake_cache(build, key):
    try:
        with open(os.path.join(build, "CMakeCache.txt"),
                  encoding="utf-8") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler(build):
    cxx = cmake_cache(build, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True, check=True).stdout
        return version.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return cxx


def cpu_isa():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    return " ".join(isa for isa in ("sse2", "avx", "fma",
                                                    "avx2", "avx512f")
                                    if isa in flags)
    except OSError:
        pass
    return platform.machine()


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--after", required=True, help="build tree to time")
    parser.add_argument("--before", help="baseline build tree")
    parser.add_argument("--reps", type=int, default=11)
    parser.add_argument("--before-leg", action="append", default=[],
                        metavar="LABEL=BINARY[:ARGS]")
    parser.add_argument("--note", default="",
                        help="free text stored in the artifact's notes")
    parser.add_argument("--json", help="write the artifact here")
    args = parser.parse_args()
    if args.reps < 5:
        sys.exit("bench_sweep: --reps must be >= 5")
    if args.before_leg and not args.before:
        sys.exit("bench_sweep: --before-leg needs --before")
    # The binaries run in a temporary directory.
    args.after = os.path.abspath(args.after)
    if args.before:
        args.before = os.path.abspath(args.before)

    # (row fields, [(side, path, argv)])
    plan = []
    for rel in BINARIES:
        name = os.path.basename(rel)
        sides = [("after", os.path.join(args.after, rel), [])]
        if args.before:
            sides.insert(0, ("before", os.path.join(args.before, rel), []))
        plan.append(({"binary": name}, sides))
    for spec in args.before_leg:
        label, sep, rest = spec.partition("=")
        name, _, extra = rest.partition(":")
        if not sep or not name:
            sys.exit(f"bench_sweep: bad --before-leg '{spec}'")
        plan.append(({"binary": name, "leg": label, "args": extra},
                     [("before", find_binary(args.before, name),
                       shlex.split(extra))]))

    rows = []
    with tempfile.TemporaryDirectory() as cwd:
        for fields, sides in plan:
            samples = {side: [] for side, _, _ in sides}
            for rep in range(args.reps):
                order = sides if rep % 2 == 0 else list(reversed(sides))
                for side, path, argv in order:
                    samples[side].append(run_once(path, argv, cwd))
            row = dict(fields)
            for side, _, _ in sides:
                row.update(summarize(side, samples[side]))
            if "before" in samples and "after" in samples:
                for kind in ("wall", "cpu"):
                    row[f"speedup_{kind}"] = round(
                        row[f"before_{kind}_p50_ms"] /
                        row[f"after_{kind}_p50_ms"], 2)
            rows.append(row)
            print(json.dumps(row))

    provenance = {
        "cores": os.cpu_count(),
        "isa": cpu_isa(),
        "compiler": compiler(args.after),
        "build_type": cmake_cache(args.after, "CMAKE_BUILD_TYPE"),
        "repetitions": args.reps,
        "timing": "process wall (spawn to exit) and user+system CPU, "
                  "median and q3-q1 over the repetitions, before/after "
                  "alternating",
    }
    doc = {
        "bench": "bench_sweep",
        "notes": args.note,
        "provenance": provenance,
        "metric_families": {
            "wall_lower_better": ["*_ms"],
            "wall_higher_better": ["speedup_*"],
        },
        "rows": rows,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
