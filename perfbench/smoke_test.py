#!/usr/bin/env python3
"""Smoke test of the benchmark at minimal length.

Usage, from the root of a checkout:

    python3 perfbench/smoke_test.py [workload ...]

For every workload (default: all of BENCHMARK.json's) it checks that
  * an untraced run passes its checks and prints every end-to-end metric
    of BENCHMARK.json, with its unit, and nothing else;
  * a traced run does the same for every per-layer metric and leaves its
    trace (and, where the workload has one, its per-layer table) behind;
  * a run with one expected value perturbed fails: non-zero exit,
    "correct": false and failed > 0 (the negative test).
It also checks that the benchmark refuses to run with a FUSE_* variable set.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYER_TABLES = {"host_infer", "array_sim"}


def run(workload, *extra, env=None):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "1", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result, done


def expect(condition, message, done=None):
    if not condition:
        detail = "" if done is None else "\n" + done.stdout[-2000:] + done.stderr[-2000:]
        sys.exit("FAIL: " + message + detail)
    print("ok:", message)


def check_metrics(workload, result, declared, label, done):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want,
           "%s %s run prints every declared metric with its unit"
           % (workload, label), done)
    expect(all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values()),
           "%s %s values are numbers" % (workload, label), done)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]

    for workload in workloads:
        code, result, done = run(workload, "--trace", "0")
        expect(code == 0 and result is not None and result["correct"]
               and result["failed"] == 0 and result["attempted"] >= 1,
               "%s untraced run passes its checks" % workload, done)
        check_metrics(workload, result, bench["end_to_end"], "untraced", done)

        code, result, done = run(workload, "--trace", "1")
        expect(code == 0 and result is not None and result["correct"],
               "%s traced run passes its checks" % workload, done)
        check_metrics(workload, result, bench["per_layer"], "traced", done)
        out = os.path.join(ROOT, ".bench_out")
        artifacts = [workload + "_trace.json", workload + "_provenance.json"]
        if workload in LAYER_TABLES:
            artifacts.append(workload + "_layers.csv")
        expect(all(os.path.exists(os.path.join(out, a)) for a in artifacts),
               "%s traced run writes %s" % (workload, ", ".join(artifacts)))

        code, result, done = run(workload, "--trace", "0",
                                 "--perturb-expected")
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] > 0,
               "%s fails when an expected value is perturbed" % workload, done)

    env = dict(os.environ, FUSE_KERNEL_THREADS="1")
    code, result, done = run(workloads[0], "--trace", "0", env=env)
    expect(code != 0 and result is None,
           "the benchmark refuses to run with FUSE_KERNEL_THREADS set", done)
    print("smoke test passed")


if __name__ == "__main__":
    main()
