#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan_solo --seed 1 --seconds 25 --trace 0

Builds the engine and the benchmark driver from source into
.bench_build/perfbench (CMake, Release), runs the workload described in
perfbench/workloads.json, prints every metric by name and unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger
(and writes the recorded spans to .bench_build/perfbench/traces/).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "nipo_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "engine.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("engine sources not found (%s); run from a full checkout" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail("build failed: " + " ".join(step))


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = load_json(os.path.join(HERE, "workloads.json"))
    if args.workload not in workloads:
        fail("unknown workload %r (have: %s)" %
             (args.workload, ", ".join(sorted(workloads))))
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json")) \
        if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")) else None

    build()

    params = dict(workloads[args.workload])
    params.pop("loop")
    # Never more workers than the host has cores.
    for key in ("threads", "max_concurrent"):
        if key in params:
            params[key] = min(params[key], os.cpu_count() or 1)
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    params.update({
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trace_out": os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed)),
    })
    cmd = [BINARY]
    for key, value in params.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        cmd += ["--" + key, str(value)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("benchmark driver exited with code %d" % done.returncode)
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if spec is not None:
        wanted = [m["name"] for m in
                  spec["per_layer" if args.trace else "end_to_end"]]
        missing = [name for name in wanted if name not in metrics]
        if missing:
            fail("driver did not report: " + ", ".join(missing))
        metrics = {name: metrics[name] for name in wanted}

    details = os.path.join(BUILD, "results")
    os.makedirs(details, exist_ok=True)
    with open(os.path.join(details, "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(result, f, indent=1)

    print("workload %s seed %d (%s)" %
          (args.workload, args.seed, workloads[args.workload]["loop"]))
    for name, m in metrics.items():
        print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    for key, value in sorted(result.get("info", {}).items()):
        print("  info.%-31s %16.6g" % (key, value))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
