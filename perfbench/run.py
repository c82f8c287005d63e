#!/usr/bin/env python3
"""End-to-end benchmark for the Harmonia reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload hot --seed 1 --seconds 30 --trace 0

Builds the tools from source into .bench_build/ (Release), runs one
workload for --seconds seconds, checks every output, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes the recorded spans to .bench_run/trace.json. Workloads are
described in perfbench/README.md. Exit status is non-zero, with no JSON
line, when the tools cannot be built or a run cannot complete.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True

import serve  # noqa: E402
from common import BenchError, Run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
TARGETS = ["harmoniad", "harmonia_exp", "check_model"]

WORKLOADS = {
    "hot": serve.run_hot,
    "cold": serve.run_cold,
}


def build():
    """Configure once, then bring the tools up to date; returns their dir."""
    if not os.path.isfile("CMakeLists.txt"):
        raise BenchError("no CMakeLists.txt at %s: not a source checkout"
                         % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ".", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target"]
                 + TARGETS)
    with open(log_path, "w") as log:
        for cmd in steps:
            # A session of its own, so a timeout stops make's children too.
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                rc = proc.wait(timeout=850)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                rc = "timeout"
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                raise BenchError("%s failed (%s)" % (" ".join(cmd), rc))
    tools = os.path.join(BUILD_DIR, "tools")
    for t in TARGETS:
        if not os.access(os.path.join(tools, t), os.X_OK):
            raise BenchError("missing tool after build: " + t)
    return tools


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    # Turn SIGTERM into SystemExit so the workloads' cleanup runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        tools = build()
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        os.makedirs(RUN_DIR)
        run = Run(tools=tools, run_dir=RUN_DIR, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace))
        WORKLOADS[args.workload](run)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    except (OSError, subprocess.SubprocessError) as e:
        sys.stderr.write("perfbench: %s: %s\n" % (type(e).__name__, e))
        return 1

    if args.trace:
        with open(os.path.join(RUN_DIR, "trace.json"), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": run.spans}, f)
    metrics = {m["name"]: {"value": run.metrics.get(m["name"], 0.0),
                           "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    for failure in run.failures:
        sys.stderr.write("perfbench: FAILED %s\n" % failure)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
