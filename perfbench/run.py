#!/usr/bin/env python3
"""Builds and runs the FeatGraph end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload full_train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds the
library and the benchmark binary (Release) under $CARGO_TARGET_DIR
(default .bench_build); later calls reuse that build. The binary's detail
lines go to stdout, and the last line of stdout is the JSON result, checked
against the metric lists in BENCHMARK.json. Exits non-zero, without a
result line, when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("full_train", "minibatch_infer", "serve_zipf")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def derived_seed(seed, role):
    """Independent graph/model/sampler/trace seeds from the one --seed."""
    digest = hashlib.sha256(f"{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def build():
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", build_dir, "--target",
                  "featgraph_perfbench", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "featgraph_perfbench")


def expected_metrics(trace):
    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    expected = expected_metrics(args.trace)
    binary = build()
    cmd = [binary, "--workload", args.workload,
           "--graph-seed", str(derived_seed(args.seed, "graph")),
           "--model-seed", str(derived_seed(args.seed, "model")),
           "--sampler-seed", str(derived_seed(args.seed, "sampler")),
           "--trace-seed", str(derived_seed(args.seed, "trace")),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    print(f"run took {time.monotonic() - t0:.1f} s")
    if proc.returncode != 0:
        print(lines[-1])
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line of the benchmark's output is not JSON: " + lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from correct/attempted/failed/metrics")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: {sorted(got)} vs "
             f"{sorted(expected)}")
    sys.stdout.flush()
    print(lines[-1])


if __name__ == "__main__":
    main()
