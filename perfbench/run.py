#!/usr/bin/env python3
"""Served-KV benchmark: build the driver, run one measurement, print it.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (driver.cc plus the repository's src/ libraries it links)
with CMake into $CARGO_TARGET_DIR/perfbench, by default
.bench_build/perfbench, then runs the driver once.  The driver's result,
{"correct", "attempted", "failed", "metrics"}, is the last line of stdout:
BENCHMARK.json's end_to_end metrics with --trace 0, its per_layer metrics
with --trace 1.  A failed build or run exits non-zero and prints no result.
Everything the run writes stays under the build directory.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 160
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, env, timeout, **kwargs):
    """Runs cmd in its own process group, killing the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    return proc.returncode, out


def build(build_dir, env):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "hotkv_bench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            rc, _ = run(cmd, env, BUILD_TIMEOUT_S, stdout=log,
                        stderr=subprocess.STDOUT)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "hotkv_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "net", "server.h")):
        fail("src/net/server.h not found: run from the root of a full checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"] for m in spec["per_layer" if args.trace else
                                        "end_to_end"]}

    out_root = os.path.join(root,
                            os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(out_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    exe = build(os.path.join(out_root, "perfbench"), env)

    data_dir = os.path.join(out_root, f"perfbench-data-{os.getpid()}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    try:
        rc, out = run(cmd, env, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                      text=True)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = (out or "").strip().splitlines()
    if rc != 0 or not lines:
        fail(f"driver exited with status {rc}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no JSON result")
    if set(result) != RESULT_KEYS or set(result["metrics"]) != expected:
        fail("result does not match BENCHMARK.json: " + lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
