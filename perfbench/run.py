#!/usr/bin/env python3
"""Served-path benchmark for `ppdm served`.

Run from the repository root:

    python3 perfbench/run.py --workload ingest-wire --seed 1 --seconds 10 --trace 0

Builds the daemon and the load generator from source into .bench_build
(CMake, Release), then runs one workload: set-up timed several times, a
closed loop of --seconds, and the output checks. The last line of standard
output is one JSON object with "correct", "attempted", "failed" and
"metrics" (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). Every daemon the run starts is stopped, and its scratch
directory under .bench_build/runs is removed, before this script exits.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
LOADGEN = os.path.join(BUILD, "perfbench_load")
DAEMON = os.path.join(BUILD, "ppdm", "ppdm")
WORKLOADS = ("ingest-wire", "refresh-em", "spill-churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the two targets up to date."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src", "net")
    ):
        fail(f"no ppdm sources at {ROOT}; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_load", "ppdm",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(step))


def stop_group(pgid):
    """SIGKILLs whatever is left of the run's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    workdir = os.path.join(BUILD, "runs", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    command = [LOADGEN, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--daemon={DAEMON}", f"--workdir={workdir}"]
    # Its own session, so the daemon it spawns shares a process group that
    # can be torn down as a whole, whatever happens to the load generator.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
    shutil.rmtree(workdir, ignore_errors=True)

    text = out.decode(errors="replace")
    lines = text.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        sys.stdout.write(lines[-1] + "\n")
        fail(f"load generator exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("load generator printed no JSON result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
