#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/tests/test_perfbench.py

Runs a short version of every workload, untraced and traced, and checks
that the run passes its output oracle, that the metric names and units it
prints are the ones BENCHMARK.json declares, that the workload-separation
checks hold, and that no daemon or scratch directory outlives a run, even
one whose load generator is killed midway. Builds the benchmark first
(through perfbench/run.py) when needed.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
BUILD = os.path.join(ROOT, ".bench_build")
RUNS_DIR = os.path.join(BUILD, "runs")
SHORT_SECONDS = "4"

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run as runner  # noqa: E402  (the runner's workload list)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
# Every workload the runner knows, including spill-churn, which
# BENCHMARK.json leaves out.
WORKLOADS = list(runner.WORKLOADS)


def run(workload, trace, seconds=SHORT_SECONDS, seed=7):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
        timeout=900)
    return done.returncode, done.stdout.decode(errors="replace"), done.stderr.decode(
        errors="replace")


def daemon_pids():
    """Live processes running the benchmark's daemon binary."""
    daemon = os.path.join(BUILD, "ppdm", "ppdm")
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue
        if argv and argv[0].decode(errors="replace") == daemon:
            pids.append(int(entry))
    return pids


class PerfbenchTest(unittest.TestCase):
    maxDiff = None

    @classmethod
    def setUpClass(cls):
        # One untraced and one traced short run per workload, shared by the
        # checks below; the first one also builds the benchmark.
        cls.results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.results[(workload, trace)] = run(workload, trace)

    def result(self, workload, trace):
        code, out, err = self.results[(workload, trace)]
        self.assertEqual(code, 0, f"{workload} trace={trace} failed:\n{out}\n{err}")
        lines = out.strip().split("\n")
        return json.loads(lines[-1]), lines[:-1]

    def test_oracle_passes(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result, lines = self.result(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertTrue(any(l.startswith("oracle ok:") for l in lines))
                    self.assertTrue(any(l.startswith("fingerprint: ") for l in lines))

    def test_end_to_end_names_match_benchmark_json(self):
        declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = self.result(workload, 0)
                printed = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(printed, declared)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                # The wall-clock figures are printed beside the metrics.
                for name in ("ingest_p50_ms", "query_p50_ms", "requests_per_s",
                             "records_per_s", "setup_wall_s"):
                    self.assertTrue(any(l.startswith(name + " ") for l in lines), name)

    def test_per_layer_names_match_benchmark_json(self):
        declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.result(workload, 1)
                printed = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(printed, declared)

    def test_traced_run_prints_ledger_and_separation(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, lines = self.result(workload, 1)
                self.assertEqual(sum(l.startswith("ledger ") for l in lines), 2)
                checks = [l for l in lines if l.startswith("separation ")]
                self.assertTrue(checks)
                self.assertTrue(all(l.startswith("separation ok") for l in checks), checks)
        wire = self.result("ingest-wire", 1)[0]["metrics"]["net.bytes_per_request"]["value"]
        em = self.result("refresh-em", 1)[0]["metrics"]["net.bytes_per_request"]["value"]
        self.assertLess(em, wire / 10)

    def test_expectations_cover_every_layer_metric(self):
        with open(os.path.join(ROOT, "perfbench", "expectations.json")) as f:
            layers = json.load(f)["layers"]
        self.assertEqual(set(layers), {m["name"] for m in BENCH["per_layer"]})
        end_to_end = {m["name"] for m in BENCH["end_to_end"]}
        for name, expect in layers.items():
            for workload, metrics in expect["moves"].items():
                self.assertIn(workload, WORKLOADS, name)
                self.assertTrue(set(metrics) <= end_to_end, name)
            self.assertTrue(set(expect["holds"]) <= set(WORKLOADS), name)

    def test_no_leftovers_after_runs(self):
        self.assertEqual(daemon_pids(), [])
        self.assertEqual(os.listdir(RUNS_DIR) if os.path.isdir(RUNS_DIR) else [], [])

    def test_killed_load_generator_leaves_nothing_behind(self):
        proc = subprocess.Popen(
            [sys.executable, RUN, "--workload", "spill-churn", "--seconds", "30"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        while not daemon_pids() and time.monotonic() < deadline:
            time.sleep(0.1)
        self.assertTrue(daemon_pids(), "the daemon never started")
        loadgen = subprocess.run(["pgrep", "-f", "perfbench_load --workload=spill-churn"],
                                 stdout=subprocess.PIPE, check=False).stdout.split()
        for pid in loadgen:
            os.kill(int(pid), signal.SIGKILL)
        out, _ = proc.communicate(timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn(b'"correct"', out)
        self.assertEqual(daemon_pids(), [])
        self.assertEqual(os.listdir(RUNS_DIR), [])

    def test_fails_without_the_sources(self):
        bare = os.path.join(BUILD, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ingest-wire",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180,
                check=False)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn(b'"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
