#!/usr/bin/env python3
"""Tests of the repository benchmark. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds the benchmark program the way run.py does, then checks that every named metric
is emitted with its unit and clock, that a wrong expected value fails the
run, that a seed repeats its counts exactly, that a held-out seed gives the
same route and strategy mix, and that a directory without the program's
sources fails cleanly.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own launcher)

WORKLOADS = ["hudf_sql", "tenants", "stream_ingest"]
CLOCKS = {"host", "service", "virtual", "none"}
END_TO_END = ["setup_s", "qps_host", "latency_host_p50_ms",
              "latency_host_p99_ms", "latency_service_p50_ms",
              "latency_service_p99_ms", "device_s_per_query",
              "ingest_rows_per_s", "peak_rss_mb", "failed_frac"]
SECONDS = "3"


def load_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class Program:
    binary = None

    @classmethod
    def get(cls):
        if cls.binary is None:
            cls.binary = run.build(run.build_dir())
            if cls.binary is None:
                raise RuntimeError("benchmark build failed")
        return cls.binary


def run_program(workload, seed=1, trace="0", extra=()):
    proc = subprocess.run(
        [Program.get(), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", trace, *extra],
        stdout=subprocess.PIPE, timeout=170, check=False)
    lines = proc.stdout.decode().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def fingerprint(lines):
    for line in lines:
        if line.startswith("fingerprint "):
            return json.loads(line[len("fingerprint "):])
    raise AssertionError("no fingerprint line")


def metric_lines(lines, prefix):
    """{name: (value, unit, clock)} of the report lines with `prefix`."""
    out = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == prefix:
            clock = [p for p in parts if p.startswith("clock=")]
            out[parts[1]] = (float(parts[2]), parts[3],
                             clock[0][len("clock="):] if clock else None)
    return out


class MetricsTest(unittest.TestCase):
    def test_every_metric_emitted_with_unit_and_clock(self):
        bench = load_benchmark_json()
        scored = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual([w["name"] for w in bench["workloads"]], WORKLOADS)
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                code, lines, result = run_program(workload)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                report = metric_lines(lines, "metric")
                self.assertEqual(sorted(report), sorted(END_TO_END))
                for name, (_, unit, clock) in report.items():
                    self.assertIn(clock, CLOCKS, name)
                    self.assertTrue(unit, name)
                self.assertEqual(set(result["metrics"]), set(scored))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], scored[name])
                    self.assertEqual(metric["unit"], report[name][1])
                    self.assertGreater(metric["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                code, lines, result = run_program(workload, trace="1")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                report = metric_lines(lines, "layer")
                self.assertEqual(set(report), set(layers))
                self.assertEqual(set(result["metrics"]), set(layers))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], layers[name])
                    self.assertIn(report[name][2], CLOCKS, name)
                self.assertGreater(result["metrics"]["trace.spans"]["value"], 0)


class CorrectnessTest(unittest.TestCase):
    def test_injected_wrong_expected_value_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run_program(
                    workload, extra=["--inject-wrong-expected"])
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                gate = [l for l in lines if l.startswith("correctness ")][0]
                self.assertNotIn("divergent_rows=0 ", gate)


class SeedTest(unittest.TestCase):
    def test_same_seed_repeats_counts_and_virtual_time(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = fingerprint(run_program(workload, seed=7)[1])
                second = fingerprint(run_program(workload, seed=7)[1])
                self.assertTrue(first["complete"])
                self.assertEqual(first, second)

    def test_held_out_seed_gives_the_same_route_and_strategy_mix(self):
        # Every route or strategy with at least 5% of the fingerprinted
        # steps on one seed has a share within 0.1 on the other.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                shares = []
                for seed in (1, 2):
                    fp = fingerprint(run_program(workload, seed=seed)[1])
                    total = fp.get("queries", fp.get("scans"))
                    shares.append({k: v / total for k, v in fp.items()
                                   if k.startswith(("route.", "strategy."))})
                for key in set(shares[0]) | set(shares[1]):
                    a, b = (s.get(key, 0.0) for s in shares)
                    if max(a, b) >= 0.05:
                        self.assertLessEqual(abs(a - b), 0.1, key)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "hudf_sql",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, timeout=170, check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn(b'"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
