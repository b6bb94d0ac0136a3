#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the driver the way run.py does (into $CARGO_TARGET_DIR, or
.bench_build) and checks:
  * the tail-percentile helper and the self-time arithmetic
    (perfbench_driver --selftest);
  * a seed always gives the same request-stream digest, another seed a
    different one;
  * the deterministic workload (exact_paper) gives the same
    visibility_mean on a seed;
  * every metric BENCHMARK.json names comes out of run.py, and nothing else;
  * every workload's answers pass the benchmark's correctness checks
    (multitenant_mixed_solvers' do not while the program defects in
    README.md stand);
  * BENCHMARK.json keeps to its format;
  * compare.py's verdicts follow their rules;
  * run.py fails, printing no result, without the program's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, seed, seconds, trace, record):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--record", record],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if result.returncode != 0:
        raise AssertionError("run.py %s failed (%d): %s\n%s" % (
            workload, result.returncode, result.stderr[-2000:],
            result.stdout[-2000:]))
    return json.loads(result.stdout.strip().split("\n")[-1])


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build(run.build_dir())
        cls.tmp = tempfile.mkdtemp(dir=run.build_dir())
        cls.record = os.path.join(cls.tmp, "runs.jsonl")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def driver_output(self, *args):
        result = subprocess.run([self.driver, *args], capture_output=True,
                                text=True, timeout=120)
        self.assertEqual(result.returncode, 0, result.stderr)
        return result.stdout.strip()

    def test_selftest(self):
        self.assertEqual(self.driver_output("--selftest"), "selftest: ok")

    def test_stream_digest_is_a_function_of_the_seed(self):
        for workload in ("greedy_biglog", "exact_paper", "multitenant_zipf",
                         "multitenant_mixed_solvers"):
            first = self.driver_output("--digest", "--workload=" + workload,
                                       "--seed=7")
            again = self.driver_output("--digest", "--workload=" + workload,
                                       "--seed=7")
            other = self.driver_output("--digest", "--workload=" + workload,
                                       "--seed=8")
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)

    def test_same_seed_same_visibility_on_deterministic_workloads(self):
        # exact_paper carries no deadline, so nothing cuts a solve short,
        # and a 10 s run answers every deck entry. (The other workloads'
        # answers depend on which deadlines fire.)
        values = [run_bench("exact_paper", 5, 10, 0, self.record)
                  ["metrics"]["visibility_mean"]["value"] for _ in range(2)]
        self.assertEqual(values[0], values[1])

    def test_metric_names_match_benchmark_json(self):
        spec = load_spec()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_bench("exact_paper", 3, 2, trace, self.record)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()},
                expected)
            self.assertTrue(result["correct"])
            self.assertEqual(sorted(result),
                             ["attempted", "correct", "failed", "metrics"])

    def test_every_workload_answers_correctly(self):
        for workload in ("greedy_biglog", "multitenant_zipf"):
            result = run_bench(workload, 3, 2, 0, self.record)
            self.assertTrue(result["correct"], workload)

    def test_mixed_solvers_answer_correctly(self):
        # Fails while the tenant result cache replays one solver's answer
        # to a request for another (its key has no solver), and while the
        # random-walk MaxFreqItemSets misses the optimum on one tenant's
        # key: see README.md, "Known program defects".
        result = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "multitenant_mixed_solvers", "--seed", "3", "--seconds", "2",
             "--trace", "0", "--record", self.record],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(result.returncode, 0, result.stdout[-2000:])

    def test_fails_without_program_sources(self):
        bare = os.path.join(self.tmp, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "greedy_biglog",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"metrics"', result.stdout)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_format(self):
        spec = load_spec()
        self.assertEqual(sorted(spec), ["command", "end_to_end", "paths",
                                        "per_layer", "run_seconds",
                                        "workloads"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        self.assertEqual(names, ["exact_paper", "multitenant_zipf"])
        bounds = {}
        for m in spec["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertLessEqual(m["bound"], 0.25)
            bounds[m["name"]] = m["bound"]
            names.append(m["name"])
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in spec["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)))


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        self.assertEqual(
            compare.verdict(base, [x * 1.2 for x in base], "higher", 0.1)[0],
            compare.IMPROVED)
        self.assertEqual(
            compare.verdict(base, [x * 0.7 for x in base], "higher", 0.1)[0],
            compare.WORSE)
        self.assertEqual(
            compare.verdict(base, [x * 0.95 for x in base], "higher", 0.1)[0],
            compare.WITHIN)
        self.assertEqual(compare.verdict(base, base, "lower", 0.1)[0],
                         compare.WITHIN)
        noisy = [50, 150, 60, 140, 100, 70, 130, 90, 110, 100]
        self.assertEqual(
            compare.verdict(noisy, [x * 0.9 for x in noisy], "higher", 0.1)[0],
            compare.UNRESOLVED)
        # Lower is better: a 20% drop in latency is a gain.
        verdict, wins, pairs = compare.verdict(base, [x * 0.8 for x in base],
                                               "lower", 0.1)
        self.assertEqual((verdict, wins, pairs), (compare.IMPROVED, 10, 10))


if __name__ == "__main__":
    unittest.main()
