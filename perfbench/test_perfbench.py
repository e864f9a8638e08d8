#!/usr/bin/env python3
"""Self-tests of the benchmark on reduced inputs.

Run from the repository root:

    python3 perfbench/test_perfbench.py

Checks that the modeled metrics and cardinalities repeat exactly across
same-seed runs and across host lane counts, that a second seed passes the
output gate, that every run prints exactly the metrics BENCHMARK.json
names, with their units, and that the command fails without the library
sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
# Reduced inputs: RMAT scale 12 and 9, road mesh side 32.
REDUCE = {"batch-rmat": 6, "batch-road": 3, "dynamic-churn": 5,
          "service-mixed": 0}
SECONDS = {"batch-rmat": 1, "batch-road": 1, "dynamic-churn": 0.5,
           "service-mixed": 1}
# Per-layer metrics that are functions of the inputs alone.
EXACT_PREFIXES = ("ledger.", "comm.")
EXACT_NAMES = ("matching.cardinality", "core.supersteps", "core.phases",
               "core.init_match_frac", "dist.block_imbalance",
               "dynamic.solver_runs", "dynamic.supersteps")


def run(workload, seed, trace, lanes=None, cwd=ROOT):
    command = [sys.executable, RUN, "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS[workload]),
               "--trace", str(trace), "--reduce", str(REDUCE[workload])]
    if lanes is not None:
        command += ["--lanes", str(lanes)]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)
    return done


def result(workload, seed, trace, lanes=None):
    done = run(workload, seed, trace, lanes)
    if done.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def exact(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if name.startswith(EXACT_PREFIXES) or name in EXACT_NAMES}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.spec = json.load(f)

    def check_schema(self, res, kind):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in self.spec[kind]}
        printed = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(printed, expected)

    def test_batch_modeled_exact_across_runs_and_lanes(self):
        for workload in ("batch-rmat", "batch-road"):
            with self.subTest(workload=workload):
                one = result(workload, 5, 1, lanes=1)
                two = result(workload, 5, 1, lanes=2)
                again = result(workload, 5, 1, lanes=2)
                self.check_schema(one, "per_layer")
                self.assertGreater(one["metrics"]["matching.cardinality"]
                                   ["value"], 0)
                self.assertEqual(exact(one["metrics"]), exact(two["metrics"]))
                self.assertEqual(exact(two["metrics"]),
                                 exact(again["metrics"]))
                e2e = [result(workload, 5, 0, lanes=lanes)
                       for lanes in (1, 2, 2)]
                self.check_schema(e2e[0], "end_to_end")
                modeled = {r["metrics"]["modeled_s"]["value"] for r in e2e}
                self.assertEqual(len(modeled), 1)

    def test_dynamic_modeled_exact_across_runs_and_lanes(self):
        runs = [result("dynamic-churn", 5, 1, lanes=lanes)
                for lanes in (1, 2, 1)]
        self.check_schema(runs[0], "per_layer")
        for other in runs[1:]:
            self.assertEqual(exact(runs[0]["metrics"]),
                             exact(other["metrics"]))
        e2e = [result("dynamic-churn", 5, 0, lanes=lanes) for lanes in (1, 2)]
        self.check_schema(e2e[0], "end_to_end")
        self.assertEqual(e2e[0]["metrics"]["modeled_s"]["value"],
                         e2e[1]["metrics"]["modeled_s"]["value"])

    def test_service_runs_both_kinds(self):
        self.check_schema(result("service-mixed", 5, 0), "end_to_end")
        self.check_schema(result("service-mixed", 5, 1), "per_layer")

    def test_second_seed_passes_gate(self):
        for workload in REDUCE:
            with self.subTest(workload=workload):
                self.check_schema(result(workload, 11, 0), "end_to_end")

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        try:
            done = run("batch-rmat", 1, 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
