#!/usr/bin/env python3
"""Tests of the benchmark's metric contract.

    python3 perfbench/tests/test_run.py

Builds the benchmark binary (through run.py) and checks that every metric it
can print matches BENCHMARK.json by name, kind and unit, that every name and
unit uses the allowed characters, and that run.py's result check rejects
results that break the contract.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def listed_metrics():
    out = subprocess.run([run.build(), "--list-metrics"], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    kinds = {"end_to_end": {}, "per_layer": {}}
    for line in out.splitlines():
        kind, name, unit = line.split()
        kinds[kind][name] = unit
    return kinds


class MetricContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        cls.listed = listed_metrics()

    def test_printed_metrics_match_benchmark_json(self):
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in self.spec[kind]}
            self.assertEqual(self.listed[kind], declared, kind)

    def test_names_and_units_use_the_allowed_characters(self):
        names = []
        for kind in ("end_to_end", "per_layer"):
            for m in self.spec[kind]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                names.append(m["name"])
        for w in self.spec["workloads"]:
            self.assertRegex(w["name"], NAME)
            names.append(w["name"])
        self.assertEqual(len(names), len(set(names)), "a name is reused")

    def test_end_to_end_bounds_and_setup_metric(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        largest = max(m["bound"] for m in e2e.values())
        self.assertEqual(e2e["setup_s"]["bound"], largest)
        for m in e2e.values():
            self.assertLessEqual(m["bound"], 0.25)
            self.assertIn(m["better"], ("lower", "higher"))


class ResultCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()

    def result(self, traced=False):
        kind = "per_layer" if traced else "end_to_end"
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                            for m in self.spec[kind]}}

    def test_conforming_result_passes(self):
        self.assertEqual(run.check_result(self.result(), self.spec, False),
                         [])
        self.assertEqual(run.check_result(self.result(True), self.spec, True),
                         [])

    def test_missing_extra_or_mislabelled_metric_fails(self):
        r = self.result()
        r["metrics"].pop("setup_s")
        self.assertTrue(run.check_result(r, self.spec, False))
        r = self.result()
        r["metrics"]["bogus"] = {"value": 1, "unit": "s"}
        self.assertTrue(run.check_result(r, self.spec, False))
        r = self.result()
        r["metrics"]["wall_s"]["unit"] = "ms"
        self.assertTrue(run.check_result(r, self.spec, False))
        # End-to-end metrics are not a traced result.
        self.assertTrue(run.check_result(self.result(), self.spec, True))

    def test_bad_envelope_fails(self):
        r = self.result()
        r["attempted"] = 0
        self.assertTrue(run.check_result(r, self.spec, False))
        r = self.result()
        r["extra"] = 1
        self.assertTrue(run.check_result(r, self.spec, False))
        r = json.loads(json.dumps(self.result()))
        r["correct"] = False
        self.assertTrue(run.check_result(r, self.spec, False))


if __name__ == "__main__":
    unittest.main()
