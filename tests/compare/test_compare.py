#!/usr/bin/env python3
"""bench/compare.py's gate logic on small fixture runs.

Usage: python3 tests/compare/test_compare.py [-v]

baseline.json declares a gate with every bound kind: a real_time ratio
(max), a counter floor given as the exact quotient "1/1.15" (min), a
counter ceiling (max) and two required points.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
COMPARE = os.path.join(HERE, "..", "..", "bench", "compare.py")


def run(candidate):
    return subprocess.run(
        [sys.executable, COMPARE, os.path.join(HERE, "baseline.json"),
         candidate], capture_output=True, text=True).returncode


def fixture(name):
    return os.path.join(HERE, name)


class Gate(unittest.TestCase):
    def test_passing_candidate_exits_0(self):
        self.assertEqual(run(fixture("pass.json")), 0)

    def test_broken_ratio_bound_exits_1(self):
        self.assertEqual(run(fixture("ratio_broken.json")), 1)

    def test_missing_required_point_fails(self):
        self.assertNotEqual(run(fixture("point_missing.json")), 0)

    def test_counter_bounds_are_exact(self):
        # speedup_best must be >= 1/1.15 = 0.8695652173913044 exactly, and
        # cost_best <= 4.0 inclusive.
        cases = [("speedup_best", 1.0 / 1.15, 0),
                 ("speedup_best", 0.8695652173913043, 1),
                 ("cost_best", 4.000001, 1)]
        with open(fixture("pass.json")) as f:
            doc = json.load(f)
        pair = next(b for b in doc["benchmarks"]
                    if b["name"].startswith("BM_Pair"))
        for counter, value, want in cases:
            saved = pair[counter]
            pair[counter] = value
            with tempfile.NamedTemporaryFile(
                    "w", suffix=".json", delete=False) as tmp:
                json.dump(doc, tmp)
            try:
                self.assertEqual(run(tmp.name), want, (counter, value))
            finally:
                os.unlink(tmp.name)
                pair[counter] = saved


if __name__ == "__main__":
    unittest.main()
