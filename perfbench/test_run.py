"""The benchmark's own tests.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke tests build the worker and run every workload at test scale in
both modes; each finishes in seconds.
"""

import json
import math
import os
import re
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class Catalogue(unittest.TestCase):
    def test_names_units_and_counts(self):
        self.assertLessEqual(len(run.END_TO_END), 16)
        self.assertLessEqual(len(run.PER_LAYER), 128)
        names = [m[0] for m in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)), "metric names must be unique")
        for name, unit, better, *_ in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
            self.assertTrue(UNIT.fullmatch(unit), f"{name}: bad unit {unit!r}")
            self.assertIn(better, ("lower", "higher"))
        for name, _, _, bound in run.END_TO_END:
            self.assertTrue(0 < bound <= 0.25, name)
        setup = dict((n, b) for n, _, _, b in run.END_TO_END)["setup_s"]
        self.assertEqual(setup, max(b for *_, b in run.END_TO_END))

    def test_benchmark_json_matches_catalogue(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]],
            [tuple(m) for m in run.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [tuple(m) for m in run.PER_LAYER])
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


class Estimators(unittest.TestCase):
    def test_quantile_interpolates_inside_a_bucket(self):
        # 100 samples in [1024, 2048) ns, min 1100, max 2000.
        hist = ({2048: 100}, 1100, 2000)
        self.assertAlmostEqual(run.quantile_ms(hist, 0.5), (1100 + 0.5 * 900) / 1e6)
        self.assertAlmostEqual(run.quantile_ms(hist, 1.0), 2000 / 1e6)

    def test_quantile_walks_buckets(self):
        hist = ({1024: 90, 4096: 10}, 600, 4000)
        self.assertLess(run.quantile_ms(hist, 0.5), 1024 / 1e6)
        self.assertGreaterEqual(run.quantile_ms(hist, 0.95), 2048 / 1e6)

    def test_max_rate_interpolates_on_the_p99_limit(self):
        def rung(p99, achieved):
            return {"p99_ms": p99, "timed_out": 0, "achieved_ops_s": achieved}
        rungs = [(1000, rung(16, 990)), (1200, rung(30, 1180)),
                 (1400, rung(70, 1390)), (1600, rung(200, 1590))]
        self.assertAlmostEqual(run.max_rate(rungs), 1200 + 200 * (50 - 30) / (70 - 30))
        # A rung that misses the achieved-rate floor ends the ladder there.
        rungs[1] = (1200, rung(30, 1000))
        self.assertEqual(run.max_rate(rungs), 1000.0)
        # When every rung passes, the figure is the top rung (clipped).
        rungs = [(1000, rung(16, 990)), (1200, rung(30, 1180))]
        self.assertEqual(run.max_rate(rungs), 1200.0)


class Smoke(unittest.TestCase):
    def run_bench(self, workload, trace):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
            cwd=run.ROOT, capture_output=True, text=True, check=False, timeout=170)
        elapsed = time.monotonic() - start
        self.assertEqual(out.returncode, 0, out.stdout[-3000:] + out.stderr[-3000:])
        lines = out.stdout.strip().splitlines()
        self.assertTrue(lines[0].startswith("host "), "results are stamped with the host")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(list(result["metrics"]), [m[0] for m in want])
        for name, v in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertTrue(v["unit"])
            self.assertTrue(math.isfinite(v["value"]), name)
        return elapsed

    def test_smoke_every_workload(self):
        run.build()  # Not timed: the first build may take minutes.
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.assertLess(self.run_bench(workload, trace), 30)


if __name__ == "__main__":
    unittest.main()
