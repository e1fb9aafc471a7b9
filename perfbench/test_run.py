"""Unit tests of run.py's pure parts.

    python3 -m unittest discover -s perfbench

Set PERFBENCH_SELF_CHECK=1 to also run `run.py --self-check` (it builds
the harness and runs every workload on a tiny budget; a few minutes).
"""
import importlib.util
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


class Statistics(unittest.TestCase):
    def test_quantile_interpolates(self):
        self.assertEqual(run.quantile([3.0, 1.0, 2.0], 0.5), 2.0)
        self.assertAlmostEqual(run.quantile([0.0, 10.0], 0.99), 9.9)
        self.assertEqual(run.quantile([], 0.5), 0.0)

    def test_quantile_counts_failed_commits_as_missing_the_limit(self):
        xs = [1.0] * 98 + [math.inf] * 2
        self.assertEqual(run.quantile(xs, 0.99), math.inf)
        self.assertEqual(run.quantile(xs, 0.5), 1.0)

    def test_middle_mean_ignores_outer_quarters(self):
        self.assertEqual(run.middle_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5)

    def test_ler_bound(self):
        self.assertTrue(run.ler_ok(100, 1000, 2000, 20000))
        self.assertTrue(run.ler_ok(0, 1000, 0, 20000))
        self.assertFalse(run.ler_ok(200, 1000, 2000, 20000))
        self.assertFalse(run.ler_ok(30, 1000, 0, 20000))


class Inputs(unittest.TestCase):
    def test_seeds_are_deterministic_and_avoid_the_reference_seed(self):
        a = run.derive_seed(7, "paper_campaign")
        self.assertEqual(a, run.derive_seed(7, "paper_campaign"))
        self.assertNotEqual(a, run.derive_seed(8, "paper_campaign"))
        self.assertNotEqual(a, run.derive_seed(7, "serve_herald"))
        self.assertLess(a, 1 << 53)
        for seed in range(2000):
            self.assertNotEqual(run.derive_seed(seed, "paper_campaign"), run.REFERENCE_SEED)

    def test_serve_schedule(self):
        payload = run.serve_payload(3, 50, False)
        self.assertEqual(payload, run.serve_payload(3, 50, False))
        fixed = [p for p in payload["phases"] if p["name"] in run.LOADS]
        self.assertEqual(len(fixed), run.SERVE_REPS * len(run.LOADS))
        # Streams take turns heralding in the fixed-rate phases; the
        # saturation batches are herald-free; the untraced run has no ladder.
        self.assertEqual({p["herald_stream"] for p in fixed}, set(range(run.SERVE_CONNECTIONS)))
        self.assertEqual({p["herald_stream"] for p in payload["phases"] if p not in fixed}, {-1})
        self.assertEqual(payload["server"]["launches"], run.SERVE_SETUP_LAUNCHES)
        self.assertEqual(payload["ladder"], [])
        self.assertTrue(run.serve_payload(3, 50, True)["ladder"])
        # Each rate collects at least 1000 commits.
        windows = run.SERVE_PARAMS["rounds"] / run.SERVE_PARAMS["commit"]
        for load in run.LOADS:
            shots = sum(p["shots_per_connection"] for p in fixed if p["name"] == load)
            self.assertGreaterEqual(shots * run.SERVE_CONNECTIONS * windows, 1000)

    def test_every_reference_cell_is_generated(self):
        with open(run.REFERENCE) as fh:
            ref = json.load(fh)
        names = {d["name"] for d in run.campaign_devices()}
        self.assertEqual(names, set(ref["campaign"]["devices"]))
        self.assertTrue(all(n > 0 for _, n in ref["campaign"]["cells"].values()))


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
            self.bench = json.load(fh)

    def test_benchmark_json_matches_run_py(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["per_layer"]],
                         run.PER_LAYER)
        self.assertIn("setup_s", [m["name"] for m in self.bench["end_to_end"]])
        self.assertTrue(all(m["bound"] <= 0.25 for m in self.bench["end_to_end"]))

    def test_result_line_shape(self):
        metrics = {k: 1.5 for k, _ in run.PER_LAYER}
        metrics["commit_p99_ms.high"] = math.inf
        res = run.result_json(metrics, 10, 1, True)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertFalse(res["correct"])
        self.assertEqual(res["metrics"]["commit_p99_ms.high"]["value"], 1e9)
        json.dumps(res, allow_nan=False)

    def test_refuses_to_run_outside_a_checkout(self):
        # A directory with only the benchmark files has no program to build.
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                            "paper_campaign", "--seed", "1", "--seconds", "1"],
                           cwd=HERE, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")


@unittest.skipUnless(os.environ.get("PERFBENCH_SELF_CHECK") == "1", "set PERFBENCH_SELF_CHECK=1")
class SelfCheck(unittest.TestCase):
    def test_self_check_passes(self):
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--self-check"],
                           cwd=os.path.join(HERE, ".."), capture_output=True, text=True,
                           timeout=1800)
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])


if __name__ == "__main__":
    unittest.main()
