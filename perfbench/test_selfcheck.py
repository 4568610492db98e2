#!/usr/bin/env python3
"""Self-check of the repository benchmark: runs every workload at its tiny
size, untraced and traced, and asserts that every declared metric is
present with its unit, that no op fails (error rate 0), that the goldens
match, and that the trace is valid Chrome trace-event JSON.

    python3 perfbench/test_selfcheck.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

BENCHMARK = run.load_benchmark()
PREDICTIONS = run.load_predictions()


def bench(workload, trace):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError(f"run.py failed ({p.returncode}):\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1]), p.stdout


class PredictionsTest(unittest.TestCase):
    def test_every_per_layer_metric_names_its_prediction(self):
        workloads = {w["name"] for w in BENCHMARK["workloads"]}
        ends = {m["name"] for m in BENCHMARK["end_to_end"]}
        grouped = [n for g in PREDICTIONS["per_layer"] for n in g["metrics"]]
        self.assertEqual(sorted(grouped), sorted(m["name"] for m in BENCHMARK["per_layer"]))
        for g in PREDICTIONS["per_layer"]:
            name = g["metrics"][0]
            self.assertTrue(set(g["measured_on"]) <= workloads, name)
            self.assertTrue(set(g["flat_on"]) <= workloads, name)
            for move in g["moves"]:
                metric, workload = move.split("@")
                self.assertIn(metric, ends, name)
                self.assertIn(workload, workloads, name)
            if g["layer"] != "bench":
                self.assertTrue(g["moves"], name)
        self.assertEqual(set(PREDICTIONS["workloads"]), workloads)
        self.assertEqual(set(PREDICTIONS["end_to_end"]), ends)

    def test_golden_mismatch_counts_as_failure(self):
        golden_file = os.path.join(HERE, "goldens", "cold_compile.json")
        with open(golden_file) as f:
            key, fields = next(iter(json.load(f)["outputs"].items()))
        good = {"workload": "cold_compile", "records": [{"key": key, "count": 2, "fields": fields}]}
        self.assertEqual(run.golden_mismatches(good), [])
        bad_fields = dict(fields, **{"opmix.total": fields["opmix.total"] + 1})
        bad = {"workload": "cold_compile", "records": [{"key": key, "count": 3, "fields": bad_fields}]}
        self.assertEqual(len(run.golden_mismatches(bad)), 3)


class TinyRunTest(unittest.TestCase):
    def check(self, workload):
        result, text = bench(workload, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        for m in BENCHMARK["end_to_end"]:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertGreater(got["value"], 0, m["name"])
            self.assertIn(m["name"], text)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in BENCHMARK["end_to_end"]})

        traced, text = bench(workload, 1)
        self.assertTrue(traced["correct"])
        self.assertEqual(set(traced["metrics"]), {m["name"] for m in BENCHMARK["per_layer"]})
        for m in BENCHMARK["per_layer"]:
            self.assertEqual(traced["metrics"][m["name"]]["unit"], m["unit"])
        trace_path = text.strip().splitlines()[-2].split("trace: ", 1)[1]
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        self.assertTrue(events)
        for i, e in enumerate(events):
            for k in ("name", "ph", "ts", "dur", "tid"):
                self.assertIn(k, e)
            self.assertEqual(e["args"]["span"], i)
            self.assertIn("id", e["args"])
            self.assertLess(e["args"]["parent"], len(events))

    def test_figure_matrix(self):
        self.check("figure_matrix")

    def test_frame_pipeline(self):
        self.check("frame_pipeline")

    def test_cold_compile(self):
        self.check("cold_compile")


if __name__ == "__main__":
    unittest.main()
