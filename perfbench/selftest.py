"""Fast self-test of the benchmark on tiny inputs (about ten seconds).

    python3 perfbench/selftest.py

It checks that every declared metric is emitted in both modes, that a
perturbed capital figure is counted as a failed operation, and that a
boundary the tracer cannot find is reported as missing rather than failing
the run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

import gen
import layers
import run

sys.path.insert(0, str(run.SRC))

from sbmcap import engine  # noqa: E402

SCALE = 0.05
SECONDS = 0.3


class SelfTest(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({w["name"]: w["why"] for w in declared["workloads"]},
                         {w.name: w.why for w in gen.WORKLOADS.values()})
        for trace, key, units in ((False, "end_to_end", run.END_TO_END), (True, "per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in declared[key]}, units)
            for workload in gen.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    record = run.run_workload(workload, 7, SECONDS, trace, SCALE)
                    result = record["result"]
                    self.assertEqual(record["errors"], [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), set(units))
                    if not trace:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_perturbed_capital_counts_as_failure(self):
        original = engine.compute_capital

        def perturbed(*args, **kwargs):
            report = original(*args, **kwargs)
            return dataclasses.replace(report, total_capital=report.total_capital * (1.0 + 1e-6))

        with mock.patch.object(engine, "compute_capital", perturbed):
            result = run.run_workload("equity-concentrated", 7, SECONDS, False, SCALE)["result"]
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_missing_boundary_is_reported_not_failed(self):
        boundaries = layers.BOUNDARIES + (("sbmcap.rulebook", "Rulebook.no_such_lookup", False),)
        with mock.patch.object(layers, "BOUNDARIES", boundaries):
            record = run.run_workload("bond-ladder", 7, SECONDS, True, SCALE)
        self.assertEqual(record["missing_boundaries"], ["rulebook.no_such_lookup"])
        self.assertTrue(record["result"]["correct"])

    def test_inputs_repeat_for_a_seed(self):
        base = run.WORK / "selftest"
        first = gen.write_inputs("bond-ladder", 3, base / "a", SCALE)
        second = gen.write_inputs("bond-ladder", 3, base / "b", SCALE)
        other = gen.write_inputs("bond-ladder", 4, base / "c", SCALE)
        self.assertEqual(first.books[0].read_bytes(), second.books[0].read_bytes())
        self.assertNotEqual(first.books[0].read_bytes(), other.books[0].read_bytes())


if __name__ == "__main__":
    run.WORK.mkdir(exist_ok=True)
    unittest.main()
