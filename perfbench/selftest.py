#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

- generated inputs are seed-deterministic (same seed, same outcomes;
  seeds 16 apart name the same variant; neighbouring seeds differ);
- every metric run.py prints is declared in BENCHMARK.json, and every
  declared metric is printed;
- a perturbed pinned outcome is counted as a failed run;
- a unit or a set-up that raises ends the run by its deadline as failed
  operations, with no metrics;
- times are normalised by the reference kernel's time, and every
  timed record carries one;
- span self time is the span minus its children.

Takes about a minute; builds the workload programs first.
"""

import copy
import json
import os
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def declared():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return ({m["name"] for m in bench["end_to_end"]},
            {m["name"] for m in bench["per_layer"]},
            {w["name"] for w in bench["workloads"]})


def pins():
    with open(os.path.join(run.HERE, "pins.json")) as f:
        return json.load(f)


def records(workload, seed, seconds=0):
    exe = run.build(run.WORKLOADS[workload])
    return run.run_program(exe, run.variant_of(seed), seconds)


def outcomes(workload, seed):
    return {r["key"]: r for r in records(workload, seed) if r["kind"] == "run"}


def bench(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class Determinism(unittest.TestCase):
    def test_same_seed_same_outcomes(self):
        for workload in ("fig1-stream", "explore-pct"):
            a = outcomes(workload, 5)
            self.assertTrue(a)
            self.assertEqual(a, outcomes(workload, 5), workload)

    def test_seeds_name_variants(self):
        self.assertEqual(run.variant_of(5), run.variant_of(5 + run.VARIANTS))
        self.assertEqual(run.variant_of(-1), run.VARIANTS - 1)

    def test_neighbouring_seeds_differ(self):
        a, b = outcomes("fig1-stream", 5), outcomes("fig1-stream", 6)
        self.assertNotEqual(a["approach1"]["digest"], b["approach1"]["digest"])


class Names(unittest.TestCase):
    def test_workloads_declared(self):
        self.assertEqual(declared()[2], set(run.WORKLOADS))

    def test_printed_metrics_are_declared(self):
        e2e, layer, _ = declared()
        plain = bench("explore-pct", 2, 0)
        self.assertTrue(plain["correct"])
        self.assertEqual(set(plain["metrics"]), e2e)
        traced = bench("explore-pct", 2, 1)
        self.assertEqual(set(traced["metrics"]), layer)
        for m in list(plain["metrics"].values()) + list(traced["metrics"].values()):
            self.assertIsInstance(m["value"], (int, float))
        self.assertEqual(set(run.PER_LAYER), layer)


class Pins(unittest.TestCase):
    def test_perturbed_pin_fails_the_run(self):
        recs = records("explore-pct", 3)
        good = pins()
        attempted, failed, _ = run.check_records(recs, good, "explore-pct")
        self.assertGreater(attempted, 0)
        self.assertEqual(failed, 0)
        # One outcome pinned for every variant, one for this variant only.
        bad = copy.deepcopy(good)
        bad["explore-pct"]["all"]["canonical/approach1"]["digest"] = "0" * 32
        self.assertEqual(run.check_records(recs, bad, "explore-pct")[1], 1)
        bad = copy.deepcopy(good)
        bad["explore-pct"][str(run.variant_of(3))]["explore/approach2"]["distinct"] += 1
        self.assertEqual(run.check_records(recs, bad, "explore-pct")[1], 1)

    def test_check_records_counts(self):
        start = {"kind": "start", "variant": 0}
        rec = {"kind": "run", "key": "k", "digest": "d", "violations": 0}
        pinned = {"w": {"0": {"k": {"key": "k", "digest": "d", "violations": 0}}}}
        self.assertEqual(run.check_records([start, rec], pinned, "w")[:2], (1, 0))
        self.assertEqual(run.check_records([start, dict(rec, digest="x")], pinned, "w")[:2],
                         (1, 1))
        self.assertEqual(run.check_records([start, dict(rec, violations=2)], pinned, "w")[:2],
                         (1, 1))
        err = {"kind": "error", "message": "boom"}
        self.assertEqual(run.check_records([start, rec, err], pinned, "w")[:2], (2, 1))
        shared = {"w": {"all": pinned["w"]["0"]}}
        self.assertEqual(run.check_records([start, rec], shared, "w")[:2], (1, 0))


class Failures(unittest.TestCase):
    def run_failing(self, variant):
        t0 = time.time()
        recs = run.run_program(run.build("failing"), variant, 30)
        self.assertLess(time.time() - t0, 10)
        result, _ = run.report(recs, {}, "failing", variant, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        return result

    def test_raising_unit_ends_the_run(self):
        # The unit that completed before the exception is still measured.
        self.assertIn("wall_s", self.run_failing(0)["metrics"])

    def test_raising_setup_is_a_failed_run(self):
        self.assertEqual(self.run_failing(1)["metrics"], {})


class Normalisation(unittest.TestCase):
    def test_times_scale_by_the_kernel(self):
        self.assertAlmostEqual(run.normalise(1.0, {"reference_s": 2 * run.REFERENCE_S}), 0.5)

        def unit(wall, kernel):
            return {"kind": "unit", "warmup": False, "traced": False, "wall_s": wall,
                    "reference_s": kernel, "events": 100, "sim_s": 1.0, "deliveries": 10,
                    "schedules": 1, "alloc_bytes": 1000.0, "run_ms": [1000.0 * wall]}
        # The same work measured on a host twice as slow, by the kernel.
        recs = [{"kind": "setup", "warmup": False, "s": 0.01, "reference_s": run.REFERENCE_S},
                unit(1.0, run.REFERENCE_S), unit(2.0, 2 * run.REFERENCE_S),
                unit(1.0, run.REFERENCE_S), {"kind": "end", "peak_heap_mb": 1.0}]
        metrics, _ = run.end_to_end(recs)
        self.assertAlmostEqual(metrics["wall_s"][0], 1.0)
        self.assertAlmostEqual(metrics["run_tail_ms"][0], 1000.0)

    def test_every_unit_and_setup_has_a_kernel_time(self):
        recs = records("fig1-stream", 1, seconds=1)
        timed = [r for r in recs if r["kind"] in ("unit", "setup")]
        self.assertTrue(any(r["kind"] == "unit" and not r["warmup"] for r in timed))
        for r in timed:
            self.assertGreater(r["reference_s"], 0)


class Ledger(unittest.TestCase):
    def test_self_time(self):
        spans = [
            {"id": 0, "parent": -1, "name": "unit", "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "name": "build", "start": 1.0, "end": 3.0},
            {"id": 2, "parent": 0, "name": "run_until", "start": 3.0, "end": 9.0},
            {"id": 3, "parent": 2, "name": "build", "start": 4.0, "end": 5.0},
        ]
        t = run.self_times(spans)
        self.assertAlmostEqual(t["unit"]["self_s"], 2.0)
        self.assertAlmostEqual(t["run_until"]["self_s"], 5.0)
        self.assertEqual(t["build"]["count"], 2)
        self.assertAlmostEqual(t["build"]["self_s"], 3.0)

    def test_tail_percentile(self):
        self.assertEqual(run.tail_fraction(20), 0.5)
        self.assertAlmostEqual(run.tail_fraction(100), 0.9)
        self.assertEqual(run.percentile([1, 2, 3, 4, 5], 0.5), 3)


if __name__ == "__main__":
    unittest.main()
