"""Self-test of the benchmark in tiny-input mode (stdlib unittest and numpy).

    python3 perfbench/selftest.py

Checks that one seed always generates identical inputs, that every metric in
BENCHMARK.json is emitted with its unit on every workload, that traced rounds
reproduce the plain rounds' outputs, and that the per-module self times and
the benchmark's own time add up to the traced run time.
"""
from __future__ import annotations

import io
import json
import os
import sys
import unittest
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(workload, trace):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--tiny"])
    lines = buf.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            for tiny in (False, True):
                a = json.dumps(workloads.generate(w, 11, tiny))
                b = json.dumps(workloads.generate(w, 11, tiny))
                self.assertEqual(a, b, w)
                self.assertNotEqual(a, json.dumps(workloads.generate(w, 12, tiny)), w)


class MetricTest(unittest.TestCase):
    def check(self, workload, trace):
        code, lines, result = _run(workload, trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            # printed by name with its unit for a human reader too
            self.assertTrue(any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                                for line in lines), m["name"])
        return result

    def test_end_to_end(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0)

    def test_per_layer(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                result = self.check(w, 1)
                with open(os.path.join(run.OUT, f"result-{w}-seed3-trace1.json")) as fh:
                    record = json.load(fh)
                self.assertTrue(record["extra"]["digests_agree"], w)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                parts = sum(metrics[f"{m}.self_s"] for m in
                            ("bodies", "spherequad", "harmonics", "sections", "grids",
                             "theorems", "bench"))
                self.assertAlmostEqual(parts, metrics["trace.run_s"],
                                       delta=0.01 * metrics["trace.run_s"])


if __name__ == "__main__":
    unittest.main()
