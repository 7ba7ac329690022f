"""Tests of the result comparator (servebench/compare.py).

Run: python3 -m unittest discover -s servebench/tests -p "test_*.py"
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rps", "unit": "1/s", "better": "higher", "bound": 0.05},
    ],
    "per_layer": [{"name": "hits", "unit": "count", "better": "higher"}],
}
PRINT = {"nproc": 4, "simd_path": "avx2", "tracer_on": False}


def runs(values):
    return {seed: v for seed, v in enumerate(values)}


def result(seed, metrics, fingerprint=PRINT, workload="w", trace=0):
    return {"workload": workload, "seed": seed, "trace": trace,
            "fingerprint": fingerprint,
            "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}


class Verdicts(unittest.TestCase):
    base = runs([10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99])

    def test_unchanged_within_bound(self):
        new = {s: v * 1.03 for s, v in self.base.items()}
        self.assertEqual(compare.verdict(self.base, new, "lower", 0.1),
                         "unchanged")

    def test_worse_beyond_bound(self):
        new = {s: v * 1.2 for s, v in self.base.items()}
        self.assertEqual(compare.verdict(self.base, new, "lower", 0.1), "worse")
        # For a higher-is-better metric the same drop is worse too.
        new = {s: v * 0.8 for s, v in self.base.items()}
        self.assertEqual(compare.verdict(self.base, new, "higher", 0.1),
                         "worse")

    def test_improved_needs_paired_wins_and_a_gap_beyond_the_spread(self):
        new = {s: v * 0.9 for s, v in self.base.items()}
        self.assertEqual(compare.verdict(self.base, new, "lower", 0.1),
                         "improved")
        # A move smaller than the base side's own quartile spread is not a
        # gain, even when every pair wins.
        tiny = {s: v - 0.001 for s, v in self.base.items()}
        self.assertEqual(compare.verdict(self.base, tiny, "lower", 0.1),
                         "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = runs([10, 14, 7, 12, 9, 15, 6, 11, 13, 8])
        self.assertEqual(compare.verdict(self.base, noisy, "lower", 0.1),
                         "unresolved")
        # ... unless every new run beats every base run.
        far = runs([5, 7, 4, 6, 5.5, 6.5, 4.5, 7.2, 3.9, 6.1])
        self.assertEqual(compare.verdict(self.base, far, "lower", 0.1),
                         "improved")


class Compare(unittest.TestCase):
    def test_rows_carry_ratio_and_verdict_per_metric(self):
        base = [result(s, {"latency_ms": 2.0 + 0.01 * s, "rps": 100.0,
                           "hits": 5}) for s in range(5)]
        new = [result(s, {"latency_ms": 2.6 + 0.01 * s, "rps": 100.0,
                          "hits": 7}) for s in range(5)]
        rows = {r[2]: r for r in compare.compare(base, new, SPEC)}
        self.assertEqual(rows["latency_ms"][7], "worse")
        self.assertAlmostEqual(rows["latency_ms"][6], 2.62 / 2.02)
        self.assertEqual(rows["rps"][7], "unchanged")
        self.assertEqual(rows["hits"][7], "-")  # per-layer: no bound

    def test_refuses_different_fingerprints(self):
        other = dict(PRINT, simd_path="generic")
        base = [result(0, {"latency_ms": 2.0})]
        new = [result(0, {"latency_ms": 2.0}, fingerprint=other)]
        with self.assertRaises(compare.FingerprintMismatch):
            compare.compare(base, new, SPEC)

    def test_main_reads_directories_and_exits_2_on_mismatch(self):
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = os.path.join(tmp, "BENCHMARK.json")
            with open(spec_path, "w") as f:
                json.dump(SPEC, f)
            for side, fp in (("a", PRINT), ("b", dict(PRINT, nproc=8))):
                os.makedirs(os.path.join(tmp, side, "w"))
                with open(os.path.join(tmp, side, "w", "r.json"), "w") as f:
                    json.dump(result(0, {"latency_ms": 2.0}, fingerprint=fp), f)
            argv = [os.path.join(tmp, "a"), os.path.join(tmp, "b"),
                    "--benchmark", spec_path]
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet), \
                    contextlib.redirect_stderr(quiet):
                self.assertEqual(compare.main(argv), 2)
                self.assertEqual(compare.main(argv[:1] + argv[:1] + argv[2:]),
                                 0)
            self.assertIn("fingerprints differ", quiet.getvalue())


if __name__ == "__main__":
    unittest.main()
