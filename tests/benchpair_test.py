#!/usr/bin/env python3
"""Verdict logic of tools/benchpair.py on canned result lines: no build and
no timing. Run: python3 tests/benchpair_test.py"""
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tools"))
import benchpair  # noqa: E402

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "rate", "better": "higher", "bound": 0.25},
        {"name": "rss", "better": "lower", "bound": 0.1},
    ],
}


def lines(pairs):
    """Canned JSON lines: pairs of ((base rate, base rss), (head ...))."""
    out = []
    for i, (b, h) in enumerate(pairs):
        for side, (rate, rss) in (("base", b), ("head", h)):
            out.append(json.dumps({"side": side, "pair": i, "workload": "w",
                                   "correct": True,
                                   "metrics": {"rate": rate, "rss": rss}}))
    return [json.loads(x) for x in out]


class Verdicts(unittest.TestCase):
    def test_steady_gain_meets_bound_and_claim(self):
        recs = lines([((100 + i, 10.0), (200 + i, 10.0)) for i in range(10)])
        text, ok = benchpair.analyze(recs, SPEC, {("w", "rate")})
        self.assertTrue(ok, text)
        self.assertIn("ratio 1.9", text[1])
        self.assertTrue(text[1].endswith(": met"))
        self.assertIn("head better in 10/10 pairs", text[2])

    def test_regression_past_bound_is_not_met(self):
        recs = lines([((100, 10.0), (100, 11.5)) for _ in range(10)])
        text, ok = benchpair.analyze(recs, SPEC, set())
        self.assertFalse(ok)
        self.assertTrue(text[1].endswith(": met"), text)     # rate equal
        self.assertTrue(text[2].endswith(": not met"), text)  # rss +15%

    def test_wide_spread_is_unresolved(self):
        recs = lines([((100, 10.0), (60 if i % 2 else 160, 10.0))
                      for i in range(10)])
        text, ok = benchpair.analyze(recs, SPEC, set())
        self.assertFalse(ok)
        self.assertTrue(text[1].endswith(": unresolved"), text)

    def test_claim_needs_nine_in_ten_wins(self):
        pairs = [((100, 10.0), (130, 10.0)) for _ in range(8)]
        pairs += [((100, 10.0), (90, 10.0)) for _ in range(2)]
        text, ok = benchpair.analyze(lines(pairs), SPEC, {("w", "rate")})
        self.assertFalse(ok)
        self.assertIn("head better in 8/10 pairs", text[2])
        self.assertTrue(text[2].endswith(": not met"))

    def test_claim_needs_medians_apart_by_base_iqr(self):
        # Head wins every pair by 1, but base runs spread over 40.
        pairs = [((100 + 10 * (i % 5), 10.0), (101 + 10 * (i % 5), 10.0))
                 for i in range(10)]
        c = benchpair.claim_verdict([b[0] for b, _ in pairs],
                                    [h[0] for _, h in pairs], "higher")
        self.assertEqual(c["wins"], 10)
        self.assertEqual(c["verdict"], "not met")

    def test_lower_is_better_ratio_direction(self):
        self.assertAlmostEqual(benchpair.worse_by(0.9, "lower"), -0.1)
        self.assertAlmostEqual(benchpair.worse_by(0.9, "higher"), 0.1)


if __name__ == "__main__":
    unittest.main()
