#!/usr/bin/env python3
"""Verdicts of scripts/perf_ab.py, fed canned perfbench output (no run).

    python3 tests/test_perf_ab.py
"""
import contextlib
import io
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in scripts/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "scripts"))
import perf_ab  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "accesses_per_s", "better": "higher", "bound": 0.1},
]}


def stdout(wall_s, accesses_per_s, correct=True, failed=0, attempted=100,
           fp="0x00000000000000ab"):
    """A perfbench report: some text, the fingerprint, the JSON last line."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "accesses_per_s": {"value": accesses_per_s, "unit": "1/s"}}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return ("perfbench run: workload=w seed=1 seconds=36 trace=0\n"
            "sim_fingerprint %s\nops_failed_frac 0 (0 of 100)\n"
            "  wall_s  %g s\n%s\n" % (fp, wall_s, json.dumps(result)))


def run(wall_s, accesses_per_s=1000.0, **kw):
    return perf_ab.parse_run(0, stdout(wall_s, accesses_per_s, **kw))


def pairs(base_walls, change_walls, **kw):
    return [(run(b), run(c, **kw)) for b, c in zip(base_walls, change_walls)]


def status(by_workload):
    return perf_ab.report({1: by_workload}, SPEC, lambda seed: "seed")[1]


class Statistics(unittest.TestCase):
    def test_median_and_iqr(self):
        lower = {"name": "wall_s", "better": "lower", "bound": 0.25}
        odd = perf_ab.metric_row([(3, 30), (1, 10), (2, 50)], lower)
        self.assertEqual((odd["base"], odd["change"]), (2, 30))
        even = perf_ab.metric_row([(4, 1), (1, 1), (3, 1), (2, 2)], lower)
        self.assertEqual((even["base"], even["change"]), (2.5, 1))
        self.assertEqual(even["iqr"], 1.5)
        self.assertEqual(perf_ab.iqr([1, 2, 3, 4, 5]), 2.0)
        self.assertEqual(perf_ab.iqr([7]), 0.0)

    def test_ties_count_for_neither_side(self):
        lower = {"name": "wall_s", "better": "lower", "bound": 0.25}
        row = perf_ab.metric_row([(10, 9), (10, 10), (10, 11), (10, 8)],
                                 lower)
        self.assertEqual((row["wins"], row["pairs"]), (2, 4))

    def test_win_direction_comes_from_better(self):
        higher = {"name": "accesses_per_s", "better": "higher", "bound": 0.1}
        row = perf_ab.metric_row([(10, 9), (10, 10), (10, 11), (10, 8)],
                                 higher)
        self.assertEqual(row["wins"], 1)

    def test_resolved_exactly_when_the_gap_exceeds_the_base_iqr(self):
        lower = {"name": "wall_s", "better": "lower", "bound": 0.25}
        base = [8, 9, 10, 11, 12]  # median 10, IQR 2
        at = perf_ab.metric_row([(b, 12) for b in base], lower)
        self.assertEqual((at["iqr"], at["resolved"]), (2, False))
        above = perf_ab.metric_row([(b, 12.5) for b in base], lower)
        self.assertTrue(above["resolved"])
        below = perf_ab.metric_row([(b, 7.5) for b in base], lower)
        self.assertTrue(below["resolved"])

    def test_bound_verdicts(self):
        lower = {"name": "wall_s", "better": "lower", "bound": 0.25}
        self.assertTrue(perf_ab.metric_row([(10, 12.5)], lower)["within"])
        self.assertFalse(perf_ab.metric_row([(10, 12.6)], lower)["within"])
        self.assertTrue(perf_ab.metric_row([(10, 1)], lower)["within"])
        higher = {"name": "accesses_per_s", "better": "higher", "bound": 0.1}
        self.assertTrue(perf_ab.metric_row([(100, 90)], higher)["within"])
        self.assertFalse(perf_ab.metric_row([(100, 89)], higher)["within"])
        self.assertTrue(perf_ab.metric_row([(100, 500)], higher)["within"])


class ExitStatus(unittest.TestCase):
    BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]

    def test_clean_set_passes(self):
        change = [w * 1.02 for w in self.BASE]
        text, rc = perf_ab.report({1: {"w": pairs(self.BASE, change)}}, SPEC,
                                  lambda seed: "### seed %d" % seed)
        self.assertEqual(rc, 0, text)
        self.assertIn("match 0x00000000000000ab", text)
        self.assertIn("| w | wall_s |", text)
        self.assertNotIn("FAIL", text)

    def test_unresolved_loss_beyond_the_bound_passes(self):
        base = [1.0, 10.0, 20.0, 30.0, 40.0]  # IQR 20
        self.assertEqual(status({"w": pairs(base, [w + 15 for w in base])}), 0)

    def test_resolved_loss_beyond_the_bound_fails(self):
        self.assertEqual(status({"w": pairs(self.BASE,
                                            [w * 1.3 for w in self.BASE])}), 1)

    def test_resolved_loss_within_the_bound_passes(self):
        self.assertEqual(status({"w": pairs(self.BASE,
                                            [w * 1.2 for w in self.BASE])}), 0)

    def test_failed_run_fails(self):
        ps = pairs(self.BASE, self.BASE)
        ps[3] = (ps[3][0], perf_ab.parse_run(1, "perfbench: build failed\n"))
        self.assertEqual(status({"w": ps}), 1)
        ps[3] = (run(10.0, correct=False), ps[3][0])
        self.assertEqual(status({"w": ps}), 1)

    def failing(self, base_failed, change_failed, change_attempted=100):
        """Every base run fails base_failed of 100 ops; every change run
        fails change_failed of change_attempted."""
        ps = pairs(self.BASE, self.BASE, failed=change_failed,
                   attempted=change_attempted)
        for b, _ in ps:
            b["failed"] = base_failed
        return {"w": ps}

    def test_a_higher_share_of_failed_ops_on_the_change_side_fails(self):
        self.assertEqual(status(self.failing(1, 1)), 0)
        self.assertEqual(status(self.failing(1, 2)), 1)
        _, _, problems = perf_ab.summarize(self.failing(1, 2), SPEC)
        self.assertIn("change failed 20 of 1000 ops, base 10 of 1000",
                      problems[0])
        self.assertEqual(status(self.failing(0, 1, 1000)), 1)
        self.assertEqual(status(self.failing(2, 2, 50)), 1)

    def test_more_failed_ops_at_the_same_rate_passes(self):
        # A faster change attempts more ops in the same time.
        self.assertEqual(status(self.failing(1, 2, 200)), 0)
        self.assertEqual(status(self.failing(2, 1, 50)), 0)

    def test_fingerprint_mismatch_is_reported(self):
        ps = [(run(w), run(w, fp="0x00000000000000cd")) for w in self.BASE]
        text, _ = perf_ab.report({1: {"w": ps}}, SPEC, lambda seed: "")
        self.assertIn("DIFFER: base 0x00000000000000ab, change "
                      "0x00000000000000cd", text)


class CommandLine(unittest.TestCase):
    def test_any_argument_prints_the_usage(self):
        for argv in (["HEAD"], ["--help"], ["main~3"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                self.assertEqual(perf_ab.main(argv), 2)
            self.assertIn("python3 scripts/perf_ab.py\n", err.getvalue())


class ParseRun(unittest.TestCase):
    def test_fingerprint_line_and_last_line_json(self):
        r = perf_ab.parse_run(0, stdout(7.5, 1234.0, fp="0xb7bfb0a6b06417df"))
        self.assertTrue(r["ok"])
        self.assertEqual(r["fingerprint"], "0xb7bfb0a6b06417df")
        self.assertEqual(r["metrics"],
                         {"wall_s": 7.5, "accesses_per_s": 1234.0})
        self.assertEqual((r["failed"], r["attempted"]), (0, 100))

    def test_correct_false_or_nonzero_exit_is_not_ok(self):
        r = perf_ab.parse_run(1, stdout(7.5, 1.0, correct=False, failed=3))
        self.assertFalse(r["ok"])
        self.assertEqual(r["failed"], 3)
        self.assertFalse(perf_ab.parse_run(1, stdout(7.5, 1.0))["ok"])

    def test_missing_json_is_not_ok(self):
        r = perf_ab.parse_run(0, "sim_fingerprint 0x01\nno result\n")
        self.assertFalse(r["ok"])
        self.assertEqual(r["fingerprint"], "0x01")
        self.assertFalse(perf_ab.parse_run(0, "")["ok"])


if __name__ == "__main__":
    unittest.main()
