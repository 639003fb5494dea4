#!/usr/bin/env python3
"""Unit tests for `run.py compare` (stdlib unittest).

    python3 bench/pipeline/compare_test.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCH = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "time_s", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "auc", "unit": "auc", "better": "higher", "bound": 0.02},
    ],
}


def results(times, aucs, failed=0):
    runs = []
    for t, a in zip(times, aucs):
        runs.append({"seed": len(runs) + 1, "wall_s": 1.0, "result": {
            "correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"time_s": {"value": t, "unit": "s"},
                        "auc": {"value": a, "unit": "auc"}}}})
    return {"seconds": 15, "workers": 4, "traced": False,
            "workloads": {"w": {"wall_s": 1.0, "runs": runs}}}


def verdicts(base, new):
    return {row[1]: row[-1] for row in run.compare_sets(BENCH, base, new)}


STEADY_T = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
STEADY_A = [0.880, 0.881, 0.879, 0.880, 0.880, 0.881, 0.879, 0.880, 0.880,
            0.880]


class CompareTest(unittest.TestCase):
    def test_agreeing_sets_pass(self):
        base = results(STEADY_T, STEADY_A)
        new = results([t * 1.02 for t in STEADY_T], STEADY_A)
        self.assertEqual(verdicts(base, new),
                         {"time_s": "same", "auc": "same"})

    def test_worsening_beyond_bound_fails(self):
        base = results(STEADY_T, STEADY_A)
        slower = results([t * 1.25 for t in STEADY_T], STEADY_A)
        self.assertEqual(verdicts(base, slower)["time_s"], "regression")
        worse_auc = results(STEADY_T, [a - 0.05 for a in STEADY_A])
        self.assertEqual(verdicts(base, worse_auc)["auc"], "regression")

    def test_clear_improvement_is_better(self):
        base = results(STEADY_T, STEADY_A)
        faster = results([t * 0.7 for t in STEADY_T], STEADY_A)
        self.assertEqual(verdicts(base, faster)["time_s"], "better")

    def test_overlapping_wide_spreads_are_unresolved(self):
        noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
        base = results(noisy, STEADY_A)
        new = results([t * 1.15 for t in noisy], STEADY_A)
        self.assertEqual(verdicts(base, new)["time_s"], "unresolved")

    def test_wide_spread_with_every_run_worse_is_a_regression(self):
        noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
        base = results(noisy, STEADY_A)
        new = results([t * 3 for t in noisy], STEADY_A)
        self.assertEqual(verdicts(base, new)["time_s"], "regression")

    def test_failed_operations_are_a_regression(self):
        base = results(STEADY_T, STEADY_A)
        new = results(STEADY_T, STEADY_A, failed=1)
        self.assertEqual(verdicts(base, new)["failed"], "regression")

    def test_missing_metric_is_an_error(self):
        base = results(STEADY_T, STEADY_A)
        new = results(STEADY_T, STEADY_A)
        del new["workloads"]["w"]["runs"][3]["result"]["metrics"]["auc"]
        with self.assertRaises(ValueError):
            run.compare_sets(BENCH, base, new)
        del base["workloads"]["w"]
        with self.assertRaises(ValueError):
            run.compare_sets(BENCH, base, results(STEADY_T, STEADY_A))

    def test_different_settings_are_an_error(self):
        base = results(STEADY_T, STEADY_A)
        for key, value in (("seconds", 5), ("workers", 1), ("traced", True)):
            new = results(STEADY_T, STEADY_A)
            new[key] = value
            with self.assertRaises(ValueError):
                run.compare_sets(BENCH, base, new)

    def test_cli_exit_codes(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, data in (("bench", BENCH),
                               ("base", results(STEADY_T, STEADY_A)),
                               ("same", results(STEADY_T, STEADY_A)),
                               ("slow", results([t * 1.5 for t in STEADY_T],
                                                STEADY_A)),
                               ("bad", dict(results(STEADY_T, STEADY_A),
                                            workloads={}))):
                paths[name] = os.path.join(tmp, name + ".json")
                with open(paths[name], "w") as f:
                    json.dump(data, f)
            saved = run.BENCHMARK_JSON
            run.BENCHMARK_JSON = paths["bench"]
            quiet = io.StringIO()
            try:
                with contextlib.redirect_stdout(quiet), \
                        contextlib.redirect_stderr(quiet):
                    same = run.main(["compare", paths["base"], paths["same"]])
                    slow = run.main(["compare", paths["base"], paths["slow"]])
                    bad = run.main(["compare", paths["base"], paths["bad"]])
            finally:
                run.BENCHMARK_JSON = saved
        self.assertEqual((same, slow, bad), (0, 1, 2))


if __name__ == "__main__":
    unittest.main()
