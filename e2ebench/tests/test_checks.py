#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks.

    python3 e2ebench/tests/test_checks.py            # unit tests only
    E2EBENCH_SLOW=1 python3 e2ebench/tests/test_checks.py

The unit tests exercise the checks on synthetic repetitions.  With
E2EBENCH_SLOW=1 the benchmark itself also runs (from the checkout root, so
it builds into .bench_build/ first) with each --inject fault: a non-zero
exit, a failed sweep cell, a summary mismatch and an event-digest
mismatch.  Each must fail exactly the injected repetition, lower ok_frac
below 1, and keep that repetition in the timing set.  The slow tests also
run the wrapper parity binary.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

CLI_OUTPUT = """scheduler:        paper-S(eps=0.500000)
jobs:             80881
completed:        18979
profit:           431382 / 2.93326e+06 (14.7066%)
busy proc-time:   362843
decisions:        438907
node preemptions: 0
"""


def rep(summary=("a",), digest=None, reason=""):
    return dict(summary=summary, digest=digest, reason=reason, wall_s=1.0)


class ClassifyTest(unittest.TestCase):
    def test_majority_is_the_reference(self):
        reps = run.classify([rep(), rep(("b",)), rep()])
        self.assertEqual([r["reason"] for r in reps], ["", "summary", ""])

    def test_traced_reference_wins_over_majority(self):
        reps = run.classify([rep(), rep(), rep(("b",))],
                            reference=(("b",), None))
        self.assertEqual([r["reason"] for r in reps],
                         ["summary", "summary", ""])

    def test_digest_mismatch(self):
        reps = run.classify([rep(digest="x"), rep(digest="y"),
                             rep(digest="x")])
        self.assertEqual([r["reason"] for r in reps], ["", "digest", ""])

    def test_earlier_failures_are_kept_and_do_not_vote(self):
        reps = run.classify([rep(("bad",), reason="exit"),
                             rep(("bad",), reason="exit"), rep()])
        self.assertEqual([r["reason"] for r in reps], ["exit", "exit", ""])


class SummaryTest(unittest.TestCase):
    def test_parse_run_summary(self):
        self.assertEqual(run.parse_run_summary(CLI_OUTPUT),
                         (80881, 18979, "431382", "2.93326e+06", "14.7066",
                          438907))

    def test_missing_line_is_no_summary(self):
        self.assertIsNone(run.parse_run_summary(
            CLI_OUTPUT.replace("decisions:", "decided:")))

    def test_validity(self):
        summary = run.parse_run_summary(CLI_OUTPUT)
        self.assertTrue(run.run_summary_valid(summary, 80881))
        self.assertFalse(run.run_summary_valid(summary, 80880))
        wrong_percent = summary[:4] + ("15.0",) + summary[5:]
        self.assertFalse(run.run_summary_valid(wrong_percent, 80881))

    def test_sweep_cell_checks(self):
        inputs = {"grid": dict(jobs=10), "profit": dict(jobs=5)}
        good = {"a": dict(ok=True, workload="grid", jobs=10, completed=3,
                          profit=1.0),
                "b": dict(ok=True, workload="profit", jobs=5, completed=5,
                          profit=2.0)}
        self.assertEqual(run.check_sweep(good, 0, inputs), "")
        self.assertEqual(run.check_sweep(good, 1, inputs), "cell")
        wrong_jobs = dict(good, b=dict(good["b"], jobs=6))
        self.assertEqual(run.check_sweep(wrong_jobs, 0, inputs), "invalid")


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_and_units_match_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


@unittest.skipUnless(os.environ.get("E2EBENCH_SLOW"), "set E2EBENCH_SLOW=1")
class InjectionTest(unittest.TestCase):
    def bench(self, workload, inject, trace=0):
        done = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace),
             "--inject", inject],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        detail = json.loads(
            (ROOT / ".bench_out" / workload / "result.json").read_text())
        return result, detail

    def check(self, workload, inject, reason):
        result, detail = self.bench(workload, inject)
        reps = detail["repetitions"]
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], len(reps))
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)
        self.assertEqual([r["reason"] for r in reps],
                         ["", reason] + [""] * (len(reps) - 2))
        self.assertEqual(reps[1]["injected"], inject)
        # The failed repetition stays in the timing set.
        walls = sorted(r["wall_s"] for r in reps)
        median = (walls[(len(walls) - 1) // 2] + walls[len(walls) // 2]) / 2
        self.assertAlmostEqual(result["metrics"]["wall_s"]["value"], median)

    def test_nonzero_exit(self):
        self.check("sim-edf-m64", "exit", "exit")

    def test_failed_sweep_cell(self):
        self.check("sweep-grid", "cell", "cell")

    def test_summary_mismatch(self):
        self.check("sim-edf-m64", "summary", "summary")

    def test_event_digest_mismatch(self):
        self.check("ingest-s-80k", "digest", "digest")

    def test_traced_parity_digest_mismatch(self):
        result, _ = self.bench("sim-edf-m64", "digest", trace=1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_wrapper_parity_binary(self):
        binary = ROOT / ".bench_build" / "e2ebench" / "e2ebench_wrapper_test"
        done = subprocess.run([str(binary)], capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)


if __name__ == "__main__":
    unittest.main()
