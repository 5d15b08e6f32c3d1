"""The benchmark's own test: a wrong answer must raise fail_frac.

    python3 perfbench/selfcheck.py

Runs one pass of each workload in this process, first against the
unmodified program (no job may fail), then with one cutlab function
patched to give a wrong answer (some job must fail, and the summary line
must report a nonzero fail_frac). Takes about half a minute. The file is
not named ``test_*.py`` so that the repository's test suite does not
collect it.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cutlab import cli, lp, solvers, ug  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def off_by_one_lp(original):
    def wrong(problem):
        value, solution = original(problem)
        return value + Fraction(1, 7), solution

    return wrong


def one_short_interdiction(original):
    def wrong(inst, budget, **kwargs):
        best, cut = original(inst, budget, **kwargs)
        return best + 1, cut

    return wrong


def trailing_space_json(original):
    def wrong(inst):
        return original(inst) + " "

    return wrong


def dropped_edge_compose(original):
    def wrong(*args, **kwargs):
        inst = original(*args, **kwargs)
        inst.graph.edges.pop()
        return inst

    return wrong


SABOTAGE = [
    ("multicut_gap", lp, "simplex_solve", off_by_one_lp),
    ("length_cover", solvers, "exact_interdiction", one_short_interdiction),
    ("build_verify", cli, "instance_to_json_str", trailing_space_json),
    ("build_verify", ug, "compose", dropped_edge_compose),
]


class WrongAnswersFail(unittest.TestCase):
    def one_pass(self, workload: str) -> tuple[int, int, list[str]]:
        (HERE / ".work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / ".work") as workdir:
            jobs = workloads.WORKLOADS[workload](3, workdir)
            failures: list[str] = []
            _, _, failed = worker.run_pass(jobs, failures)
        return len(jobs), failed, failures

    def test_clean_program_passes(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                _, failed, failures = self.one_pass(workload)
                self.assertEqual(failed, 0, failures)

    def test_wrong_answer_raises_fail_frac(self):
        for workload, module, name, make in SABOTAGE:
            with self.subTest(workload=workload, patched=name):
                with mock.patch.object(module, name, make(getattr(module, name))):
                    attempted, failed, _ = self.one_pass(workload)
                self.assertGreater(failed, 0)
                doc = {
                    "failed": failed,
                    "attempted": attempted,
                    "passes": [1.0],
                    "probes": [0.036],
                    "setups": [0.1],
                    "rss_kb": 1024,
                }
                line = run.summary_line(workload, doc, run.end_to_end(doc))
                self.assertNotIn("fail_frac 0.0000", line)


if __name__ == "__main__":
    unittest.main()
