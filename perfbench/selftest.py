"""Self-tests of the benchmark: wrong results are counted, seeds behave.

    python3 perfbench/selftest.py

Deliberately wrong results (a rule that breaks the bound, a perturbed
cost, a raising layer, an output that changes between rounds) must be
counted as failed items, never crash the run and never pass.  A second
seed must give different inputs but the same pinned grid counts.  Times
are divided by the host factor, which weighs reference samples by work.
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run  # noqa: E402

tracing, workloads = run.import_program()

from ofal.engine import PriorityRule  # noqa: E402


def one_round(items):
    """Run every item once; returns the runner."""
    runner = run.Runner(items)
    runner.rounds(0, tracing.Tracer(enabled=False))
    return runner


def farthest_rule(layout):
    """Picks the farthest free server: breaks the 2*alpha+1 bound."""
    positions = layout.positions
    return PriorityRule("ptcp", lambda r, free: max(free, key=lambda j: abs(r - positions[j])))


def items_of(build, prefix, seed=1):
    return [item for item in build(seed) if item.id.startswith(prefix)]


class WrongResultsAreCounted(unittest.TestCase):
    def test_rule_that_violates_the_bound(self):
        items = items_of(workloads.build_sweep_small, "ratio")[:60]
        with mock.patch.object(workloads, "ptcp_rule", farthest_rule):
            runner = one_round(items)
        self.assertEqual(runner.attempted, len(items))
        self.assertGreater(runner.failed, 0)
        self.assertTrue(any("exceeds" in f for f in runner.failures), runner.failures)

    def test_perturbed_optimum(self):
        items = items_of(workloads.build_oracle_prefix, "flow-dp")
        real = workloads.noncrossing_dp_cost
        with mock.patch.object(workloads, "noncrossing_dp_cost", lambda i, s: real(i, s) + 1):
            runner = one_round(items)
        self.assertEqual(runner.failed, len(items))

    def test_perturbed_online_cost(self):
        items = items_of(workloads.build_online_large, "large")[:1]
        real = workloads.simulate

        def off_by_one(rule, inst, seq):
            trace = real(rule, inst, seq)
            return trace.__class__(
                trace.assignment, trace.remaining_after, trace.per_step_cost, trace.total_cost + 1
            )

        with mock.patch.object(workloads, "simulate", off_by_one):
            runner = one_round(items)
        self.assertEqual(runner.failed, 1)
        self.assertIn("distances sum to", runner.failures[0])

    def test_raising_layer(self):
        items = items_of(workloads.build_oracle_prefix, "alpha")

        def boom(layout):
            raise RuntimeError("boom")

        with mock.patch.object(workloads, "alpha_bruteforce", boom):
            runner = one_round(items)
        self.assertEqual(runner.failed, len(items))
        self.assertIn("RuntimeError: boom", runner.failures[0])

    def test_wrong_pinned_count(self):
        items = items_of(workloads.build_grid_exhaustive, "grid-k3")
        case = items[0]
        inst, points, n_max, nodes, worst = case.args
        wrong = workloads.Item(case.id, case.run, (inst, points, n_max, nodes + 1, worst))
        self.assertEqual(one_round([wrong]).failed, 1)

    def test_output_that_changes_between_rounds(self):
        outputs = iter(range(10))
        item = workloads.Item("flaky", lambda t: ([], str(next(outputs))), ())
        runner = run.Runner([item])
        tracer = tracing.Tracer(enabled=False)
        runner.rounds(0, tracer)
        runner.rounds(0, tracer)
        self.assertEqual((runner.attempted, runner.failed), (2, 1))


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first = run.input_digest(workload.build(1))
                self.assertEqual(first, run.input_digest(workload.build(1)))
                self.assertNotEqual(first, run.input_digest(workload.build(2)))

    def test_pinned_grid_counts_hold_for_every_seed(self):
        for seed in (1, 2):
            items = items_of(workloads.build_grid_exhaustive, "grid", seed)
            runner = one_round(items)
            self.assertEqual((runner.attempted, runner.failed), (2, 0), runner.failures)
        self.assertEqual([case[3] for case in workloads.GRID_CASES], [137257, 55987])
        self.assertEqual([case[4] for case in workloads.GRID_CASES], [Fraction(3), Fraction(4)])


class HostFactor(unittest.TestCase):
    def test_factor_weighs_samples_by_their_work(self):
        clock = hostspeed.HostClock()
        clock.samples = [(2 * hostspeed.NOMINAL_S, 1.0), (hostspeed.NOMINAL_S, 3.0)]
        self.assertAlmostEqual(clock.factor(), 1.25)

    def test_times_are_divided_by_the_factor(self):
        item = workloads.Item("sleep", lambda t: (time.sleep(0.01), ([], ""))[1], ())
        workload = workloads.WORKLOADS["online-large"]
        with mock.patch.object(hostspeed.HostClock, "factor", return_value=2.0):
            e2e, _ = run.end_to_end(run.Runner([item]), tracing, workload, 0, 1.0)
        self.assertLess(e2e["item_p50_ms"]["value"], 10.0 / 2 * 1.5)
        self.assertGreater(e2e["items_per_s"]["value"], 2 * 100 / 1.5)
        self.assertEqual(e2e["setup_s"]["value"], 0.5)


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        item = workloads.Item("noop", lambda t: ([], ""), ())
        workload = workloads.WORKLOADS["sweep-small"]
        e2e, _ = run.end_to_end(run.Runner([item]), tracing, workload, 0, 1.0)
        layers, _, _ = run.per_layer(run.Runner([item]), tracing, 0)
        for section, metrics in (("end_to_end", e2e), ("per_layer", layers)):
            self.assertEqual(
                {m["name"]: m["unit"] for m in spec[section]},
                {name: m["unit"] for name, m in metrics.items()},
            )


if __name__ == "__main__":
    unittest.main()
