"""Tests of the benchmark harness itself: wrong outputs must count as failed.

    PYTHONPATH=src python3 cgbbench/selfcheck.py

Feeds each workload's checks a deliberately wrong value, runs a round with
an operation that returns a wrong value and one that raises, and checks
the repeats of an operation, the rescaling to reference seconds and the
self-time arithmetic of the trace.  Takes about a second.
"""

from __future__ import annotations

import importlib
import unittest

import workloads as w
from calibrate import REFERENCE_S, reference_seconds
from tracing import Tracer, layer_value
from worker import Tally, run_round


def _workload(*operations: w.Operation) -> w.Workload:
    return w.Workload("fake", (), lambda r: {}, lambda ctx: {}, lambda ctx, seed: {}, operations)


class RoundCounting(unittest.TestCase):
    def test_wrong_value_is_counted_as_failed(self):
        def chi4(ctx, z):
            return w._chi_problems("Z", [z], 4, w.TOL_SWEEP)

        wrong = w.Operation("chi_s", lambda ctx: 3.9, chi4)
        right = w.Operation("ok_s", lambda ctx: 4.0, chi4)
        tally = Tally()
        times = run_round(_workload(wrong, right), {}, tally)
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (2, 1, 1))
        self.assertEqual(set(times), {"chi_s", "ok_s"})
        self.assertIn("chi_s", tally.problems[0])

    def test_raising_operation_is_failed_but_not_wrong(self):
        def boom(ctx):
            raise ValueError("metric not positive definite")

        tally = Tally()
        run_round(_workload(w.Operation("boom_s", boom, lambda ctx, out: [])), {}, tally)
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (1, 1, 0))

    def test_warm_up_round_skips_opted_out_operations(self):
        cold = w.Operation("cold_s", lambda ctx: 0, lambda ctx, out: [], warm_up=False)
        warm = w.Operation("warm_s", lambda ctx: 0, lambda ctx, out: [])
        self.assertEqual(set(run_round(_workload(cold, warm), {}, Tally(), warm_up=True)), {"warm_s"})

    def test_repeats_are_attempts_and_warm_up_runs_once(self):
        runs = []
        op = w.Operation("rep_s", lambda ctx: runs.append(1), lambda ctx, out: [], repeat=3)
        tally = Tally()
        times = run_round(_workload(op), {}, tally)
        self.assertEqual((tally.attempted, len(runs)), (3, 3))
        self.assertEqual(set(times["rep_s"]), {"wall_s", "ref_s"})
        run_round(_workload(op), {}, tally, warm_up=True)
        self.assertEqual(tally.attempted, 4)


class Calibration(unittest.TestCase):
    def test_reference_seconds_cancel_host_speed(self):
        self.assertAlmostEqual(reference_seconds(2.0, REFERENCE_S, REFERENCE_S), 2.0)
        # a host half as fast doubles both the wall time and the calibration
        self.assertAlmostEqual(reference_seconds(4.0, 2 * REFERENCE_S, 2 * REFERENCE_S), 2.0)
        self.assertAlmostEqual(reference_seconds(3.0, REFERENCE_S, 2 * REFERENCE_S), 2.0)


class CheckRejectsWrongValues(unittest.TestCase):
    def test_chi(self):
        self.assertEqual(w._chi_problems("Z", [2.0005], 2, w.TOL_SURFACE), [])
        self.assertTrue(w._chi_problems("Z", [2.002], 2, w.TOL_SURFACE))
        self.assertTrue(w._chi_problems("Z", [float("nan")], 2, w.TOL_SURFACE))
        self.assertTrue(w._sweep_check("S2 sweep", 2, w.LAMBDAS)({}, [2.0] * 4))  # a coupling missing

    def test_hopf(self):
        good = {
            "indices": {
                "s2/height": 2,
                "ellipsoid/height": 2,
                "torus/height": 0,
                "flat_t2/coscos": 0,
                "s2xs2/height_sum": 4,
            },
            "s2_signs": [1, 1],
            "torus_signs": [1, -1, -1, 1],
        }
        self.assertEqual(w._hopf_check({}, good), [])
        for key, value in (("torus_signs", [-1, 1, 1, -1]), ("s2_signs", [1, -1])):
            self.assertTrue(w._hopf_check({}, {**good, key: value}))
        self.assertTrue(w._hopf_check({}, {**good, "indices": {**good["indices"], "torus/height": 2}}))

    def test_pfaffian_routes(self):
        good = {"block": 0.0, "det": 1e-14, "cross": 1e-15}
        self.assertEqual(w._pfaffian_routes_check({}, good), [])
        self.assertTrue(w._pfaffian_routes_check({}, {**good, "cross": 1e-3}))

    def test_concordance(self):
        efts = importlib.import_module("cgb.efts")
        ctx = {"efts": efts, "sources": [None] * 50}
        x1_squared = efts.parse_polynomial("x1^2", 2, 1)
        good = {
            "round_trips": 50,
            "constant_feasible": False,
            "example_witness": x1_squared,
            "cartan": [True] * 4,
        }
        self.assertEqual(w._concordance_check(ctx, good), [])
        wrong_witness = efts.parse_polynomial("2*x1^2", 2, 1)
        wrong = (("round_trips", 49), ("constant_feasible", True), ("example_witness", wrong_witness))
        for key, value in wrong:
            self.assertTrue(w._concordance_check(ctx, {**good, key: value}), key)

    def test_cli_outputs(self):
        index_table = (
            "critical points of 'height' on torus:\n"
            "           torus        6.28318530716,6.28318530711    +1   9.22e-11            3\n"
            "           torus                    0,3.14159265359    -1   1.22e-16           -1\n"
            "           torus        3.14159265359,3.14159265359    -1   1.73e-16           -1\n"
            "           torus        3.14159265359,6.28318530718    +1   9.95e-16            3\n"
            "hopf index: 0   (chi = 0)\n"
        )
        self.assertEqual(w._cli_index_check({}, (0, index_table, "")), [])
        flipped = index_table.replace("    -1   1.22", "    +1   1.22")
        self.assertTrue(w._cli_index_check({}, (0, flipped, "")))
        self.assertTrue(w._cli_index_check({}, (1, index_table, "")))
        self.assertTrue(w._cli_pfaffian_check({}, (0, '{"chi_computed": 1.99}', "")))
        sweep = "# header\n0,1.99999999,0.0002,48x96\n1,1.9999,0.0002,48x96\n2,2.5,0.0002,51x101\n{}\n"
        self.assertTrue(w._cli_sweep_check({}, (0, sweep, "")))
        self.assertEqual(w._cli_efts_check({}, (0, "WITNESS: x1^2\n", "")), [])
        self.assertTrue(w._cli_efts_check({}, (0, "WITNESS: 2*x1^2\n", "")))


class TraceArithmetic(unittest.TestCase):
    def test_self_time_excludes_child_spans(self):
        tracer = Tracer()
        inner = tracer.wrap("grassmann.multiply", lambda: sum(range(20000)))
        outer = tracer.wrap("grassmann.exp_even", lambda: [inner() for _ in range(3)])
        outer()
        snap = tracer.snapshot()
        calls, total, own = snap["spans"]["grassmann.exp_even"]
        self.assertEqual(layer_value(snap, "grassmann.multiply_calls"), 3)
        self.assertAlmostEqual(own, total - snap["spans"]["grassmann.multiply"][1], places=12)
        self.assertEqual(snap["edges"]["grassmann.exp_even>grassmann.multiply"][0], 3)
        merged = Tracer()
        merged.merge(snap)
        merged.merge(snap)
        self.assertEqual(layer_value(merged.snapshot(), "grassmann.exp_even_calls"), 2)


if __name__ == "__main__":
    unittest.main()
