"""Tests of the benchmark's own arithmetic.

    python3 perfbench/test_metrics.py [--quiet]

--quiet prints nothing unless a test fails (the form the repo's test
suite runs).
"""

import io
import math
import os
import sys
import time
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as M  # noqa: E402
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(M.percentile(xs, 50), 50)
        self.assertEqual(M.percentile(xs, 99), 99)
        self.assertEqual(M.percentile(xs, 100), 100)
        self.assertEqual(M.percentile([7], 99), 7)
        self.assertEqual(M.percentile([3, 1, 2], 50), 2)

    def test_failures_miss_every_limit(self):
        xs = [0.001] * 99 + [math.inf]
        self.assertEqual(M.percentile(xs, 99), 0.001)
        self.assertEqual(M.percentile(xs, 100), math.inf)

    def test_tail_has_ten_samples_beyond(self):
        # 1000 samples: exactly 10 lie beyond p99.
        self.assertEqual(M.tail(list(range(1000))), (99.0, 989, 1000))
        # 999 samples leave only 9 beyond p99, so the tail falls to p95.
        p, _, n = M.tail(list(range(999)))
        self.assertEqual((p, n), (95.0, 999))
        self.assertEqual(M.tail(list(range(10000)))[0], 99.9)
        self.assertEqual(M.tail(list(range(20)))[0], 50.0)
        self.assertIsNone(M.tail(list(range(15))))
        for n in (20, 57, 999, 1000, 4321):
            p, _, _ = M.tail(list(range(n)))
            self.assertGreaterEqual(M.beyond(n, p), 10)


class Cpu(unittest.TestCase):
    def test_parse_proc_stat(self):
        # The command name may hold spaces and parentheses.
        fields = ["S"] + [str(i) for i in range(4, 14)] + ["1234", "567"] + ["0"] * 30
        text = "4242 (a (weird) name) " + " ".join(fields) + "\n"
        self.assertEqual(M.parse_proc_stat(text), (1234, 567))

    def test_parse_schedstat(self):
        self.assertEqual(M.parse_schedstat("2961394 14784 6\n"), 2961394)

    def test_parse_host_cpu(self):
        text = "cpu  100 5 20 1000 7 0 3 40 0 0\ncpu0 50 2 10 500 3 0 1 20 0 0\n"
        self.assertEqual(M.parse_host_cpu(text), (100 + 5 + 20 + 3 + 40, 40))
        self.assertEqual(M.parse_host_cpu("cpu  10 0 5 100 0 0 0\n"), (15, 0))

    def test_cpu_per_op_from_proc(self):
        # Spin until /proc shows this process's CPU time advancing: on a
        # loaded machine that takes longer in wall time, never less CPU.
        before = M.cpu_seconds(os.getpid())
        after = before
        give_up = time.monotonic() + 60
        while after - before < 0.05 and time.monotonic() < give_up:
            after = M.cpu_seconds(os.getpid())
        self.assertGreaterEqual(after - before, 0.05)
        self.assertAlmostEqual(M.per_op(after - before, 0), 0.0)
        self.assertAlmostEqual(M.per_op(3.0, 4), 0.75)

    def test_peak_rss(self):
        self.assertGreater(M.peak_rss_kb(os.getpid()), 0)


class Stages(unittest.TestCase):
    def test_stage_sum_ratio(self):
        stages = {"a": [0.001, 0.002, 0.003], "b": [0.010, 0.010, 0.011]}
        self.assertAlmostEqual(M.stage_sum_ratio(stages, 0.012), 1.0)
        self.assertAlmostEqual(M.stage_sum_ratio(stages, 0.024), 0.5)
        self.assertEqual(M.stage_sum_ratio(stages, 0.0), 0.0)

    def test_self_times(self):
        spans = [
            {"id": 0, "parent": -1, "t0": 0.0, "t1": 10.0},
            {"id": 1, "parent": 0, "t0": 1.0, "t1": 3.0},
            {"id": 2, "parent": 0, "t0": 2.0, "t1": 5.0},  # overlaps span 1
            {"id": 3, "parent": 0, "t0": 8.0, "t1": 12.0},  # runs past its parent
            {"id": 4, "parent": 1, "t0": 1.5, "t1": 2.5},
        ]
        st = M.self_times(spans)
        self.assertAlmostEqual(st[0], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(st[1], 1.0)
        self.assertAlmostEqual(st[4], 1.0)


class Failures(unittest.TestCase):
    def test_failed_ratio(self):
        self.assertEqual(M.failed_ratio(["ok", "timeout", "ok", "ok"]), (0.25, 4, 1))
        self.assertEqual(M.failed_ratio([]), (0.0, 0, 0))
        lat = M.latencies_with_failures([("ok", 0.002), ("timeout", 0.0), ("ok", 0.003)])
        self.assertEqual(lat, [0.002, math.inf, 0.003])

    def test_missing_delivery_is_a_timeout(self):
        # Two subscribers, three epochs due in the window; client 1 never
        # delivered epoch 12 and rejected epoch 11.
        ticks = [[10, 100.0, 100.0, 100.001], [11, 100.02, 100.02, 100.021],
                 [12, 100.04, 100.04, 100.041], [13, 100.06, 100.06, 100.061]]
        clients = {0: {"role": "subscriber"}, 1: {"role": "subscriber"}}
        deliver = {0: [[10, 100.005, True, "d"], [11, 100.025, True, "d"],
                       [12, 100.045, True, "d"]],
                   1: [[10, 100.006, True, "d"], [11, 100.026, False, "d"]]}
        w = {"t0": 99.99, "t1": 100.05}
        ops = run.window_ops("live", w, ticks, clients, deliver, {})
        ratio, attempted, failed = M.failed_ratio(ops["outcomes"])
        self.assertEqual((attempted, failed), (6, 2))
        self.assertEqual(ops["epochs"], 3)
        self.assertEqual(ops["ops_ok"], 1)
        self.assertEqual(sum(1 for x in ops["latency_s"] if x == math.inf), 2)
        self.assertEqual(M.percentile(ops["latency_s"], 99), math.inf)

    def test_lookup_outcomes(self):
        # [epoch, query written, reply decoded, status, digest]
        lookups = {0: [[5, 1.0, 1.002, "ok", "d"], [6, 1.01, 1.013, "timeout", ""],
                       [7, 1.02, 1.022, "miss", "d"], [8, 9.0, 9.002, "ok", "d"]]}
        clients = {0: {"role": "walker"}}
        ops = run.window_ops("catchup", {"t0": 0.5, "t1": 2.0}, [], clients, {}, lookups)
        self.assertEqual(M.failed_ratio(ops["outcomes"]), (2 / 3, 3, 2))
        self.assertAlmostEqual(M.percentile(ops["latency_s"], 30), 0.002)
        self.assertEqual(M.percentile(ops["latency_s"], 50), math.inf)


def main():
    quiet = "--quiet" in sys.argv
    stream = io.StringIO() if quiet else sys.stderr
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(stream=stream, verbosity=0 if quiet else 1).run(suite)
    if not result.wasSuccessful():
        if quiet:
            sys.stderr.write(stream.getvalue())
        sys.exit(1)


if __name__ == "__main__":
    main()
