"""Self-tests for the benchmark's helpers.  Run: python3 perfbench/selftest.py

The file name keeps pytest from collecting it with the package's tests.
"""

from __future__ import annotations

import random
import unittest

import common
import run
import tracing
import workloads


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(common.tail_percentile(10))
        self.assertEqual(common.tail_percentile(20), 50.0)
        self.assertEqual(common.tail_percentile(99), 50.0)
        self.assertEqual(common.tail_percentile(100), 90.0)
        self.assertEqual(common.tail_percentile(999), 90.0)
        self.assertEqual(common.tail_percentile(1000), 99.0)
        self.assertEqual(common.tail_percentile(10000), 99.9)

    def test_nearest_rank_leaves_ten_beyond_p90_of_100(self):
        values = list(range(1, 101))
        random.Random(3).shuffle(values)
        p90 = common.nearest_rank(values, 90)
        self.assertEqual(p90, 90)
        self.assertEqual(sum(v > p90 for v in values), 10)
        self.assertEqual(common.nearest_rank([5.0], 50), 5.0)

    def test_relative_spread(self):
        self.assertEqual(common.relative_spread([10.0] * 10), 0.0)
        self.assertGreater(common.relative_spread([8, 9, 10, 11, 12]), 0.0)


class Calibration(unittest.TestCase):
    def test_each_stretch_is_scaled_by_the_pass_that_ends_it(self):
        ref = common.REFERENCE_S
        speed = workloads.SpeedSampler(enabled=True)
        # passes at work seconds 0, 1 and 3; the second stretch ran while the yardstick took half as long
        speed.work, speed.samples = [0.0, 1.0, 3.0], [ref * 4, ref, ref / 2]
        self.assertAlmostEqual(speed.calibrated(0.0, 1.0), 1.0)
        self.assertAlmostEqual(speed.calibrated(1.0, 3.0), 4.0)
        self.assertAlmostEqual(speed.calibrated(0.5, 2.0), 0.5 + 2.0)
        self.assertAlmostEqual(speed.calibrated(0.0, 3.0), 5.0)

    def test_disabled_sampler_keeps_times(self):
        self.assertEqual(workloads.SpeedSampler(enabled=False).calibrated(1.25, 2.0), 0.75)

    def test_calibrated_uses_the_median_pass(self):
        ref = common.REFERENCE_S
        self.assertAlmostEqual(common.calibrated(2.0, [ref, ref * 2, ref * 9]), 1.0)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root 0..100 holds a 10..40 and b 50..90; a holds c 15..25
        spans = [(0, 100, -1), (10, 40, 0), (15, 25, 1), (50, 90, 0)]
        self.assertEqual(common.self_times(spans), [30, 20, 10, 40])

    def test_recorder_self_time_excludes_children(self):
        rec = tracing.Recorder()
        inner = rec.wrap("inner", lambda: sum(range(20000)))
        outer = rec.wrap("outer", lambda: [inner() for _ in range(3)])
        outer()
        totals = rec.totals()
        self.assertEqual(totals["inner"]["calls"], 3)
        self.assertEqual(totals["outer"]["calls"], 1)
        self.assertAlmostEqual(
            totals["outer"]["self_s"] + totals["inner"]["wall_s"], totals["outer"]["wall_s"], places=9
        )
        self.assertEqual(list(rec.parent), [-1, 0, 0, 0])

    def test_returned_generator_is_drained_inside_its_span(self):
        rec = tracing.Recorder()
        inner = rec.wrap("inner", lambda x: x)

        def gen():
            yield from (inner(i) for i in range(3))

        self.assertEqual(list(rec.wrap("outer", lambda: gen())()), [0, 1, 2])
        self.assertEqual(list(rec.parent), [-1, 0, 0, 0])


class Sampler(unittest.TestCase):
    def test_same_seed_same_words(self):
        a = common.sample_distinct_words(7, 3, 6, 50)
        self.assertEqual(a, common.sample_distinct_words(7, 3, 6, 50))
        self.assertNotEqual(a, common.sample_distinct_words(8, 3, 6, 50))
        self.assertEqual(len(set(a)), 50)
        self.assertTrue(all(common.is_lattice_word(w, 3, 6) for w in a))

    def test_uniform_over_small_rectangle(self):
        rng = random.Random(1)
        counts: dict[str, int] = {}
        for _ in range(4200):
            w = common.sample_word(rng, 3, 2)
            counts[w] = counts.get(w, 0) + 1
        self.assertEqual(sorted(counts), sorted(common.lattice_words((2, 2, 2))))
        self.assertTrue(all(600 < c < 1000 for c in counts.values()))  # 5 words, 840 each expected

    def test_symmetric_words(self):
        rng = random.Random(2)
        for rows, cols in ((3, 3), (3, 4), (2, 5)):
            w = common.sample_symmetric_word(rng, rows, cols)
            self.assertTrue(common.is_lattice_word(w, rows, cols))
            self.assertTrue(common.is_symmetric_word(w, rows))


class Counts(unittest.TestCase):
    def test_hook_length(self):
        self.assertEqual(common.hook_length_count((6, 6, 6)), 87516)
        self.assertEqual(common.hook_length_count((3, 2, 1)), 16)
        self.assertEqual(common.hook_length_count((5, 5, 5)), len(list(common.lattice_words((5, 5, 5)))))

    def test_sweep_instance_sets(self):
        spec = run.load_spec()["workloads"]
        for name in ("sweep-webs", "sweep-tableaux"):
            total = sum(run.instance_count(s["families"]) for s in spec[name]["suites"])
            self.assertEqual(total, spec[name]["instances"])
        self.assertEqual(spec["sweep-webs"]["instances"], 7246)
        self.assertEqual(spec["sweep-tableaux"]["instances"], 9145)

    def test_report_digest_ignores_elapsed(self):
        r = {"theorem": "t", "instances": 3, "passed": True, "failures": [], "elapsed": 1.0}
        self.assertEqual(common.report_digest(r), common.report_digest({**r, "elapsed": 2.5}))
        self.assertNotEqual(common.report_digest(r), common.report_digest({**r, "instances": 4}))


class Manifest(unittest.TestCase):
    def test_per_layer_metrics_are_the_traced_ones(self):
        listed = [(m["name"], m["unit"], m["better"]) for m in run.load_bench()["per_layer"]]
        self.assertEqual(listed, tracing.layer_metric_names())


if __name__ == "__main__":
    unittest.main()
