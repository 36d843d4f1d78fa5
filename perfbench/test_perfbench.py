"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import sys
import types
import unittest
from pathlib import Path

import run
import tracer as tr
import workloads as wl

sys.path.insert(0, str(run.SRC))


class TailRuleTest(unittest.TestCase):
    def test_at_least_ten_distinct_instances_beyond(self):
        for n in range(20, 3000, 7):
            p = run.tail_percentile(n)
            self.assertGreaterEqual(n - run.nearest_rank(n, p), 10, n)
            for q in run.TAIL_LADDER:  # every higher percentile leaves fewer
                if q > p:
                    self.assertLess(n - run.nearest_rank(n, q), 10, (n, q))

    def test_ladder_thresholds(self):
        self.assertEqual(run.tail_percentile(19), 500)  # none qualifies: median
        self.assertEqual(run.tail_percentile(20), 500)
        self.assertEqual(run.tail_percentile(25), 600)
        self.assertEqual(run.tail_percentile(36), 700)
        self.assertEqual(run.tail_percentile(40), 750)
        self.assertEqual(run.tail_percentile(50), 800)
        self.assertEqual(run.tail_percentile(99), 800)
        self.assertEqual(run.tail_percentile(100), 900)
        self.assertEqual(run.tail_percentile(200), 950)
        self.assertEqual(run.tail_percentile(999), 950)
        self.assertEqual(run.tail_percentile(1000), 990)
        self.assertEqual(run.tail_percentile(10000), 999)

    def test_repeated_passes_keep_the_percentile(self):
        # the percentile is fixed by the distinct instances; more passes
        # only add samples at the same rank
        self.assertEqual(run.nearest_rank(3 * 40, 750), 3 * run.nearest_rank(40, 750))


class DistinctUniverseTest(unittest.TestCase):
    def workload(self, size):
        # an instance generator that repeats itself every third index
        make = lambda gk, seed: (str(seed % 3), ())  # noqa: E731
        return wl.Workload("fake", (wl.Stratum("s", size, make, None),))

    def test_repeated_instances_are_skipped(self):
        real_seed = wl.universe_seed
        wl.universe_seed = lambda workload, stratum, index: index
        try:
            instances = run.generate(None, self.workload(3), Path("."))
            self.assertEqual(sorted(i.text for i in instances.values()), ["0", "1", "2"])
            with self.assertRaises(run.SetupError):
                run.generate(None, self.workload(4), Path("."))
        finally:
            wl.universe_seed = real_seed


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # [name, start, end, parent, instance]
        spans = [
            [0, 0.0, 10.0, -1, 0],  # root
            [1, 1.0, 3.0, 0, 0],  # child
            [1, 2.0, 5.0, 0, 0],  # overlapping child: union [1, 5]
            [2, 2.5, 2.75, 2, 0],  # grandchild: not the root's direct child
            [1, 6.0, 7.0, 0, 0],
            [3, 9.5, 12.0, 0, 0],  # overruns the parent: clipped to [9.5, 10]
        ]
        self.assertEqual(tr.self_times(spans), [10 - 4 - 1 - 0.5, 2.0, 3.0 - 0.25, 0.25, 1.0, 2.5])

    def test_sequential_children(self):
        spans = [[0, 0.0, 4.0, -1, 0], [1, 0.0, 1.0, 0, 0], [1, 1.0, 2.0, 0, 0]]
        self.assertEqual(tr.self_times(spans)[0], 2.0)


def _fake_package():
    mod = types.ModuleType("fakepkg.layer")

    def identity(x):
        return x

    def boom(exc):
        raise exc

    def outer(x):
        return mod.identity(x)

    for f in (identity, boom, outer):
        f.__module__ = mod.__name__
        f.__qualname__ = f.__name__
        setattr(mod, f.__name__, f)
    return mod


class WrapperTest(unittest.TestCase):
    def setUp(self):
        self.mod = _fake_package()
        self.originals = dict(vars(self.mod))
        self.tracer = tr.Tracer(package="fakepkg")
        self.tracer.install([self.mod])

    def tearDown(self):
        self.tracer.uninstall()

    def test_return_value_passes_through(self):
        obj = object()
        self.assertIs(self.mod.identity(obj), obj)
        self.assertIs(self.mod.outer(obj), obj)
        names = [self.tracer.names[s[0]] for s in self.tracer.spans]
        self.assertEqual(names, ["layer.identity", "layer.outer", "layer.identity"])
        self.assertEqual(self.tracer.spans[2][3], 1)  # parent is the outer span

    def test_exception_passes_through(self):
        exc = KeyError("x")
        with self.assertRaises(KeyError) as ctx:
            self.mod.boom(exc)
        self.assertIs(ctx.exception, exc)
        span = self.tracer.spans[-1]
        self.assertGreaterEqual(span[2], span[1])  # the span was closed
        self.assertEqual(self.tracer.stack, [])

    def test_uninstall_restores_originals(self):
        self.tracer.uninstall()
        self.assertEqual(dict(vars(self.mod)), self.originals)


class GhkitTest(unittest.TestCase):
    """Runs a few real instances; needs the ghkit sources under src/."""

    @classmethod
    def setUpClass(cls):
        cls.gk = run.import_ghkit()
        cls.workload = wl.WORKLOADS["cut-oracles"]
        cls.instances = run.generate(cls.gk, cls.workload, Path("."))
        cls.wants = run.load_expected(cls.workload, cls.instances)
        cls.key = ("gh-oracle", 0)

    def test_recorded_answer_passes(self):
        inst = self.instances[self.key]
        _, why = run.check_instance(self.gk, self.workload, inst, self.wants[self.key])
        self.assertIsNone(why)

    def test_wrong_answer_counts_as_failure(self):
        wants = dict(self.wants)
        wants[self.key] = "0" * 16  # a recorded answer the program does not give
        _, _, failures = run.run_keys(self.gk, self.workload, self.instances, wants, [self.key])
        self.assertEqual(len(failures), 1)
        self.assertIn("differs from the recorded answer", failures[0]["reason"])

    def test_oracle_disagreement_counts_as_failure(self):
        original = self.gk.maxflow.brute_min_cut

        def wrong(g, s, t, bound=16):
            cut = original(g, s, t, bound)
            return type(cut)(cut.shore, cut.capacity + 1, cut.central)

        self.gk.maxflow.brute_min_cut = wrong
        try:
            _, _, failures = run.run_keys(
                self.gk, self.workload, self.instances, self.wants, [self.key]
            )
        finally:
            self.gk.maxflow.brute_min_cut = original
        self.assertEqual(len(failures), 1)
        self.assertIn("tree/brute mismatch", failures[0]["reason"])

    def test_traced_answers_and_counts_repeat(self):
        keys = [("gh-oracle", 1), ("reduction", 1), ("interaction", 1)]
        plain = run.run_keys(self.gk, self.workload, self.instances, self.wants, keys)
        counts = []
        for _ in range(2):
            t = tr.Tracer()
            t.install()
            try:
                traced = run.run_keys(self.gk, self.workload, self.instances, self.wants, keys)
            finally:
                t.uninstall()
            self.assertEqual(traced[1], plain[1])
            self.assertEqual(traced[2], [])
            derived = tr.derive(t, len(keys), 1.0)
            counts.append({k: v for k, v in derived.items() if not k.endswith("self_s")})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["maxflow.brute_min_cut.calls"], 0)
        self.assertGreater(counts[0]["capacity.cap_allocs"], 0)


if __name__ == "__main__":
    unittest.main()
