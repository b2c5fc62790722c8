"""Quick self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Covers the percentile and sample-count logic, the op clock, inputs that
are deterministic per seed, and a tracer that restores every binding it
replaced.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from stats import OpClock, beyond, percentile, spread  # noqa: E402


class FakeClock:
    def __init__(self, step: float):
        self.now, self.step = 0.0, step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class StatsTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(percentile(values, 90), 90)
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 100), 100)
        self.assertEqual(percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(beyond(100, 90), 10)
        self.assertEqual(beyond(99, 90), 9)
        self.assertEqual(beyond(112, 90), 11)
        self.assertEqual(beyond(0, 90), 0)
        # p90 of >= 100 samples leaves at least 10 above it
        for n in range(100, 300):
            self.assertGreaterEqual(beyond(n, 90), 10)

    def test_spread(self):
        self.assertAlmostEqual(spread([1.0] * 9 + [2.0]), 0.0)
        self.assertAlmostEqual(spread([9, 10, 11, 10, 10]), 0.1)

    def test_clock_stops_on_time_and_keeps_min_ops(self):
        clock = OpClock(seconds=1.0, clock=FakeClock(0.1))
        while clock.start():
            clock.end()
        self.assertEqual(clock.ops, 4)
        self.assertTrue(all(abs(t - 100.0) < 1e-6 for t in clock.times_ms))
        slow = OpClock(seconds=0.01, min_ops=3, clock=FakeClock(1.0))
        while slow.start():
            slow.end()
        self.assertEqual(slow.ops, 3)

    def test_probe_and_max_ops(self):
        probe = OpClock(probe=True, clock=FakeClock(0.5))
        self.assertFalse(probe.start())
        self.assertEqual((probe.ops, probe.first_start), (0, 0.5))
        capped = OpClock(max_ops=2, clock=FakeClock(0.1))
        while capped.start():
            capped.end()
        self.assertEqual(capped.ops, 2)


class InputsTest(unittest.TestCase):
    def test_train_inputs_follow_the_seed(self):
        a, b, c = (workloads.TrainGate() for _ in range(3))
        for wl, seed in ((a, 5), (b, 5), (c, 6)):
            wl.setup(seed, Path("."))
        same = all(np.array_equal(p.hazy, q.hazy)
                   for p, q in zip(a.data, b.data))
        self.assertTrue(same)
        self.assertFalse(np.array_equal(a.data[0].hazy, c.data[0].hazy))
        self.assertTrue(np.array_equal(a.gen.fusion.weight.data,
                                       b.gen.fusion.weight.data))

    def test_dehaze_inputs_follow_the_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            files = []
            for i, seed in enumerate((5, 5, 6)):
                d = workloads.fresh_dir(Path(tmp) / str(i))
                workloads.Dehaze().setup(seed, d)
                files.append({p.relative_to(d): p.read_bytes()
                              for p in sorted(d.rglob("*")) if p.is_file()})
            self.assertEqual(files[0], files[1])
            self.assertNotEqual(files[0], files[2])

    def test_synth_op_replays(self):
        scores = []
        with tempfile.TemporaryDirectory() as tmp:
            for seed in (5, 5, 6):
                wl = workloads.SynthScore()
                wl.setup(seed, Path(tmp))
                clock = OpClock(max_ops=1)
                wl.run(clock)
                self.assertEqual(clock.failures, [])
                scores.append(wl.scores[0])
        self.assertEqual(scores[0], scores[1])
        self.assertNotEqual(scores[0], scores[2])

    def test_p6_reader(self):
        from dwgan import datatool

        img = np.random.default_rng(0).uniform(size=(3, 5, 7))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.ppm"
            datatool.write_image(path, img)
            w, h, payload = workloads.read_p6(path)
        self.assertEqual((w, h, len(payload)), (7, 5, 105))


class TracerTest(unittest.TestCase):
    def bindings(self):
        import dwgan.model as model
        import dwgan.tensor as tensor

        snap = {}
        for name, mod in sys.modules.items():
            if name == "dwgan" or name.startswith("dwgan."):
                snap.update({(name, k): v for k, v in vars(mod).items()})
        for cls in (tensor.Tensor, model.Generator, model.DwtBranch,
                    model.KaBranch, model.Discriminator):
            snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
        return snap

    def test_wraps_every_binding_and_restores_it(self):
        import dwgan.encoders as encoders
        import dwgan.metrics as metrics
        import dwgan.model as model
        import dwgan.tensor as tensor
        from dwgan.model import Generator, ModelConfig

        before = self.bindings()
        orig_conv = tensor.conv2d
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertEqual(tr.missing, [])
            for mod in (tensor, model, encoders, metrics):
                self.assertIsNot(mod.conv2d, orig_conv, mod.__name__)
            tr.op = 0
            gen = Generator(ModelConfig(base_channels=4, depth=1,
                                        encoder_channels=(4, 4, 4)), seed=0)
            x = tensor.Tensor(np.full((1, 3, 16, 16), 0.5))
            gen(x).mean().backward()
            tr.op = None
        finally:
            tr.uninstall()
        self.assertEqual(self.bindings(), before)
        names = {span[0] for span in tr.spans}
        self.assertIn("tensor.conv2d.k7s1.fwd", names)
        self.assertIn("tensor.conv2d.k7s1.bwd", names)
        self.assertIn("model.generator", names)
        self.assertGreater(tr.counts["tensor.graph_nodes"], 0)
        table = tr.table()
        gen_row = table["model.generator"]
        self.assertLess(gen_row["self_s"], gen_row["incl_s"])
        layers = tracing.per_layer(tr, 1)
        self.assertEqual(layers["tensor.conv2d.k7s1.calls"][0], 1.0)
        self.assertGreater(layers["tensor.backward_ms"][0],
                           layers["tensor.graph_walk_ms"][0])
        # spans recorded after uninstall would mean a binding survived
        n = len(tr.spans)
        gen(x).mean().backward()
        self.assertEqual(len(tr.spans), n)

    def test_conv_kind_names(self):
        self.assertEqual(tracing.conv_kind((3, 32, 7, 7), 1), "k7s1")
        self.assertEqual(tracing.conv_kind((1, 1, 11, 1), 1), "k11x1")
        self.assertEqual(tracing.conv_kind((1, 1, 1, 11), 1), "k1x11")
        self.assertEqual(tracing.conv_kind((8, 4, 4, 4), 2), "k4s2")
        self.assertEqual(tracing.im2col_bytes((2, 3, 8, 8), (4, 3, 3, 3), 1, 1),
                         2 * 8 * 8 * 27 * 8)


if __name__ == "__main__":
    unittest.main()
