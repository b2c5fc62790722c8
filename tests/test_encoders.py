import numpy as np

from dwgan.encoders import ToyEncoder
from dwgan.tensor import Tensor


def rand_img(seed=0, h=32, w=32):
    return Tensor(np.random.default_rng(seed).uniform(0, 1, (1, 3, h, w)))


class TestStages:
    def test_pyramid_shapes(self):
        enc = ToyEncoder(channels=(4, 8, 16), seed=0)
        feats = enc.stages(rand_img())
        assert [f.shape for f in feats] == [
            (1, 4, 16, 16), (1, 8, 8, 8), (1, 16, 4, 4)]

    def test_seed_determinism(self):
        x = rand_img(1)
        a = ToyEncoder(channels=(4, 8), seed=3).stages(x)
        b = ToyEncoder(channels=(4, 8), seed=3).stages(x)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.data, fb.data)

    def test_seeds_differ(self):
        x = rand_img(1)
        a = ToyEncoder(channels=(4,), seed=3).stages(x)[0]
        b = ToyEncoder(channels=(4,), seed=4).stages(x)[0]
        assert np.any(a.data != b.data)

    def test_frozen_stages_receive_no_gradient(self):
        enc = ToyEncoder(channels=(4, 8), seed=0, trainable=False)
        feats = enc.stages(rand_img(2))
        sum(f.sum() for f in feats).backward()
        assert all(w.grad is None for w in enc.weights)
        assert list(enc.named_parameters()) != [] \
            and all(not w.requires_grad for w in enc.weights)

    def test_trainable_stages_receive_gradient(self):
        enc = ToyEncoder(channels=(4, 8), seed=0, trainable=True)
        feats = enc.stages(rand_img(2))
        sum(f.sum() for f in feats).backward()
        assert all(w.grad is not None and np.any(w.grad)
                   for w in enc.weights)


class TestWeightsIo:
    def test_named_parameters_layout(self):
        names = [n for n, _ in
                 ToyEncoder(channels=(4, 8), seed=0).named_parameters("e")]
        assert names == ["e.stage0.weight", "e.stage1.weight"]
