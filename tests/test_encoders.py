import numpy as np
import pytest

from dwgan.encoders import ToyEncoder
from dwgan.tensor import Tensor


def rand_img(seed=0, h=32, w=32):
    return Tensor(np.random.default_rng(seed).uniform(0, 1, (1, 3, h, w)))


class TestStages:
    def test_pyramid_shapes(self):
        enc = ToyEncoder(channels=(4, 8, 16))
        feats = enc.stages(rand_img())
        assert [f.shape for f in feats] == [
            (1, 4, 16, 16), (1, 8, 8, 8), (1, 16, 4, 4)]

    def test_seed_determinism(self):
        x = rand_img(1)
        a = ToyEncoder(channels=(4, 8)).stages(x)
        b = ToyEncoder(channels=(4, 8)).stages(x)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.data, fb.data)

    def test_frozen_stages_receive_no_gradient(self):
        enc = ToyEncoder(channels=(4, 8))
        feats = enc.stages(rand_img(2))
        sum(f.sum() for f in feats).backward()
        assert all(w.grad is None for w in enc.weights)
        assert all(not w.requires_grad for w in enc.weights)


class TestWeights:
    def test_draws_are_the_fan_in_uniforms(self):
        # stage by stage from one generator seeded 0, within
        # sqrt(6 / (cin * 9))
        rng = np.random.default_rng(0)
        enc = ToyEncoder(channels=(4, 8))
        for w, (cout, cin) in zip(enc.weights, ((4, 3), (8, 4))):
            bound = np.sqrt(6.0 / (cin * 9))
            want = rng.uniform(-bound, bound, size=(cout, cin, 3, 3))
            np.testing.assert_array_equal(w.data, want)

    def test_absurd_undrawn_width_is_a_value_error(self):
        with pytest.raises(ValueError, match="too large"):
            ToyEncoder(channels=(4, 2 ** 40, 2 ** 40), draw=False)
