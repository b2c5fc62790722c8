import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dwgan
from dwgan.encoders import ToyEncoder
from dwgan.losses import (PROB_EPS, LossWeights, adversarial_gen,
                          discriminator_loss, encoder, ms_ssim_loss,
                          perceptual, smooth_l1, total_loss)
from dwgan.tensor import ShapeError, Tensor, grad_check, sigmoid


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def img_pair(seed, h=16, w=16, b=1):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, (b, 3, h, w))
    bb = np.clip(a + rng.uniform(-0.2, 0.2, a.shape), 0, 1)
    return Tensor(a), Tensor(bb)


class TestSmoothL1:
    def test_zero_for_identical(self):
        a, _ = img_pair(0)
        assert smooth_l1(a, a).item() == 0.0

    def test_quadratic_branch(self):
        pred = Tensor(np.full((1, 3, 2, 2), 0.5))
        tgt = Tensor(np.zeros((1, 3, 2, 2)))
        assert smooth_l1(pred, tgt).item() == pytest.approx(0.125, abs=1e-15)

    def test_linear_branch(self):
        pred = Tensor(np.full((1, 3, 2, 2), 2.0))
        tgt = Tensor(np.zeros((1, 3, 2, 2)))
        assert smooth_l1(pred, tgt).item() == pytest.approx(1.5, abs=1e-15)

    def test_knot_continuity(self):
        # both branches give 0.5 at |e| = 1
        tgt = Tensor(np.zeros((1, 3, 1, 1)))
        at = smooth_l1(Tensor(np.full((1, 3, 1, 1), 1.0)), tgt).item()
        assert at == pytest.approx(0.5, abs=1e-15)
        h = 1e-7
        below = smooth_l1(Tensor(np.full((1, 3, 1, 1), 1.0 - h)), tgt).item()
        above = smooth_l1(Tensor(np.full((1, 3, 1, 1), 1.0 + h)), tgt).item()
        assert abs(above - below) < 3 * h

    def test_normalization_over_3n(self):
        # loss is the mean over all B*3*H*W per-element penalties
        pred = Tensor(np.zeros((2, 3, 4, 4)))
        tgt_data = np.zeros((2, 3, 4, 4))
        tgt_data[0, 0, 0, 0] = 2.0
        expected = (2.0 - 0.5) / (2 * 3 * 4 * 4)
        assert smooth_l1(pred, Tensor(tgt_data)).item() == pytest.approx(
            expected, abs=1e-15)

    def test_requires_rgb(self):
        with pytest.raises(ShapeError):
            smooth_l1(Tensor(rand((1, 1, 4, 4))), Tensor(rand((1, 1, 4, 4))))

    def test_gradient(self):
        tgt = Tensor(rand((1, 3, 4, 4), seed=1))
        x = Tensor(rand((1, 3, 4, 4), seed=2) * 2.0)
        rep = grad_check(lambda t: smooth_l1(t, tgt), x, tol=1e-4)
        assert rep.passed, rep.max_rel_err


class TestPerceptual:
    def test_zero_for_identical(self):
        a, _ = img_pair(3)
        assert perceptual(a, a).item() == pytest.approx(0.0, abs=1e-20)

    def test_no_gradient_to_target(self):
        a, b = img_pair(5)
        b.requires_grad = True
        perceptual(a, b).backward()
        assert b.grad is None or not np.any(b.grad)

    def test_sums_every_stage(self):
        # the per-stage mean squared feature distances of the frozen
        # 16/32/64-channel encoder, summed by hand
        a, b = img_pair(6)
        assert encoder().channels == (16, 32, 64)
        want = sum(float(((fa.data - fb.data) ** 2).mean())
                   for fa, fb in zip(encoder().stages(a), encoder().stages(b)))
        assert want > 0
        assert perceptual(a, b).item() == pytest.approx(want, rel=1e-14)

    def test_encoder_is_drawn_once_from_seed_0(self):
        assert encoder() is encoder()
        fresh = ToyEncoder((16, 32, 64))
        assert len(encoder().weights) == 3
        for w, want in zip(encoder().weights, fresh.weights):
            np.testing.assert_array_equal(w.data, want.data)

    def test_importing_the_cli_draws_no_encoder(self):
        # a fresh interpreter, since this one has drawn it already
        code = ("import dwgan.cli, dwgan.losses; "
                "print(dwgan.losses.encoder.cache_info().currsize)")
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
            env={**os.environ,
                 "PYTHONPATH": str(Path(dwgan.__file__).parents[1])})
        assert run.stdout.strip() == "0"

    def test_gradient(self):
        a, b = img_pair(7, h=8, w=8)
        rep = grad_check(lambda t: perceptual(t, b), a, tol=1e-3)
        assert rep.passed, rep.max_rel_err


class TestMsSsimLoss:
    def test_zero_for_identical(self):
        a, _ = img_pair(8, 32, 32)
        assert ms_ssim_loss(a, a, 1).item() == pytest.approx(0.0, abs=1e-15)

    def test_positive_for_different(self):
        a, b = img_pair(9, 32, 32)
        assert ms_ssim_loss(a, b, 1).item() > 0

    def test_gradient(self):
        a, b = img_pair(10, 16, 16)
        rep = grad_check(lambda t: ms_ssim_loss(t, b, 1), a, tol=1e-3)
        assert rep.passed, rep.max_rel_err


class TestAdversarial:
    def test_half_probability(self):
        d = Tensor(np.full(4, 0.5))
        assert adversarial_gen(d).item() == pytest.approx(4 * np.log(2),
                                                          abs=1e-12)

    def test_patch_map_averaged_per_sample(self):
        # per-sample mean of the 2x2 patch map is 0.5, so same as above
        d = Tensor(np.stack([np.full((1, 2, 2), 0.5),
                             np.array([[[0.2, 0.8], [0.4, 0.6]]])]))
        assert adversarial_gen(d).item() == pytest.approx(2 * np.log(2),
                                                          abs=1e-12)

    def test_clamp_keeps_finite(self):
        val = adversarial_gen(Tensor(np.zeros(2))).item()
        assert val == pytest.approx(-2 * np.log(PROB_EPS), abs=1e-9)

    def test_discriminator_loss_analytic(self):
        d_real = Tensor(np.full(3, 0.9))
        d_fake = Tensor(np.full(3, 0.1))
        expected = -2 * np.log(0.9)
        assert discriminator_loss(d_real, d_fake).item() == pytest.approx(
            expected, abs=1e-12)

    def test_discriminator_loss_minimum_at_confident(self):
        good = discriminator_loss(Tensor(np.full(2, 0.99)),
                                  Tensor(np.full(2, 0.01)))
        bad = discriminator_loss(Tensor(np.full(2, 0.5)),
                                 Tensor(np.full(2, 0.5)))
        assert good.item() < bad.item()

    def test_gen_gradient_through_sigmoid(self):
        x = Tensor(rand((2, 1, 4, 4), seed=11))
        rep = grad_check(lambda t: adversarial_gen(sigmoid(t)), x, tol=1e-4)
        assert rep.passed, rep.max_rel_err

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            adversarial_gen(Tensor(rand((2, 2))))


class TestTotalLoss:
    def test_weighted_sum_arithmetic(self):
        # frozen example: 1 + 0.2*1 + 0.001*2 + 0.005*0.8 = 1.206
        w = LossWeights()
        assert 1.0 + w.alpha * 1.0 + w.beta * 2.0 + w.gamma * 0.8 == 1.206

    def test_breakdown_identity(self):
        a, b = img_pair(12, 32, 32)
        d = Tensor(np.full(1, 0.4))
        w = LossWeights()
        total, parts = total_loss(a, b, d, w)
        recon = (parts["l1"] + w.alpha * parts["ms_ssim"]
                 + w.beta * parts["perceptual"] + w.gamma * parts["adv"])
        assert abs(total.item() - recon) < 1e-12
        assert parts["total"] == total.item()

    def test_zero_weights_skip_terms(self):
        a, b = img_pair(13, 32, 32)
        total, parts = total_loss(a, b, None, LossWeights(0.0, 0.0, 0.0))
        assert parts["ms_ssim"] == parts["perceptual"] == parts["adv"] == 0.0
        assert total.item() == pytest.approx(parts["l1"], abs=1e-15)

    def test_missing_discriminator_skips_adv(self):
        a, b = img_pair(14, 32, 32)
        _, parts = total_loss(a, b, None)
        assert parts["adv"] == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(alpha=-0.1)

    def test_gradient_of_total(self):
        a, b = img_pair(15, 16, 16)
        d = Tensor(np.full(1, 0.7))
        rep = grad_check(lambda t: total_loss(t, b, d, levels=1)[0],
                         a, tol=1e-3)
        assert rep.passed, rep.max_rel_err
