import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from dwgan import train
from dwgan.hazesim import HOMOGENEOUS, HazePair, make_base_images, make_dataset
from dwgan.losses import LossWeights
from dwgan.model import Discriminator, Generator, ModelConfig
from dwgan.metrics import psnr, ssim
from dwgan.train import (ABLATION_CONFIGS, Adam, TrainConfig, ablation_run,
                         augment, checkpoint_hash, evaluate, lr_at, train_gan)
from dwgan.tensor import Tensor


def small_model_cfg(**kw):
    base = dict(base_channels=4, depth=2, encoder_channels=(4, 8, 8))
    base.update(kw)
    return ModelConfig(**base)


def small_dataset(n=8, size=32, seed=0):
    rng = np.random.default_rng(seed)
    base = make_base_images(rng, 4, size, size)
    return make_dataset(n, HOMOGENEOUS, base, rng)


NO_ADV = LossWeights(gamma=0.0)


def smoke_cfg(**kw):
    base = dict(crop=16, batch=2, total_steps=50, eval_every=0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize("kw, message", [
        (dict(crop=0), "crop and batch"), (dict(batch=0), "crop and batch"),
        (dict(total_steps=-1), "total_steps"), (dict(lr0=0.0), "lr0"),
        (dict(lr0=-1e-4), "lr0"), (dict(lr0=float("nan")), "lr0"),
        (dict(lr0=float("inf")), "lr0"), (dict(eval_every=-1), "eval_every"),
    ], ids=["crop", "batch", "steps", "lr_zero", "lr_negative", "lr_nan",
            "lr_inf", "eval_every"])
    def test_untrainable_values_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kw)

    def test_smallest_values_accepted(self):
        cfg = TrainConfig(crop=1, batch=1, total_steps=0, eval_every=0,
                          lr0=1e-300)
        assert (cfg.crop, cfg.batch, cfg.total_steps) == (1, 1, 0)

    def test_holdout_fraction_is_a_constant(self):
        assert TrainConfig().holdout_fraction == 0.2
        assert "holdout_fraction" not in [f.name for f in
                                          fields(TrainConfig)]


class TestSchedule:
    def test_initial_rate(self):
        assert lr_at(0, TrainConfig()) == 1e-4

    def test_toy_milestone_arithmetic(self):
        # 800 steps: milestones at 300, 500, 600
        cfg = TrainConfig(total_steps=800)
        assert lr_at(299, cfg) == 1e-4
        assert lr_at(350, cfg) == 5e-5
        assert lr_at(799, cfg) == pytest.approx(1.25e-5, abs=1e-20)

    def test_non_increasing(self):
        cfg = TrainConfig(total_steps=100)
        rates = [lr_at(s, cfg) for s in range(100)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestAugment:
    def test_output_shape(self):
        pair = small_dataset(1)[0]
        hz, cl = augment(pair, np.random.default_rng(0), crop=16)
        assert hz.shape == (3, 16, 16) and cl.shape == (3, 16, 16)

    def test_identical_transform_on_both(self):
        # feed the same array as hazy and clear; outputs must stay equal
        img = small_dataset(1)[0].clear
        pair = HazePair(clear=img, hazy=img.copy(),
                        params=small_dataset(1)[0].params)
        hz, cl = augment(pair, np.random.default_rng(1), crop=16)
        np.testing.assert_array_equal(hz, cl)

    def test_values_come_from_source(self):
        pair = small_dataset(1)[0]
        hz, _ = augment(pair, np.random.default_rng(2), crop=16)
        assert np.isin(hz, pair.hazy).all()

    def test_rng_determinism(self):
        pair = small_dataset(1)[0]
        a = augment(pair, np.random.default_rng(3), crop=16)
        b = augment(pair, np.random.default_rng(3), crop=16)
        np.testing.assert_array_equal(a[0], b[0])

    def test_crop_too_large(self):
        with pytest.raises(ValueError):
            augment(small_dataset(1)[0], np.random.default_rng(0), crop=64)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # bias correction makes |update| = lr * |g| / (|g| + eps) on step 1
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.array([1.0, -2.0, 0.5, 3.0])
        opt = Adam({"p": p})
        opt.step(lr=0.01)
        np.testing.assert_allclose(np.abs(p.data), 0.01, rtol=1e-6)
        np.testing.assert_array_equal(np.sign(p.data), -np.sign(p.grad))

    def test_none_grad_skipped(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adam({"p": p})
        opt.step(lr=0.1)
        np.testing.assert_array_equal(p.data, 1.0)

    def test_nonfinite_grad_aborts_with_name(self):
        p = Tensor(np.ones(3), requires_grad=True)
        p.grad = np.array([1.0, np.nan, 0.0])
        opt = Adam({"layer.weight": p})
        with pytest.raises(FloatingPointError, match="layer.weight"):
            opt.step(lr=0.1)

    def test_constant_gradient_drifts_linearly(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        opt = Adam({"p": p})
        for _ in range(10):
            p.grad = np.array([1.0])
            opt.step(lr=0.01)
        assert p.data[0] == pytest.approx(-0.1, rel=1e-4)

    def test_in_place_matches_textbook_bits(self):
        # the in-place update keeps the textbook's elementwise order, so
        # parameters and moments match it bit for bit, for every rank and
        # across gradient scales and learning rates
        rng = np.random.default_rng(3)
        shapes = {"w": (4, 3, 3, 3), "b": (1, 4, 1, 1), "v": (5,), "s": ()}
        params = {k: Tensor(rng.normal(size=s), requires_grad=True)
                  for k, s in shapes.items()}
        arrays = {k: p.data for k, p in params.items()}
        ref = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        opt = Adam(params)
        # Adam's default constants, written out here
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 13):
            lr = 1e-3 * 0.5 ** (t // 4)
            for k, p in params.items():
                p.grad = rng.normal(size=shapes[k]) * 10.0 ** (t % 5 - 3)
            opt.step(lr)
            for k, p in params.items():
                g = p.grad
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                mhat = m[k] / (1 - b1 ** t)
                vhat = v[k] / (1 - b2 ** t)
                ref[k] = ref[k] - lr * mhat / (np.sqrt(vhat) + eps)
                assert p.data.tobytes() == ref[k].tobytes(), (t, k)
                assert opt.m[k].tobytes() == m[k].tobytes()
                assert opt.v[k].tobytes() == v[k].tobytes()
                assert p.data is arrays[k]


class TestTrainGan:
    def test_empty_dataset_rejected(self):
        gen = Generator(small_model_cfg(), seed=0)
        with pytest.raises(ValueError, match="held out"):
            train_gan(gen, None, [], smoke_cfg(weights=NO_ADV))

    def test_one_pair_rejected(self, tmp_path):
        # the one pair would be both trained on and held out
        gen = Generator(small_model_cfg(), seed=0)
        with pytest.raises(ValueError, match="held out"):
            train_gan(gen, None, small_dataset(1), smoke_cfg(weights=NO_ADV),
                      out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_unpaddable_holdout_checked_before_the_directory(self, tmp_path):
        # small_model_cfg's size multiple is 8, so a 4 px side cannot be
        # padded by one reflection; the last pair is held out. (The crop
        # checks are run through the CLI in test_cli.py.)
        data = small_dataset(4)
        data[-1] = replace(data[-1], hazy=data[-1].hazy[:, :4, :4])
        gen = Generator(small_model_cfg(), seed=0)
        with pytest.raises(ValueError, match="4x4 image too small"):
            train_gan(gen, None, data, smoke_cfg(weights=NO_ADV),
                      out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_evaluate_scores_dehaze_of_whole_pairs(self):
        # 40 px is not a multiple of the default encoder's 16, so each
        # held-out pair is padded and cropped back by Generator.dehaze
        gen = Generator(ModelConfig(base_channels=4, depth=2), seed=0)
        pairs = small_dataset(3, size=40)
        outs = [gen.dehaze(p.hazy) for p in pairs]
        want_psnr = np.mean([psnr(o, p.clear) for o, p in zip(outs, pairs)])
        want_ssim = np.mean([ssim(o[None], p.clear[None])[0]
                             for o, p in zip(outs, pairs)])
        assert evaluate(gen, pairs) == (want_psnr, want_ssim)

    def test_adv_requires_discriminator(self):
        gen = Generator(small_model_cfg(), seed=0)
        with pytest.raises(ValueError):
            train_gan(gen, None, small_dataset(), smoke_cfg())

    def test_zero_weight_turns_term_off(self):
        # a term is off exactly when its weight is 0: no MS-SSIM term, and
        # a discriminator that is given but has gamma 0 is never trained
        cfg = small_model_cfg()
        gen, disc = Generator(cfg, seed=0), Discriminator(cfg, seed=1)
        before = {k: p.data.copy() for k, p in disc.parameters().items()}
        res = train_gan(gen, disc, small_dataset(), smoke_cfg(
            total_steps=2, weights=LossWeights(alpha=0.0, gamma=0.0)))
        for row in res.log_rows:
            assert row["ms_ssim"] == 0.0 and row["adv"] == 0.0
            assert row["perceptual"] > 0.0
        for k, p in disc.parameters().items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_zero_steps_checkpoint_only(self, tmp_path):
        gen = Generator(small_model_cfg(), seed=0)
        res = train_gan(gen, None, small_dataset(),
                        smoke_cfg(total_steps=0, weights=NO_ADV),
                        out_dir=tmp_path)
        assert res.log_rows == []
        assert (tmp_path / "final" / "manifest.json").exists()

    def test_smoke_run_log_and_identity(self, tmp_path, monkeypatch):
        cfg = small_model_cfg()
        gen = Generator(cfg, seed=0)
        disc = Discriminator(cfg, seed=1)
        tcfg = smoke_cfg(eval_every=25)
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(train, "evaluate", counted)
        res = train_gan(gen, disc, small_dataset(), tcfg, out_dir=tmp_path)
        assert len(res.log_rows) == 50
        w = tcfg.weights
        for row in res.log_rows:
            recon = (row["l1"] + w.alpha * row["ms_ssim"]
                     + w.beta * row["perceptual"] + w.gamma * row["adv"])
            assert abs(row["total"] - recon) < 1e-12
        assert [e.step for e in res.evals] == [25, 50]
        # the last step is on the schedule, so its scores are the final ones
        assert len(calls) == 2
        assert (res.final_psnr, res.final_ssim) == (res.evals[-1].psnr,
                                                    res.evals[-1].ssim)
        assert (tmp_path / "log.csv").exists()

    def test_discriminator_grads_not_computed_for_generator(self,
                                                          monkeypatch):
        # the adversarial term passes D's gradient on to the generator's
        # output only: D's weights hold no gradient when G's Adam steps
        cfg = small_model_cfg()
        gen, disc = Generator(cfg, seed=0), Discriminator(cfg, seed=1)
        gen_ids = {id(p) for p in gen.parameters().values()}
        disc_params = disc.parameters()
        held = []
        adam_step = Adam.step

        def step(opt, lr):
            if {id(p) for p in opt.params.values()} == gen_ids:
                held.append([n for n, p in disc_params.items()
                             if p.grad is not None])
            adam_step(opt, lr)

        monkeypatch.setattr(Adam, "step", step)
        train_gan(gen, disc, small_dataset(), smoke_cfg(total_steps=3))
        assert held == [[], [], []]
        assert disc.parameters().keys() == disc_params.keys()

    def test_ms_ssim_reduction_warned_once(self, caplog):
        gen = Generator(small_model_cfg(), seed=0)
        with caplog.at_level("WARNING", logger="dwgan.metrics"):
            train_gan(gen, None, small_dataset(),
                      smoke_cfg(total_steps=3, weights=NO_ADV))
        warned = [r for r in caplog.records
                  if "reducing levels" in r.getMessage()]
        assert len(warned) == 1

    def test_determinism(self, tmp_path):
        hashes, finals = [], []
        for run in ("a", "b"):
            cfg = small_model_cfg()
            gen = Generator(cfg, seed=0)
            disc = Discriminator(cfg, seed=1)
            res = train_gan(gen, disc, small_dataset(),
                            smoke_cfg(total_steps=10),
                            out_dir=tmp_path / run)
            hashes.append(checkpoint_hash(res.checkpoint_dir))
            finals.append(res.final_psnr)
        assert hashes[0] == hashes[1]
        assert finals[0] == finals[1]

    def test_writes_only_the_final_checkpoint(self, tmp_path):
        gen = Generator(small_model_cfg(), seed=0)
        train_gan(gen, None, small_dataset(),
                  smoke_cfg(total_steps=4, weights=NO_ADV), out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["final",
                                                             "log.csv"]

    def test_gate_config_traced_peak_bounded(self):
        # three steps at the trainability-gate config (crop 32, batch 4,
        # base 16, depth 2). The graph keeps only what backward reads, so
        # the peak, Adam's moments included, is about 31 MB; it was 60 MB
        # when every graph node carried its forward data.
        cfg = ModelConfig(base_channels=16, depth=2)
        gen, disc = Generator(cfg, seed=7), Discriminator(cfg, seed=8)
        data = small_dataset(n=8, size=64, seed=7)
        tcfg = TrainConfig(crop=32, batch=4, total_steps=3, eval_every=0,
                           seed=7, lr0=1e-3)
        tracemalloc.start()
        try:
            train_gan(gen, disc, data, tcfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 45e6, peak

    def test_divergence_guard(self):
        gen = Generator(small_model_cfg(), seed=0)
        first = next(iter(gen.parameters().values()))
        first.data = np.full_like(first.data, np.nan)
        with pytest.raises(FloatingPointError):
            train_gan(gen, None, small_dataset(),
                      smoke_cfg(total_steps=5, weights=NO_ADV))


class TestAblation:
    def test_seven_rows_with_reference(self):
        rows = ablation_run(smoke_cfg(total_steps=2), small_model_cfg(), 6)
        assert len(rows) == 7
        for row, ref in zip(rows, ABLATION_CONFIGS):
            assert row.label == ref[0]
            assert row.ref_psnr == ref[7] and row.ref_ssim == ref[8]
            assert not row.reference_reproduced
            assert row.losses["l1"]
        assert rows[0].losses["adv"] is False
        assert rows[6].losses["adv"] is True

    def test_reference_column_values(self):
        # reference anchors: 18.15/0.7483 for the vanilla branch up to
        # 21.99/0.856 with every module and loss enabled
        assert ABLATION_CONFIGS[0][7:] == (18.15, 0.7483)
        assert ABLATION_CONFIGS[3][7:] == (21.52, 0.8403)
        assert ABLATION_CONFIGS[6][7:] == (21.99, 0.856)
