import tracemalloc

import numpy as np
import pytest

from dwgan import tensor
from dwgan.metrics import (DEFAULT_MSSSIM_WEIGHTS, MsSsimConfig, SsimConfig,
                           fit_levels, gaussian_window, gray_stats, ms_ssim,
                           ms_ssim_tensor, psnr, ssim, ssim_and_ms_ssim,
                           ssim_components)
from dwgan.tensor import ShapeError, Tensor, avg_pool2, clip_min, power


def rand_img(shape, seed=0, lo=0.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


def ssim_direct(a: np.ndarray, b: np.ndarray, cfg: SsimConfig) -> float:
    """Naive per-pixel double-loop oracle over the valid region."""
    win = gaussian_window(cfg.window_size, cfg.sigma)
    k = cfg.window_size
    _, c, h, w = a.shape
    vals = []
    for ci in range(c):
        for i in range(h - k + 1):
            for j in range(w - k + 1):
                pa = a[0, ci, i:i + k, j:j + k]
                pb = b[0, ci, i:i + k, j:j + k]
                mu_a = (win * pa).sum()
                mu_b = (win * pb).sum()
                var_a = (win * pa * pa).sum() - mu_a ** 2
                var_b = (win * pb * pb).sum() - mu_b ** 2
                cov = (win * pa * pb).sum() - mu_a * mu_b
                lum = (2 * mu_a * mu_b + cfg.c1) / (mu_a ** 2 + mu_b ** 2 + cfg.c1)
                cs = (2 * cov + cfg.c2) / (var_a + var_b + cfg.c2)
                vals.append(lum * cs)
    return float(np.mean(vals))


class TestPsnr:
    def test_identical_capped(self):
        x = rand_img((3, 8, 8))
        assert psnr(x, x) == 100.0

    def test_uniform_difference(self):
        a = np.full((3, 8, 8), 0.5)
        assert abs(psnr(a, a + 0.1) - 20.0) < 1e-9

    def test_255_scale(self):
        a = np.full((3, 8, 8), 100.0)
        val = psnr(a, a + 1.0, dynamic_range=255.0)
        assert abs(val - 20 * np.log10(255)) < 1e-9

    def test_symmetry(self):
        a, b = rand_img((3, 8, 8), 1), rand_img((3, 8, 8), 2)
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(rand_img((3, 8, 8)), rand_img((3, 8, 9)))


class TestSsim:
    def test_self_is_one(self):
        x = rand_img((1, 3, 16, 16), 3)
        mean, smap = ssim(x, x)
        assert mean == 1.0
        np.testing.assert_array_equal(smap, 1.0)

    def test_inverted_binary_negative_structure(self):
        rng = np.random.default_rng(4)
        x = (rng.uniform(0, 1, (1, 1, 16, 16)) > 0.5).astype(np.float64)
        _, cs, _ = ssim_components(Tensor(x), Tensor(1.0 - x))
        assert cs.item() < 0

    def test_matches_direct_oracle(self):
        cfg = SsimConfig()
        for seed in range(3):
            a = rand_img((1, 1, 32, 32), seed=10 + seed)
            b = np.clip(a + rand_img((1, 1, 32, 32), 20 + seed, -0.2, 0.2), 0, 1)
            mean, _ = ssim(a, b, cfg)
            assert abs(mean - ssim_direct(a, b, cfg)) < 1e-8

    def test_smaller_than_window_errors(self):
        with pytest.raises(ShapeError):
            ssim(rand_img((1, 1, 8, 8)), rand_img((1, 1, 8, 8)))

    def test_symmetry(self):
        a, b = rand_img((1, 3, 16, 16), 5), rand_img((1, 3, 16, 16), 6)
        assert ssim(a, b)[0] == pytest.approx(ssim(b, a)[0], abs=1e-15)

    def test_cs_translation_invariant(self):
        a, b = rand_img((1, 1, 16, 16), 7), rand_img((1, 1, 16, 16), 8)
        _, cs0, _ = ssim_components(Tensor(a), Tensor(b))
        _, cs1, _ = ssim_components(Tensor(a + 0.1), Tensor(b + 0.1))
        assert cs0.item() == pytest.approx(cs1.item(), abs=1e-12)


class TestMsSsim:
    def test_self_is_one(self):
        x = rand_img((1, 3, 32, 32), 9)
        assert ms_ssim(x, x) == 1.0

    def test_single_level_unit_weight_is_ssim(self):
        a = rand_img((1, 1, 16, 16), 11)
        b = rand_img((1, 1, 16, 16), 12)
        cfg = MsSsimConfig(weights=(1.0,))
        assert ms_ssim(a, b, cfg) == pytest.approx(ssim(a, b)[0], abs=1e-12)

    def test_noise_monotonicity(self):
        x = rand_img((1, 3, 64, 64), 13, 0.2, 0.8)
        noise = np.random.default_rng(14).normal(size=x.shape)
        vals = [ms_ssim(x, np.clip(x + amp * noise, 0, 1))
                for amp in (0.02, 0.08, 0.2)]
        assert vals[0] > vals[1] > vals[2]

    def test_auto_reduction_warns(self, caplog):
        a = rand_img((1, 1, 32, 32), 15)
        with caplog.at_level("WARNING"):
            ms_ssim(a, a)
        assert any("reducing levels" in r.message for r in caplog.records)

    def test_fitted_levels_keep_the_bits(self, caplog):
        a = rand_img((2, 3, 32, 32), 16)
        b = rand_img((2, 3, 32, 32), 17)
        fitted = fit_levels(MsSsimConfig(), 32, 32)
        assert fitted.weights == DEFAULT_MSSSIM_WEIGHTS[:2]
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert ms_ssim(a, b, fitted) == ms_ssim(a, b)
        # only the unfitted call reduces, and so warns
        assert len(caplog.records) == 1

    def test_too_small_errors(self):
        x = rand_img((1, 1, 8, 8))
        with pytest.raises(ShapeError):
            ms_ssim(x, x)

    @pytest.mark.parametrize("shape, weights", [
        ((1, 3, 64, 64), DEFAULT_MSSSIM_WEIGHTS[:3]),
        ((1, 3, 176, 176), DEFAULT_MSSSIM_WEIGHTS),
        ((2, 1, 16, 16), (1.0,)),
        ((1, 3, 16, 16), (0.3,)),
    ])
    def test_shared_level0_keeps_the_bits(self, shape, weights):
        cfg = MsSsimConfig(weights=weights)
        a = rand_img(shape, 18)
        b = np.clip(a + rand_img(shape, 19, -0.3, 0.3), 0, 1)
        assert ssim_and_ms_ssim(a, b, cfg) == (ssim(a, b, cfg.ssim)[0],
                                               ms_ssim(a, b, cfg))

    def test_bounded(self):
        for seed in range(4):
            a = rand_img((1, 1, 32, 32), 30 + seed)
            b = rand_img((1, 1, 32, 32), 40 + seed)
            assert -1.0 <= ms_ssim(a, b) <= 1.0


def ms_ssim_full(a: Tensor, b: Tensor, cfg: MsSsimConfig) -> Tensor:
    """Reference MS-SSIM that builds every component at every level and
    keeps them all, combining them as ms_ssim_tensor does."""
    w = np.asarray(cfg.weights) / np.sum(cfg.weights)
    result = None
    for m in range(cfg.levels):
        lum, cs, smap = ssim_components(a, b, cfg.ssim)
        if m < cfg.levels - 1:
            term = power(clip_min(cs, 1e-6), float(w[m]))
            a, b = avg_pool2(a), avg_pool2(b)
        elif w[m] == 1.0:
            term = smap.mean()
        else:
            term = power(clip_min(smap, 1e-6), float(w[m])).mean()
        result = term if result is None else result * term
    return result


class TestWorkingSet:
    """SSIM and MS-SSIM keep each map only until its last use, and the
    levels below the coarsest skip the luminance terms, with the same
    floats (and gradients) as the full computation."""

    @pytest.mark.parametrize("shape, weights", [
        ((1, 3, 64, 64), DEFAULT_MSSSIM_WEIGHTS[:3]),
        ((2, 3, 32, 48), DEFAULT_MSSSIM_WEIGHTS[:2]),
        ((1, 1, 16, 16), (1.0,)),
        ((1, 1, 16, 16), (0.3,)),
    ])
    def test_ms_ssim_equals_full_components(self, shape, weights):
        cfg = MsSsimConfig(weights=weights)
        x = rand_img(shape, 50)
        y = np.clip(x + rand_img(shape, 51, -0.3, 0.3), 0, 1)
        a, a_ref = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        got, want = ms_ssim_tensor(a, Tensor(y), cfg), ms_ssim_full(
            a_ref, Tensor(y), cfg)
        assert got.item() == want.item()
        got.backward()
        want.backward()
        np.testing.assert_array_equal(a.grad, a_ref.grad)

    def test_ssim_peak_is_seven_maps(self):
        # seven maps plus one im2col band of slack, although the window
        # filter builds none (peak 2.28 MB here, about 6.8 maps); keeping
        # every moment and product map to the end peaked at 4.56 MB here,
        # about 10.5 maps plus the band
        x = rand_img((1, 3, 128, 128), 52)
        y = np.clip(x + rand_img(x.shape, 53, -0.2, 0.2), 0, 1)
        want = ssim(x, y)[0]
        tracemalloc.start()
        try:
            got = ssim(x, y)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        map_bytes = 3 * 118 * 118 * 8
        bound = 7 * map_bytes + tensor._COL_BAND_BYTES
        assert peak <= bound, (peak, bound)


class TestGrayStats:
    def test_all_black(self):
        mean, std = gray_stats([np.zeros((3, 8, 8))])
        assert mean == 0.0 and std == 0.0

    def test_constant_half(self):
        mean, _ = gray_stats([np.full((3, 8, 8), 0.5)])
        assert mean == pytest.approx(127.5)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            gray_stats([])

    def test_pooled_over_images(self):
        imgs = [np.zeros((3, 4, 4)), np.ones((3, 4, 4))]
        mean, std = gray_stats(imgs)
        assert mean == pytest.approx(127.5)
        assert std == pytest.approx(127.5)
