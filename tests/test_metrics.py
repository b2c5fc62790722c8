import numpy as np
import pytest

from dwgan.metrics import (DEFAULT_MSSSIM_WEIGHTS, MsSsimConfig, SsimConfig,
                           fit_levels, gaussian_window, gray_stats, ms_ssim,
                           psnr, ssim, ssim_components)
from dwgan.tensor import ShapeError, Tensor


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

    def test_bounded(self):
        for seed in range(4):
            a = rand_img((1, 1, 32, 32), 30 + seed)
            b = rand_img((1, 1, 32, 32), 40 + seed)
            assert -1.0 <= ms_ssim(a, b) <= 1.0


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
