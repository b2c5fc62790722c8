import numpy as np
import pytest

from dwgan import hazesim
from dwgan.metrics import psnr


class TestTransmission:
    def test_zero_depth(self):
        t = hazesim.transmission(np.zeros((4, 4)), beta=1.3)
        np.testing.assert_array_equal(t, 1.0)

    def test_zero_beta(self):
        rng = np.random.default_rng(0)
        t = hazesim.transmission(rng.uniform(0, 5, (4, 4)), beta=0.0)
        np.testing.assert_array_equal(t, 1.0)

    def test_analytic_half(self):
        t = hazesim.transmission(np.full((1, 1), np.log(2)), beta=1.0)
        np.testing.assert_allclose(t, 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hazesim.transmission(np.full((2, 2), -1.0), beta=1.0)
        with pytest.raises(ValueError):
            hazesim.transmission(np.ones((2, 2)), beta=-0.1)


class TestApplyHaze:
    def test_no_haze(self):
        j = np.random.default_rng(1).uniform(0, 1, (3, 4, 4))
        out = hazesim.apply_haze(j, np.ones((4, 4)), np.full(3, 0.8))
        np.testing.assert_array_equal(out, j)

    def test_opaque_haze(self):
        j = np.random.default_rng(2).uniform(0, 1, (3, 4, 4))
        a = np.array([0.7, 0.8, 0.9])
        out = hazesim.apply_haze(j, np.zeros((4, 4)), a)
        np.testing.assert_allclose(out, np.broadcast_to(a[:, None, None], out.shape))

    def test_midpoint(self):
        out = hazesim.apply_haze(np.full((3, 1, 1), 0.2), np.full((1, 1), 0.5),
                                 np.full(3, 0.8))
        np.testing.assert_allclose(out, 0.5)

    def test_range_violation(self):
        with pytest.raises(ValueError):
            hazesim.apply_haze(np.full((3, 2, 2), 1.5), np.ones((2, 2)),
                               np.full(3, 0.8))

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(3)
        j = rng.uniform(0, 1, (3, 8, 8))
        t = rng.uniform(0, 1, (8, 8))
        a = np.full(3, 0.85)
        out = hazesim.apply_haze(j, t, a)
        lo = np.minimum(j, a[:, None, None])
        hi = np.maximum(j, a[:, None, None])
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


class TestSampling:
    def test_parameter_ranges(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = hazesim.sample_homogeneous(rng, 16, 16)
            assert 0.6 <= p.beta <= 1.8
            assert np.all(0.7 <= p.a) and np.all(p.a <= 1.0)
            # t = exp(-beta * d) of a depth d in [0, 1]
            assert p.t.min() >= np.exp(-p.beta) and p.t.max() <= 1

    def test_seed_determinism(self):
        p1 = hazesim.sample_homogeneous(np.random.default_rng(7), 8, 8)
        p2 = hazesim.sample_homogeneous(np.random.default_rng(7), 8, 8)
        assert p1.beta == p2.beta
        np.testing.assert_array_equal(p1.t, p2.t)

    def test_beta_mean(self):
        rng = np.random.default_rng(5)
        betas = [rng.uniform(*hazesim.BETA_RANGE) for _ in range(10_000)]
        assert abs(np.mean(betas) - 1.2) < 0.02


class TestNonhomogeneousField:
    def test_bounded(self):
        rng = np.random.default_rng(7)
        f = hazesim.nonhomogeneous_field(rng, 32, 32)
        assert f.min() >= 0.0 and f.max() <= 1.0

    def test_deterministic(self):
        f1 = hazesim.nonhomogeneous_field(np.random.default_rng(8), 16, 16)
        f2 = hazesim.nonhomogeneous_field(np.random.default_rng(8), 16, 16)
        np.testing.assert_array_equal(f1, f2)

    def test_too_small(self):
        with pytest.raises(ValueError):
            hazesim.nonhomogeneous_field(np.random.default_rng(9), 4, 16)


# Full-grid references for the hazesim fields, which build their
# coordinates as (H, 1) and (1, W) factors: each element goes through the
# same operations in the same order, so the two must agree bit for bit.

def _grid_ramp(rng, h, w):
    theta = rng.uniform(0, 2 * np.pi)
    yy, xx = np.mgrid[0:h, 0:w]
    return np.cos(theta) * xx / max(w - 1, 1) + np.sin(theta) * yy / max(h - 1, 1)


def _grid_radial(rng, h, w):
    cy, cx = rng.uniform(0.2, 0.8) * h, rng.uniform(0.2, 0.8) * w
    yy, xx = np.mgrid[0:h, 0:w]
    return np.hypot((yy - cy) / h, (xx - cx) / w)


def _grid_smooth_noise(rng, h, w, cells=4):
    coarse = rng.standard_normal((cells, cells))
    ys = np.linspace(0, cells - 1, h)
    xs = np.linspace(0, cells - 1, w)
    y0 = np.clip(ys.astype(int), 0, cells - 2)
    x0 = np.clip(xs.astype(int), 0, cells - 2)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    c00 = coarse[np.ix_(y0, x0)]
    c01 = coarse[np.ix_(y0, x0 + 1)]
    c10 = coarse[np.ix_(y0 + 1, x0)]
    c11 = coarse[np.ix_(y0 + 1, x0 + 1)]
    return (c00 * (1 - fy) * (1 - fx) + c01 * (1 - fy) * fx
            + c10 * fy * (1 - fx) + c11 * fy * fx)


def _grid_nonhomogeneous(rng, h, w):
    field = np.zeros((h, w))
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(hazesim.BLOBS):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        sy = rng.uniform(0.08, 0.35) * h
        sx = rng.uniform(0.08, 0.35) * w
        amp = rng.uniform(0.3, 0.9)
        field += amp * np.exp(-(((yy - cy) / sy) ** 2 + ((xx - cx) / sx) ** 2))
    return np.clip(field, 0.0, 1.0)


def _grid_checkerboard(rng, h, w):
    cell = int(rng.integers(4, max(5, h // 4)))
    c0 = rng.uniform(0.05, 0.95, size=3)
    c1 = rng.uniform(0.05, 0.95, size=3)
    yy, xx = np.mgrid[0:h, 0:w]
    mask = ((yy // cell + xx // cell) % 2).astype(np.float64)
    return c0[:, None, None] * (1 - mask) + c1[:, None, None] * mask


class TestFactoredFields:
    @pytest.mark.parametrize("size", [(8, 8), (8, 21), (33, 10), (17, 17),
                                      (64, 48)])
    @pytest.mark.parametrize("field, reference", [
        (hazesim._ramp_field, _grid_ramp),
        (hazesim._radial_field, _grid_radial),
        (hazesim._smooth_noise, _grid_smooth_noise),
        (lambda rng, h, w: hazesim._smooth_noise(rng, h, w, cells=6),
         lambda rng, h, w: _grid_smooth_noise(rng, h, w, cells=6)),
        (hazesim.nonhomogeneous_field, _grid_nonhomogeneous),
        (hazesim.checkerboard, _grid_checkerboard),
    ])
    def test_equals_full_grid(self, field, reference, size):
        for seed in range(5):
            got = field(np.random.default_rng(seed), *size)
            want = reference(np.random.default_rng(seed), *size)
            np.testing.assert_array_equal(got, want, strict=True)


class TestMakeDataset:
    def make(self, n, mode, seed=0):
        rng = np.random.default_rng(seed)
        base = hazesim.make_base_images(rng, 4, 32, 32)
        return hazesim.make_dataset(n, mode, base, rng)

    def test_empty(self):
        assert self.make(0, hazesim.HOMOGENEOUS) == []

    def test_empty_source_errors(self):
        with pytest.raises(ValueError):
            hazesim.make_dataset(2, hazesim.HOMOGENEOUS, [],
                                 np.random.default_rng(0))

    @pytest.mark.parametrize("mode", [hazesim.HOMOGENEOUS,
                                      hazesim.NONHOMOGENEOUS])
    def test_identity_from_stored_params(self, mode):
        for pair in self.make(8, mode, seed=1):
            t = pair.params.t
            recon = hazesim.apply_haze(pair.clear, t, pair.params.a)
            assert np.max(np.abs(recon - pair.hazy)) < 1e-12

    def test_homogeneous_ranges(self):
        for pair in self.make(16, hazesim.HOMOGENEOUS, seed=2):
            assert 0.6 <= pair.params.beta <= 1.8
            assert np.all(0.7 <= pair.params.a) and np.all(pair.params.a <= 1.0)

    def test_inversion_recovers_clear(self):
        for pair in self.make(6, hazesim.HOMOGENEOUS, seed=3):
            t = pair.params.t
            j = hazesim.invert_haze(pair.hazy, t, pair.params.a)
            mask = t >= 0.05
            assert np.max(np.abs((j - pair.clear)[:, mask])) < 1e-10

    def test_psnr_monotone_in_beta(self):
        rng = np.random.default_rng(10)
        clear = hazesim.make_base_images(rng, 1, 32, 32)[0]
        depth = hazesim.sample_depth(rng, 32, 32)
        a = np.full(3, 0.9)
        values = []
        for beta in (0.4, 0.8, 1.2, 1.6, 2.0):
            hazy = hazesim.apply_haze(clear, hazesim.transmission(depth, beta), a)
            values.append(psnr(hazy, clear))
        assert all(v0 > v1 for v0, v1 in zip(values, values[1:]))
