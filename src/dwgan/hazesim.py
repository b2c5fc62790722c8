"""Synthetic hazy-image generation from the atmospheric scattering model.

A hazy observation is I = J*t + A*(1 - t) with a transmission map t in
[0, 1] and atmospheric light A. Homogeneous haze derives t = exp(-beta * d)
from a relative depth field d in [0, 1], with scattering coefficient
beta ~ U[0.6, 1.8] and A ~ U[0.7, 1.0]; non-homogeneous haze sets the
density (1 - t) directly, from random anisotropic Gaussian blobs, and
records beta as 0. ``HazeParams`` holds t either way.

Images are float64 arrays of shape (3, H, W) in [0, 1]. No external data
is needed: procedural clear images (checkerboards, gradients, smooth
noise, stripes) are bundled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HOMOGENEOUS = "homogeneous"
NONHOMOGENEOUS = "nonhomogeneous"

BETA_RANGE = (0.6, 1.8)
A_RANGE = (0.7, 1.0)


@dataclass
class HazeParams:
    """Scattering parameters for one image: the atmospheric light, the
    scattering coefficient (0 for non-homogeneous haze, whose density is
    drawn directly) and the transmission map t the haze was made with."""

    a: np.ndarray          # per-channel atmospheric light, shape (3,)
    beta: float
    t: np.ndarray          # (H, W), in [0, 1]

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64).reshape(3)
        self.t = np.asarray(self.t, dtype=np.float64)
        if np.any(self.a < 0) or np.any(self.a > 1):
            raise ValueError("atmospheric light must lie in [0, 1]")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if np.any(self.t < 0) or np.any(self.t > 1):
            raise ValueError("transmission must lie in [0, 1]")


@dataclass
class HazePair:
    clear: np.ndarray      # J, (3, H, W) in [0, 1]
    hazy: np.ndarray       # I, same shape
    params: HazeParams


def transmission(depth: np.ndarray, beta: float) -> np.ndarray:
    """t = exp(-beta * depth), elementwise."""
    depth = np.asarray(depth, dtype=np.float64)
    if np.any(depth < 0):
        raise ValueError("depth must be non-negative")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    return np.exp(-beta * depth)


def apply_haze(clear: np.ndarray, t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """I = J*t + A*(1 - t); a convex combination, so I stays in [0, 1]."""
    clear = np.asarray(clear, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64).reshape(3, 1, 1)
    if clear.ndim != 3 or clear.shape[0] != 3:
        raise ValueError(f"clear image must be (3, H, W), got {clear.shape}")
    if t.shape != clear.shape[1:]:
        raise ValueError(f"transmission shape {t.shape} != image {clear.shape[1:]}")
    if np.any(clear < 0) or np.any(clear > 1):
        raise ValueError("clear image values must lie in [0, 1]")
    if np.any(t < 0) or np.any(t > 1):
        raise ValueError("transmission must lie in [0, 1]")
    if np.any(a < 0) or np.any(a > 1):
        raise ValueError("atmospheric light must lie in [0, 1]")
    return clear * t[None] + a * (1.0 - t[None])


def invert_haze(hazy: np.ndarray, t: np.ndarray, a: np.ndarray,
                t_min: float = 0.05) -> np.ndarray:
    """Analytic inversion J = (I - A*(1 - t)) / t; valid where t >= t_min."""
    hazy = np.asarray(hazy, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64).reshape(3, 1, 1)
    tc = np.maximum(t, t_min)[None]
    return (hazy - a * (1.0 - t[None])) / tc


# -- synthetic depth fields and clear images ---------------------------------

def _ramp_field(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    theta = rng.uniform(0, 2 * np.pi)
    yy, xx = np.ogrid[0:h, 0:w]
    f = np.cos(theta) * xx / max(w - 1, 1) + np.sin(theta) * yy / max(h - 1, 1)
    return f


def _radial_field(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    cy, cx = rng.uniform(0.2, 0.8) * h, rng.uniform(0.2, 0.8) * w
    yy, xx = np.ogrid[0:h, 0:w]
    return np.hypot((yy - cy) / h, (xx - cx) / w)


def _smooth_noise(rng: np.random.Generator, h: int, w: int,
                  cells: int = 4) -> np.ndarray:
    coarse = rng.standard_normal((cells, cells))
    ys = np.linspace(0, cells - 1, h)
    xs = np.linspace(0, cells - 1, w)
    y0 = np.clip(ys.astype(int), 0, cells - 2)
    x0 = np.clip(xs.astype(int), 0, cells - 2)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    # weight the (h, cells) coarse rows, then gather columns: each
    # element is the product (c * wy) * wx of the bilinear formula
    top = coarse[y0] * (1 - fy)
    bottom = coarse[y0 + 1] * fy
    return (top[:, x0] * (1 - fx) + top[:, x0 + 1] * fx
            + bottom[:, x0] * (1 - fx) + bottom[:, x0 + 1] * fx)


def _to_unit(f: np.ndarray) -> np.ndarray:
    lo, hi = f.min(), f.max()
    if hi - lo < 1e-12:
        return np.zeros_like(f)
    return (f - lo) / (hi - lo)


def sample_depth(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """A smooth synthetic relative depth field scaled to [0, 1]."""
    kind = rng.integers(0, 3)
    if kind == 0:
        f = _ramp_field(rng, h, w)
    elif kind == 1:
        f = _radial_field(rng, h, w)
    else:
        f = _smooth_noise(rng, h, w)
    return _to_unit(f)


def sample_homogeneous(rng: np.random.Generator, h: int = 64,
                       w: int = 64) -> HazeParams:
    """beta ~ U[0.6, 1.8], scalar A ~ U[0.7, 1.0] replicated across
    channels, and t = exp(-beta * d) of a synthetic depth d in [0, 1]."""
    beta = rng.uniform(*BETA_RANGE)
    a = rng.uniform(*A_RANGE)
    t = transmission(sample_depth(rng, h, w), beta)
    return HazeParams(a=np.full(3, a), beta=beta, t=t)


def nonhomogeneous_field(rng: np.random.Generator, h: int, w: int,
                         blobs: int = 6) -> np.ndarray:
    """Sum of random anisotropic Gaussian bumps, clipped to [0, 1].

    The result is used directly as the haze density (1 - t).
    """
    if h < 8 or w < 8:
        raise ValueError("field must be at least 8x8")
    field = np.zeros((h, w))
    yy, xx = np.ogrid[0:h, 0:w]
    for _ in range(blobs):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        sy = rng.uniform(0.08, 0.35) * h
        sx = rng.uniform(0.08, 0.35) * w
        amp = rng.uniform(0.3, 0.9)
        field += amp * np.exp(-(((yy - cy) / sy) ** 2 + ((xx - cx) / sx) ** 2))
    return np.clip(field, 0.0, 1.0)


def checkerboard(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    cell = int(rng.integers(4, max(5, h // 4)))
    c0 = rng.uniform(0.05, 0.95, size=3)
    c1 = rng.uniform(0.05, 0.95, size=3)
    yy, xx = np.ogrid[0:h, 0:w]
    mask = ((yy // cell + xx // cell) % 2).astype(np.float64)
    return c0[:, None, None] * (1 - mask) + c1[:, None, None] * mask


def gradient_image(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    f = _to_unit(_ramp_field(rng, h, w))
    c0 = rng.uniform(0.0, 1.0, size=3)
    c1 = rng.uniform(0.0, 1.0, size=3)
    return c0[:, None, None] * (1 - f) + c1[:, None, None] * f


def noise_image(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    chans = [_to_unit(_smooth_noise(rng, h, w, cells=6)) for _ in range(3)]
    return np.stack(chans)


def stripe_image(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    period = int(rng.integers(3, 9))
    c0 = rng.uniform(0.05, 0.95, size=3)
    c1 = rng.uniform(0.05, 0.95, size=3)
    xx = np.arange(w)
    mask = ((xx // period) % 2).astype(np.float64)
    img = np.broadcast_to(mask, (h, w))
    return c0[:, None, None] * (1 - img) + c1[:, None, None] * img


_GENERATORS = (checkerboard, gradient_image, noise_image, stripe_image)


def make_base_images(rng: np.random.Generator, n: int, h: int = 64,
                     w: int = 64) -> list[np.ndarray]:
    """Procedural clear images so the pipeline runs with zero external data."""
    return [_GENERATORS[i % len(_GENERATORS)](rng, h, w) for i in range(n)]


def make_dataset(n: int, mode: str, base_images: list[np.ndarray],
                 rng: np.random.Generator) -> list[HazePair]:
    """n hazy/clear pairs with recorded parameters; deterministic under seed."""
    if n > 0 and not base_images:
        raise ValueError("no base images supplied")
    if mode not in (HOMOGENEOUS, NONHOMOGENEOUS):
        raise ValueError(f"unknown mode {mode!r}")
    pairs: list[HazePair] = []
    for i in range(n):
        clear = base_images[int(rng.integers(0, len(base_images)))]
        _, h, w = clear.shape
        if mode == HOMOGENEOUS:
            params = sample_homogeneous(rng, h, w)
        else:
            density = nonhomogeneous_field(rng, h, w)
            a = rng.uniform(*A_RANGE)
            params = HazeParams(a=np.full(3, a), beta=0.0, t=1.0 - density)
        pairs.append(HazePair(clear, apply_haze(clear, params.t, params.a),
                              params))
    return pairs
